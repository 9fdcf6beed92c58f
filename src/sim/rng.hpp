// Deterministic pseudo-random number generation.
//
// All randomness in the simulator flows through named, seeded Rng
// instances so that every run is exactly reproducible. We implement
// xoshiro256** (Blackman & Vigna) seeded through SplitMix64, rather
// than using std::mt19937, because the standard distributions are not
// guaranteed bit-identical across library implementations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace bg::sim {

/// SplitMix64 step; used for seeding and for cheap stateless mixing.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** generator. Deterministic across platforms.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);
  /// Derive a seed from a parent seed and a component name, so each
  /// subsystem gets an independent but reproducible stream.
  Rng(std::uint64_t seed, std::string_view component);

  std::uint64_t next();

  /// Fill `out` with the generator's output: each draw becomes eight
  /// bytes, least significant first, and a tail shorter than eight
  /// takes the low bytes of one more draw. Consumes ceil(size/8) draws;
  /// an empty span draws nothing.
  void fill(std::span<std::byte> out);

  /// Uniform in [0, bound). bound must be nonzero.
  std::uint64_t nextBelow(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double nextDouble();

  /// Exponentially distributed value with the given mean (for
  /// daemon inter-arrival jitter). Deterministic given the stream.
  double nextExp(double mean);

  /// Number of raw generator steps consumed so far. Fault models
  /// promise zero draws while disabled (the zero-RNG-when-clean
  /// contract); this counter is the witness. nextBelow() may step
  /// more than once (rejection sampling), so we count in next().
  std::uint64_t draws() const { return draws_; }

 private:
  std::uint64_t s_[4];
  std::uint64_t draws_ = 0;
};

}  // namespace bg::sim
