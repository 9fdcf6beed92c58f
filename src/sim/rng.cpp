#include "sim/rng.hpp"

#include <cmath>

namespace bg::sim {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {
std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

std::uint64_t hashName(std::string_view name) {
  // FNV-1a over the component name.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

// One xoshiro256** step over the given state.
std::uint64_t step(std::uint64_t (&s)[4]) {
  const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
  return result;
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

Rng::Rng(std::uint64_t seed, std::string_view component)
    : Rng(seed ^ hashName(component)) {}

std::uint64_t Rng::next() {
  ++draws_;
  return step(s_);
}

void Rng::fill(std::span<std::byte> out) {
  // The state lives in locals for the whole loop, so the compiler keeps
  // it in registers instead of reloading s_ through `this` per draw.
  std::uint64_t s[4] = {s_[0], s_[1], s_[2], s_[3]};
  const std::size_t n = out.size();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t r = step(s);
    for (int k = 0; k < 8; ++k) {
      out[i + k] = static_cast<std::byte>(r >> (8 * k));
    }
  }
  if (i < n) {
    const std::uint64_t r = step(s);
    for (int k = 0; i < n; ++i, ++k) {
      out[i] = static_cast<std::byte>(r >> (8 * k));
    }
  }
  for (int k = 0; k < 4; ++k) s_[k] = s[k];
  draws_ += (n + 7) / 8;
}

std::uint64_t Rng::nextBelow(std::uint64_t bound) {
  // Debiased via rejection sampling on the top of the range.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

double Rng::nextDouble() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::nextExp(double mean) {
  // Inverse CDF; clamp away from 0 to avoid log(0).
  double u = nextDouble();
  if (u < 1e-300) u = 1e-300;
  return -mean * std::log(u);
}

}  // namespace bg::sim
