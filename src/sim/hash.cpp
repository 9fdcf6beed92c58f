#include "sim/hash.hpp"

#include <bit>
#include <cstring>
#include <initializer_list>

namespace bg::sim {

namespace {
constexpr std::uint64_t kPrime = 0x100000001B3ULL;

// hashBytes constants (the xxHash64 primes; all odd, so every multiply
// below is a bijection mod 2^64).
constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;

/// Little-endian 64-bit load.
std::uint64_t load64(const std::byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

/// One lane step. For a fixed word it is a bijection of `acc`, and for
/// a fixed `acc` a bijection of `w`; the rotate carries high bits of
/// the sum down, so a bit-63 difference is not left to cancel against
/// a later one.
std::uint64_t laneRound(std::uint64_t acc, std::uint64_t w) {
  return std::rotl(acc + w * kP2, 31) * kP1;
}
}  // namespace

Fnv1a& Fnv1a::mix(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (i * 8)) & 0xFF;
    h_ *= kPrime;
  }
  return *this;
}

Fnv1a& Fnv1a::mixBytes(std::span<const std::byte> bytes) {
  for (std::byte b : bytes) {
    h_ ^= static_cast<std::uint64_t>(b);
    h_ *= kPrime;
  }
  return *this;
}

Fnv1a& Fnv1a::mixString(std::string_view s) {
  for (char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= kPrime;
  }
  return *this;
}

// Every step below is a bijection of the running state for fixed input
// and of the input word for fixed state, so two equal-length inputs
// that differ in one byte always end in different digests.
std::uint64_t hashBytes(std::span<const std::byte> bytes) {
  const std::byte* p = bytes.data();
  const std::size_t n = bytes.size();
  std::size_t i = 0;
  std::uint64_t h = kP5;
  if (n >= 32) {
    std::uint64_t v1 = kP1 + kP2;
    std::uint64_t v2 = kP2;
    std::uint64_t v3 = 0;
    std::uint64_t v4 = 0 - kP1;
    for (; i + 32 <= n; i += 32) {
      v1 = laneRound(v1, load64(p + i));
      v2 = laneRound(v2, load64(p + i + 8));
      v3 = laneRound(v3, load64(p + i + 16));
      v4 = laneRound(v4, load64(p + i + 24));
    }
    for (std::uint64_t v : {v1, v2, v3, v4}) {
      h = (h ^ laneRound(0, v)) * kP1 + kP4;
    }
  }
  for (; i + 8 <= n; i += 8) {
    h = std::rotl(h ^ laneRound(0, load64(p + i)), 27) * kP1 + kP4;
  }
  for (; i < n; ++i) {
    h = std::rotl(h ^ (static_cast<std::uint64_t>(p[i]) * kP5), 11) * kP1;
  }
  h ^= static_cast<std::uint64_t>(n);
  h = std::rotl(h, 29) * kP3;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

}  // namespace bg::sim
