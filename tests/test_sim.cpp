// Unit tests: deterministic event engine, RNG, hashing.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "sim/engine.hpp"
#include "sim/hash.hpp"
#include "sim/json.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace bg::sim {
namespace {

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule(30, [&] { order.push_back(3); });
  e.schedule(10, [&] { order.push_back(1); });
  e.schedule(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30u);
}

TEST(Engine, SameCycleEventsFireInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    e.schedule(5, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, NestedSchedulingFromHandlers) {
  Engine e;
  int hits = 0;
  e.schedule(1, [&] {
    ++hits;
    e.schedule(1, [&] {
      ++hits;
      e.schedule(1, [&] { ++hits; });
    });
  });
  e.run();
  EXPECT_EQ(hits, 3);
  EXPECT_EQ(e.now(), 3u);
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool ran = false;
  const EventId id = e.schedule(10, [&] { ran = true; });
  e.cancel(id);
  e.run();
  EXPECT_FALSE(ran);
}

TEST(Engine, CancelIsSelective) {
  Engine e;
  int ran = 0;
  e.schedule(10, [&] { ++ran; });
  const EventId id = e.schedule(10, [&] { ran += 100; });
  e.schedule(10, [&] { ++ran; });
  e.cancel(id);
  e.run();
  EXPECT_EQ(ran, 2);
}

TEST(Engine, RunUntilAdvancesClockWithoutEvents) {
  Engine e;
  e.runUntil(12345);
  EXPECT_EQ(e.now(), 12345u);
}

TEST(Engine, RunUntilExecutesOnlyDueEvents) {
  Engine e;
  int ran = 0;
  e.schedule(10, [&] { ++ran; });
  e.schedule(100, [&] { ++ran; });
  e.runUntil(50);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(e.now(), 50u);
  e.run();
  EXPECT_EQ(ran, 2);
}

TEST(Engine, RunWhileStopsOnPredicate) {
  Engine e;
  int count = 0;
  for (int i = 0; i < 100; ++i) {
    e.schedule(i + 1, [&] { ++count; });
  }
  const bool ok = e.runWhile([&] { return count >= 10; });
  EXPECT_TRUE(ok);
  EXPECT_EQ(count, 10);
}

TEST(Engine, PendingEventCountTracksCancellations) {
  Engine e;
  const EventId a = e.schedule(5, [] {});
  e.schedule(6, [] {});
  EXPECT_EQ(e.pendingEvents(), 2u);
  e.cancel(a);
  EXPECT_EQ(e.pendingEvents(), 1u);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, ComponentStreamsDiffer) {
  Rng a(42, "torus"), b(42, "collective");
  bool anyDifferent = false;
  for (int i = 0; i < 10; ++i) {
    if (a.next() != b.next()) anyDifferent = true;
  }
  EXPECT_TRUE(anyDifferent);
}

TEST(Rng, NextBelowIsInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.nextBelow(17), 17u);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.nextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ExpHasRoughlyRightMean) {
  Rng r(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.nextExp(100.0);
  EXPECT_NEAR(sum / n, 100.0, 5.0);
}

// The little-endian bytes of `draws` successive next() results.
std::vector<std::byte> littleEndianDraws(Rng& r, int draws) {
  std::vector<std::byte> out;
  for (int d = 0; d < draws; ++d) {
    const std::uint64_t v = r.next();
    for (int k = 0; k < 8; ++k) {
      out.push_back(static_cast<std::byte>(v >> (8 * k)));
    }
  }
  return out;
}

TEST(Rng, FillWritesEachDrawLittleEndian) {
  Rng a(5, "fill"), b(5, "fill");
  std::vector<std::byte> bytes(64);
  a.fill(bytes);
  EXPECT_EQ(bytes, littleEndianDraws(b, 8));
  EXPECT_EQ(a.draws(), 8u);
}

TEST(Rng, FillTailTakesLowBytesOfOneMoreDraw) {
  Rng a(5, "tail"), b(5, "tail");
  std::vector<std::byte> bytes(13);
  a.fill(bytes);
  EXPECT_EQ(a.draws(), 2u);
  std::vector<std::byte> expected = littleEndianDraws(b, 2);
  expected.resize(13);  // the low 5 bytes of the second draw
  EXPECT_EQ(bytes, expected);
}

TEST(Rng, FillOfEmptySpanDrawsNothing) {
  Rng a(5), b(5);
  a.fill({});
  EXPECT_EQ(a.draws(), 0u);
  EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, FillAdvancesTheStreamByCeilOfEighths) {
  for (std::size_t n : {1u, 7u, 8u, 9u, 100u, 4096u}) {
    Rng a(77), twin(77);
    std::vector<std::byte> bytes(n);
    a.fill(bytes);
    const std::size_t used = (n + 7) / 8;
    EXPECT_EQ(a.draws(), used) << "n=" << n;
    for (std::size_t d = 0; d < used; ++d) twin.next();
    EXPECT_EQ(a.next(), twin.next()) << "n=" << n;
  }
}

TEST(Hash, OrderSensitive) {
  Fnv1a a, b;
  a.mix(1).mix(2);
  b.mix(2).mix(1);
  EXPECT_NE(a.digest(), b.digest());
}

/// Deterministic non-trivial bytes for the hashBytes contract tests.
std::vector<std::byte> patternBytes(std::size_t n) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 37 + 11) & 0xFF);
  }
  return v;
}

// The link and fault models corrupt exactly one byte per packet; the
// seal must catch every such corruption. Lengths 0..100 cover inputs
// shorter than one 32-byte block, several blocks, and every tail size.
TEST(Hash, BytesAnySingleByteFlipChangesDigest) {
  for (std::size_t n = 0; n <= 100; ++n) {
    std::vector<std::byte> v = patternBytes(n);
    const std::uint64_t base = hashBytes(v);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::byte mask : {std::byte{0x01}, std::byte{0x40},
                             std::byte{0x80}}) {
        v[i] ^= mask;
        EXPECT_NE(hashBytes(v), base) << "len " << n << " byte " << i;
        v[i] ^= mask;
      }
    }
  }
}

TEST(Hash, BytesAppendedZeroChangesDigest) {
  for (std::size_t n = 0; n <= 100; ++n) {
    std::vector<std::byte> v = patternBytes(n);
    const std::uint64_t base = hashBytes(v);
    v.push_back(std::byte{0});
    EXPECT_NE(hashBytes(v), base) << "len " << n;
  }
}

// Words 0 and 4 feed the same lane in consecutive rounds. With a round
// like (acc ^ w) * P the two bit-63 flips would cancel exactly.
TEST(Hash, BytesBit63FlipsInOneLaneDoNotCancel) {
  std::vector<std::byte> v = patternBytes(64);
  const std::uint64_t base = hashBytes(v);
  v[7] ^= std::byte{0x80};
  v[39] ^= std::byte{0x80};
  EXPECT_NE(hashBytes(v), base);
}

TEST(Hash, BytesPinnedValue) {
  EXPECT_EQ(hashBytes(patternBytes(77)), 0xe169f2b2b4c134bbULL);
}

TEST(Types, CycleConversionsRoundTrip) {
  EXPECT_EQ(usToCycles(1.0), 850u);
  EXPECT_DOUBLE_EQ(cyclesToUs(850), 1.0);
  EXPECT_DOUBLE_EQ(cyclesToSec(kCoreHz), 1.0);
}

TEST(Json, EscapesStringsAndControlBytes) {
  Json j = Json::object();
  j.set("quote", "a\"b");
  j.set("backslash", "a\\b");
  j.set("newline", "a\nb\tc");
  j.set("control", std::string("a\x01z"));
  const std::string out = j.dump(0);
  EXPECT_NE(out.find("\"a\\\"b\""), std::string::npos);
  EXPECT_NE(out.find("\"a\\\\b\""), std::string::npos);
  EXPECT_NE(out.find("\"a\\nb\\tc\""), std::string::npos);
  EXPECT_NE(out.find("\\u0001"), std::string::npos);
}

TEST(Json, EmptyContainersDump) {
  Json j = Json::object();
  j.set("arr", Json::array());
  j.set("obj", Json::object());
  EXPECT_EQ(j.dump(0), "{\"arr\":[],\"obj\":{}}");
}

// 64-bit hashes and counters above INT64_MAX must print as themselves;
// diff_runs.py reads them back and a negative value would silently
// corrupt every schedule-hash comparison.
TEST(Json, LargeU64RoundTripsUnsigned) {
  Json j = Json::object();
  j.set("max", static_cast<std::uint64_t>(0xFFFFFFFFFFFFFFFFULL));
  j.set("half", static_cast<std::uint64_t>(0x8000000000000000ULL));
  j.set("small", static_cast<std::uint64_t>(7));
  const std::string out = j.dump(0);
  EXPECT_NE(out.find("\"max\":18446744073709551615"), std::string::npos);
  EXPECT_NE(out.find("\"half\":9223372036854775808"), std::string::npos);
  EXPECT_NE(out.find("\"small\":7"), std::string::npos);
  EXPECT_EQ(out.find('-'), std::string::npos);
}

}  // namespace
}  // namespace bg::sim
