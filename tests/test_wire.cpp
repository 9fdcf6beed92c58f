// Byte-layout pin for the shared wire-framing helpers (msg/wire.hpp).
// Both the CNK<->CIOD function-shipping protocol and the front-door
// RPC protocol encode through these; if the layout drifts, persisted
// traces and cross-version peers break silently. These tests assert
// the exact encoded bytes, not just round-trip equality.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "msg/wire.hpp"
#include "sim/hash.hpp"

namespace {

using namespace bg;
using msg::wire::Reader;
using msg::wire::Writer;

std::vector<std::uint8_t> raw(const std::vector<std::byte>& b) {
  std::vector<std::uint8_t> out;
  out.reserve(b.size());
  for (std::byte x : b) out.push_back(static_cast<std::uint8_t>(x));
  return out;
}

TEST(Wire, GoldenByteLayout) {
  Writer w;
  w.u32(0x04030201u);
  w.u8(0xAB);
  w.u64(0x1122334455667788ULL);
  w.i32(-2);
  w.str("hi");
  const std::vector<std::uint8_t> got = raw(std::move(w).take());

  // Little-endian fields, u32 length-prefixed strings. This exact
  // sequence is the wire contract.
  const std::vector<std::uint8_t> want = {
      0x01, 0x02, 0x03, 0x04,                          // u32
      0xAB,                                            // u8
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // u64
      0xFE, 0xFF, 0xFF, 0xFF,                          // i32 -2
      0x02, 0x00, 0x00, 0x00, 'h', 'i',                // str
  };
  EXPECT_EQ(got, want);
}

TEST(Wire, RoundTripAllFieldTypes) {
  Writer w;
  w.u32(7);
  w.u64(0xFFFFFFFFFFFFFFFFULL);
  w.i32(-123456);
  w.i64(-9876543210LL);
  w.u8(0);
  w.str("front door");
  w.bytes({std::byte{1}, std::byte{2}, std::byte{3}});
  const std::vector<std::byte> buf = std::move(w).take();

  Reader r(buf);
  std::uint32_t a = 0;
  std::uint64_t b = 0;
  std::int32_t c = 0;
  std::int64_t d = 0;
  std::uint8_t e = 1;
  std::string s;
  std::vector<std::byte> blob;
  ASSERT_TRUE(r.u32(&a));
  ASSERT_TRUE(r.u64(&b));
  ASSERT_TRUE(r.i32(&c));
  ASSERT_TRUE(r.i64(&d));
  ASSERT_TRUE(r.u8(&e));
  ASSERT_TRUE(r.str(&s));
  ASSERT_TRUE(r.bytes(&blob));
  EXPECT_EQ(a, 7u);
  EXPECT_EQ(b, 0xFFFFFFFFFFFFFFFFULL);
  EXPECT_EQ(c, -123456);
  EXPECT_EQ(d, -9876543210LL);
  EXPECT_EQ(e, 0);
  EXPECT_EQ(s, "front door");
  EXPECT_EQ(blob.size(), 3u);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Wire, ReaderBoundsChecks) {
  Writer w;
  w.u32(42);
  const std::vector<std::byte> buf = std::move(w).take();

  Reader r(buf);
  std::uint64_t v = 0;
  EXPECT_FALSE(r.u64(&v));  // only 4 bytes available
  std::uint32_t u = 0;
  EXPECT_TRUE(r.u32(&u));
  std::uint8_t b = 0;
  EXPECT_FALSE(r.u8(&b));  // exhausted

  // A string whose length prefix promises more than the buffer holds.
  Writer w2;
  w2.u32(1000);
  const std::vector<std::byte> lie = std::move(w2).take();
  Reader r2(lie);
  std::string s;
  EXPECT_FALSE(r2.str(&s));
}

TEST(Wire, SealAppendsFnvChecksum) {
  Writer w;
  w.u32(0xDEADBEEF);
  Writer body;
  body.u32(0xDEADBEEF);
  const std::vector<std::byte> bodyBytes = std::move(body).take();

  const std::vector<std::byte> sealed = msg::wire::seal(std::move(w));
  ASSERT_EQ(sealed.size(), bodyBytes.size() + 8);

  // The trailer is the little-endian sim::hashBytes of the body.
  Reader tail(std::span<const std::byte>(sealed).subspan(bodyBytes.size()));
  std::uint64_t sum = 0;
  ASSERT_TRUE(tail.u64(&sum));
  EXPECT_EQ(sum, sim::hashBytes(bodyBytes));

  const auto opened = msg::wire::unseal(sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(opened->size(), bodyBytes.size());
}

TEST(Wire, UnsealRejectsCorruption) {
  Writer w;
  w.str("payload under test");
  w.u64(12345);
  std::vector<std::byte> sealed = msg::wire::seal(std::move(w));

  // Flip every byte position in turn: body damage and checksum damage
  // must both be caught.
  for (std::size_t i = 0; i < sealed.size(); ++i) {
    std::vector<std::byte> damaged = sealed;
    damaged[i] ^= std::byte{0x40};
    EXPECT_FALSE(msg::wire::unseal(damaged).has_value()) << "byte " << i;
  }
  EXPECT_TRUE(msg::wire::unseal(sealed).has_value());
}

TEST(Wire, UnsealRejectsTruncation) {
  Writer w;
  w.u64(7);
  const std::vector<std::byte> sealed = msg::wire::seal(std::move(w));
  for (std::size_t n = 0; n < sealed.size(); ++n) {
    const std::span<const std::byte> cut(sealed.data(), n);
    EXPECT_FALSE(msg::wire::unseal(cut).has_value()) << "len " << n;
  }
}

}  // namespace
