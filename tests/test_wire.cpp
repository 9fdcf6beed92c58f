// Byte-layout pin for the shared codec (sim/bytes.hpp). The CNK<->CIOD
// function-shipping protocol, the front-door RPC protocol and every
// checkpoint image encode through it; if the layout drifts, persisted
// images and cross-version peers break silently. These tests assert
// the exact encoded bytes, not just round-trip equality.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/bytes.hpp"
#include "sim/hash.hpp"

namespace {

using namespace bg;
using sim::ByteReader;
using sim::ByteWriter;

std::vector<std::uint8_t> raw(const std::vector<std::byte>& b) {
  std::vector<std::uint8_t> out;
  out.reserve(b.size());
  for (std::byte x : b) out.push_back(static_cast<std::uint8_t>(x));
  return out;
}

TEST(Wire, GoldenByteLayout) {
  ByteWriter w;
  w.u32(0x04030201u);
  w.u8(0xAB);
  w.u64(0x1122334455667788ULL);
  w.i32(-2);
  w.str32("hi");
  const std::vector<std::uint8_t> got = raw(std::move(w).take());

  // Little-endian fields, u32 length-prefixed strings. This exact
  // sequence is the wire contract.
  const std::vector<std::uint8_t> want = {
      0x01, 0x02, 0x03, 0x04,                          // u32
      0xAB,                                            // u8
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // u64
      0xFE, 0xFF, 0xFF, 0xFF,                          // i32 -2
      0x02, 0x00, 0x00, 0x00, 'h', 'i',                // str32
  };
  EXPECT_EQ(got, want);
}

TEST(Wire, ImageStringKeepsU64Prefix) {
  // Images frame strings with a u64 length; the wire uses u32. Both
  // are pinned formats.
  ByteWriter w;
  w.str("hi");
  const std::vector<std::uint8_t> want = {
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 'h', 'i'};
  EXPECT_EQ(raw(std::move(w).take()), want);
}

TEST(Wire, RoundTripAllFieldTypes) {
  ByteWriter w;
  w.u32(7);
  w.u64(0xFFFFFFFFFFFFFFFFULL);
  w.i32(-123456);
  w.i64(-9876543210LL);
  w.u8(0);
  w.str32("front door");
  const std::vector<std::byte> three = {std::byte{1}, std::byte{2},
                                        std::byte{3}};
  w.blob32(three);
  const std::vector<std::byte> buf = std::move(w).take();

  ByteReader r(buf);
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_EQ(r.u64(), 0xFFFFFFFFFFFFFFFFULL);
  EXPECT_EQ(r.i32(), -123456);
  EXPECT_EQ(r.i64(), -9876543210LL);
  EXPECT_EQ(r.u8(), 0);
  EXPECT_EQ(r.str32(), "front door");
  EXPECT_EQ(r.blob32(), three);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.atEnd());
}

TEST(Wire, ReaderBoundsChecks) {
  ByteWriter w;
  w.u32(42);
  const std::vector<std::byte> buf = std::move(w).take();

  // A short read poisons the reader; every later read, even one the
  // buffer could have served, returns a zero value.
  ByteReader r(buf);
  EXPECT_EQ(r.u64(), 0u);  // only 4 bytes available
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_EQ(r.u8(), 0);
  EXPECT_EQ(r.i32(), 0);
  EXPECT_EQ(r.str32(), "");
  EXPECT_TRUE(r.blob32().empty());
  EXPECT_FALSE(r.ok());

  // A view past the end is empty and poisons too.
  ByteReader v(buf);
  EXPECT_TRUE(v.view(5).empty());
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.u32(), 0u);

  // A string whose length prefix promises more than the buffer holds.
  ByteWriter w2;
  w2.u32(1000);
  const std::vector<std::byte> lie = std::move(w2).take();
  ByteReader r2(lie);
  EXPECT_EQ(r2.str32(), "");
  EXPECT_FALSE(r2.ok());
  ByteReader r3(lie);
  EXPECT_TRUE(r3.blob32().empty());
  EXPECT_FALSE(r3.ok());
}

TEST(Wire, SealAppendsFnvChecksum) {
  ByteWriter w;
  w.u32(0xDEADBEEF);
  ByteWriter body;
  body.u32(0xDEADBEEF);
  const std::vector<std::byte> bodyBytes = std::move(body).take();

  const std::vector<std::byte> sealed = sim::seal(std::move(w));
  ASSERT_EQ(sealed.size(), bodyBytes.size() + 8);

  // The trailer is the little-endian sim::hashBytes of the body.
  ByteReader tail(std::span<const std::byte>(sealed).subspan(bodyBytes.size()));
  EXPECT_EQ(tail.u64(), sim::hashBytes(bodyBytes));
  EXPECT_TRUE(tail.ok());

  const auto opened = sim::unseal(sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(opened->size(), bodyBytes.size());
}

TEST(Wire, UnsealRejectsCorruption) {
  ByteWriter w;
  w.str32("payload under test");
  w.u64(12345);
  std::vector<std::byte> sealed = sim::seal(std::move(w));

  // Flip every byte position in turn: body damage and checksum damage
  // must both be caught.
  for (std::size_t i = 0; i < sealed.size(); ++i) {
    std::vector<std::byte> damaged = sealed;
    damaged[i] ^= std::byte{0x40};
    EXPECT_FALSE(sim::unseal(damaged).has_value()) << "byte " << i;
  }
  EXPECT_TRUE(sim::unseal(sealed).has_value());
}

TEST(Wire, UnsealRejectsTruncation) {
  ByteWriter w;
  w.u64(7);
  const std::vector<std::byte> sealed = sim::seal(std::move(w));
  for (std::size_t n = 0; n < sealed.size(); ++n) {
    const std::span<const std::byte> cut(sealed.data(), n);
    EXPECT_FALSE(sim::unseal(cut).has_value()) << "len " << n;
  }
}

}  // namespace
