// Exact-byte pins for every wire message: the CNK <-> CIOD
// function-shipping messages (FsRequest, FsReply, ShadowSnapshot) and
// the front-door RPC (each Request and Response type, plus a
// foreign-version header). A round-trip test still passes when a
// length prefix changes width or a field moves; these compare the full
// encoded hex against bytes recorded from the reference encoder, and
// decode the recorded bytes so the reader is pinned too.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "frontdoor/protocol.hpp"
#include "io/protocol.hpp"

namespace {

using namespace bg;

std::string hex(std::span<const std::byte> b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s;
  for (std::byte x : b) {
    s.push_back(kDigits[static_cast<unsigned>(x) >> 4]);
    s.push_back(kDigits[static_cast<unsigned>(x) & 0xF]);
  }
  return s;
}

std::vector<std::byte> unhex(std::string_view s) {
  auto nib = [](char c) {
    return static_cast<unsigned>(c <= '9' ? c - '0' : c - 'a' + 10);
  };
  std::vector<std::byte> out;
  for (std::size_t i = 0; i + 1 < s.size(); i += 2) {
    out.push_back(static_cast<std::byte>(nib(s[i]) << 4 | nib(s[i + 1])));
  }
  return out;
}

std::vector<std::byte> bytesOf(std::string_view s) {
  std::vector<std::byte> out;
  for (char c : s) out.push_back(static_cast<std::byte>(c));
  return out;
}

// ---------------------------------------------------------------------
// Function shipping (sealed: <body><u64 hashBytes(body)>)
// ---------------------------------------------------------------------

TEST(WireGolden, FsRequest) {
  io::FsRequest r;
  r.seq = 7;
  r.srcNode = -3;
  r.pid = 101;
  r.tid = 2;
  r.op = io::FsOp::kWrite;
  r.a0 = 4;
  r.a1 = 5;
  r.a2 = 4096;
  r.path = "/ckpt/a";
  r.payload = {std::byte{0xDE}, std::byte{0xAD}, std::byte{0xBE},
               std::byte{0xEF}, std::byte{0x00}};
  const std::string want =
      "0700000000000000"            // seq
      "fdffffff"                    // srcNode -3
      "65000000"                    // pid
      "02000000"                    // tid
      "03000000"                    // op kWrite
      "0400000000000000"            // a0
      "0500000000000000"            // a1
      "0010000000000000"            // a2
      "07000000" "2f636b70742f61"   // path, u32 length
      "05000000" "deadbeef00"       // payload, u32 length
      "a2204f1fb01658d8";           // seal
  EXPECT_EQ(hex(r.encode()), want);

  const auto back = io::FsRequest::decode(unhex(want));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seq, 7u);
  EXPECT_EQ(back->srcNode, -3);
  EXPECT_EQ(back->op, io::FsOp::kWrite);
  EXPECT_EQ(back->a2, 4096u);
  EXPECT_EQ(back->path, "/ckpt/a");
  EXPECT_EQ(back->payload, r.payload);
}

TEST(WireGolden, FsReply) {
  io::FsReply p;
  p.seq = 7;
  p.srcNode = 5;
  p.pid = 101;
  p.tid = 2;
  p.result = -5;
  p.payload = bytesOf("/home");
  const std::string want =
      "0700000000000000"            // seq
      "05000000"                    // srcNode
      "65000000"                    // pid
      "02000000"                    // tid
      "fbffffffffffffff"            // result -5
      "05000000" "2f686f6d65"       // payload, u32 length
      "3c313204b703b2de";           // seal
  EXPECT_EQ(hex(p.encode()), want);

  const auto back = io::FsReply::decode(unhex(want));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->srcNode, 5);
  EXPECT_EQ(back->result, -5);
  EXPECT_EQ(back->payload, p.payload);
}

TEST(WireGolden, ShadowSnapshotTwoFds) {
  io::ShadowSnapshot s;
  s.pid = 101;
  s.nextFd = 6;
  s.cwd = "/home";
  s.fds.push_back({3, -1, 0x241, 128, "/home/out"});
  s.fds.push_back({4, 3, 0x241, 128, "/home/out"});
  // No seal: a snapshot travels inside a sealed FsRequest payload.
  const std::string want =
      "65000000"                                // pid
      "06000000"                                // nextFd
      "05000000" "2f686f6d65"                   // cwd
      "02000000"                                // fd count
      "03000000" "ffffffff"                     // fd 3, no dup leader
      "4102000000000000" "8000000000000000"     // flags, offset
      "09000000" "2f686f6d652f6f7574"           // path
      "04000000" "03000000"                     // fd 4, dup of 3
      "4102000000000000" "8000000000000000"
      "09000000" "2f686f6d652f6f7574";
  EXPECT_EQ(hex(s.encode()), want);

  const auto back = io::ShadowSnapshot::decode(unhex(want));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->cwd, "/home");
  ASSERT_EQ(back->fds.size(), 2u);
  EXPECT_EQ(back->fds[1].shareWithFd, 3);
  EXPECT_EQ(back->fds[1].path, "/home/out");
}

// ---------------------------------------------------------------------
// Front door (framed: <u32 len><body><u64 hashBytes(body)>)
// ---------------------------------------------------------------------

fd::Request request(fd::MsgType t) {
  fd::Request q;
  q.type = t;
  q.clientId = 3;
  q.seq = 10 + static_cast<std::uint64_t>(t);
  q.retransmit = t == fd::MsgType::kCancel;
  q.jobName = "fwq";
  q.kernel = 1;
  q.nodes = 4;
  q.processes = 8;
  q.estCycles = 1'000'000;
  q.maxRetries = 2;
  q.exeName = "fwq-x";
  q.ticket = 9;
  return q;
}

TEST(WireGolden, RequestEachType) {
  const std::string header = "01000000";  // version
  EXPECT_EQ(hex(request(fd::MsgType::kSubmit).encode()),
            "42000000" + header +
                "00" "03000000" "0a00000000000000" "00"  // type..retransmit
                "03000000" "667771"                      // jobName
                "01000000" "04000000" "08000000"         // kernel..procs
                "40420f0000000000"                       // estCycles
                "02000000"                               // maxRetries
                "05000000" "6677712d78"                  // exeName
                "2eabe0ab1f34a3ef");
  EXPECT_EQ(hex(request(fd::MsgType::kCancel).encode()),
            "22000000" + header +
                "01" "03000000" "0b00000000000000" "01"
                "0900000000000000"                       // ticket
                "3a18b03dc884752c");
  EXPECT_EQ(hex(request(fd::MsgType::kQuery).encode()),
            "22000000" + header +
                "02" "03000000" "0c00000000000000" "00"
                "0900000000000000"
                "7f52dba93e9d8300");
  EXPECT_EQ(hex(request(fd::MsgType::kStats).encode()),
            "1a000000" + header +
                "03" "03000000" "0d00000000000000" "00"
                "a74fb29824987477");

  const auto back = fd::Request::decode(
      request(fd::MsgType::kSubmit).encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->exeName, "fwq-x");
  EXPECT_EQ(back->estCycles, 1'000'000u);
}

fd::Response response(fd::MsgType t, fd::Status s) {
  fd::Response p;
  p.type = t;
  p.clientId = 3;
  p.seq = 10 + static_cast<std::uint64_t>(t);
  p.status = s;
  p.ticket = 9;
  p.retryAfterCycles = 5000;
  p.jobState = 2;
  p.jobId = 17;
  p.exitStatus = -1;
  p.accepted = 20;
  p.rejected = 1;
  p.duplicates = 2;
  p.queueDepth = 3;
  p.batchedNow = 4;
  return p;
}

TEST(WireGolden, ResponseEachType) {
  const std::string header = "01000000";  // version
  const std::string submit =
      "2a000000" + header +
      "04" "03000000" "0e00000000000000" "00"  // type..status kOk
      "0900000000000000"                       // ticket
      "8813000000000000"                       // retryAfterCycles
      "daeef0c9ce51b843";
  EXPECT_EQ(hex(response(fd::MsgType::kSubmitResp, fd::Status::kOk).encode()),
            submit);
  EXPECT_EQ(hex(response(fd::MsgType::kCancelResp, fd::Status::kServerBusy)
                    .encode()),
            "22000000" + header +
                "05" "03000000" "0f00000000000000" "01"
                "0900000000000000"
                "ebf25b5c2bf140d0");
  const std::string query =
      "32000000" + header +
      "06" "03000000" "1000000000000000" "02"
      "0900000000000000"                       // ticket
      "02000000" "11000000"                    // jobState, jobId
      "ffffffffffffffff"                       // exitStatus -1
      "9092331873f4e352";
  EXPECT_EQ(hex(response(fd::MsgType::kQueryResp, fd::Status::kBadVersion)
                    .encode()),
            query);
  EXPECT_EQ(hex(response(fd::MsgType::kStatsResp, fd::Status::kBadRequest)
                    .encode()),
            "42000000" + header +
                "07" "03000000" "1100000000000000" "03"
                "1400000000000000" "0100000000000000"  // accepted, rejected
                "0200000000000000" "0300000000000000"  // dups, queueDepth
                "0400000000000000"                     // batchedNow
                "77b9f75b3ad22007");

  const auto s = fd::Response::decode(unhex(submit));
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->retryAfterCycles, 5000u);
  const auto q = fd::Response::decode(unhex(query));
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->status, fd::Status::kBadVersion);
  EXPECT_EQ(q->jobId, 17u);
  EXPECT_EQ(q->exitStatus, -1);
}

TEST(WireGolden, ForeignVersionParsesHeaderOnly) {
  fd::Request q;
  q.version = 2;
  q.type = fd::MsgType::kSubmit;
  q.clientId = 3;
  q.seq = 99;
  q.jobName = "future";
  q.exeName = "fwq";
  const std::string want =
      "43000000"                                   // frame length
      "02000000" "00" "03000000"                   // version 2, submit
      "6300000000000000" "00"                      // seq, retransmit
      "06000000" "667574757265"                    // jobName
      "00000000" "01000000" "01000000"             // kernel..procs
      "40420f0000000000" "01000000"                // estCycles, retries
      "03000000" "667771"                          // exeName
      "1d7a64f19d47d91e";                          // seal
  EXPECT_EQ(hex(q.encode()), want);

  // The payload layout of another version is unknowable: decode stops
  // at the header so the server can still answer kBadVersion.
  const auto back = fd::Request::decode(unhex(want));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->version, 2u);
  EXPECT_EQ(back->clientId, 3u);
  EXPECT_EQ(back->seq, 99u);
  EXPECT_EQ(back->jobName, "");
  EXPECT_EQ(back->exeName, "");
}

}  // namespace
