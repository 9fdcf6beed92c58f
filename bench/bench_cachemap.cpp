// Regenerates the paper §III design-time study: "CNK enabled
// application kernels to be run with varied mappings of code and data
// memory traffic to the L2 cache banks, allowing measurement of cache
// effects, and optimizing the memory system hierarchy to minimize
// conflicts."
//
// The same strided application kernel runs under each phys->bank
// mapping policy of the shared cache; the harness reports per-mapping
// run cycles, bank-conflict counts, and the bank-load imbalance the
// logic designers were screening for.
#include <cstdio>

#include "bench_util.hpp"
#include "kernel/syscalls.hpp"
#include "runtime/app.hpp"
#include "vm/builder.hpp"

namespace {

using namespace bg;

vm::Program stridedKernel(std::uint32_t regionBytes, std::uint32_t stride,
                          int passes) {
  using vm::Reg;
  constexpr Reg rBuf = 16;
  constexpr Reg rPass = 17;
  constexpr Reg rT0 = 18;
  constexpr Reg rT1 = 19;
  vm::ProgramBuilder b("strided");
  b.mov(rBuf, 10);
  b.readTb(rT0);
  const auto top = b.loopBegin(rPass, passes);
  b.memTouch(rBuf, 0, regionBytes, stride, /*write=*/true);
  b.loopEnd(rPass, top);
  b.readTb(rT1);
  b.sub(rT0, rT1, rT0);
  b.sample(rT0);
  b.li(vm::kArg0, 0);
  b.syscall(static_cast<std::int64_t>(kernel::Sys::kExit));
  return std::move(b).build();
}

struct MapResult {
  std::uint64_t cycles = 0;
  std::uint64_t conflicts = 0;
  double imbalance = 0;  // max/mean bank load
  std::uint64_t misses = 0;
};

MapResult runWithMapping(hw::BankMap map, std::uint32_t stride) {
  rt::ClusterConfig cfg;
  cfg.node.l3.bankMap = map;
  cfg.node.l3.banks = 4;
  rt::Cluster cluster(cfg);
  MapResult res;
  if (!cluster.bootAll(100'000'000)) return res;
  kernel::JobSpec job;
  // Work on all four cores (VN mode) so bank conflicts between cores
  // are visible, as on the real chip.
  job.processes = 4;
  job.exe = kernel::ElfImage::makeExecutable(
      "strided", stridedKernel(512 << 10, stride, 24));
  std::vector<std::vector<std::uint64_t>> samples(4);
  for (int r = 0; r < 4; ++r) cluster.attachSamples(r, 0, &samples[r]);
  if (!cluster.loadJob(job) || !cluster.run(4'000'000'000ULL)) return res;

  for (const auto& s : samples) {
    if (!s.empty()) res.cycles = std::max(res.cycles, s.front());
  }
  const hw::SharedCache& l3 = cluster.machine().node(0).l3();
  res.conflicts = l3.bankConflicts();
  res.misses = l3.stats().misses;
  const auto& loads = l3.bankAccesses();
  std::uint64_t total = 0, peak = 0;
  for (const std::uint64_t v : loads) {
    total += v;
    peak = std::max(peak, v);
  }
  if (total > 0) {
    res.imbalance = static_cast<double>(peak) /
                    (static_cast<double>(total) / loads.size());
  }
  return res;
}

const char* mapName(hw::BankMap m) {
  switch (m) {
    case hw::BankMap::kDirect: return "direct (line % banks)";
    case hw::BankMap::kXorFold: return "xor-fold";
    case hw::BankMap::kHighBits: return "high address bits";
  }
  return "?";
}

constexpr char kUsage[] =
    "usage: bench_cachemap [--json <path>] [--help]\n"
    "  --json <path>  write per-mapping results as JSON\n"
    "  --help         print this message and exit\n";

}  // namespace

int main(int argc, char** argv) {
  const char* jsonPath = nullptr;
  if (const int rc = bench::parseFlagArgs(argc, argv, "bench_cachemap",
                                          kUsage, {}, &jsonPath);
      rc >= 0) {
    return rc;
  }
  std::printf("L2/L3 bank-mapping sensitivity study (paper SectionIII)\n");
  std::printf("strided kernel on 4 cores, 512KB region per process\n\n");
  sim::Json strides = sim::Json::array();
  for (const std::uint32_t stride : {128u, 4096u}) {
    std::printf("stride %u bytes:\n", stride);
    std::printf("  %-26s %14s %12s %12s %10s\n", "bank mapping", "cycles",
                "conflicts", "L3 misses", "imbalance");
    sim::Json sj = sim::Json::object();
    sj.set("stride", static_cast<std::uint64_t>(stride));
    sim::Json maps = sim::Json::array();
    for (const auto map : {hw::BankMap::kXorFold, hw::BankMap::kDirect,
                           hw::BankMap::kHighBits}) {
      const MapResult r = runWithMapping(map, stride);
      std::printf("  %-26s %14llu %12llu %12llu %9.2fx\n", mapName(map),
                  static_cast<unsigned long long>(r.cycles),
                  static_cast<unsigned long long>(r.conflicts),
                  static_cast<unsigned long long>(r.misses), r.imbalance);
      sim::Json mj = sim::Json::object();
      mj.set("mapping", mapName(map));
      mj.set("cycles", r.cycles);
      mj.set("conflicts", r.conflicts);
      mj.set("l3_misses", r.misses);
      mj.set("imbalance", r.imbalance);
      maps.push(std::move(mj));
    }
    sj.set("mappings", std::move(maps));
    strides.push(std::move(sj));
    std::printf("\n");
  }
  std::printf("expected shape: the high-bits mapping concentrates traffic "
              "in few banks (imbalance >> 1)\nand pays conflict stalls; "
              "xor-fold spreads it evenly.\n");
  sim::Json j = sim::Json::object();
  j.set("strides", std::move(strides));
  if (!bench::maybeWriteJson(jsonPath, j)) return 1;
  return 0;
}
