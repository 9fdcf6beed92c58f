// Regenerates paper Figs 5, 6, 7: the FWQ noise benchmark on Linux
// (FWK) and on CNK, per core, plus a noise-source ablation the paper's
// design discussion implies (tick / daemons / demand paging).
//
// Output: per-core min/max/mean/stddev tables matching the figures'
// content (the paper plots all 12,000 per-sample values; pass --dump
// to write fwq_<kernel>_core<i>.csv next to the binary for plotting).
//
// Paper reference points (658,958-cycle ideal sample):
//   Linux: max-min = 38,076 (core0), 10,194 (core1), 42,000 (core2),
//          36,470 (core3) — >5% on cores 0, 2, 3.
//   CNK:   maximum variation < 0.006%.
#include <fstream>
#include <string>

#include "apps/fwq.hpp"
#include "bench_util.hpp"
#include "runtime/app.hpp"

namespace {

using namespace bg;

struct FwqResult {
  std::vector<std::vector<std::uint64_t>> perCore;
};

FwqResult runFwq(rt::KernelKind kind, int samples, bool tick, bool daemons,
                 bool demandPaging) {
  rt::ClusterConfig cfg;
  cfg.kernel = kind;
  cfg.fwk.enableTick = tick;
  cfg.fwk.enableDaemons = daemons;
  cfg.fwk.demandPaging = demandPaging;
  rt::Cluster cluster(cfg);
  if (!cluster.bootAll(100'000'000)) {
    std::fprintf(stderr, "boot failed\n");
    return {};
  }
  apps::FwqParams fp;
  fp.samples = samples;
  kernel::JobSpec job;
  job.exe = apps::fwqImage(fp);

  FwqResult res;
  res.perCore.resize(4);
  for (int i = 0; i < 4; ++i) cluster.attachSamples(0, i, &res.perCore[i]);
  if (!cluster.loadJob(job) || !cluster.run(4'000'000'000ULL)) {
    std::fprintf(stderr, "run failed\n");
  }
  return res;
}

void printTable(const char* title, const FwqResult& r) {
  std::printf("\n%s\n", title);
  bg::bench::printRule();
  std::printf("%-6s %12s %12s %12s %12s %10s\n", "core", "min", "max",
              "mean", "stddev", "spread%");
  for (std::size_t i = 0; i < r.perCore.size(); ++i) {
    const auto s = bg::bench::computeStats(r.perCore[i]);
    if (s.n == 0) continue;
    std::printf("%-6zu %12llu %12llu %12.0f %12.1f %10.4f\n", i,
                static_cast<unsigned long long>(s.min),
                static_cast<unsigned long long>(s.max), s.mean, s.stddev,
                bg::bench::pct(s.max - s.min, s.min));
  }
}

sim::Json resultToJson(const FwqResult& r) {
  sim::Json cores = sim::Json::array();
  for (const auto& samples : r.perCore) {
    cores.push(bg::bench::statsToJson(bg::bench::computeStats(samples)));
  }
  return cores;
}

void dumpCsv(const char* kernelName, const FwqResult& r) {
  for (std::size_t i = 0; i < r.perCore.size(); ++i) {
    std::ofstream out("fwq_" + std::string(kernelName) + "_core" +
                      std::to_string(i) + ".csv");
    out << "iteration,cycles\n";
    for (std::size_t k = 0; k < r.perCore[i].size(); ++k) {
      out << k << "," << r.perCore[i][k] << "\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool dump = false;
  bool ablate = false;
  bg::bench::Args args("bench_fwq", "write per-core statistics as JSON");
  args.flag("--quick", &quick, "1,500 samples per core instead of 12,000");
  args.flag("--dump", &dump, "write fwq_<kernel>_core<i>.csv per core");
  args.flag("--ablate", &ablate, "add the FWK noise-source ablation tables");
  if (const int rc = args.parse(argc, argv); rc >= 0) return rc;
  const int samples = quick ? 1500 : 12000;

  std::printf("FWQ noise benchmark (paper Figs 5-7)\n");
  std::printf("samples=%d, ideal sample ~ 658.9K cycles (~0.775 ms)\n",
              samples);

  const FwqResult linux = runFwq(rt::KernelKind::kFwk, samples, true, true,
                                 true);
  printTable("Fig 5: FWQ on Linux (FWK baseline), per core", linux);
  if (dump) dumpCsv("linux", linux);

  const FwqResult cnk =
      runFwq(rt::KernelKind::kCnk, samples, true, true, true);
  printTable("Figs 6/7: FWQ on CNK, per core", cnk);
  if (dump) dumpCsv("cnk", cnk);

  if (ablate) {
    printTable("Ablation: FWK without timer tick",
               runFwq(rt::KernelKind::kFwk, samples, false, true, true));
    printTable("Ablation: FWK without daemons",
               runFwq(rt::KernelKind::kFwk, samples, true, false, true));
    printTable("Ablation: FWK prefaulted (no demand paging)",
               runFwq(rt::KernelKind::kFwk, samples, true, true, false));
    printTable("Ablation: FWK with no noise sources at all",
               runFwq(rt::KernelKind::kFwk, samples, false, false, false));
  }

  std::printf("\npaper: Linux spreads >5%% on cores 0/2/3, ~1.5%% on core 1;"
              " CNK <0.006%%\n");

  if (args.json() != nullptr) {
    sim::Json j = sim::Json::object();
    j.set("bench", "fwq");
    j.set("samples", static_cast<std::int64_t>(samples));
    j.set("linux_per_core", resultToJson(linux));
    j.set("cnk_per_core", resultToJson(cnk));
    if (!bg::bench::maybeWriteJson(args.json(), j)) return 1;
  }
  return 0;
}
