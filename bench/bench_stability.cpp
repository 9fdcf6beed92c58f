// Regenerates paper §V-D (performance stability):
//
//  1. 36 repeated LINPACK-proxy runs on CNK — the paper saw a maximum
//     variation of 2.11 s on a 16,081 s run (0.01%), sigma < 1.14 s.
//  2. mpiBench_Allreduce: per-iteration double-sum allreduce on CNK
//     (paper: sigma 0.0007 us over 1M iterations on 16 nodes —
//     "effectively 0") vs the same test on Linux (paper: sigma 8.9 us
//     over 20 runs on 4 I/O nodes over ethernet, with NFS activity
//     between tests).

#include "apps/allreduce.hpp"
#include "apps/linpack.hpp"
#include "bench_util.hpp"
#include "runtime/app.hpp"

namespace {

using namespace bg;

/// Run the LINPACK proxy `runs` times on one cluster (fresh job each
/// time), returning each run's total cycles.
std::vector<std::uint64_t> linpackRuns(rt::KernelKind kind, int runs,
                                       int nodes) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = nodes;
  cfg.kernel = kind;
  rt::Cluster cluster(cfg);
  if (!cluster.bootAll(400'000'000)) return {};

  apps::LinpackParams lp;
  std::vector<std::uint64_t> totals;
  for (int run = 0; run < runs; ++run) {
    kernel::JobSpec job;
    job.exe = apps::linpackImage(lp);
    std::vector<std::vector<std::uint64_t>> samples(nodes);
    for (int r = 0; r < nodes; ++r) cluster.attachSamples(r, 0, &samples[r]);
    // CNK requires an explicit unload between jobs (static map rebuild);
    // old FWK processes simply stay exited.
    for (int n = 0; n < nodes; ++n) {
      if (auto* cnk = cluster.cnkOn(n)) cnk->unloadJob();
    }
    if (!cluster.loadJob(job) || !cluster.run(8'000'000'000ULL)) break;
    std::uint64_t worst = 0;
    for (const auto& s : samples) {
      if (!s.empty()) worst = std::max(worst, s.front());
    }
    totals.push_back(worst);
  }
  return totals;
}

/// Per-iteration allreduce samples of rank 0.
std::vector<std::uint64_t> allreduceRun(rt::KernelKind kind, int nodes,
                                        int iters) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = nodes;
  cfg.kernel = kind;
  rt::Cluster cluster(cfg);
  if (!cluster.bootAll(400'000'000)) return {};
  apps::AllreduceParams ap;
  ap.iterations = iters;
  kernel::JobSpec job;
  job.exe = apps::allreduceImage(ap);
  std::vector<std::uint64_t> samples;
  cluster.attachSamples(0, 0, &samples);
  if (!cluster.loadJob(job) || !cluster.run(8'000'000'000ULL)) return {};
  // Drop warmup iterations.
  if (samples.size() > 16) samples.erase(samples.begin(),
                                         samples.begin() + 8);
  return samples;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bg::bench::Args args("bench_stability",
                       "write the stability statistics as JSON");
  args.flag("--quick", &quick,
            "8 LINPACK runs and 400 allreduce iterations, not 36 and 4,000");
  if (const int rc = args.parse(argc, argv); rc >= 0) return rc;
  const int linpackRunsCount = quick ? 8 : 36;
  const int allreduceIters = quick ? 400 : 4000;

  std::printf("Performance stability (paper SectionV-D)\n\n");

  // ---- LINPACK repeatability ----
  sim::Json jlinpack = sim::Json::object();
  std::printf("LINPACK proxy, %d runs, 4 nodes\n", linpackRunsCount);
  bg::bench::printRule();
  for (auto kind : {rt::KernelKind::kCnk, rt::KernelKind::kFwk}) {
    const char* name = kind == rt::KernelKind::kCnk ? "CNK" : "Linux(FWK)";
    const auto totals = linpackRuns(kind, linpackRunsCount, 4);
    const auto s = bg::bench::computeStats(totals);
    std::printf("%-12s runs=%llu min=%llu max=%llu variation=%.5f%% "
                "stddev=%.1f cyc (%.3f us)\n",
                name,
                static_cast<unsigned long long>(s.n),
                static_cast<unsigned long long>(s.min),
                static_cast<unsigned long long>(s.max),
                s.min ? bg::bench::pct(s.max - s.min, s.min) : 0.0,
                s.stddev, sim::cyclesToUs(static_cast<sim::Cycle>(s.stddev)));
    sim::Json row = bg::bench::statsToJson(s);
    row.set("stddev_us", sim::cyclesToUs(static_cast<sim::Cycle>(s.stddev)));
    jlinpack.set(name, std::move(row));
  }
  std::printf("paper: CNK 36 runs varied 2.11s over 16081s = 0.013%%, "
              "sigma < 1.14s\n\n");

  // ---- mpiBench_Allreduce ----
  sim::Json jallreduce = sim::Json::object();
  std::printf("mpiBench_Allreduce double-sum, per-iteration sigma\n");
  bg::bench::printRule();
  {
    const auto cnk = allreduceRun(rt::KernelKind::kCnk, 16, allreduceIters);
    const auto s = bg::bench::computeStats(cnk);
    const double sigmaUs = s.stddev * 1e6 / static_cast<double>(sim::kCoreHz);
    std::printf("%-12s 16 nodes, %zu iters: mean=%.3f us sigma=%.4f us\n",
                "CNK", cnk.size(), sim::cyclesToUs(
                    static_cast<sim::Cycle>(s.mean)),
                sigmaUs);
    sim::Json row = bg::bench::statsToJson(s);
    row.set("mean_us", sim::cyclesToUs(static_cast<sim::Cycle>(s.mean)));
    row.set("sigma_us", sigmaUs);
    jallreduce.set("CNK", std::move(row));
  }
  {
    const auto fwk = allreduceRun(rt::KernelKind::kFwk, 4, allreduceIters);
    const auto s = bg::bench::computeStats(fwk);
    const double sigmaUs = s.stddev * 1e6 / static_cast<double>(sim::kCoreHz);
    std::printf("%-12s  4 nodes, %zu iters: mean=%.3f us sigma=%.4f us\n",
                "Linux(FWK)", fwk.size(), sim::cyclesToUs(
                    static_cast<sim::Cycle>(s.mean)),
                sigmaUs);
    sim::Json row = bg::bench::statsToJson(s);
    row.set("mean_us", sim::cyclesToUs(static_cast<sim::Cycle>(s.mean)));
    row.set("sigma_us", sigmaUs);
    jallreduce.set("Linux(FWK)", std::move(row));
  }
  std::printf("paper: CNK sigma = 0.0007 us (effectively 0); "
              "Linux sigma = 8.9 us\n");

  if (args.json() != nullptr) {
    sim::Json j = sim::Json::object();
    j.set("bench", "stability");
    j.set("quick", quick);
    j.set("linpack", std::move(jlinpack));
    j.set("allreduce", std::move(jallreduce));
    if (!bg::bench::maybeWriteJson(args.json(), j)) return 1;
  }
  return 0;
}
