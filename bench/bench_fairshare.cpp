// Fair-share scheduling benchmark: a saturating multi-account job
// stream drives the multi-tenant control plane (hierarchical shares,
// QOS bands, per-account limits, preemption) on one cluster. Reports,
// per account, achieved vs configured share of delivered node-cycles,
// queue-wait percentiles, completions, and preemption counts — the
// matrix EXPERIMENTS.md tracks. Every invocation runs the identical
// stream twice and fails on a determinism-digest mismatch (FNV over
// the schedule hash and the accounting state digest), so the bench
// doubles as a replay witness for the fair-share plane.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "runtime/app.hpp"
#include "sim/hash.hpp"
#include "sim/rng.hpp"
#include "svc/failover.hpp"
#include "vm/builder.hpp"

namespace {

using namespace bg;

struct FsParams {
  int nodes = 8;
  int jobs = 240;
  std::uint64_t seed = 42;
  sim::Cycle arrivalGapCycles = 15'000;  // mean inter-arrival
};

struct AccountReport {
  std::string name;
  const char* qos = "normal";
  std::uint32_t shares = 0;
  double configuredSharePct = 0;
  double achievedSharePct = 0;
  std::uint64_t completed = 0;
  std::uint64_t lifetimeUsage = 0;
  std::uint64_t preemptions = 0;
  std::vector<sim::Cycle> waits;
};

struct FsResult {
  bool drained = false;
  svc::SvcMetrics metrics;
  std::uint64_t accountingDigest = 0;
  std::uint64_t determinismHash = 0;
  std::vector<AccountReport> accounts;
};

// The share matrix under test: two bulk tenants at 4:2, a low-QOS
// tenant capped at 3 concurrent jobs, and a small high-QOS tenant
// whose arrivals preempt the low band when the cluster is full.
svc::FairShareConfig benchAccounts() {
  svc::FairShareConfig fs;
  svc::AccountSpec alpha;
  alpha.name = "alpha";
  alpha.shares = 4;
  svc::AccountSpec beta;
  beta.name = "beta";
  beta.shares = 2;
  svc::AccountSpec gamma;
  gamma.name = "gamma";
  gamma.shares = 1;
  gamma.qos = svc::Qos::kLow;
  gamma.maxRunning = 3;
  svc::AccountSpec urgent;
  urgent.name = "urgent";
  urgent.shares = 1;
  urgent.qos = svc::Qos::kHigh;
  urgent.preemptable = false;
  fs.accounts = {alpha, beta, gamma, urgent};
  return fs;
}

std::shared_ptr<kernel::ElfImage> workImage(const std::string& name,
                                            std::uint64_t reps) {
  vm::ProgramBuilder b(name);
  const auto top = b.loopBegin(16, static_cast<std::int64_t>(reps));
  b.compute(10'000);
  b.loopEnd(16, top);
  b.halt(0);
  return kernel::ElfImage::makeExecutable(name, std::move(b).build());
}

FsResult runStream(const FsParams& p) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = p.nodes;
  cfg.seed = p.seed;
  rt::Cluster cluster(cfg);

  svc::ServiceNodeConfig scfg;
  scfg.policy = svc::SchedPolicyKind::kFairShare;
  scfg.fairshare = benchAccounts();
  scfg.checkpointEveryPumps = 0;
  svc::ServiceHost host(cluster, scfg);

  // Weighted account draw: bulk tenants dominate demand, urgent is a
  // trickle. The draw count per job is fixed, so the stream is a pure
  // function of (seed, jobs).
  sim::Rng rng(p.seed, "fairshare.bench");
  int arrived = 0;
  sim::Cycle at = 20'000;
  for (int i = 0; i < p.jobs; ++i) {
    const std::uint64_t a = rng.nextBelow(16);
    svc::JobDesc jd;
    jd.account = a < 7 ? 1 : a < 12 ? 2 : a < 15 ? 3 : 4;
    jd.name = 'b' + std::to_string(i);
    jd.nodes = 1 + static_cast<int>(rng.nextBelow(3));
    const std::uint64_t reps = 6 + rng.nextBelow(10);
    jd.exe = workImage(jd.name, reps);
    jd.estCycles = reps * 10'000 + 50'000;
    at += 1 + rng.nextBelow(2 * p.arrivalGapCycles);
    cluster.engine().scheduleAt(at, [&host, jd, &arrived]() mutable {
      host.submit(std::move(jd));
      ++arrived;
    });
  }
  host.start();

  FsResult r;
  const int total = p.jobs;
  r.drained = cluster.engine().runWhile(
      [&] { return arrived == total && host.drained(); }, 2'000'000'000ULL);
  r.metrics = host.metrics();
  r.accountingDigest = host.node().accounting().stateDigest();
  sim::Fnv1a h;
  h.mix(r.metrics.scheduleHash);
  h.mix(r.accountingDigest);
  r.determinismHash = h.digest();

  // Per-account report: shares/usage from metrics, waits from the job
  // table (submit -> first launch).
  std::uint64_t usageTotal = 0;
  std::uint32_t sharesTotal = 0;
  for (const svc::AccountMetrics& am : r.metrics.accounts) {
    usageTotal += am.lifetimeUsage;
    sharesTotal += am.shares;
  }
  for (const svc::AccountMetrics& am : r.metrics.accounts) {
    AccountReport ar;
    ar.name = am.name;
    ar.qos = am.qos;
    ar.shares = am.shares;
    ar.configuredSharePct =
        sharesTotal > 0 ? 100.0 * am.shares / sharesTotal : 0;
    ar.achievedSharePct =
        usageTotal > 0 ? bg::bench::pct(am.lifetimeUsage, usageTotal) : 0;
    ar.completed = am.jobsCompleted;
    ar.lifetimeUsage = am.lifetimeUsage;
    ar.preemptions = am.preemptions;
    r.accounts.push_back(ar);
  }
  for (const svc::JobRecord& jr : host.node().jobs()) {
    const svc::AccountId id = jr.desc.account;
    if (id == 0 || id > r.accounts.size()) continue;
    if (jr.firstStartCycle == 0) continue;
    r.accounts[id - 1].waits.push_back(jr.firstStartCycle - jr.submitCycle);
  }
  return r;
}

void printResult(const char* title, const FsResult& r) {
  std::printf("\n%s\n", title);
  bg::bench::printRule();
  std::printf("svc: %llu submitted, %llu completed, %llu failed, "
              "%llu preemptions; utilization %.1f%%\n",
              static_cast<unsigned long long>(r.metrics.jobsSubmitted),
              static_cast<unsigned long long>(r.metrics.jobsCompleted),
              static_cast<unsigned long long>(r.metrics.jobsFailed),
              static_cast<unsigned long long>(
                  r.metrics.count(svc::SvcCounter::kPreemptions)),
              100.0 * r.metrics.utilization);
  std::printf("%-8s %-7s %6s  %9s  %9s  %6s  %6s %10s %10s\n", "account",
              "qos", "shares", "cfg-share", "ach-share", "done", "preempt",
              "wait-p50", "wait-p99");
  for (const AccountReport& a : r.accounts) {
    std::printf("%-8s %-7s %6u  %8.1f%%  %8.1f%%  %6llu  %6llu %10llu %10llu\n",
                a.name.c_str(), a.qos, a.shares, a.configuredSharePct,
                a.achievedSharePct,
                static_cast<unsigned long long>(a.completed),
                static_cast<unsigned long long>(a.preemptions),
                static_cast<unsigned long long>(
                    bench::percentile(a.waits, 50)),
                static_cast<unsigned long long>(
                    bench::percentile(a.waits, 99)));
  }
  std::printf("determinism hash: %016llx (schedule %016llx, "
              "accounting %016llx)\n",
              static_cast<unsigned long long>(r.determinismHash),
              static_cast<unsigned long long>(r.metrics.scheduleHash),
              static_cast<unsigned long long>(r.accountingDigest));
}

}  // namespace

int main(int argc, char** argv) {
  FsParams p;
  bool quick = false;
  bench::Args args("bench_fairshare", "write per-account results as JSON");
  args.value("--nodes", &p.nodes, "N", "compute nodes")
      .value("--jobs", &p.jobs, "N", "jobs in the stream")
      .value("--seed", &p.seed, "S", "cluster and arrival seed")
      .flag("--quick", &quick, "96 jobs unless --jobs is given (CI smoke)");
  if (const int rc = args.parse(argc, argv); rc >= 0) return rc;
  if (quick && !args.given("--jobs")) p.jobs = 96;

  std::printf("fair-share benchmark: %d jobs on %d nodes, seed=%llu "
              "(accounts alpha:4 beta:2 gamma:1/low/maxRunning=3 "
              "urgent:1/high)\n",
              p.jobs, p.nodes, static_cast<unsigned long long>(p.seed));

  const FsResult run1 = runStream(p);
  if (!run1.drained) {
    std::fprintf(stderr, "stream did not drain\n");
    return 1;
  }
  printResult("run 1", run1);

  // Determinism witness: replay the identical stream.
  const FsResult run2 = runStream(p);
  const bool match = run2.determinismHash == run1.determinismHash;
  std::printf("\nreplay determinism hash: %016llx (%s)\n",
              static_cast<unsigned long long>(run2.determinismHash),
              match ? "MATCH" : "MISMATCH");

  if (args.json() != nullptr) {
    sim::Json j = sim::Json::object();
    j.set("bench", "fairshare");
    j.set("nodes", static_cast<std::int64_t>(p.nodes));
    j.set("jobs", static_cast<std::int64_t>(p.jobs));
    j.set("seed", p.seed);
    sim::Json arr = sim::Json::array();
    for (const AccountReport& a : run1.accounts) {
      sim::Json aj = sim::Json::object();
      aj.set("name", a.name);
      aj.set("qos", a.qos);
      aj.set("shares", static_cast<std::uint64_t>(a.shares));
      aj.set("configured_share_pct", a.configuredSharePct);
      aj.set("achieved_share_pct", a.achievedSharePct);
      aj.set("jobs_completed", a.completed);
      aj.set("lifetime_usage", a.lifetimeUsage);
      aj.set("preemptions", a.preemptions);
      aj.set("wait_p50_cycles", bench::percentile(a.waits, 50));
      aj.set("wait_p99_cycles", bench::percentile(a.waits, 99));
      aj.set("wait", bench::statsToJson(bench::computeStats(a.waits)));
      arr.push(std::move(aj));
    }
    j.set("accounts", std::move(arr));
    j.set("preemptions", run1.metrics.count(svc::SvcCounter::kPreemptions));
    j.set("svc", run1.metrics.toJson());
    j.set("accounting_digest", run1.accountingDigest);
    j.set("determinism_hash", run1.determinismHash);
    j.set("replay_hash_match", match);
    if (!bench::maybeWriteJson(args.json(), j)) return 1;
  }
  return match ? 0 : 1;
}
