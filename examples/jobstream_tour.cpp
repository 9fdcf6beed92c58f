// Service-node tour (paper §III): the control system that makes CNK's
// thinness possible. Blue Gene offloads everything stateful — booting
// partitions, queueing jobs, collecting RAS, swapping dead nodes out
// of service — to an external service node, so the compute kernel
// never needs a process manager or a fault handler of its own.
//
// This walkthrough drives a 6-node machine (4 CNK + 2 FWK/Linux nodes,
// MultiK-style) through a mixed job stream, then kills node 1 with an
// injected fatal RAS event mid-job and watches the control system:
//   kill the victim's threads, mark the node down;
//   drain the job's surviving partition nodes (grace period, scrub);
//   requeue the job and relaunch it on healthy nodes;
//   repair + reboot the dead node and fold it back into service.
// The decision timeline and the final metrics are printed; running it
// twice would replay the identical schedule (see bench_jobstream for
// the hash witness).
#include <cstdio>
#include <string>

#include "runtime/app.hpp"
#include "svc/service_node.hpp"
#include "vm/builder.hpp"

using namespace bg;

namespace {

std::shared_ptr<kernel::ElfImage> workImage(const std::string& name,
                                            std::uint64_t reps) {
  vm::ProgramBuilder b(name);
  const auto top = b.loopBegin(16, static_cast<std::int64_t>(reps));
  b.compute(12'000);
  b.loopEnd(16, top);
  b.halt(0);
  return kernel::ElfImage::makeExecutable(name, std::move(b).build());
}

}  // namespace

int main() {
  std::printf("== service-node tour: jobs, a node death, drain + retry ==\n");

  rt::ClusterConfig cfg;
  cfg.computeNodes = 6;
  cfg.nodeKernels = {rt::KernelKind::kCnk, rt::KernelKind::kCnk,
                     rt::KernelKind::kCnk, rt::KernelKind::kCnk,
                     rt::KernelKind::kFwk, rt::KernelKind::kFwk};
  rt::Cluster cluster(cfg);

  svc::ServiceNodeConfig scfg;
  scfg.policy = svc::SchedPolicyKind::kBackfill;
  svc::ServiceNode sn(cluster, scfg);

  // A mixed stream: wide and narrow CNK jobs plus two Linux-node jobs.
  struct JobPlan {
    const char* name;
    rt::KernelKind kind;
    int nodes;
    std::uint64_t reps;
  };
  const JobPlan plan[] = {
      {"wide-cnk", rt::KernelKind::kCnk, 3, 40},
      {"narrow-cnk-a", rt::KernelKind::kCnk, 1, 12},
      {"fwk-daemon-job", rt::KernelKind::kFwk, 1, 20},
      {"narrow-cnk-b", rt::KernelKind::kCnk, 2, 24},
      {"fwk-tail", rt::KernelKind::kFwk, 1, 10},
      {"narrow-cnk-c", rt::KernelKind::kCnk, 1, 16},
  };
  for (const JobPlan& jp : plan) {
    svc::JobDesc jd;
    jd.name = jp.name;
    jd.kernel = jp.kind;
    jd.nodes = jp.nodes;
    jd.exe = workImage(jp.name, jp.reps);
    jd.estCycles = jp.reps * 12'000 + 100'000;
    const svc::JobId id = sn.submit(jd);
    std::printf("submitted job %u: %-15s %d x %s\n", id, jp.name, jp.nodes,
                jp.kind == rt::KernelKind::kCnk ? "CNK" : "FWK");
  }

  // Node 1 dies while the wide job owns it: a fatal RAS event injected
  // through the same aggregator path a machine check would take.
  sn.injectNodeFailure(1, 300'000);
  std::printf("\nnode 1 will suffer a fatal RAS event at cycle 300000\n");

  if (!sn.runUntilDrained()) {
    std::printf("stream did not drain!\n");
    return 1;
  }

  std::printf("\ndecision timeline (cycle / action / job / nodes):\n");
  for (const std::string& line : sn.timeline()) {
    std::printf("%s\n", line.c_str());
  }

  const svc::SvcMetrics m = sn.metrics();
  std::printf("\n%llu/%llu jobs completed, %llu retried after node loss, "
              "%llu node failure(s) repaired\n",
              static_cast<unsigned long long>(m.jobsCompleted),
              static_cast<unsigned long long>(m.jobsSubmitted),
              static_cast<unsigned long long>(
                  m.count(svc::SvcCounter::kRetries)),
              static_cast<unsigned long long>(
                  m.count(svc::SvcCounter::kNodeFailures)));
  std::printf("utilization %.1f%%, mean queue wait %.0f cycles, RAS "
              "%llu info / %llu warn / %llu error / %llu fatal\n",
              100.0 * m.utilization, m.meanQueueWaitCycles,
              static_cast<unsigned long long>(m.rasInfo),
              static_cast<unsigned long long>(m.rasWarn),
              static_cast<unsigned long long>(m.rasError),
              static_cast<unsigned long long>(m.rasFatal));
  std::printf("schedule hash %016llx — same seed, same hash, every run\n",
              static_cast<unsigned long long>(m.scheduleHash));

  std::printf("\nthe paper's lesson: the compute kernel stays simple "
              "because this machinery lives elsewhere.\n");
  return 0;
}
