// Ablation for the paper's §VII-B memory trade-off: "In order to
// provide static mapping with a limited number of TLB entries, the
// memory subsystem may waste physical memory as large pages are tiled
// together."
//
// Sweeps the TLB-entry budget the partitioner may spend and reports
// the resulting page-size choices, entries used, and physical memory
// wasted — the dial between TLB pressure (more, smaller pages) and
// tiling waste (fewer, larger pages).
// --json emits the full sweep grid for bench/diff_runs.py.
#include <cstdio>

#include "bench_util.hpp"
#include "cnk/partitioner.hpp"

using namespace bg;

namespace {

const char* pageName(std::uint64_t p) {
  switch (p) {
    case hw::kPage1M: return "1MB";
    case hw::kPage16M: return "16MB";
    case hw::kPage256M: return "256MB";
    case hw::kPage1G: return "1GB";
  }
  return "-";
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args("bench_memwaste", "write the full sweep grid as JSON");
  if (const int rc = args.parse(argc, argv); rc >= 0) return rc;
  std::printf("Static-map trade-off: TLB budget vs tiling waste "
              "(paper SectionVII-B)\n");
  sim::Json configs = sim::Json::array();

  const struct {
    const char* label;
    std::uint64_t physMB;
    std::uint64_t textMB;
    std::uint64_t dataMB;
  } nodes[] = {
      {"512MB node, 1MB text/data", 464, 1, 1},
      {"2GB node, 16MB text, 64MB data", 2000, 16, 64},
      {"4GB node, 1MB text, 256MB data", 4000, 1, 256},
  };

  for (const auto& n : nodes) {
    std::printf("\n%s (SMP mode):\n", n.label);
    std::printf("  %8s %10s %10s %12s %14s\n", "budget", "heap page",
                "entries", "waste(MB)", "waste(%)");
    sim::Json cj = sim::Json::object();
    cj.set("label", n.label);
    sim::Json points = sim::Json::array();
    for (const int budget : {8, 12, 16, 24, 32, 48, 64}) {
      cnk::PartitionRequest req;
      req.physBase = 16ULL << 20;
      req.physSize = n.physMB << 20;
      req.processes = 1;
      req.textBytes = n.textMB << 20;
      req.dataBytes = n.dataMB << 20;
      req.tlbBudget = budget;
      const auto res = cnk::partitionMemory(req);
      if (!res.ok) {
        std::printf("  %8d %10s  -- %s\n", budget, "-", res.error.c_str());
        continue;
      }
      const auto& hs = res.procs[0].heapStack;
      std::printf("  %8d %10s %10d %12.1f %13.2f%%\n", budget,
                  pageName(hs.pageSize), res.tlbEntriesPerProcess,
                  static_cast<double>(res.wastedBytes) / (1 << 20),
                  100.0 * static_cast<double>(res.wastedBytes) /
                      static_cast<double>(req.physSize));
      sim::Json pt = sim::Json::object();
      pt.set("tlb_budget", static_cast<std::int64_t>(budget));
      pt.set("heap_page", pageName(hs.pageSize));
      pt.set("entries", static_cast<std::int64_t>(res.tlbEntriesPerProcess));
      pt.set("wasted_bytes", res.wastedBytes);
      pt.set("waste_pct", 100.0 * static_cast<double>(res.wastedBytes) /
                              static_cast<double>(req.physSize));
      points.push(std::move(pt));
    }
    cj.set("points", std::move(points));
    configs.push(std::move(cj));
  }
  sim::Json j = sim::Json::object();
  j.set("configs", std::move(configs));
  if (!bench::maybeWriteJson(args.json(), j)) return 1;
  std::printf("\nshape: smaller budgets force larger pages; alignment and "
              "rounding to those pages\nis the physical memory the paper "
              "says the static map may waste.\n");
  return 0;
}
