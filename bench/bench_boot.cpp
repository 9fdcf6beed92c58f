// Regenerates paper §III's boot-time comparison under the 10 Hz VHDL
// cycle-accurate simulator: "CNK boots in a couple of hours, while
// Linux takes weeks. Even stripped down, Linux takes days."
//
// Both kernels' boot sequences are executed on the simulated node; the
// measured simulated-cycle totals are converted to wall time at the
// VHDL rate (10 cycles/second).
#include <cstdio>

#include "bench_util.hpp"
#include "cnk/cnk_kernel.hpp"
#include "fwk/fwk_kernel.hpp"
#include "hw/machine.hpp"

namespace {

using namespace bg;

constexpr double kVhdlHz = 10.0;

struct BootRow {
  const char* name;
  sim::Cycle cycles;
  std::size_t phases;
};

template <typename MakeKernel>
BootRow bootOne(const char* name, MakeKernel make) {
  hw::MachineConfig mc;
  mc.computeNodes = 1;
  hw::Machine machine(mc);
  auto kern = make(machine.node(0));
  kern->boot();
  machine.engine().run();
  return BootRow{name, kern->bootCycles(), kern->bootLog().size()};
}

void printRow(const BootRow& r) {
  const double secs = static_cast<double>(r.cycles) / kVhdlHz;
  const double hours = secs / 3600.0;
  const double days = hours / 24.0;
  std::printf("%-22s %12llu cycles  %8zu phases  %10.1f h  %8.2f d\n",
              r.name, static_cast<unsigned long long>(r.cycles), r.phases,
              hours, days);
}

bg::sim::Json rowToJson(const BootRow& r) {
  const double hours = static_cast<double>(r.cycles) / kVhdlHz / 3600.0;
  bg::sim::Json j = bg::sim::Json::object();
  j.set("kernel", r.name);
  j.set("boot_cycles", static_cast<std::uint64_t>(r.cycles));
  j.set("boot_phases", static_cast<std::uint64_t>(r.phases));
  j.set("vhdl_hours", hours);
  j.set("vhdl_days", hours / 24.0);
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  bg::bench::Args args("bench_boot", "write the per-kernel boot rows as JSON");
  if (const int rc = args.parse(argc, argv); rc >= 0) return rc;
  std::printf("Boot cost under a 10 Hz VHDL cycle-accurate simulator "
              "(paper SectionIII)\n");
  std::printf("%-22s %19s  %14s  %12s  %10s\n", "kernel", "boot work",
              "boot phases", "@10Hz", "");
  const BootRow cnk = bootOne("CNK", [](hw::Node& n) {
    return std::make_unique<cnk::CnkKernel>(n);
  });
  printRow(cnk);
  const BootRow full = bootOne("Linux (full)", [](hw::Node& n) {
    return std::make_unique<fwk::FwkKernel>(n);
  });
  printRow(full);
  const BootRow stripped = bootOne("Linux (stripped)", [](hw::Node& n) {
    fwk::FwkKernel::Config cfg;
    cfg.strippedBoot = true;
    return std::make_unique<fwk::FwkKernel>(n, cfg);
  });
  printRow(stripped);
  std::printf("\npaper: CNK boots in a couple of hours at 10Hz; Linux "
              "takes weeks; stripped Linux days.\n");

  if (args.json() != nullptr) {
    bg::sim::Json j = bg::sim::Json::object();
    j.set("bench", "boot");
    j.set("vhdl_hz", kVhdlHz);
    bg::sim::Json rows = bg::sim::Json::array();
    rows.push(rowToJson(cnk));
    rows.push(rowToJson(full));
    rows.push(rowToJson(stripped));
    j.set("kernels", rows);
    if (!bg::bench::maybeWriteJson(args.json(), j)) return 1;
  }
  return 0;
}
