// Regenerates paper Tables II and III from the in-code capability
// registries of the two kernels.
//
// Table II: ease of USING each capability on CNK vs Linux.
// Table III: for capabilities listed "not avail", the ease of
// IMPLEMENTING them in that OS.
#include <cstdio>
#include <map>
#include <string>

#include "bench_util.hpp"
#include "cnk/capability.hpp"
#include "fwk/capability.hpp"

int main(int argc, char** argv) {
  using namespace bg;
  bench::Args args("bench_capability", "write Tables II and III as JSON");
  if (const int rc = args.parse(argc, argv); rc >= 0) return rc;
  const auto cnk = cnk::cnkCapabilities();
  const auto lnx = fwk::linuxCapabilities();

  std::map<std::string, const kernel::Capability*> cnkBy, lnxBy;
  for (const auto& c : cnk) cnkBy[c.feature] = &c;
  for (const auto& c : lnx) lnxBy[c.feature] = &c;

  sim::Json tableUse = sim::Json::array();
  sim::Json tableImpl = sim::Json::array();

  std::printf("Table II: ease of USING capabilities in CNK and Linux\n");
  std::printf("%-36s %-18s %-18s\n", "Description", "CNK", "Linux");
  std::printf("%s\n", std::string(74, '-').c_str());
  for (const auto& feature : kernel::capabilityFeatures()) {
    const auto* c = cnkBy.at(feature);
    const auto* l = lnxBy.at(feature);
    std::printf("%-36s %-18s %-18s\n", feature.c_str(),
                kernel::easeLabel(c->use), kernel::easeLabel(l->use));
    sim::Json row = sim::Json::object();
    row.set("feature", feature);
    row.set("cnk", kernel::easeLabel(c->use));
    row.set("linux", kernel::easeLabel(l->use));
    tableUse.push(std::move(row));
  }

  std::printf("\nTable III: ease of IMPLEMENTING the capabilities not "
              "available in that OS\n");
  std::printf("%-36s %-18s %-18s\n", "Description", "CNK", "Linux");
  std::printf("%s\n", std::string(74, '-').c_str());
  for (const auto& feature : kernel::capabilityFeatures()) {
    const auto* c = cnkBy.at(feature);
    const auto* l = lnxBy.at(feature);
    const bool cnkMissing = c->use == kernel::Ease::kNotAvail;
    const bool lnxMissing = l->use == kernel::Ease::kNotAvail ||
                            l->use == kernel::Ease::kEasyToHard;
    if (!cnkMissing && !lnxMissing) continue;
    std::printf("%-36s %-18s %-18s\n", feature.c_str(),
                cnkMissing ? kernel::easeLabel(c->implement) : "avail",
                lnxMissing ? kernel::easeLabel(l->implement) : "avail");
    sim::Json row = sim::Json::object();
    row.set("feature", feature);
    row.set("cnk",
            cnkMissing ? kernel::easeLabel(c->implement) : "avail");
    row.set("linux",
            lnxMissing ? kernel::easeLabel(l->implement) : "avail");
    tableImpl.push(std::move(row));
  }

  sim::Json j = sim::Json::object();
  j.set("bench", "capability");
  j.set("features",
        static_cast<std::int64_t>(kernel::capabilityFeatures().size()));
  j.set("table_use", std::move(tableUse));
  j.set("table_implement", std::move(tableImpl));
  if (!bench::maybeWriteJson(args.json(), j)) return 1;
  return 0;
}
