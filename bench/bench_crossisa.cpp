// E6 — "Cross-ISA consistency" (reconstructed Table 4).
//
// One portable workload, four architectures, one engine: path structure
// must be identical, and witnesses generated on one ISA must replay with
// identical observable behavior on every other ISA (the engine is
// architecture-independent; the ADL carries all ISA specifics). Where
// every ISA asks the solver the same queries from the same witnesses, the
// nearest models make the test inputs themselves identical too
// (inputs-equal).
#include <map>
#include <set>

#include "bench/bench_util.h"
#include "core/testgen.h"
#include "driver/session.h"
#include "isa/registry.h"
#include "workloads/programs.h"

using namespace adlsym;

namespace {

struct Case {
  const char* name;
  workloads::PProgram prog;
};

}  // namespace

int main() {
  std::printf("E6: cross-ISA consistency of the retargetable engine\n\n");
  std::vector<Case> cases;
  cases.push_back({"sum4", workloads::progSum(4)});
  cases.push_back({"max4", workloads::progMax(4)});
  cases.push_back({"earlyexit6", workloads::progEarlyExit(6)});
  cases.push_back({"bitcount6", workloads::progBitcount(6)});
  cases.push_back({"find8", workloads::progFind({3, 9, 27, 81, 243 % 256, 5, 6, 7})});
  cases.push_back({"checksum6", workloads::progChecksum(6)});
  cases.push_back({"sort3", workloads::progSort(3)});
  cases.push_back({"parse2", workloads::progParse(2)});

  std::string pathHeader = "paths";
  for (const std::string& isaName : isa::allIsaNames()) {
    pathHeader += (pathHeader == "paths" ? " " : "/") + isaName;
  }
  benchutil::Table table({"workload", pathHeader, "exits-equal",
                          "inputs-equal", "x-replays", "mismatch"},
                         "crossisa");
  unsigned totalMismatch = 0;
  for (const Case& c : cases) {
    std::map<std::string, std::unique_ptr<driver::Session>> sessions;
    std::map<std::string, core::ExploreSummary> sums;
    for (const std::string& isaName : isa::allIsaNames()) {
      sessions[isaName] = driver::Session::forPortable(c.prog, isaName);
      sums[isaName] = sessions[isaName]->explore();
    }
    std::string counts;
    for (const std::string& isaName : isa::allIsaNames()) {
      if (!counts.empty()) counts += '/';
      counts += std::to_string(sums[isaName].paths.size());
    }
    // Exit-code multisets must agree.
    auto exits = [](const core::ExploreSummary& s) {
      std::multiset<int64_t> out;
      for (const auto& p : s.paths) {
        out.insert(p.exitCode ? static_cast<int64_t>(*p.exitCode) : -1);
      }
      return out;
    };
    // So must the multisets of per-path test inputs.
    auto inputs = [](const core::ExploreSummary& s) {
      std::multiset<std::string> out;
      for (const auto& p : s.paths) out.insert(core::formatTestCase(p.test));
      return out;
    };
    bool exitsEqual = true;
    bool inputsEqual = true;
    const auto refExits = exits(sums["rv32e"]);
    const auto refInputs = inputs(sums["rv32e"]);
    for (const std::string& isaName : isa::allIsaNames()) {
      exitsEqual = exitsEqual && exits(sums[isaName]) == refExits;
      inputsEqual = inputsEqual && inputs(sums[isaName]) == refInputs;
    }
    // Cross replay.
    unsigned replays = 0;
    unsigned mism = 0;
    for (const auto& [fromIsa, summary] : sums) {
      for (const auto& p : summary.paths) {
        if (p.status != core::PathStatus::Exited) continue;
        for (const auto& [toIsa, session] : sessions) {
          const auto r = session->replay(p.test);
          ++replays;
          const bool ok = r.status == core::PathStatus::Exited &&
                          r.exitCode == *p.exitCode && r.outputs == p.outputs;
          mism += ok ? 0 : 1;
        }
      }
    }
    totalMismatch += mism;
    table.addRow({c.name, counts, exitsEqual ? "yes" : "NO",
                  inputsEqual ? "yes" : "no", benchutil::num(replays),
                  benchutil::num(mism)});
  }
  table.print();
  std::printf("\nshape check: path counts identical, exit multisets equal,\n"
              "0 cross-replay mismatches (observed %u).\n", totalMismatch);
  benchutil::writeJsonReport("crossisa");
  return totalMismatch == 0 ? 0 : 1;
}
