// E8 — "Concolic vs full symbolic exploration" (extension experiment).
//
// The same retargetable executor driven two ways: full symbolic
// exploration (forked in-memory states, each path executed once) vs
// concolic generational search (one concrete path per run, shared
// prefixes re-executed, bounded memory). Classic trade: concolic executes
// more instructions for the same behavior coverage.
#include "bench/bench_util.h"
#include "core/testgen.h"
#include "driver/session.h"
#include "workloads/programs.h"

using namespace adlsym;

namespace {

struct Case {
  const char* name;
  workloads::PProgram prog;
};

}  // namespace

int main() {
  std::printf("E8: concolic generational search vs full symbolic exploration\n\n");
  benchutil::Table table({"workload", "mode", "paths/runs", "insns",
                          "solver-q", "coverage", "wall-ms"},
                         "concolic");
  std::vector<Case> cases;
  cases.push_back({"bitcount6", workloads::progBitcount(6)});
  cases.push_back({"max5", workloads::progMax(5)});
  cases.push_back({"earlyexit12", workloads::progEarlyExit(12)});
  cases.push_back({"parse2", workloads::progParse(2)});

  for (const Case& c : cases) {
    {
      auto session = driver::Session::forPortable(c.prog, "rv32e");
      benchutil::Timer t;
      const auto r = session->explore();
      table.addRow({c.name, "symbolic", benchutil::num(r.paths.size()),
                    benchutil::num(r.totalSteps),
                    benchutil::num(session->solver().stats().queries),
                    benchutil::num(r.coveredPcs),
                    benchutil::fmt("%.2f", t.millis())});
    }
    {
      auto session = driver::Session::forPortable(c.prog, "rv32e");
      benchutil::Timer t;
      const auto r = session->concolic();
      table.addRow({c.name, "concolic", benchutil::num(r.paths.size()),
                    benchutil::num(r.totalSteps),
                    benchutil::num(session->solver().stats().queries),
                    benchutil::num(r.coveredSet.size()),
                    benchutil::fmt("%.2f", t.millis())});
    }
  }
  table.print();
  std::printf("\nshape check: identical instruction coverage, one run per\n"
              "path and the same solver queries; concolic re-executes shared\n"
              "path prefixes (more insns) but keeps one state in memory at a\n"
              "time.\n");
  benchutil::writeJsonReport("concolic");
  return 0;
}
