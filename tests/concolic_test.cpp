// Concolic driver: coverage parity with full symbolic exploration, seed
// soundness, and defect discovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/testgen.h"
#include "driver/session.h"
#include "isa/registry.h"
#include "support/fault.h"
#include "workloads/defects.h"
#include "workloads/programs.h"

namespace adlsym::core {
namespace {

using driver::Session;

TEST(Concolic, EnumeratesAllBehaviorsOfBitcount) {
  auto s = Session::forPortable(workloads::progBitcount(4), "rv32e");
  const auto r = s->concolic();
  // Full symbolic exploration has 16 paths. Concolic needs >= 16 runs
  // (seeds may differ in unconstrained bits yet drive the same path) and
  // must hit all 16 low-nibble patterns.
  EXPECT_GE(r.paths.size(), 16u);
  std::set<uint64_t> nibbles;
  std::set<uint64_t> outs;
  for (const auto& p : r.paths) {
    ASSERT_EQ(p.status, PathStatus::Exited);
    outs.insert(p.outputs.at(0));
    nibbles.insert(p.test.inputs.empty() ? 0 : p.test.inputs[0].value & 0xf);
  }
  EXPECT_EQ(nibbles.size(), 16u);
  EXPECT_EQ(outs, (std::set<uint64_t>{0, 1, 2, 3, 4}));
}

TEST(Concolic, CoverageMatchesSymbolicExploration) {
  for (const char* iname : {"rv32e", "stk16"}) {
    auto sc = Session::forPortable(workloads::progParse(2), iname);
    auto ss = Session::forPortable(workloads::progParse(2), iname);
    const auto rc = sc->concolic();
    const auto rs = ss->explore();
    EXPECT_EQ(rc.coveredSet, rs.coveredSet) << iname;
  }
}

TEST(Concolic, IssuesExactlyTheSymbolicQueries) {
  // The generational bound keeps a seed from re-flipping its ancestors'
  // decisions, so concolic search runs exactly the paths symbolic
  // exploration forks; and below the bound a run decides no side
  // (witnessOnly), so it issues one query per side, as symbolic
  // exploration does (E8). Runs, instructions and coverage are those of
  // the search that still re-solved its ancestors' sides.
  const struct {
    const char* name;
    workloads::PProgram prog;
    uint64_t queries, runs, insns, coverage;
  } cases[] = {
      {"bitcount6", workloads::progBitcount(6), 63, 64, 2752, 52},
      {"max5", workloads::progMax(5), 15, 16, 208, 15},
      {"earlyexit12", workloads::progEarlyExit(12), 12, 13, 622, 11},
      {"parse2", workloads::progParse(2), 6, 7, 126, 37},
  };
  for (const auto& c : cases) {
    auto sc = Session::forPortable(c.prog, "rv32e");
    auto ss = Session::forPortable(c.prog, "rv32e");
    const auto rc = sc->concolic();
    const auto rs = ss->explore();
    EXPECT_EQ(ss->solver().stats().queries, c.queries) << c.name;
    EXPECT_EQ(sc->solver().stats().queries, c.queries) << c.name;
    EXPECT_EQ(sc->solver().cacheHits(), 0u) << c.name;
    EXPECT_EQ(rs.paths.size(), c.runs) << c.name;
    EXPECT_EQ(rc.paths.size(), c.runs) << c.name;
    EXPECT_EQ(rc.totalSteps, c.insns) << c.name;
    EXPECT_EQ(rc.coveredSet.size(), c.coverage) << c.name;
    EXPECT_EQ(rc.coveredSet, rs.coveredSet) << c.name;
    EXPECT_FALSE(sc->services().witnessOnly) << c.name;
  }
}

/// Records, for each query, whether it was issued under witnessOnly.
class WitnessOnlyProbe : public smt::QueryListener {
 public:
  explicit WitnessOnlyProbe(const EngineServices& svc) : svc_(svc) {}
  void onCheck(const std::vector<smt::TermRef>&,
               const std::vector<smt::TermRef>&, smt::CheckResult, uint64_t,
               bool) override {
    flags.push_back(svc_.witnessOnly);
  }
  std::vector<bool> flags;

 private:
  const EngineServices& svc_;
};

TEST(Concolic, WitnessOnlyIsClearedOnEveryExit) {
  // A symbolic-index load probes each section's feasibility (feasible()),
  // which queries under witnessOnly too: the runs the branch seeds load
  // below their bound. A fault armed on such a query unwinds the run with
  // the flag set.
  const char* src = R"(
    in8 x1
    andi x1, x1, 15
    lbu x4, 0x200(x1)
    addi x2, x0, 3
    bltu x1, x2, low
    out x4
  low:
    halti 0
  .section lo 0x200 ro
    .byte 1, 2, 3, 4, 5, 6, 7, 8
  .section hi 0x208 ro
    .byte 9, 10, 11, 12, 13, 14, 15, 16
  )";
  Session probe("rv32e", src);
  WitnessOnlyProbe flags(probe.services());
  probe.solver().addQueryListener(&flags);
  (void)probe.concolic();
  EXPECT_FALSE(probe.services().witnessOnly);
  const auto first =
      std::find(flags.flags.begin(), flags.flags.end(), true);
  ASSERT_NE(first, flags.flags.end()) << "no query under witnessOnly";
  const auto nth = static_cast<size_t>(first - flags.flags.begin()) + 1;

  Session s("rv32e", src);
  {
    fault::ScopedArm arm("solver.check:" + std::to_string(nth));
    EXPECT_THROW((void)s.concolic(), fault::InjectedFault);
  }
  EXPECT_FALSE(s.services().witnessOnly);
}

TEST(Concolic, SeedsReplayToTheirRecordedBehavior) {
  auto s = Session::forPortable(workloads::progMax(3), "rv32e");
  const auto r = s->concolic();
  EXPECT_GE(r.paths.size(), 4u);
  for (const auto& p : r.paths) {
    const auto replay = s->replay(p.test);
    ASSERT_EQ(replay.status, p.status) << formatPath(p);
    if (p.status == PathStatus::Exited) {
      EXPECT_EQ(replay.exitCode, *p.exitCode);
      EXPECT_EQ(replay.outputs, p.outputs);
      EXPECT_EQ(replay.steps, p.steps);
    }
  }
}

TEST(Concolic, FindsSeededDefectsWithWitnesses) {
  for (const auto& dc : workloads::defectSuite()) {
    if (!dc.expected) continue;
    SCOPED_TRACE(dc.name);
    auto s = Session::forPortable(dc.program, "rv32e");
    const auto r = s->concolic();
    bool found = false;
    for (const auto& p : r.paths) {
      if (!p.defect) continue;
      EXPECT_EQ(p.defect->kind, *dc.expected);
      found = true;
      const auto replay = s->replay(p.defect->witness);
      EXPECT_EQ(replay.status, PathStatus::Defect);
      EXPECT_EQ(replay.defect, p.defect->kind);
    }
    EXPECT_TRUE(found) << "concolic search missed " << dc.name;
  }
}

TEST(Concolic, NoFalseAlarmsOnGuardedTwins) {
  for (const auto& dc : workloads::defectSuite()) {
    if (dc.expected) continue;
    SCOPED_TRACE(dc.name);
    auto s = Session::forPortable(dc.program, "rv32e");
    const auto r = s->concolic();
    EXPECT_EQ(r.numDefects(), 0u);
  }
}

TEST(Concolic, RunBudgetIsRespected) {
  ConcolicConfig cfg;
  cfg.maxRuns = 3;
  auto s = Session::forPortable(workloads::progBitcount(8), "rv32e");
  const auto r = s->concolic(cfg);
  EXPECT_EQ(r.seedsExecuted, 3u);
  EXPECT_EQ(r.paths.size(), 3u);
  EXPECT_GT(r.seedsGenerated, r.seedsExecuted);
}

TEST(Concolic, JumpBeyondTheTargetBoundRunsEachTargetOnce) {
  // A jalr whose target takes 32 feasible values, one per `halti k` slot:
  // symbolic exploration forks the bound's 16 targets and ends the rest
  // as one Budget path. Concolic search runs the 16 targets once each:
  // every run, the root's included, follows its own seed's target rather
  // than the Budget end, and each target's seed re-reaches the jump below
  // its bound, so its run stops after its own target.
  std::string src = R"(
    in8 x1
    andi x1, x1, 31
    slli x1, x1, 2
    addi x2, x0, table
    add x2, x2, x1
    jalr x0, x2, 0
  table:
)";
  for (int k = 0; k < 32; ++k) src += "    halti " + std::to_string(k) + "\n";
  for (const AdlEngineKind kind :
       {AdlEngineKind::Bytecode, AdlEngineKind::Interp}) {
    driver::SessionOptions opt;
    opt.engineKind = kind;
    Session ss("rv32e", src, opt);
    const auto rs = ss.explore();
    std::set<uint64_t> targets;
    unsigned budgetEnds = 0;
    for (const auto& p : rs.paths) {
      if (p.status == PathStatus::Exited) targets.insert(*p.exitCode);
      if (p.status == PathStatus::Budget) ++budgetEnds;
    }
    EXPECT_EQ(rs.paths.size(), 17u);
    EXPECT_EQ(targets.size(), 16u);
    EXPECT_EQ(budgetEnds, 1u);

    Session sc("rv32e", src, opt);
    const auto rc = sc.concolic();
    std::map<uint64_t, unsigned> runsPerTarget;
    for (const auto& p : rc.paths) {
      if (p.status == PathStatus::Exited) ++runsPerTarget[*p.exitCode];
    }
    std::set<uint64_t> concolicTargets;
    for (const auto& [code, runs] : runsPerTarget) {
      EXPECT_EQ(runs, 1u) << "target " << code;
      concolicTargets.insert(code);
    }
    EXPECT_EQ(concolicTargets, targets);
    EXPECT_EQ(rc.paths.size(), 16u);
    // No seed runs twice: the all-zero root seed is de-duplicated too.
    std::set<std::vector<uint64_t>> inputs;
    for (const auto& p : rc.paths) {
      std::vector<uint64_t> values;
      for (const auto& in : p.test.inputs) values.push_back(in.value);
      EXPECT_TRUE(inputs.insert(values).second)
          << ::testing::PrintToString(values);
    }
    EXPECT_EQ(sc.solver().stats().queries, ss.solver().stats().queries);
  }
}

TEST(Concolic, ConcreteLoopSingleSeed) {
  auto s = Session::forPortable(workloads::progFib(10), "rv32e");
  const auto r = s->concolic();
  ASSERT_EQ(r.paths.size(), 1u);  // no symbolic branches, no new seeds
  EXPECT_EQ(r.paths[0].outputs.at(0), 55u);
  EXPECT_EQ(r.seedsGenerated, 1u);
}

}  // namespace
}  // namespace adlsym::core
