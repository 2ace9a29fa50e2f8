// Concolic driver: coverage parity with full symbolic exploration, seed
// soundness, and defect discovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/testgen.h"
#include "driver/session.h"
#include "isa/registry.h"
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

TEST(Concolic, RunsEachPathOnce) {
  // The generational bound keeps a seed from re-flipping its ancestors'
  // decisions, so concolic search runs exactly the paths symbolic
  // exploration forks (E8).
  for (const auto& [name, prog] :
       {std::pair{"earlyexit12", workloads::progEarlyExit(12)},
        std::pair{"max5", workloads::progMax(5)}}) {
    auto sc = Session::forPortable(prog, "rv32e");
    auto ss = Session::forPortable(prog, "rv32e");
    const auto rc = sc->concolic();
    const auto rs = ss->explore();
    EXPECT_EQ(rc.paths.size(), rs.paths.size()) << name;
    EXPECT_EQ(rc.coveredSet, rs.coveredSet) << name;
  }
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

TEST(Concolic, ConcreteLoopSingleSeed) {
  auto s = Session::forPortable(workloads::progFib(10), "rv32e");
  const auto r = s->concolic();
  ASSERT_EQ(r.paths.size(), 1u);  // no symbolic branches, no new seeds
  EXPECT_EQ(r.paths[0].outputs.at(0), 55u);
  EXPECT_EQ(r.seedsGenerated, 1u);
}

}  // namespace
}  // namespace adlsym::core
