#include <gtest/gtest.h>

#include <algorithm>

#include "smt/sat.h"
#include "support/rng.h"
#include "support/telemetry.h"

namespace adlsym::smt {
namespace {

Lit pos(uint32_t v) { return Lit(v, false); }
Lit neg(uint32_t v) { return Lit(v, true); }

// PHP(pigeons, holes): every pigeon in some hole, no hole shared.
void addPigeonhole(SatSolver& s, int pigeons, int holes) {
  std::vector<std::vector<uint32_t>> x(pigeons, std::vector<uint32_t>(holes));
  for (auto& row : x) {
    for (auto& v : row) v = s.newVar();
  }
  for (const auto& row : x) {
    std::vector<Lit> some;
    for (const uint32_t v : row) some.push_back(pos(v));
    s.addClause(some);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        s.addBinary(neg(x[p1][h]), neg(x[p2][h]));
      }
    }
  }
}

TEST(Sat, TrivialSat) {
  SatSolver s;
  const uint32_t a = s.newVar();
  s.addUnit(pos(a));
  EXPECT_EQ(s.solve(), SatResult::Sat);
  EXPECT_TRUE(s.modelValue(a));
}

TEST(Sat, TrivialUnsat) {
  SatSolver s;
  const uint32_t a = s.newVar();
  s.addUnit(pos(a));
  EXPECT_FALSE(s.addUnit(neg(a)));
  EXPECT_EQ(s.solve(), SatResult::Unsat);
}

TEST(Sat, EmptyClauseViaSimplification) {
  SatSolver s;
  const uint32_t a = s.newVar();
  s.addUnit(neg(a));
  // Clause {a} simplifies to empty at level 0.
  EXPECT_FALSE(s.addClause({pos(a)}));
  EXPECT_EQ(s.solve(), SatResult::Unsat);
}

TEST(Sat, TautologyAndDuplicatesIgnored) {
  SatSolver s;
  const uint32_t a = s.newVar();
  const uint32_t b = s.newVar();
  EXPECT_TRUE(s.addClause({pos(a), neg(a)}));       // tautology
  EXPECT_TRUE(s.addClause({pos(b), pos(b), pos(b)}));  // collapses to unit
  EXPECT_EQ(s.solve(), SatResult::Sat);
  EXPECT_TRUE(s.modelValue(b));
}

TEST(Sat, PropagationChain) {
  SatSolver s;
  std::vector<uint32_t> v;
  for (int i = 0; i < 10; ++i) v.push_back(s.newVar());
  // v0 and a chain v_i -> v_{i+1}.
  s.addUnit(pos(v[0]));
  for (int i = 0; i + 1 < 10; ++i) s.addBinary(neg(v[i]), pos(v[i + 1]));
  EXPECT_EQ(s.solve(), SatResult::Sat);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(s.modelValue(v[i]));
}

TEST(Sat, PigeonholeUnsat) {
  // 4 pigeons in 3 holes: classic small UNSAT requiring real search.
  SatSolver s;
  addPigeonhole(s, 4, 3);
  EXPECT_EQ(s.solve(), SatResult::Unsat);
  EXPECT_GT(s.stats().conflicts, 0u);
}

TEST(Sat, AssumptionsAreTemporary) {
  SatSolver s;
  const uint32_t a = s.newVar();
  const uint32_t b = s.newVar();
  s.addBinary(neg(a), pos(b));  // a -> b
  EXPECT_EQ(s.solve({pos(a), neg(b)}), SatResult::Unsat);
  EXPECT_EQ(s.solve({pos(a)}), SatResult::Sat);
  EXPECT_TRUE(s.modelValue(b));
  EXPECT_EQ(s.solve({neg(b)}), SatResult::Sat);  // still sat without a
  EXPECT_FALSE(s.modelValue(a));
  EXPECT_EQ(s.solve(), SatResult::Sat);  // and with none
}

TEST(Sat, ConflictingAssumptionsDirectly) {
  SatSolver s;
  const uint32_t a = s.newVar();
  EXPECT_EQ(s.solve({pos(a), neg(a)}), SatResult::Unsat);
  EXPECT_EQ(s.solve({pos(a)}), SatResult::Sat);
}

TEST(Sat, IncrementalClausesAfterSolve) {
  SatSolver s;
  const uint32_t a = s.newVar();
  const uint32_t b = s.newVar();
  s.addBinary(pos(a), pos(b));
  EXPECT_EQ(s.solve(), SatResult::Sat);
  // Add clauses after a Sat answer (the bit-blaster does this constantly).
  const uint32_t c = s.newVar();
  s.addBinary(neg(a), pos(c));
  s.addBinary(neg(b), pos(c));
  EXPECT_EQ(s.solve(), SatResult::Sat);
  EXPECT_TRUE(s.modelValue(c));
}

TEST(Sat, ConflictBudgetReturnsUnknown) {
  // A hard pigeonhole with a tiny budget must give up, not hang or crash.
  SatSolver s;
  addPigeonhole(s, 8, 7);
  s.setConflictBudget(10);
  EXPECT_EQ(s.solve(), SatResult::Unknown);
  s.setConflictBudget(0);
  EXPECT_EQ(s.solve(), SatResult::Unsat);
}

// Random 3-SAT instances, cross-checked against a brute-force evaluator.
class SatRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SatRandomTest, MatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const unsigned numVars = 10;
  const unsigned numClauses = 35 + static_cast<unsigned>(rng.below(20));
  std::vector<std::vector<Lit>> clauses;
  SatSolver s;
  for (unsigned v = 0; v < numVars; ++v) s.newVar();
  for (unsigned i = 0; i < numClauses; ++i) {
    std::vector<Lit> cl;
    for (int k = 0; k < 3; ++k) {
      cl.push_back(Lit(static_cast<uint32_t>(rng.below(numVars)),
                       rng.below(2) == 0));
    }
    clauses.push_back(cl);
    s.addClause(cl);
  }
  // Brute force over all 2^10 assignments.
  bool expectSat = false;
  for (uint32_t m = 0; m < (1u << numVars) && !expectSat; ++m) {
    bool all = true;
    for (const auto& cl : clauses) {
      bool any = false;
      for (const Lit l : cl) {
        const bool val = ((m >> l.var()) & 1) != 0;
        if (val != l.sign()) {
          any = true;
          break;
        }
      }
      if (!any) {
        all = false;
        break;
      }
    }
    expectSat = all;
  }
  const SatResult r = s.solve();
  EXPECT_EQ(r, expectSat ? SatResult::Sat : SatResult::Unsat);
  if (r == SatResult::Sat) {
    // Verify the model actually satisfies every clause.
    for (const auto& cl : clauses) {
      bool any = false;
      for (const Lit l : cl) any = any || s.modelValue(l);
      EXPECT_TRUE(any);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random3Sat, SatRandomTest, ::testing::Range(0, 40));

// ---- failed assumptions ---------------------------------------------------
//
// After an Unsat under assumptions, failedAssumptions() names the
// assumptions the refutation used: the clauses plus those alone are Unsat.
// The core returns Unsat under assumptions at two exits, a conflict at an
// assumption level and an assumption found false while it is being
// re-established; the conflict counter tells them apart.

/// The failed set as sorted literal codes, for order-free comparison.
std::vector<uint32_t> failedCodes(const SatSolver& s) {
  std::vector<uint32_t> out;
  for (const Lit l : s.failedAssumptions()) out.push_back(l.x);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<uint32_t> codes(std::vector<Lit> lits) {
  std::vector<uint32_t> out;
  for (const Lit l : lits) out.push_back(l.x);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(SatFailed, AssumptionFoundFalse) {
  SatSolver s;
  const uint32_t d = s.newVar();  // an assumption no clause mentions
  const uint32_t a = s.newVar();
  const uint32_t b = s.newVar();
  s.addBinary(neg(a), pos(b));  // a -> b
  EXPECT_EQ(s.solve({pos(d), pos(a), neg(b)}), SatResult::Unsat);
  EXPECT_EQ(s.stats().conflicts, 0u);  // ~b was already false
  EXPECT_EQ(failedCodes(s), codes({pos(a), neg(b)}));
}

TEST(SatFailed, AssumptionFalseAtLevelZero) {
  SatSolver s;
  const uint32_t d = s.newVar();
  const uint32_t c = s.newVar();
  s.addUnit(neg(c));
  EXPECT_EQ(s.solve({pos(d), pos(c)}), SatResult::Unsat);
  EXPECT_EQ(s.stats().conflicts, 0u);
  EXPECT_EQ(failedCodes(s), codes({pos(c)}));
}

TEST(SatFailed, ConflictAtAnAssumptionLevel) {
  SatSolver s;
  const uint32_t d = s.newVar();
  const uint32_t a = s.newVar();
  const uint32_t b = s.newVar();
  const uint32_t c = s.newVar();
  s.addTernary(neg(a), neg(b), pos(c));  // a & b -> c
  s.addTernary(neg(a), neg(b), neg(c));  // a & b -> ~c
  EXPECT_EQ(s.solve({pos(d), pos(a), pos(b)}), SatResult::Unsat);
  EXPECT_EQ(s.stats().conflicts, 1u);  // at b's level, under assumptions
  EXPECT_EQ(failedCodes(s), codes({pos(a), pos(b)}));
  // The set belongs to the last solve only.
  EXPECT_EQ(s.solve({pos(a)}), SatResult::Sat);
  EXPECT_TRUE(s.failedAssumptions().empty());
}

TEST(SatFailed, EmptyWhenTheClausesAloneAreUnsat) {
  // PHP(4,3) needs search; its refutation ends in a level-0 conflict that
  // no assumption takes part in.
  SatSolver s;
  addPigeonhole(s, 4, 3);
  const uint32_t e = s.newVar();
  EXPECT_EQ(s.solve({pos(e)}), SatResult::Unsat);
  EXPECT_GT(s.stats().conflicts, 0u);
  EXPECT_TRUE(s.failedAssumptions().empty());
  // An empty clause derived while adding clauses.
  SatSolver t;
  const uint32_t a = t.newVar();
  const uint32_t b = t.newVar();
  t.addUnit(pos(a));
  EXPECT_FALSE(t.addUnit(neg(a)));
  EXPECT_EQ(t.solve({pos(b)}), SatResult::Unsat);
  EXPECT_TRUE(t.failedAssumptions().empty());
}

TEST(SatFailed, EmptyAfterUnknown) {
  SatSolver s;
  addPigeonhole(s, 8, 7);
  const uint32_t e = s.newVar();
  EXPECT_EQ(s.solve({neg(e), pos(e)}), SatResult::Unsat);
  EXPECT_FALSE(s.failedAssumptions().empty());
  s.setConflictBudget(10);
  EXPECT_EQ(s.solve({pos(e)}), SatResult::Unknown);
  EXPECT_TRUE(s.failedAssumptions().empty());
}

/// Brute force over the first numVars variables: does an assignment
/// satisfy every clause and every literal of `units`?
bool bruteSat(unsigned numVars, const std::vector<std::vector<Lit>>& clauses,
              const std::vector<Lit>& units) {
  auto holds = [](uint32_t m, Lit l) {
    return (((m >> l.var()) & 1) != 0) != l.sign();
  };
  for (uint32_t m = 0; m < (1u << numVars); ++m) {
    bool all = std::all_of(units.begin(), units.end(),
                           [&](Lit l) { return holds(m, l); });
    for (size_t i = 0; all && i < clauses.size(); ++i) {
      all = std::any_of(clauses[i].begin(), clauses[i].end(),
                        [&](Lit l) { return holds(m, l); });
    }
    if (all) return true;
  }
  return false;
}

// Random 3-CNFs solved incrementally under random assumption sets,
// checked against brute force: every Unsat names a subset of its
// assumptions that the clauses refute on their own, which is empty only
// when the clauses alone are Unsat.
class SatFailedRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SatFailedRandomTest, FailedAssumptionsAreACore) {
  Rng rng(static_cast<uint64_t>(1000 + GetParam()));
  const unsigned numVars = 10;
  auto lit = [&] {
    return Lit(static_cast<uint32_t>(rng.below(numVars)), rng.below(2) == 0);
  };
  SatSolver s;
  for (unsigned v = 0; v < numVars; ++v) s.newVar();
  std::vector<std::vector<Lit>> clauses;
  for (unsigned round = 0; round < 6; ++round) {
    // Clauses arrive between solves, as the bit-blaster feeds them.
    for (unsigned i = 0; i < 7; ++i) {
      clauses.push_back({lit(), lit(), lit()});
      s.addClause(clauses.back());
    }
    for (unsigned q = 0; q < 4; ++q) {
      std::vector<Lit> assumptions;
      const uint64_t n = 1 + rng.below(6);
      for (uint64_t k = 0; k < n; ++k) assumptions.push_back(lit());
      const SatResult r = s.solve(assumptions);
      const bool sat = bruteSat(numVars, clauses, assumptions);
      ASSERT_EQ(r, sat ? SatResult::Sat : SatResult::Unsat);
      const std::vector<Lit>& failed = s.failedAssumptions();
      if (sat) {
        EXPECT_TRUE(failed.empty());
        continue;
      }
      for (const Lit l : failed) {
        EXPECT_NE(std::find(assumptions.begin(), assumptions.end(), l),
                  assumptions.end());
      }
      EXPECT_FALSE(bruteSat(numVars, clauses, failed));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random3Sat, SatFailedRandomTest,
                         ::testing::Range(0, 40));

// ---- golden trajectories -------------------------------------------------
//
// The decision order is part of the core's contract: models become test
// inputs, and conflicts/decisions/propagations reach the [solver] line.
// A change that alters which variable is picked, which clause is learned
// or which learned clause is deleted changes those artifacts, so these
// instances pin the exact search through restarts, learned-clause
// deletion and activity rescaling. The expected values were recorded
// with an earlier implementation of the core: when one differs, the
// search changed, so fix the core rather than the value.

// Everything a search shows the rest of the system: verdicts, models and
// the stats behind the [solver] work line.
struct Trajectory {
  std::vector<SatResult> verdicts;
  uint64_t modelHash = 0xcbf29ce484222325ull;  // FNV-1a over Sat models
  SatSolver::Stats stats;
  size_t clauses = 0;
};

void solveAndRecord(SatSolver& s, const std::vector<Lit>& assumptions,
                    Trajectory& t) {
  const SatResult r = s.solve(assumptions);
  t.verdicts.push_back(r);
  if (r != SatResult::Sat) return;
  for (uint32_t v = 0; v < s.numVars(); ++v) {
    t.modelHash ^= s.modelValue(v) ? 1 : 0;
    t.modelHash *= 0x100000001b3ull;
  }
}

void finish(const SatSolver& s, Trajectory& t) {
  t.stats = s.stats();
  t.clauses = s.numClauses();
}

Trajectory runPigeonhole(SatSolver& s) {
  Trajectory t;
  addPigeonhole(s, 8, 7);
  solveAndRecord(s, {}, t);
  finish(s, t);
  return t;
}

// Incremental random 3-SAT: variables and clause batches arrive between
// solves, the way the bit-blaster feeds the incremental solver, and each
// round solves once under three random assumptions and once without.
// The clause ratio climbs past the threshold, so verdicts turn Unsat.
Trajectory runIncremental3Sat(SatSolver& s) {
  Rng rng(7);
  Trajectory t;
  auto lit = [&] {
    return Lit(static_cast<uint32_t>(rng.below(s.numVars())),
               rng.below(2) == 0);
  };
  for (unsigned v = 0; v < 150; ++v) s.newVar();
  for (unsigned round = 0; round < 12; ++round) {
    for (unsigned v = 0; v < 2; ++v) s.newVar();
    for (unsigned i = 0; i < 75; ++i) s.addTernary(lit(), lit(), lit());
    std::vector<Lit> assumptions;
    for (unsigned k = 0; k < 3; ++k) assumptions.push_back(lit());
    solveAndRecord(s, assumptions, t);
    solveAndRecord(s, {}, t);
  }
  finish(s, t);
  return t;
}

std::string verdictString(const Trajectory& t) {
  std::string out;
  for (const SatResult r : t.verdicts) {
    out += r == SatResult::Sat ? 'S' : r == SatResult::Unsat ? 'U' : '?';
  }
  return out;
}

TEST(SatGolden, PigeonholeEightSeven) {
  SatSolver s;
  const Trajectory t = runPigeonhole(s);
  EXPECT_EQ(verdictString(t), "U");
  EXPECT_EQ(t.stats.conflicts, 4324u);
  EXPECT_EQ(t.stats.decisions, 5475u);
  EXPECT_EQ(t.stats.propagations, 59786u);
  EXPECT_EQ(t.stats.restarts, 30u);
  EXPECT_EQ(t.stats.learned, 4320u);
  EXPECT_EQ(t.stats.deletedClauses, 2063u);
  EXPECT_EQ(t.clauses, 4524u);
}

TEST(SatGolden, IncrementalRandom3SatUnderAssumptions) {
  SatSolver s;
  const Trajectory t = runIncremental3Sat(s);
  EXPECT_EQ(verdictString(t), "SSSSSSSSSSSSSSSSUSUUUUUU");
  EXPECT_EQ(t.modelHash, 0xa008fd93d6fccb2eull);
  EXPECT_EQ(t.stats.conflicts, 6068u);  // past the activity rescale
  EXPECT_EQ(t.stats.decisions, 8803u);
  EXPECT_EQ(t.stats.propagations, 201982u);
  EXPECT_EQ(t.stats.restarts, 37u);
  EXPECT_EQ(t.stats.learned, 6060u);
  EXPECT_EQ(t.stats.deletedClauses, 2193u);
  EXPECT_EQ(t.clauses, 6802u);
}

}  // namespace
}  // namespace adlsym::smt
