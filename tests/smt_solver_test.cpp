#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "smt/qcache.h"
#include "smt/solver.h"
#include "support/bits.h"
#include "support/telemetry.h"

namespace adlsym::smt {
namespace {

class SolverTest : public ::testing::Test {
 protected:
  TermManager tm;
  SmtSolver s{tm};
  TermRef c(unsigned w, uint64_t v) { return tm.mkConst(w, v); }
};

TEST_F(SolverTest, LinearEquation) {
  TermRef x = tm.mkVar(8, "x");
  // 3x + 7 == 52  ->  x == 15
  TermRef eq = tm.mkEq(tm.mkAdd(tm.mkMul(x, c(8, 3)), c(8, 7)), c(8, 52));
  ASSERT_EQ(s.check({eq}), CheckResult::Sat);
  const uint64_t xv = s.modelValue(x);
  EXPECT_EQ((3 * xv + 7) % 256, 52u);
}

TEST_F(SolverTest, Factoring) {
  TermRef x = tm.mkVar(16, "x");
  TermRef y = tm.mkVar(16, "y");
  TermRef eq = tm.mkEq(tm.mkMul(x, y), c(16, 7 * 13));
  TermRef c1 = tm.mkUgt(x, c(16, 1));
  TermRef c2 = tm.mkUgt(y, c(16, 1));
  TermRef c3 = tm.mkUlt(x, c(16, 50));
  TermRef c4 = tm.mkUlt(y, c(16, 50));
  ASSERT_EQ(s.check({eq, c1, c2, c3, c4}), CheckResult::Sat);
  EXPECT_EQ((s.modelValue(x) * s.modelValue(y)) & 0xffff, 91u);
}

TEST_F(SolverTest, UnsatContradiction) {
  TermRef x = tm.mkVar(8, "x");
  EXPECT_EQ(s.check({tm.mkUlt(x, c(8, 4)), tm.mkUgt(x, c(8, 4))}),
            CheckResult::Unsat);
  // Same solver remains usable.
  EXPECT_EQ(s.check({tm.mkUlt(x, c(8, 4))}), CheckResult::Sat);
  EXPECT_LT(s.modelValue(x), 4u);
}

TEST_F(SolverTest, AssertAlwaysPersists) {
  TermRef x = tm.mkVar(8, "x");
  s.assertAlways(tm.mkUgt(x, c(8, 250)));
  ASSERT_EQ(s.check({}), CheckResult::Sat);
  EXPECT_GT(s.modelValue(x), 250u);
  EXPECT_EQ(s.check({tm.mkUlt(x, c(8, 100))}), CheckResult::Unsat);
}

TEST_F(SolverTest, AssertFalseMakesPermanentlyUnsat) {
  s.assertAlways(tm.mkFalse());
  EXPECT_EQ(s.check({}), CheckResult::Unsat);
  EXPECT_EQ(s.check({tm.mkTrue()}), CheckResult::Unsat);
}

TEST_F(SolverTest, SignedComparisonModels) {
  TermRef x = tm.mkVar(8, "x");
  // x <s 0 and x >s -100: x in (-100, 0)
  ASSERT_EQ(s.check({tm.mkSlt(x, c(8, 0)), tm.mkSgt(x, c(8, 0x9c))}),
            CheckResult::Sat);
  const int64_t v = asSigned(s.modelValue(x), 8);
  EXPECT_LT(v, 0);
  EXPECT_GT(v, -100);
}

TEST_F(SolverTest, ModelOfUnconstrainedVarDefaultsZero) {
  TermRef x = tm.mkVar(8, "x");
  ASSERT_EQ(s.check({tm.mkTrue()}), CheckResult::Sat);
  // x was never blasted: it reads as 0 from the snapshot model.
  EXPECT_EQ(s.modelValue(x), 0u);
}

TEST_F(SolverTest, ModelSurvivesLaterBlasting) {
  TermRef x = tm.mkVar(8, "x");
  ASSERT_EQ(s.check({tm.mkEq(x, c(8, 77))}), CheckResult::Sat);
  EXPECT_EQ(s.modelValue(x), 77u);
  // Evaluate a brand-new term under the same model: requires the snapshot,
  // not the (now disturbed) SAT trail.
  TermRef y = tm.mkVar(8, "y_new");
  TermRef t = tm.mkAdd(x, y);
  EXPECT_EQ(s.modelValue(t), 77u);  // y_new defaults to 0
  EXPECT_EQ(s.modelValue(x), 77u);
}

TEST_F(SolverTest, DivisionConstraints) {
  TermRef x = tm.mkVar(8, "x");
  // x / 10 == 7 and x % 10 == 3  ->  x == 73
  ASSERT_EQ(s.check({tm.mkEq(tm.mkUDiv(x, c(8, 10)), c(8, 7)),
                     tm.mkEq(tm.mkURem(x, c(8, 10)), c(8, 3))}),
            CheckResult::Sat);
  EXPECT_EQ(s.modelValue(x), 73u);
}

TEST_F(SolverTest, ShiftConstraints) {
  TermRef x = tm.mkVar(8, "x");
  TermRef sh = tm.mkVar(8, "sh");
  // (x << sh) == 0x80 with sh == 7 forces x odd.
  ASSERT_EQ(s.check({tm.mkEq(tm.mkShl(x, sh), c(8, 0x80)),
                     tm.mkEq(sh, c(8, 7))}),
            CheckResult::Sat);
  EXPECT_EQ(s.modelValue(x) & 1, 1u);
}

TEST_F(SolverTest, IteConstraints) {
  TermRef x = tm.mkVar(8, "x");
  TermRef sel = tm.mkUlt(x, c(8, 10));
  TermRef v = tm.mkIte(sel, c(8, 1), c(8, 2));
  ASSERT_EQ(s.check({tm.mkEq(v, c(8, 2))}), CheckResult::Sat);
  EXPECT_GE(s.modelValue(x), 10u);
}

TEST_F(SolverTest, StatsAccumulate) {
  TermRef x = tm.mkVar(8, "x");
  (void)s.check({tm.mkEq(x, c(8, 1))});
  (void)s.check({tm.mkEq(x, c(8, 2))});
  (void)s.check({tm.mkAnd(tm.mkEq(x, c(8, 1)), tm.mkEq(x, c(8, 2)))});
  EXPECT_EQ(s.stats().queries, 3u);
  EXPECT_EQ(s.stats().sat, 2u);
  EXPECT_EQ(s.stats().unsat, 1u);
  EXPECT_GT(s.blastStats().termsBlasted, 0u);
}

TEST_F(SolverTest, WideWidths) {
  TermRef x = tm.mkVar(64, "x64");
  ASSERT_EQ(s.check({tm.mkEq(tm.mkMul(x, c(64, 3)), c(64, 0x123456789abcull))}),
            CheckResult::Sat);
  EXPECT_EQ(s.modelValue(x) * 3, 0x123456789abcull);
}

TEST_F(SolverTest, RejectsWrongWidthAssumption) {
  TermRef x = tm.mkVar(8, "x");
  EXPECT_THROW((void)s.check({x}), Error);  // width 8, not 1
}

TEST_F(SolverTest, QueryCacheHitsAndReplaysModels) {
  // The solver keeps no query cache of its own; only an attached shared
  // cache hits (QueryPipeline).
  TermRef x = tm.mkVar(8, "x");
  TermRef q = tm.mkEq(x, c(8, 33));
  ASSERT_EQ(s.check({q}), CheckResult::Sat);
  EXPECT_EQ(s.cacheHits(), 0u);
  // Identical query: solved again, to the same model.
  ASSERT_EQ(s.check({q}), CheckResult::Sat);
  EXPECT_EQ(s.modelValue(x), 33u);
  TermRef p = tm.mkUlt(x, c(8, 100));
  ASSERT_EQ(s.check({q, p}), CheckResult::Sat);
  ASSERT_EQ(s.check({p, q, p}), CheckResult::Sat);
  // A repeated Unsat is answered by the core its first solve kept.
  TermRef bad = tm.mkEq(x, c(8, 44));
  EXPECT_EQ(s.check({q, bad}), CheckResult::Unsat);
  EXPECT_EQ(s.check({q, bad}), CheckResult::Unsat);
  EXPECT_EQ(s.stats().coreHits, 1u);
  EXPECT_EQ(s.cacheHits(), 0u);
}

TEST_F(SolverTest, QueryCacheInvalidatedByAssertAlways) {
  TermRef x = tm.mkVar(8, "x");
  TermRef q = tm.mkUlt(x, c(8, 10));
  ASSERT_EQ(s.check({q}), CheckResult::Sat);
  s.assertAlways(tm.mkEq(x, c(8, 200)));  // contradicts q
  EXPECT_EQ(s.check({q}), CheckResult::Unsat);  // must NOT hit the old entry
}

TEST_F(SolverTest, QueryCacheCanBeDisabled) {
  // Without a shared cache nothing is cached, so there is nothing to
  // disable: a repeated query takes no hit.
  TermRef x = tm.mkVar(8, "x");
  TermRef q = tm.mkEq(x, c(8, 1));
  ASSERT_EQ(s.check({q}), CheckResult::Sat);
  ASSERT_EQ(s.check({q}), CheckResult::Sat);
  EXPECT_EQ(s.cacheHits(), 0u);
}

// Kept Unsat cores: after an incremental Unsat, the assumptions the SAT
// core's refutation used are kept, and a later query containing them is
// Unsat without a solve, answered inside the solve step.
class KeptCores : public SolverTest {
 protected:
  TermRef x = tm.mkVar(8, "x");
  TermRef y = tm.mkVar(8, "y");
  TermRef noSquare = tm.mkEq(tm.mkMul(x, x), c(8, 2));  // Unsat alone
  TermRef small = tm.mkUlt(y, c(8, 200));               // Sat alone
};

TEST_F(KeptCores, SupersetIsUnsatWithoutSolving) {
  ASSERT_EQ(s.check({small, noSquare}), CheckResult::Unsat);
  EXPECT_EQ(s.stats().coresKept, 1u);
  const SatSolver::Stats sat0 = s.satStats();
  const uint64_t direct0 = s.telemetrySnapshot().directSolves;
  const QueryCost canon0 = s.stats().canon;

  EXPECT_EQ(s.check({tm.mkUgt(y, c(8, 7)), noSquare, small}),
            CheckResult::Unsat);
  EXPECT_EQ(s.stats().coreHits, 1u);
  EXPECT_EQ(s.telemetrySnapshot().directSolves, direct0 + 1);
  EXPECT_EQ(s.satStats().conflicts, sat0.conflicts);
  EXPECT_EQ(s.satStats().propagations, sat0.propagations);
  EXPECT_EQ(s.stats().canon.terms, canon0.terms);
  EXPECT_EQ(s.stats().canon.conflicts, canon0.conflicts);
  EXPECT_EQ(s.cacheHits(), 0u);
  EXPECT_TRUE(s.telemetrySnapshot().prefilterReconciled());
  // The core is {noSquare}: y < 200 took no part, so dropping it still
  // hits, and a query without noSquare is solved.
  EXPECT_EQ(s.check({noSquare}), CheckResult::Unsat);
  EXPECT_EQ(s.stats().coreHits, 2u);
  EXPECT_EQ(s.check({small}), CheckResult::Sat);
  EXPECT_EQ(s.stats().coreHits, 2u);
}

TEST_F(KeptCores, SurviveAssertAlways) {
  ASSERT_EQ(s.check({noSquare}), CheckResult::Unsat);
  s.assertAlways(tm.mkNe(x, c(8, 7)));
  EXPECT_EQ(s.check({noSquare, small}), CheckResult::Unsat);
  EXPECT_EQ(s.stats().coreHits, 1u);
}

TEST_F(KeptCores, EmptyCoreMakesTheSolverPermanentlyUnsat) {
  // A permanent assertion that only search refutes (odd squares are 1
  // modulo 8): the refutation uses no assumption, so every later query
  // is Unsat.
  s.assertAlways(tm.mkEq(tm.mkMul(x, x), c(8, 5)));
  ASSERT_EQ(s.check({small}), CheckResult::Unsat);
  EXPECT_EQ(s.stats().directSolves, 1u);  // the SAT core refuted it
  EXPECT_EQ(s.stats().coresKept, 0u);
  const uint64_t short0 = s.stats().preShortcircuit;
  EXPECT_EQ(s.check({tm.mkUgt(y, c(8, 7))}), CheckResult::Unsat);
  EXPECT_EQ(s.stats().preShortcircuit, short0 + 1);
}

TEST_F(KeptCores, UnknownKeepsNone) {
  const TermRef a = tm.mkVar(16, "a");
  const TermRef b = tm.mkVar(16, "b");
  const std::vector<TermRef> factor = {
      tm.mkEq(tm.mkMul(a, b), c(16, 211 * 223)), tm.mkUgt(a, c(16, 1)),
      tm.mkUgt(b, c(16, 1)), tm.mkUlt(a, c(16, 256)), tm.mkUlt(b, c(16, 256))};
  s.setConflictBudget(1);
  ASSERT_EQ(s.check(factor), CheckResult::Unknown);
  ASSERT_EQ(s.check(factor), CheckResult::Unknown);
  EXPECT_EQ(s.stats().coresKept, 0u);
  EXPECT_EQ(s.stats().coreHits, 0u);
}

TEST_F(KeptCores, FreshModeKeepsThemOffTheBooks) {
  // Fresh mode keeps cores in its warm core. A warm answer keeps its
  // bucket and costs nothing canonical, so the snapshot shows no work.
  for (const bool shared : {false, true}) {
    QueryCache cache;
    SmtSolver f(tm);
    f.setFreshMode(true);
    if (shared) f.setSharedCache(&cache);
    ASSERT_EQ(f.check({small, noSquare}), CheckResult::Unsat);
    ASSERT_EQ(f.check({noSquare, tm.mkUgt(y, c(8, 7))}), CheckResult::Unsat);
    EXPECT_EQ(f.stats().coresKept, 1u) << shared;
    EXPECT_EQ(f.stats().coreHits, 1u) << shared;
    EXPECT_EQ(f.stats().directSolves, 2u) << shared;
    const SolverTelemetry t = f.telemetrySnapshot();
    EXPECT_EQ(t.preShortcircuit, 0u) << shared;
    EXPECT_EQ(t.satCore.conflicts + t.satCore.decisions +
                  t.satCore.propagations,
              0u)
        << shared;
    EXPECT_EQ(t.blast.termsBlasted + t.blast.gates, 0u) << shared;
    EXPECT_EQ(t.satVars + t.satClauses, 0u) << shared;
    EXPECT_EQ(t.canon.terms + t.canon.gates + t.canon.conflicts, 0u)
        << shared;
    EXPECT_GT(f.blastStats().termsBlasted, 0u) << shared;  // the warm core's
  }
}

TEST_F(KeptCores, CountersInTheRegistry) {
  telemetry::Telemetry tel;
  s.setTelemetry(&tel);
  ASSERT_EQ(s.check({noSquare}), CheckResult::Unsat);
  ASSERT_EQ(s.check({noSquare, small}), CheckResult::Unsat);
  const auto& counters = tel.metrics().counters();
  EXPECT_EQ(counters.at("solver.cores_kept").value, 1u);
  EXPECT_EQ(counters.at("solver.core_hits").value, 1u);
  // Fresh mode's warm core keeps cores off the books and does not list
  // their counters, so a --jobs run's metrics block has the same names as
  // before cores.
  telemetry::Telemetry freshTel;
  SmtSolver f(tm);
  f.setTelemetry(&freshTel);
  f.setFreshMode(true);
  ASSERT_EQ(f.check({noSquare}), CheckResult::Unsat);
  EXPECT_EQ(freshTel.metrics().counters().count("solver.core_hits"), 0u);
  EXPECT_EQ(freshTel.metrics().counters().count("solver.cores_kept"), 0u);
}

TEST_F(KeptCores, ParanoidModeResolvesCoreHits) {
  // Each core answer is re-solved on the fresh core, which throws if it
  // disagrees. Steps 1 and 2 keep the cores {lo, hi} and {odd, even},
  // proper subsets of their queries, and steps 5 and 6 hit them; a store
  // that kept other assumptions would answer a Sat step Unsat.
  s.setParanoid(true);
  const TermRef lo = tm.mkUlt(x, c(8, 10));
  const TermRef hi = tm.mkUgt(x, c(8, 20));
  const TermRef odd = tm.mkEq(tm.mkAnd(y, c(8, 1)), c(8, 1));
  const TermRef even = tm.mkEq(tm.mkAnd(y, c(8, 1)), c(8, 0));
  const struct {
    std::vector<TermRef> q;
    CheckResult want;
  } steps[] = {
      {{small, lo, odd, hi}, CheckResult::Unsat},
      {{odd, small, even}, CheckResult::Unsat},
      {{lo, odd, small}, CheckResult::Sat},
      {{hi, even, small}, CheckResult::Sat},
      {{hi, lo, even}, CheckResult::Unsat},
      {{small, even, odd, lo}, CheckResult::Unsat},
      {{small, lo}, CheckResult::Sat},
      {{odd, hi}, CheckResult::Sat},
  };
  for (const auto& st : steps) {
    EXPECT_EQ(s.check(st.q), st.want);
  }
  EXPECT_EQ(s.stats().coresKept, 2u);
  EXPECT_EQ(s.stats().coreHits, 2u);
}

// Warm verdicts (fresh mode): a query without a deadline is first decided
// on the solver's warm incremental core. A warm Unsat is final; a Sat or
// Unknown is solved again on the reset fresh core, which gives the model
// and the canonical cost.
class WarmVerdicts : public SolverTest {
 protected:
  TermRef x = tm.mkVar(8, "x");
  TermRef y = tm.mkVar(8, "y");
  TermRef noSquare = tm.mkEq(tm.mkMul(x, x), c(8, 2));  // Unsat alone
  // Sat with many models: x * y == 91 has solutions besides 7 * 13.
  std::vector<TermRef> product = {tm.mkEq(tm.mkMul(x, y), c(8, 91)),
                                  tm.mkUgt(x, c(8, 1)), tm.mkUgt(y, c(8, 1))};

  SmtSolver& fresh() {
    s.setFreshMode(true);
    return s;
  }
};

struct CachedFlags : QueryListener {
  std::vector<bool> cached;
  void onCheck(const std::vector<TermRef>&, const std::vector<TermRef>&,
               CheckResult, uint64_t, bool c) override {
    cached.push_back(c);
  }
};

TEST_F(WarmVerdicts, UnsatCostsNothingAndSolvesNothingFresh) {
  CachedFlags flags;
  fresh().setQueryListener(&flags);
  ASSERT_EQ(s.check({tm.mkUlt(y, c(8, 9)), noSquare}), CheckResult::Unsat);
  const SolverTelemetry t = s.telemetrySnapshot();
  EXPECT_EQ(t.canon.terms + t.canon.gates + t.canon.conflicts, 0u);
  EXPECT_EQ(t.blast.termsBlasted, 0u);  // no fresh solve ran
  EXPECT_EQ(t.satVars, 0u);
  EXPECT_EQ(t.directSolves, 1u);
  EXPECT_EQ(t.preShortcircuit, 0u);
  EXPECT_TRUE(t.prefilterReconciled());
  EXPECT_EQ(s.stats().warmSolves, 1u);
  EXPECT_EQ(s.stats().warmUnsat, 1u);
  EXPECT_EQ(flags.cached, std::vector<bool>{false});
}

TEST_F(WarmVerdicts, SatModelIsThePureFreshModelWhateverTheHistory) {
  // The reference solves fresh only: a query timeout skips the warm step.
  SmtSolver pure(tm);
  pure.setFreshMode(true);
  pure.setQueryTimeoutMicros(uint64_t{1} << 50);
  ASSERT_EQ(pure.check(product), CheckResult::Sat);
  ASSERT_EQ(pure.stats().warmSolves, 0u);
  const uint64_t wantX = pure.modelValue(x);
  const uint64_t wantY = pure.modelValue(y);
  const QueryCost wantCost = pure.stats().canon;

  // Two histories that leave the warm cores in different states.
  const std::vector<std::vector<std::vector<TermRef>>> histories = {
      {},
      {{tm.mkEq(x, c(8, 13))}, {noSquare}, {tm.mkUgt(y, c(8, 100))}},
      {{tm.mkEq(tm.mkMul(x, y), c(8, 91)), tm.mkEq(y, c(8, 7))},
       {tm.mkUlt(x, c(8, 3)), tm.mkUgt(x, c(8, 5))}},
  };
  for (size_t h = 0; h < histories.size(); ++h) {
    SmtSolver f(tm);
    f.setFreshMode(true);
    for (const auto& q : histories[h]) f.check(q);
    const QueryCost before = f.stats().canon;
    ASSERT_EQ(f.check(product), CheckResult::Sat) << h;
    EXPECT_EQ(f.modelValue(x), wantX) << h;
    EXPECT_EQ(f.modelValue(y), wantY) << h;
    EXPECT_EQ(f.stats().canon.terms - before.terms, wantCost.terms) << h;
    EXPECT_EQ(f.stats().canon.gates - before.gates, wantCost.gates) << h;
    EXPECT_EQ(f.stats().canon.conflicts - before.conflicts,
              wantCost.conflicts)
        << h;
  }
}

TEST_F(WarmVerdicts, QueryTimeoutSolvesFreshOnly) {
  fresh().setQueryTimeoutMicros(uint64_t{1} << 50);
  ASSERT_EQ(s.check({noSquare}), CheckResult::Unsat);
  ASSERT_EQ(s.check({noSquare, tm.mkUlt(y, c(8, 9))}), CheckResult::Unsat);
  EXPECT_EQ(s.stats().warmSolves, 0u);
  EXPECT_EQ(s.stats().coreHits, 0u);
  EXPECT_EQ(s.blastStats().termsBlasted, 0u);  // the warm core is unused
  EXPECT_GT(s.stats().canon.terms, 0u);       // both solved fresh
  EXPECT_EQ(s.telemetrySnapshot().directSolves, 2u);
}

TEST_F(WarmVerdicts, UnknownFallsThroughToTheFreshSolve) {
  const TermRef a = tm.mkVar(16, "a");
  const TermRef b = tm.mkVar(16, "b");
  const std::vector<TermRef> factor = {
      tm.mkEq(tm.mkMul(a, b), c(16, 211 * 223)), tm.mkUgt(a, c(16, 1)),
      tm.mkUgt(b, c(16, 1)), tm.mkUlt(a, c(16, 256)), tm.mkUlt(b, c(16, 256))};
  fresh().setConflictBudget(1);
  ASSERT_EQ(s.check(factor), CheckResult::Unknown);
  EXPECT_EQ(s.stats().warmSolves, 1u);
  EXPECT_EQ(s.stats().warmUnsat, 0u);
  EXPECT_GT(s.satStats().conflicts, 0u);  // the warm core hit the budget
  const SolverTelemetry t = s.telemetrySnapshot();
  EXPECT_GT(t.satCore.conflicts, 0u);  // and so did the fresh solve
  EXPECT_EQ(t.canon.conflicts, t.satCore.conflicts);
  EXPECT_GT(t.canon.terms, 0u);
  EXPECT_EQ(t.unknown, 1u);
}

TEST_F(WarmVerdicts, ParanoidModeResolvesWarmAnswers) {
  // Every warm Unsat and every warm core hit is re-solved on a reset
  // fresh core, which throws if it disagrees. Steps 1 and 2 keep the
  // cores {lo, hi} and {odd, even}, proper subsets of their queries, and
  // steps 5 and 6 hit them; a store that kept other assumptions would
  // answer a Sat step Unsat.
  fresh().setParanoid(true);
  const TermRef small = tm.mkUlt(y, c(8, 200));
  const TermRef lo = tm.mkUlt(x, c(8, 10));
  const TermRef hi = tm.mkUgt(x, c(8, 20));
  const TermRef odd = tm.mkEq(tm.mkAnd(y, c(8, 1)), c(8, 1));
  const TermRef even = tm.mkEq(tm.mkAnd(y, c(8, 1)), c(8, 0));
  const struct {
    std::vector<TermRef> q;
    CheckResult want;
  } steps[] = {
      {{small, lo, odd, hi}, CheckResult::Unsat},
      {{odd, small, even}, CheckResult::Unsat},
      {{lo, odd, small}, CheckResult::Sat},
      {{hi, even, small}, CheckResult::Sat},
      {{hi, lo, even}, CheckResult::Unsat},
      {{small, even, odd, lo}, CheckResult::Unsat},
      {{small, lo}, CheckResult::Sat},
      {{odd, hi}, CheckResult::Sat},
  };
  for (const auto& st : steps) {
    EXPECT_EQ(s.check(st.q), st.want);
  }
  EXPECT_EQ(s.stats().coresKept, 2u);
  EXPECT_EQ(s.stats().coreHits, 2u);
  EXPECT_EQ(s.stats().warmUnsat, 4u);
  EXPECT_EQ(s.telemetrySnapshot().directSolves, 8u);
}

TEST_F(WarmVerdicts, RegistryListsTheSameNames) {
  // The warm core reports to no registry, yet a fresh-mode registry lists
  // the SAT and blast names whether or not a fresh solve ran, and never
  // the incremental mode's core counters.
  auto names = [](const auto& metrics) {
    std::string out;
    for (const auto& entry : metrics) out += entry.first + " ";
    return out;
  };
  for (const bool telFirst : {false, true}) {
    telemetry::Telemetry tel;
    SmtSolver f(tm);
    if (telFirst) f.setTelemetry(&tel);
    f.setFreshMode(true);
    if (!telFirst) f.setTelemetry(&tel);
    ASSERT_EQ(f.check({noSquare}), CheckResult::Unsat);
    EXPECT_EQ(names(tel.metrics().counters()),
              "blast.gates blast.terms_blasted sat.solves solver.queries ")
        << telFirst;
    EXPECT_EQ(names(tel.metrics().histograms()),
              "sat.conflicts_per_solve sat.decisions_per_solve "
              "solver.query_us ")
        << telFirst;
    EXPECT_EQ(tel.metrics().counters().at("sat.solves").value, 0u);
    EXPECT_EQ(tel.metrics().counters().at("blast.gates").value, 0u);
    // A Sat is solved fresh, on the books.
    ASSERT_EQ(f.check(product), CheckResult::Sat);
    EXPECT_EQ(tel.metrics().counters().at("sat.solves").value, 1u);
  }
}

// Fresh mode solves every query the warm core does not refute on one SAT
// core and bit-blaster, reset to the just-constructed state before each
// query. The reuse must not show: one solver answering a sequence gives
// the verdicts, models and stats totals of a new solver per query.
TEST(FreshCoreReuse, MatchesANewSolverPerQuery) {
  TermManager tm;
  auto c = [&](unsigned w, uint64_t v) { return tm.mkConst(w, v); };
  const TermRef x = tm.mkVar(8, "x");
  const TermRef y = tm.mkVar(8, "y");
  const TermRef a = tm.mkVar(16, "a");
  const TermRef b = tm.mkVar(16, "b");
  struct Query {
    std::vector<TermRef> assumptions;
    uint64_t conflictBudget;
    CheckResult expected;
  };
  const std::vector<Query> queries = {
      // Bit-blasted Sat.
      {{tm.mkEq(tm.mkMul(x, y), c(8, 91)), tm.mkUgt(x, c(8, 1)),
        tm.mkUgt(y, c(8, 1))},
       0,
       CheckResult::Sat},
      // A second Sat, on the reset core.
      {{tm.mkUlt(x, c(8, 10))}, 0, CheckResult::Sat},
      // Bit-blasted Unsat: 2 is no square modulo 256.
      {{tm.mkEq(tm.mkMul(x, x), c(8, 2))}, 0, CheckResult::Unsat},
      // Factoring 211 * 223, cut by a one-conflict budget...
      {{tm.mkEq(tm.mkMul(a, b), c(16, 211 * 223)), tm.mkUgt(a, c(16, 1)),
        tm.mkUgt(b, c(16, 1)), tm.mkUlt(a, c(16, 256)),
        tm.mkUlt(b, c(16, 256))},
       1,
       CheckResult::Unknown},
      // ...and an ordinary query after it.
      {{tm.mkEq(tm.mkAdd(tm.mkMul(x, c(8, 3)), c(8, 7)), c(8, 52))},
       0,
       CheckResult::Sat},
  };

  SmtSolver reused(tm);
  reused.setFreshMode(true);

  SolverTelemetry sum;
  for (const Query& q : queries) {
    reused.setConflictBudget(q.conflictBudget);
    ASSERT_EQ(reused.check(q.assumptions), q.expected);

    SmtSolver one(tm);
    one.setFreshMode(true);
    one.setConflictBudget(q.conflictBudget);
    ASSERT_EQ(one.check(q.assumptions), q.expected);
    if (q.expected == CheckResult::Sat) {
      for (const TermRef v : {x, y, a, b}) {
        EXPECT_EQ(reused.modelValue(v), one.modelValue(v));
      }
    }
    sum += one.telemetrySnapshot();
  }

  const SolverTelemetry t = reused.telemetrySnapshot();
  EXPECT_GT(t.satCore.conflicts, 0u);
  EXPECT_EQ(t.satCore.conflicts, sum.satCore.conflicts);
  EXPECT_EQ(t.satCore.decisions, sum.satCore.decisions);
  EXPECT_EQ(t.satCore.propagations, sum.satCore.propagations);
  EXPECT_EQ(t.satCore.restarts, sum.satCore.restarts);
  EXPECT_EQ(t.satCore.learned, sum.satCore.learned);
  EXPECT_EQ(t.satCore.deletedClauses, sum.satCore.deletedClauses);
  EXPECT_EQ(t.satCore.deadlineAborts, sum.satCore.deadlineAborts);
  EXPECT_EQ(t.blast.gates, sum.blast.gates);
  EXPECT_EQ(t.blast.cacheHits, sum.blast.cacheHits);
  EXPECT_EQ(t.blast.termsBlasted, sum.blast.termsBlasted);
  EXPECT_EQ(t.canon.terms, sum.canon.terms);
  EXPECT_EQ(t.canon.gates, sum.canon.gates);
  EXPECT_EQ(t.canon.conflicts, sum.canon.conflicts);
  EXPECT_EQ(t.satVars, sum.satVars);
  EXPECT_EQ(t.satClauses, sum.satClauses);
}

// Every check() runs one pipeline: short-circuits, shared-cache lookup,
// deadline, solve (kept cores first), publish. The configurations differ
// only in the solve step (incremental core, or warm core then reset
// fresh core) and in whether the shared cache sits in front of it. One
// query sequence, run through all three, pins what each configuration
// observes.
struct PipelineConfig {
  const char* name;
  bool fresh;  // fresh mode (else incremental)
  bool cache;  // shared cache attached
};

struct PipelineOutcome {
  std::string verdicts;          // one letter per query: S, U or ?
  std::vector<uint64_t> models;  // x after every check() that was Sat
  uint64_t cacheHits, shortcircuit, direct;  // the three buckets
  QueryCost canon;

  bool operator==(const PipelineOutcome&) const = default;
};

std::ostream& operator<<(std::ostream& os, const PipelineOutcome& o) {
  os << "{\"" << o.verdicts << "\", {";
  for (size_t i = 0; i < o.models.size(); ++i) {
    os << (i ? ", " : "") << o.models[i];
  }
  return os << "}, " << o.cacheHits << ", " << o.shortcircuit << ", "
            << o.direct << ", {" << o.canon.terms << ", " << o.canon.gates
            << ", " << o.canon.conflicts << "}}";
}

PipelineOutcome runPipelineSequence(const PipelineConfig& cfg) {
  TermManager tm;
  auto c = [&](unsigned w, uint64_t v) { return tm.mkConst(w, v); };
  const TermRef x = tm.mkVar(8, "x");
  const TermRef a = tm.mkVar(16, "a");
  const TermRef b = tm.mkVar(16, "b");
  QueryCache shared;
  SmtSolver s(tm);
  s.setFreshMode(cfg.fresh);
  if (cfg.cache) s.setSharedCache(&shared);
  // Re-solves every incremental solve on the fresh core, off the books:
  // it must agree, and it leaves every count below alone.
  s.setParanoid(true);

  PipelineOutcome o{};
  auto check = [&](const std::vector<TermRef>& q) {
    const CheckResult r = s.check(q);
    o.verdicts += r == CheckResult::Sat     ? 'S'
                  : r == CheckResult::Unsat ? 'U'
                                            : '?';
    if (r == CheckResult::Sat) o.models.push_back(s.modelValue(x));
  };

  // 1. A query the SAT core decides (3x + 7 == 52: x = 15), then again.
  const std::vector<TermRef> linear = {
      tm.mkEq(tm.mkAdd(tm.mkMul(x, c(8, 3)), c(8, 7)), c(8, 52))};
  check(linear);
  check(linear);
  // 2. A Sat with one model, three times (8 < x < 10: x = 9).
  const std::vector<TermRef> interval = {tm.mkUgt(x, c(8, 8)),
                                         tm.mkUlt(x, c(8, 10))};
  check(interval);
  check(interval);
  check(interval);
  // 3. Unsat: 2 is no square modulo 256.
  check({tm.mkEq(tm.mkMul(x, x), c(8, 2))});
  // 4. Factoring 211 * 223 cut by a one-conflict budget, twice: Unknown
  // is never cached.
  const std::vector<TermRef> factor = {
      tm.mkEq(tm.mkMul(a, b), c(16, 211 * 223)), tm.mkUgt(a, c(16, 1)),
      tm.mkUgt(b, c(16, 1)), tm.mkUlt(a, c(16, 256)), tm.mkUlt(b, c(16, 256))};
  s.setConflictBudget(1);
  check(factor);
  check(factor);
  s.setConflictBudget(0);
  // 5. A constant-false assumption, twice.
  check({linear[0], tm.mkFalse()});
  check({linear[0], tm.mkFalse()});
  // 6. A permanent assertion that contradicts the query of step 1.
  s.assertAlways(tm.mkNe(x, c(8, 15)));
  check(linear);
  // 7. A superset of step 3's query: both modes answer it by the core
  // step 3 kept, which step 6's assertion left standing.
  check({tm.mkUlt(x, c(8, 200)), tm.mkEq(tm.mkMul(x, x), c(8, 2))});

  const SolverTelemetry t = s.telemetrySnapshot();
  EXPECT_TRUE(t.prefilterReconciled()) << cfg.name;
  EXPECT_EQ(s.cacheHits(), t.cacheHits) << cfg.name;
  o.cacheHits = t.cacheHits;
  o.shortcircuit = t.preShortcircuit;
  o.direct = t.directSolves;
  o.canon = t.canon;
  return o;
}

TEST(QueryPipeline, SameSequenceThroughEveryConfiguration) {
  // Verdicts and models agree everywhere. With the shared cache, step 1's
  // repeat and step 2's last two checks hit and replay the model the first
  // one published; uncached, each check re-solves. Both constant-false
  // checks short-circuit (uncached) in every mode; step 7 is a kept-core
  // answer inside the solve step, a direct solve at zero cost in both
  // modes. Canonical costs depend only on the solve step: incremental
  // blasting reuses earlier queries' terms, and fresh mode pays only for
  // Sat and Unknown verdicts (steps 1, 2 and 4), as every Unsat is a warm
  // answer.
  const std::vector<uint64_t> m = {15, 15, 9, 9, 9};
  const struct {
    PipelineConfig cfg;
    PipelineOutcome want;
  } rows[] = {
      {{"incremental, no cache", false, false},
       {"SSSSSU??UUUU", m, 0, 2, 10, {25, 980, 5}}},
      {{"fresh, shared cache", true, true},
       {"SSSSSU??UUUU", m, 3, 2, 7, {51, 1722, 4}}},
      {{"fresh, no cache", true, false},
       {"SSSSSU??UUUU", m, 0, 2, 10, {51, 1722, 4}}},
  };
  for (const auto& row : rows) {
    EXPECT_EQ(runPipelineSequence(row.cfg), row.want) << row.cfg.name;
  }
}

}  // namespace
}  // namespace adlsym::smt
