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

TEST_F(KeptCores, CountedInTheSnapshotNotTheRegistry) {
  // Which cores exist depends on what the solver refuted before, so the
  // counts are work counters: in the snapshot (the [solver] line), never
  // in the registry, which lists the same names whatever was solved.
  telemetry::Telemetry tel;
  s.setTelemetry(&tel);
  ASSERT_EQ(s.check({noSquare}), CheckResult::Unsat);
  ASSERT_EQ(s.check({noSquare, small}), CheckResult::Unsat);
  ASSERT_EQ(s.check({small}), CheckResult::Sat);
  const SolverTelemetry t = s.telemetrySnapshot();
  EXPECT_EQ(t.coresKept, 1u);
  EXPECT_EQ(t.coreHits, 1u);
  EXPECT_NE(t.workLine().find(" cores_kept=1 core_hits=1\n"),
            std::string::npos)
      << t.workLine();
  auto names = [](const auto& metrics) {
    std::string out;
    for (const auto& entry : metrics) out += entry.first + " ";
    return out;
  };
  EXPECT_EQ(names(tel.metrics().counters()), "solver.queries ");
  EXPECT_EQ(names(tel.metrics().histograms()), "solver.query_us ");
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

// Nearest witnesses: check(assumptions, inputs, witness) decides the
// inputs' bits first, each at the witness's bit, so its Sat model is the
// one whose XOR with the witness is least, inputs in order and each from
// its top bit.
class NearestWitness : public SolverTest {
 protected:
  TermRef x = tm.mkVar(4, "x");
  TermRef y = tm.mkVar(4, "y");
  TermRef noSquare = tm.mkEq(tm.mkMul(x, x), c(4, 2));  // Unsat alone

  /// Brute force: the (x, y) satisfying `q` nearest `w`, where an input
  /// past w's end prefers 0.
  std::pair<uint64_t, uint64_t> nearest(const std::vector<TermRef>& q,
                                        const std::vector<uint64_t>& w) {
    const uint64_t wx = w.size() > 0 ? w[0] : 0;
    const uint64_t wy = w.size() > 1 ? w[1] : 0;
    std::pair<uint64_t, uint64_t> best;
    uint64_t bestKey = UINT64_MAX;
    for (uint64_t vx = 0; vx < 16; ++vx) {
      for (uint64_t vy = 0; vy < 16; ++vy) {
        const bool sat = std::all_of(q.begin(), q.end(), [&](TermRef t) {
          return tm.evalWith(t, [&](uint32_t idx) {
                   return idx == tm.varIndex(x.id()) ? vx : vy;
                 }) != 0;
        });
        const uint64_t key = (vx ^ wx) << 4 | (vy ^ wy);
        if (sat && key < bestKey) {
          bestKey = key;
          best = {vx, vy};
        }
      }
    }
    EXPECT_NE(bestKey, UINT64_MAX) << "query has no model";
    return best;
  }
};

TEST_F(NearestWitness, ModelIsTheLeastXorWithTheWitness) {
  const std::vector<std::vector<TermRef>> queries = {
      {tm.mkEq(tm.mkAdd(x, y), c(4, 9))},
      {tm.mkEq(tm.mkMul(x, y), c(4, 6)), tm.mkUgt(x, c(4, 1))},
      {tm.mkUlt(x, y), tm.mkEq(tm.mkAnd(tm.mkXor(x, y), c(4, 5)), c(4, 5))},
      {tm.mkSlt(tm.mkSub(x, y), c(4, 0)), tm.mkNe(y, c(4, 15))},
  };
  const std::vector<std::vector<uint64_t>> witnesses = {
      {0xf, 0xf}, {0xa, 0x5}, {0x6}, {0x9, 0x3}};
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    for (size_t wi = 0; wi < witnesses.size(); ++wi) {
      const auto want = nearest(queries[qi], witnesses[wi]);
      // A new core per case, and the same core throughout: the model is
      // the nearest either way.
      SmtSolver one(tm);
      for (SmtSolver* solver : {&one, &s}) {
        ASSERT_EQ(solver->check(queries[qi], {x, y}, witnesses[wi]),
                  CheckResult::Sat);
        EXPECT_EQ(solver->modelValue(x), want.first) << qi << "/" << wi;
        EXPECT_EQ(solver->modelValue(y), want.second) << qi << "/" << wi;
      }
      // Without preferences the core's model is another one, so the case
      // shows the preferences at work.
      SmtSolver plain(tm);
      ASSERT_EQ(plain.check(queries[qi]), CheckResult::Sat);
      EXPECT_NE(std::make_pair(plain.modelValue(x), plain.modelValue(y)), want)
          << qi << "/" << wi;
    }
  }
}

TEST_F(NearestWitness, HistoryLeavesTheModelAndTheCostUnchanged) {
  TermRef a = tm.mkVar(8, "a");
  TermRef b = tm.mkVar(8, "b");
  // Sat with many models: a * b == 91 has solutions besides 7 * 13.
  const std::vector<TermRef> product = {tm.mkEq(tm.mkMul(a, b), c(8, 91)),
                                        tm.mkUgt(a, c(8, 1)),
                                        tm.mkUgt(b, c(8, 1))};
  const std::vector<uint64_t> witness = {200, 3};
  SmtSolver pure(tm);
  ASSERT_EQ(pure.check(product, {a, b}, witness), CheckResult::Sat);
  const uint64_t wantA = pure.modelValue(a);
  const uint64_t wantB = pure.modelValue(b);
  EXPECT_EQ((wantA * wantB) & 0xff, 91u);
  const QueryCost wantCost = pure.stats().canon;
  EXPECT_GT(wantCost.terms, 0u);
  EXPECT_GT(wantCost.gates, 0u);

  // Histories that leave the core with other learned clauses, kept cores,
  // phases and already-blasted terms (the product's among them).
  const std::vector<std::vector<std::vector<TermRef>>> histories = {
      {{tm.mkEq(a, c(8, 13))}, {noSquare}, {tm.mkUgt(b, c(8, 100))}},
      {{tm.mkEq(tm.mkMul(a, b), c(8, 91)), tm.mkEq(b, c(8, 7))},
       {tm.mkUlt(a, c(8, 3)), tm.mkUgt(a, c(8, 5))}},
      {product, {tm.mkEq(tm.mkMul(a, a), c(8, 2))}},
  };
  for (size_t h = 0; h < histories.size(); ++h) {
    SmtSolver f(tm);
    for (const auto& q : histories[h]) f.check(q, {a, b, x}, {h, 7 * h, 1});
    const QueryCost before = f.stats().canon;
    ASSERT_EQ(f.check(product, {a, b}, witness), CheckResult::Sat) << h;
    EXPECT_EQ(f.modelValue(a), wantA) << h;
    EXPECT_EQ(f.modelValue(b), wantB) << h;
    EXPECT_EQ(f.stats().canon.terms - before.terms, wantCost.terms) << h;
    EXPECT_EQ(f.stats().canon.gates - before.gates, wantCost.gates) << h;
  }
}

struct CachedFlags : QueryListener {
  std::vector<bool> cached;
  void onCheck(const std::vector<TermRef>&, const std::vector<TermRef>&,
               CheckResult, uint64_t, bool c) override {
    cached.push_back(c);
  }
};

TEST_F(NearestWitness, UnsatAndUnknownCostNothing) {
  CachedFlags flags;
  s.setQueryListener(&flags);
  ASSERT_EQ(s.check({tm.mkUlt(y, c(4, 9)), noSquare}, {x, y}, {3, 3}),
            CheckResult::Unsat);
  const TermRef a = tm.mkVar(16, "a");
  const TermRef b = tm.mkVar(16, "b");
  const std::vector<TermRef> factor = {
      tm.mkEq(tm.mkMul(a, b), c(16, 211 * 223)), tm.mkUgt(a, c(16, 1)),
      tm.mkUgt(b, c(16, 1)), tm.mkUlt(a, c(16, 256)), tm.mkUlt(b, c(16, 256))};
  s.setConflictBudget(1);
  ASSERT_EQ(s.check(factor, {a, b}, {}), CheckResult::Unknown);
  const SolverTelemetry t = s.telemetrySnapshot();
  EXPECT_EQ(t.canon.terms + t.canon.gates, 0u);
  EXPECT_GT(t.satCore.conflicts, 0u);  // work, but no canonical cost
  EXPECT_EQ(t.directSolves, 2u);
  EXPECT_TRUE(t.prefilterReconciled());
  EXPECT_EQ(flags.cached, (std::vector<bool>{false, false}));
}

TEST_F(NearestWitness, ModelCheckRejectsAModelThatFalsifiesTheQuery) {
  ASSERT_EQ(s.check({tm.mkEq(x, c(4, 5))}, {x}, {9}), CheckResult::Sat);
  ASSERT_EQ(s.modelValue(x), 5u);
  EXPECT_NO_THROW(s.verifyModel({tm.mkEq(x, c(4, 5)), tm.mkUlt(y, c(4, 1))}));
  // x = 5 falsifies the assumption x == 6: an internal error.
  try {
    s.verifyModel({tm.mkUlt(y, c(4, 1)), tm.mkEq(x, c(4, 6))});
    FAIL() << "a falsified assumption passed the model check";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("internal error"), std::string::npos)
        << e.what();
  }
  // So does a permanent assertion the model falsifies.
  s.assertAlways(tm.mkNe(x, c(4, 5)));
  EXPECT_THROW(s.verifyModel({}), Error);
}

// Every check() runs one pipeline: short-circuits, shared-cache lookup,
// deadline, solve (kept cores first), publish. The configurations differ
// only in whether the shared cache sits in front of the solve step. One
// query sequence, run through both, pins what each configuration
// observes.
struct PipelineConfig {
  const char* name;
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
            << "}}";
}

PipelineOutcome runPipelineSequence(const PipelineConfig& cfg) {
  TermManager tm;
  auto c = [&](unsigned w, uint64_t v) { return tm.mkConst(w, v); };
  const TermRef x = tm.mkVar(8, "x");
  const TermRef a = tm.mkVar(16, "a");
  const TermRef b = tm.mkVar(16, "b");
  QueryCache shared;
  SmtSolver s(tm);
  if (cfg.cache) s.setSharedCache(&shared);
  // Re-solves every incremental solve with checkFresh, off the books: it
  // must agree, and it leaves every count below alone.
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
  // 7. A superset of step 3's query: answered by the core step 3 kept,
  // which step 6's assertion left standing.
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
  // checks short-circuit (uncached); step 7 is a kept-core answer inside
  // the solve step, a direct solve. Only Sat verdicts cost anything
  // canonical, each its cone, so a hit's replayed cost sums to what the
  // uncached re-solve costs.
  const std::vector<uint64_t> m = {15, 15, 9, 9, 9};
  const struct {
    PipelineConfig cfg;
    PipelineOutcome want;
  } rows[] = {
      {{"no cache", false}, {"SSSSSU??UUUU", m, 0, 2, 10, {29, 170}}},
      {{"shared cache", true}, {"SSSSSU??UUUU", m, 3, 2, 7, {29, 170}}},
  };
  for (const auto& row : rows) {
    EXPECT_EQ(runPipelineSequence(row.cfg), row.want) << row.cfg.name;
  }
}

}  // namespace
}  // namespace adlsym::smt
