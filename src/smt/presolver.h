// Abstract-interpretation pre-solver (docs/absdomain.md): answers
// trivially-sat/unsat constraint-set queries with the analysis/absdom
// wrapped-interval + known-bits domains, without bit-blasting, and
// Unknown otherwise. SmtSolver no longer consults it (its Sat verdicts
// still needed a solve for the model, and kept Unsat cores answer the
// repeated Unsat sides); it stays as a tested judge over the domain the
// ADL016/ADL017 lints use. Verdicts are a pure function of term
// *structure*, so they are identical across term pools.
//
// The judge is deliberately order-canonical: every phase aggregates over
// the whole constraint set before concluding (no early exits that would
// make the verdict or the abstract-core size depend on the order in
// which two permutations of the same canonical query list their
// constraints).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "analysis/absdom.h"
#include "smt/term.h"

namespace adlsym::smt {

enum class CheckResult;  // smt/solver.h

/// One judged query. `coreConstraints` is meaningful only for Unsat: the
/// size of the abstract core — the falsified constraints plus every
/// constraint whose variable refinements participated in the
/// contradiction (an over-approximation of a minimal core, but a
/// schedule-independent one).
struct PreVerdict {
  CheckResult result;
  unsigned coreConstraints = 0;
};

/// Per-solver (per-worker, shared-nothing) abstract pre-filter. Caches
/// the per-constraint variable refinements by TermId — those are purely
/// structural, so the cache warms up as a path accumulates constraints
/// and every extension of the path re-uses the prefix's work.
class PreSolver {
 public:
  explicit PreSolver(TermManager& tm) : tm_(tm) {}
  PreSolver(const PreSolver&) = delete;
  PreSolver& operator=(const PreSolver&) = delete;

  /// Abstractly evaluate permanent ∪ assumptions (width-1 terms).
  /// Sat / Unsat are sound verdicts; Unknown means "bit-blast it".
  PreVerdict judge(const std::vector<TermRef>& permanent,
                   const std::vector<TermRef>& assumptions);

  /// Cap on abstract-evaluator node visits per judge() call; past it the
  /// verdict is Unknown. The cap is compared against the *total* distinct
  /// DAG nodes of the query, so whether it binds is order-independent.
  void setNodeBudget(size_t nodes) { nodeBudget_ = nodes; }

 private:
  TermManager& tm_;
  std::unordered_map<TermId, std::vector<analysis::VarRefinement>>
      refineCache_;
  size_t nodeBudget_ = 1u << 16;
};

}  // namespace adlsym::smt
