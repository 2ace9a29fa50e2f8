// CDCL SAT solver: two-watched-literal propagation, first-UIP clause
// learning, EVSIDS branching, Luby restarts, activity-based learned-clause
// deletion, and incremental solving under assumptions with failed-
// assumption extraction. This is the decision procedure underneath the
// bit-blaster (DESIGN.md S2).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "support/error.h"
#include "support/telemetry.h"

namespace adlsym::smt {

/// A literal encodes variable v with sign: 2*v (positive) or 2*v+1 (negated).
struct Lit {
  uint32_t x = 0xffffffff;

  Lit() = default;
  Lit(uint32_t var, bool negated) : x(var * 2 + (negated ? 1 : 0)) {}

  uint32_t var() const { return x >> 1; }
  bool sign() const { return (x & 1) != 0; }  // true = negated
  Lit operator~() const { Lit l; l.x = x ^ 1; return l; }
  bool valid() const { return x != 0xffffffff; }
  friend bool operator==(Lit a, Lit b) { return a.x == b.x; }
  friend bool operator!=(Lit a, Lit b) { return a.x != b.x; }
};

enum class SatResult { Sat, Unsat, Unknown };

class SatSolver {
 public:
  SatSolver();

  /// Allocate a fresh variable; returns its index.
  uint32_t newVar();
  uint32_t numVars() const { return static_cast<uint32_t>(assigns_.size()); }

  /// Add a clause over existing variables. Returns false if the clause set
  /// is already known unsatisfiable (empty clause derived).
  bool addClause(const std::vector<Lit>& lits) {
    return addClause(lits.data(), lits.size());
  }
  bool addClause(std::initializer_list<Lit> lits) {
    return addClause(lits.begin(), lits.size());
  }
  bool addUnit(Lit l) { return addClause({l}); }
  bool addBinary(Lit a, Lit b) { return addClause({a, b}); }
  bool addTernary(Lit a, Lit b, Lit c) { return addClause({a, b, c}); }

  /// Solve under the given assumption literals. The solver state persists:
  /// learned clauses carry over to later calls.
  ///
  /// `preferred` literals are decided first, in list order and each at its
  /// own phase, before VSIDS picks: after the assumptions, every decision
  /// is the first unassigned preferred literal until none is left. So a
  /// preferred literal ends false only when the clauses, the assumptions
  /// and the preferred literals before it force that, and a Sat model is
  /// the unique one whose disagreements with `preferred`, read as a bit
  /// string in list order, are least — whatever learned clauses, restarts
  /// or earlier solves the core carries.
  SatResult solve(const std::vector<Lit>& assumptions = {},
                  const std::vector<Lit>& preferred = {});

  /// After an Unsat answer of solve(assumptions): the assumptions the
  /// refutation used, a subset of them such that the clauses plus that
  /// subset alone are Unsat. Empty when the clauses alone are Unsat, and
  /// after a Sat or Unknown answer.
  const std::vector<Lit>& failedAssumptions() const { return failed_; }

  /// Model access after Sat: value of a variable.
  bool modelValue(uint32_t var) const;
  bool modelValue(Lit l) const { return modelValue(l.var()) != l.sign(); }

  // ---- statistics ----------------------------------------------------
  struct Stats {
    uint64_t conflicts = 0;
    uint64_t decisions = 0;
    uint64_t propagations = 0;
    uint64_t restarts = 0;
    uint64_t learned = 0;
    uint64_t deletedClauses = 0;
    uint64_t deadlineAborts = 0;  // solves abandoned by setDeadline()

    /// Aggregate another core's stats into this one (a parallel run sums
    /// its workers' cores).
    Stats& operator+=(const Stats& o) {
      conflicts += o.conflicts;
      decisions += o.decisions;
      propagations += o.propagations;
      restarts += o.restarts;
      learned += o.learned;
      deletedClauses += o.deletedClauses;
      deadlineAborts += o.deadlineAborts;
      return *this;
    }
  };
  const Stats& stats() const { return stats_; }
  /// Every clause ever stored, learned and deleted ones included.
  size_t numClauses() const { return clauses_.size(); }

  /// Hard budget: give up (Unknown) after this many conflicts per solve
  /// call. 0 = unlimited.
  void setConflictBudget(uint64_t budget) { conflictBudget_ = budget; }

  /// Wall deadline: give up (Unknown) once `clk` passes `deadlineMicros`
  /// (absolute). Checked at solve entry and at every conflict, so a solve
  /// overshoots by at most one conflict's worth of work. Null clock
  /// disables. The clock is not owned and must outlive the next solve.
  void setDeadline(telemetry::Clock* clk, uint64_t deadlineMicros) {
    deadlineClock_ = clk;
    deadlineMicros_ = deadlineMicros;
  }

 private:
  enum LBool : int8_t { kFalse = 0, kTrue = 1, kUndef = 2 };
  static constexpr uint64_t kInitialLearnedLimit = 4096;

  /// A clause's literals live in arena_[start, start + size). Indices into
  /// clauses_ never change; reduceDB() compacts the arena under them.
  struct Clause {
    uint32_t start = 0;
    uint32_t size = 0;
    double activity = 0.0;
    bool learned = false;
    bool removed = false;
  };

  struct Watcher {
    uint32_t clauseIdx;
    Lit blocker;  // fast skip if blocker already true
  };

  LBool litValue(Lit l) const {
    const LBool v = static_cast<LBool>(assigns_[l.var()]);
    if (v == kUndef) return kUndef;
    return (v == kTrue) != l.sign() ? kTrue : kFalse;
  }

  Lit* litsOf(const Clause& c) { return arena_.data() + c.start; }

  bool addClause(const Lit* lits, size_t n);

  void enqueue(Lit l, int32_t reasonClause);
  /// Returns conflicting clause index or -1.
  int32_t propagate();
  /// First-UIP analysis into learnt_; returns the backtrack level.
  unsigned analyze(int32_t conflictIdx);
  /// Final conflict analysis at an assumption level: append to failed_
  /// the assumption decisions that the n false literals rest on.
  void analyzeFinal(const Lit* lits, size_t n);
  void backtrack(unsigned level);
  /// Store lits as a new clause and watch its first two literals.
  uint32_t storeClause(const Lit* lits, size_t n, bool learned);
  void bumpVar(uint32_t v);
  void decayVarActivity() { varInc_ /= 0.95; }
  void bumpClause(Clause& c);
  uint32_t pickBranchVar();
  void reduceDB();
  void rescaleVarActivity();

  // Indexed max-heap of decision candidates ordered by (activity, index):
  // the next decision is the unassigned variable with the largest
  // activity, ties to the larger index. Every unassigned variable is in
  // the heap; assigned ones may linger and are skipped by pickBranchVar.
  bool heapBelow(uint32_t a, uint32_t b) const {
    return activity_[a] < activity_[b] ||
           (activity_[a] == activity_[b] && a < b);
  }
  void heapInsert(uint32_t v);
  void heapSiftUp(uint32_t i);
  void heapSiftDown(uint32_t i);

  std::vector<Clause> clauses_;
  std::vector<Lit> arena_;                     // literals of every clause
  std::vector<std::vector<Watcher>> watches_;  // indexed by literal
  std::vector<int8_t> assigns_;                // LBool per var
  std::vector<int8_t> savedPhase_;             // phase saving
  std::vector<int32_t> reason_;                // clause idx or -1 per var
  std::vector<uint32_t> level_;                // decision level per var
  std::vector<Lit> trail_;
  std::vector<uint32_t> trailLims_;            // trail size at each level
  size_t qhead_ = 0;

  std::vector<double> activity_;
  double varInc_ = 1.0;
  double clauseInc_ = 1.0;
  std::vector<uint32_t> heap_;
  std::vector<int32_t> heapPos_;  // position in heap_ per var, -1 if absent

  // Scratch buffers, reused across calls.
  std::vector<uint8_t> seen_;   // analyze()
  std::vector<Lit> learnt_;     // analyze() result
  std::vector<Lit> minimized_;  // analyze() minimization
  std::vector<Lit> addBuf_;     // addClause() normalization
  std::vector<Lit> failed_;     // failedAssumptions()

  bool unsatisfiable_ = false;  // empty clause added at level 0
  Stats stats_;
  uint64_t conflictBudget_ = 0;
  telemetry::Clock* deadlineClock_ = nullptr;
  uint64_t deadlineMicros_ = 0;
  uint64_t learnedLimit_ = kInitialLearnedLimit;
};

}  // namespace adlsym::smt
