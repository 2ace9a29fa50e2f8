// Abstract interpretation over the smt::Term DAG (docs/absdomain.md): a
// reduced product of a known-bits domain — the analysis/ternary cube
// lattice reused as carrier, care = "bit is known", value = its value —
// and a wrapped-interval domain (inclusive arcs [lo, hi] on the
// mod-2^width circle, so modular overflow shifts an arc instead of
// destroying it). Every transfer function over-approximates: for any
// concrete operand values inside the operand abstractions, the concrete
// result lies inside the abstract result. That containment property is
// what smt::PreSolver's verdicts and the ADL016/ADL017 lints rest on,
// and what tests/absdom_test.cpp fuzzes against TermManager::evalWith
// and the bit-blasting solver.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/ternary.h"
#include "smt/term.h"

namespace adlsym::analysis {

/// One abstract bitvector value. `bits` carries the known bits (invariant
/// value ⊆ care ⊆ lowMask(width), as in TernaryPattern); [lo, hi] is an
/// inclusive arc on the mod-2^width circle (lo > hi means it wraps
/// through 0; the full arc is normalized to [0, mask]). `bot` marks the
/// empty concretization. The two components are a product: a concrete
/// value is in the concretization iff it matches `bits` AND lies on the
/// arc — either component may be the tighter one.
struct AbsValue {
  TernaryPattern bits;
  uint64_t lo = 0;
  uint64_t hi = 0;
  bool bot = false;

  unsigned width() const { return bits.width; }
  uint64_t mask() const;

  static AbsValue top(unsigned width);
  static AbsValue bottom(unsigned width);
  static AbsValue constant(unsigned width, uint64_t v);
  /// Arc-only value [lo, hi] (no known bits).
  static AbsValue range(unsigned width, uint64_t lo, uint64_t hi);
  /// Known-bits-only value (full arc).
  static AbsValue fromBits(unsigned width, uint64_t care, uint64_t value);

  /// Singleton concretization {v}.
  bool isConst(uint64_t* v = nullptr) const;
  /// Membership test (bits AND arc). False on bottom.
  bool contains(uint64_t x) const;
  /// Arc membership only (ignores known bits and bot).
  bool arcContains(uint64_t x) const;
  /// Number of values on the arc (1 .. 2^width).
  unsigned __int128 arcSize() const;

  /// Unsigned bounds of the concretization (valid when !bot; an empty
  /// concretization that reduce() could not detect may yield min > max).
  uint64_t umin() const;
  uint64_t umax() const;

  /// Smallest / largest value allowed by the known bits alone.
  uint64_t bitsMin() const { return bits.value; }
  uint64_t bitsMax() const;

  /// Debug rendering: "bits=01xx arc=[2,9]" / "const 5" / "bot".
  std::string str() const;
};

/// Canonicalize: mask fields, detect empty concretizations the cheap way
/// (singleton arc vs bits conflict, bits range outside an unwrapped arc),
/// tighten the arc by the bits bounds and vice versa. Every transfer
/// function returns through here.
AbsValue absReduce(AbsValue v);

/// Least upper bound (smallest arc hull containing both, intersection of
/// known bits).
AbsValue absJoin(const AbsValue& a, const AbsValue& b);

/// Greatest lower bound, over-approximating the intersection: the result
/// contains every value in both. Bottom when the intersection is provably
/// empty (bit conflict or disjoint arcs).
AbsValue absMeet(const AbsValue& a, const AbsValue& b);

/// Does the concretization contain at least one value? Decides exactly
/// (the arc / known-bits product admits an O(1) witness search); used by
/// the pre-solver's Sat gate. Returns the smallest witness on success.
std::optional<uint64_t> absPickConcrete(const AbsValue& v);

/// Transfer function for one operator application, mirroring
/// TermManager::evalOp's SMT-LIB semantics (udiv by 0 = all-ones, urem by
/// 0 = identity, shifts >= width saturate). `width` is the RESULT width;
/// operand widths travel inside the AbsValues. `aux` is the Extract
/// range. Operands not used by `k` are ignored.
AbsValue absEvalOp(smt::Kind k, unsigned width, const AbsValue& a,
                   const AbsValue& b, const AbsValue& c, uint64_t aux = 0);

/// Memoizing abstract evaluator over one TermManager's DAG. Variables
/// evaluate to their bound AbsValue (top when unbound). The node budget
/// bounds work per instance: once exhausted, eval() returns nullopt
/// (caller must treat that as "unknown", never as a verdict).
class TermAbsEvaluator {
 public:
  explicit TermAbsEvaluator(const smt::TermManager& tm) : tm_(tm) {}

  /// Bind a Var term (by TermId) to an abstract value. Invalidates the
  /// memo (previous results may have depended on the old binding).
  void bind(smt::TermId var, const AbsValue& v);
  const AbsValue* binding(smt::TermId var) const;
  /// Drop all bindings and the memo.
  void reset();

  void setNodeBudget(size_t nodes) { budget_ = nodes; }
  bool budgetExhausted() const { return spent_ >= budget_; }

  /// Abstract value of `t` under the current bindings, or nullopt when
  /// the node budget ran out mid-walk.
  std::optional<AbsValue> eval(smt::TermRef t);

 private:
  const smt::TermManager& tm_;
  std::unordered_map<smt::TermId, AbsValue> env_;
  std::unordered_map<smt::TermId, AbsValue> memo_;
  size_t budget_ = 1u << 16;
  size_t spent_ = 0;
};

/// One extracted fact: this Var (by TermId) must lie in this AbsValue for
/// the constraint to hold.
using VarRefinement = std::pair<smt::TermId, AbsValue>;

/// Project a width-1 constraint onto per-variable facts: every satisfying
/// assignment of `constraint` (== 1) has each listed variable inside its
/// AbsValue. Over-approximate and purely structural (no environment), so
/// results are cacheable by TermId. Recognizes comparisons against
/// constants (through Not / And / Or polarity), equalities pushed through
/// invertible structure (Not, Neg, Xor/Add/Sub with a constant, Concat,
/// Extract), and bare width-1 variables. Appends to `out`; one variable
/// may appear several times (callers meet).
void appendRefinements(smt::TermRef constraint, std::vector<VarRefinement>& out);

}  // namespace adlsym::analysis
