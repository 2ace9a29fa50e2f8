// Hash-consed bitvector term DAG — the expression layer of the SMT
// substrate (DESIGN.md S2). Everything is a bitvector of width 1..64;
// booleans are width-1 bitvectors, which keeps the bit-blaster uniform.
//
// Terms are immutable and deduplicated: building the same term twice yields
// the same TermId, so structural equality is pointer equality and the
// symbolic-execution core can share subterms freely across forked states.
// A TermId is only a handle into one pool; what a term *is* across pools
// is its structural hash (TermNode::named), and every order on terms —
// commutative operands, canonical query keys — is taken from that hash.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/error.h"

namespace adlsym::smt {

enum class Kind : uint8_t {
  Const,    // aux = value (truncated to width)
  Var,      // aux = index into variable side table
  Not,      // bitwise complement
  Neg,      // two's-complement negation
  And, Or, Xor,
  Add, Sub, Mul,
  UDiv, URem,        // SMT-LIB semantics: udiv(x,0)=all-ones, urem(x,0)=x
  SDiv, SRem,        // round toward zero; by-zero per SMT-LIB translation
  Shl, LShr, AShr,   // shift amount is operand b (same width); >=w shifts
                     // give 0 (Shl/LShr) or sign replication (AShr)
  Concat,            // a is the HIGH part, b the LOW part
  Extract,           // aux = (hi << 8) | lo, inclusive bit range of operand a
  Eq, Ult, Ule, Slt, Sle,  // comparisons; result width 1
  Ite,               // a = condition (width 1), b = then, c = else
};

const char* kindName(Kind k);

using TermId = uint32_t;
inline constexpr TermId kInvalidTerm = 0xffffffff;

struct TermNode {
  Kind kind;
  uint8_t width;       // result width, 1..64
  TermId a = kInvalidTerm;
  TermId b = kInvalidTerm;
  TermId c = kInvalidTerm;
  uint64_t aux = 0;    // Const value / Var index / Extract range
  // Structural identity, computed once at intern time from kind, width,
  // aux and the operands' hashes, so it is the same in every pool:
  // `named` hashes a variable by name and width (never by its pool-local
  // index), `blind` by width only.
  uint64_t named = 0;
  uint64_t blind = 0;

  bool operator==(const TermNode&) const = default;
};

class TermManager;

/// Value-type handle to a term; cheap to copy, compares by identity.
class TermRef {
 public:
  TermRef() = default;
  TermRef(TermManager* mgr, TermId id) : mgr_(mgr), id_(id) {}

  bool valid() const { return mgr_ != nullptr && id_ != kInvalidTerm; }
  TermId id() const { return id_; }
  TermManager* manager() const { return mgr_; }

  Kind kind() const;
  unsigned width() const;
  bool isConst() const { return valid() && kind() == Kind::Const; }
  bool isVar() const { return valid() && kind() == Kind::Var; }
  /// Value of a Const term (already truncated to width).
  uint64_t constValue() const;
  /// True if this is the width-1 constant 1 / 0.
  bool isTrue() const;
  bool isFalse() const;
  TermRef operand(unsigned i) const;

  friend bool operator==(const TermRef& x, const TermRef& y) {
    return x.mgr_ == y.mgr_ && x.id_ == y.id_;
  }
  friend bool operator!=(const TermRef& x, const TermRef& y) { return !(x == y); }

 private:
  TermManager* mgr_ = nullptr;
  TermId id_ = kInvalidTerm;
};

/// Owns all terms. Builder methods simplify aggressively (constant folding,
/// algebraic identities, normalization) before hash-consing — see
/// builder.cpp. The rewriter can be disabled for the E4 ablation.
class TermManager {
 public:
  TermManager() = default;
  TermManager(const TermManager&) = delete;
  TermManager& operator=(const TermManager&) = delete;

  // ---- introspection -------------------------------------------------
  const TermNode& node(TermId id) const { return nodes_[id]; }
  const TermNode& node(TermRef t) const { return nodes_[t.id()]; }
  size_t numTerms() const { return nodes_.size(); }
  size_t numVars() const { return varNames_.size(); }
  const std::string& varName(TermId id) const;
  /// Variable index (dense, creation order) of a Var term.
  uint32_t varIndex(TermId id) const;

  /// When false, builder methods only fold constants and skip all other
  /// rewrites. Used by the E4 simplifier ablation.
  void setRewritingEnabled(bool on) { rewriting_ = on; }
  uint64_t rewriteHits() const { return rewriteHits_; }

  // ---- leaf builders -------------------------------------------------
  TermRef mkConst(unsigned width, uint64_t value);
  TermRef mkTrue() { return mkConst(1, 1); }
  TermRef mkFalse() { return mkConst(1, 0); }
  /// Variables are hash-consed by (name, width): the same name always
  /// denotes the same variable. Width conflicts are an internal error.
  TermRef mkVar(unsigned width, const std::string& name);

  // ---- unary ---------------------------------------------------------
  TermRef mkNot(TermRef a);
  TermRef mkNeg(TermRef a);

  // ---- binary (equal widths) ------------------------------------------
  TermRef mkAnd(TermRef a, TermRef b);
  TermRef mkOr(TermRef a, TermRef b);
  TermRef mkXor(TermRef a, TermRef b);
  TermRef mkAdd(TermRef a, TermRef b);
  TermRef mkSub(TermRef a, TermRef b);
  TermRef mkMul(TermRef a, TermRef b);
  TermRef mkUDiv(TermRef a, TermRef b);
  TermRef mkURem(TermRef a, TermRef b);
  TermRef mkSDiv(TermRef a, TermRef b);
  TermRef mkSRem(TermRef a, TermRef b);
  TermRef mkShl(TermRef a, TermRef b);
  TermRef mkLShr(TermRef a, TermRef b);
  TermRef mkAShr(TermRef a, TermRef b);

  // ---- structure -------------------------------------------------------
  TermRef mkConcat(TermRef high, TermRef low);
  TermRef mkExtract(TermRef a, unsigned hi, unsigned lo);
  /// Zero/sign extend to `newWidth` (>= current); same term if equal.
  TermRef mkZExt(TermRef a, unsigned newWidth);
  TermRef mkSExt(TermRef a, unsigned newWidth);
  /// Truncate or zero-extend to exactly `newWidth`.
  TermRef mkResize(TermRef a, unsigned newWidth);

  // ---- predicates (width-1 results) ------------------------------------
  TermRef mkEq(TermRef a, TermRef b);
  TermRef mkNe(TermRef a, TermRef b) { return mkNot(mkEq(a, b)); }
  TermRef mkUlt(TermRef a, TermRef b);
  TermRef mkUle(TermRef a, TermRef b);
  TermRef mkUgt(TermRef a, TermRef b) { return mkUlt(b, a); }
  TermRef mkUge(TermRef a, TermRef b) { return mkUle(b, a); }
  TermRef mkSlt(TermRef a, TermRef b);
  TermRef mkSle(TermRef a, TermRef b);
  TermRef mkSgt(TermRef a, TermRef b) { return mkSlt(b, a); }
  TermRef mkSge(TermRef a, TermRef b) { return mkSle(b, a); }

  TermRef mkIte(TermRef cond, TermRef thenT, TermRef elseT);

  // ---- concrete evaluation --------------------------------------------
  /// Fold one operator application on concrete values (SMT-LIB semantics,
  /// results truncated to `width`). `b`/`aux` as appropriate per kind.
  static uint64_t evalOp(Kind k, unsigned width, uint64_t a, uint64_t b,
                         uint64_t aux = 0);

  /// Evaluate terms under one variable assignment: evalBegin() starts an
  /// assignment in which every variable reads 0, evalBind() sets one
  /// variable, evalTerm() evaluates a term. Values stay memoized across
  /// evalTerm() calls until the next evalBegin(). The memo is a pair of
  /// vectors indexed by TermId that the pool keeps and reuses, so a new
  /// assignment costs one epoch bump, not an allocation. Like the rest of
  /// the pool, it is single-threaded.
  void evalBegin();
  void evalBind(TermRef var, uint64_t value);
  uint64_t evalTerm(TermRef t) { return evalMemo(t, nullptr); }
  /// evalTerm() reading a variable that is neither bound nor memoized from
  /// `varValue` (by Var index), so several terms evaluated under one
  /// assignment share one memo.
  uint64_t evalTerm(TermRef t,
                    const std::function<uint64_t(uint32_t)>& varValue) {
    return evalMemo(t, &varValue);
  }

  /// Evaluate a term under a variable assignment (by Var index) as one
  /// fresh assignment. Missing variables evaluate to 0.
  uint64_t evalWith(TermRef t,
                    const std::function<uint64_t(uint32_t)>& varValue) {
    evalBegin();
    return evalMemo(t, &varValue);
  }

  // ---- cross-pool migration -------------------------------------------
  /// Deep-copy a term owned by *another* manager into this one,
  /// preserving structure exactly (raw interning, no re-simplification —
  /// the source was already built through the simplifying builders, and
  /// byte-identical structure across pools is what the parallel
  /// explorer's determinism rests on). Variables are re-consed by
  /// (name, width). `memo` carries sharing across several imports of one
  /// batch (e.g. all terms of one migrated state). Neither manager may be
  /// mutated concurrently during the call.
  TermRef import(TermRef src, std::unordered_map<TermId, TermId>& memo);
  TermRef import(TermRef src) {
    std::unordered_map<TermId, TermId> memo;
    return import(src, memo);
  }

  /// Hash-cons one operator node exactly as written, for deserializers
  /// (smt/termio): no simplification, same raw path import() uses, so a
  /// serialized DAG restores structure-identically. Operands must already
  /// live in this pool; Const/Var must go through mkConst/mkVar instead
  /// (they maintain the value/name side tables).
  TermRef internRaw(Kind kind, unsigned width, TermId a = kInvalidTerm,
                    TermId b = kInvalidTerm, TermId c = kInvalidTerm,
                    uint64_t aux = 0) {
    check(kind != Kind::Const && kind != Kind::Var,
          "internRaw: leaf terms go through mkConst/mkVar");
    return intern(kind, width, a, b, c, aux);
  }

 private:
  friend class TermRef;

  /// Hash-cons a node (no simplification), computing its structural
  /// hashes.
  TermRef intern(Kind kind, unsigned width, TermId a = kInvalidTerm,
                 TermId b = kInvalidTerm, TermId c = kInvalidTerm,
                 uint64_t aux = 0);

  /// evalTerm's post-order walk over the memo. A variable neither bound
  /// nor memoized reads `varValue` (when given) or 0.
  uint64_t evalMemo(TermRef t,
                    const std::function<uint64_t(uint32_t)>* varValue);
  /// Grow the memo to cover every node interned so far.
  void evalReserve();

  // Simplification helpers (builder.cpp).
  TermRef foldBinary(Kind k, TermRef a, TermRef b);
  void orderOperands(TermRef& a, TermRef& b) const;
  bool rewriteOn() const { return rewriting_; }
  TermRef noteRewrite(TermRef t) { ++rewriteHits_; return t; }

  std::vector<TermNode> nodes_;
  std::unordered_map<uint64_t, TermId> internMap_;
  std::vector<std::string> varNames_;
  std::unordered_map<std::string, TermId> varMap_;
  bool rewriting_ = true;
  uint64_t rewriteHits_ = 0;

  // Concrete-evaluation memo: evalValues_[id] is live while
  // evalStamps_[id] == evalEpoch_ (stamp 0 is never live).
  std::vector<uint64_t> evalValues_;
  std::vector<uint32_t> evalStamps_;
  uint32_t evalEpoch_ = 0;
  std::vector<std::pair<TermId, bool>> evalStack_;
};

// ---- TermRef inline definitions that need TermManager ----------------
inline Kind TermRef::kind() const { return mgr_->node(id_).kind; }
inline unsigned TermRef::width() const { return mgr_->node(id_).width; }
inline uint64_t TermRef::constValue() const {
  check(isConst(), "constValue on non-constant term");
  return mgr_->node(id_).aux;
}
inline bool TermRef::isTrue() const {
  return isConst() && width() == 1 && constValue() == 1;
}
inline bool TermRef::isFalse() const {
  return isConst() && width() == 1 && constValue() == 0;
}
inline TermRef TermRef::operand(unsigned i) const {
  const TermNode& n = mgr_->node(id_);
  const TermId ids[3] = {n.a, n.b, n.c};
  check(i < 3 && ids[i] != kInvalidTerm, "operand index out of range");
  return TermRef(mgr_, ids[i]);
}

}  // namespace adlsym::smt
