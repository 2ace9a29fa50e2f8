// Simplifying term builders. Every mk* method first tries constant folding,
// then (if rewriting is enabled) a set of local algebraic rewrites, and only
// then hash-conses a new node. The rewrites here are the ones that pay off
// on symbolic-execution workloads: machine code constantly materializes
// `x + 0`, `x & 0xff`, double extracts from extends, and branch conditions
// comparing a fresh ite against a constant.
#include "smt/term.h"
#include "support/bits.h"

namespace adlsym::smt {

namespace {
bool isAllOnes(TermRef t) {
  return t.isConst() && t.constValue() == lowMask(t.width());
}
bool isZero(TermRef t) { return t.isConst() && t.constValue() == 0; }
bool isOne(TermRef t) { return t.isConst() && t.constValue() == 1; }
}  // namespace

TermRef TermManager::foldBinary(Kind k, TermRef a, TermRef b) {
  check(a.manager() == this && b.manager() == this, "foreign term operand");
  const unsigned opW = a.width();
  unsigned resW = opW;
  switch (k) {
    case Kind::Eq: case Kind::Ult: case Kind::Ule:
    case Kind::Slt: case Kind::Sle:
      resW = 1;
      break;
    default:
      break;
  }
  check(a.width() == b.width(), "binary operand width mismatch");
  if (a.isConst() && b.isConst()) {
    return mkConst(resW, evalOp(k, opW, a.constValue(), b.constValue()));
  }
  return TermRef();  // not folded
}

// Commutative operands: a constant goes right, so x+c and c+x intern to
// one node; otherwise the lower named hash goes left, so every pool builds
// the same structure. TermId only breaks a 64-bit hash collision.
void TermManager::orderOperands(TermRef& a, TermRef& b) const {
  const uint64_t ha = node(a).named;
  const uint64_t hb = node(b).named;
  const bool after = ha != hb ? ha > hb : a.id() > b.id();
  if (a.isConst() || (!b.isConst() && after)) std::swap(a, b);
}

TermRef TermManager::mkNot(TermRef a) {
  if (a.isConst()) return mkConst(a.width(), ~a.constValue());
  if (rewriteOn()) {
    const TermNode& n = node(a);
    if (n.kind == Kind::Not) return noteRewrite(TermRef(this, n.a));
    // De-sugar not(cmp) into the complementary comparison: keeps branch
    // conditions in canonical form so both fork directions share structure.
    if (a.width() == 1) {
      switch (n.kind) {
        case Kind::Ult: return noteRewrite(mkUle(TermRef(this, n.b), TermRef(this, n.a)));
        case Kind::Ule: return noteRewrite(mkUlt(TermRef(this, n.b), TermRef(this, n.a)));
        case Kind::Slt: return noteRewrite(mkSle(TermRef(this, n.b), TermRef(this, n.a)));
        case Kind::Sle: return noteRewrite(mkSlt(TermRef(this, n.b), TermRef(this, n.a)));
        default: break;
      }
    }
  }
  return intern(Kind::Not, a.width(), a.id());
}

TermRef TermManager::mkNeg(TermRef a) {
  if (a.isConst()) return mkConst(a.width(), 0 - a.constValue());
  if (rewriteOn()) {
    const TermNode& n = node(a);
    if (n.kind == Kind::Neg) return noteRewrite(TermRef(this, n.a));
  }
  return intern(Kind::Neg, a.width(), a.id());
}

TermRef TermManager::mkAnd(TermRef a, TermRef b) {
  if (TermRef f = foldBinary(Kind::And, a, b); f.valid()) return f;
  if (rewriteOn()) {
    orderOperands(a, b);
    if (isZero(b)) return noteRewrite(mkConst(a.width(), 0));
    if (isAllOnes(b)) return noteRewrite(a);
    if (a == b) return noteRewrite(a);
    // x & ~x == 0 (catches boolean contradictions early)
    const TermNode& nb = node(b);
    if (nb.kind == Kind::Not && nb.a == a.id()) return noteRewrite(mkConst(a.width(), 0));
    const TermNode& na = node(a);
    if (na.kind == Kind::Not && na.a == b.id()) return noteRewrite(mkConst(a.width(), 0));
  }
  return intern(Kind::And, a.width(), a.id(), b.id());
}

TermRef TermManager::mkOr(TermRef a, TermRef b) {
  if (TermRef f = foldBinary(Kind::Or, a, b); f.valid()) return f;
  if (rewriteOn()) {
    orderOperands(a, b);
    if (isZero(b)) return noteRewrite(a);
    if (isAllOnes(b)) return noteRewrite(mkConst(a.width(), lowMask(a.width())));
    if (a == b) return noteRewrite(a);
    const TermNode& nb = node(b);
    if (nb.kind == Kind::Not && nb.a == a.id())
      return noteRewrite(mkConst(a.width(), lowMask(a.width())));
    const TermNode& na = node(a);
    if (na.kind == Kind::Not && na.a == b.id())
      return noteRewrite(mkConst(a.width(), lowMask(a.width())));
  }
  return intern(Kind::Or, a.width(), a.id(), b.id());
}

TermRef TermManager::mkXor(TermRef a, TermRef b) {
  if (TermRef f = foldBinary(Kind::Xor, a, b); f.valid()) return f;
  if (rewriteOn()) {
    orderOperands(a, b);
    if (isZero(b)) return noteRewrite(a);
    if (isAllOnes(b)) return noteRewrite(mkNot(a));
    if (a == b) return noteRewrite(mkConst(a.width(), 0));
  }
  return intern(Kind::Xor, a.width(), a.id(), b.id());
}

TermRef TermManager::mkAdd(TermRef a, TermRef b) {
  if (TermRef f = foldBinary(Kind::Add, a, b); f.valid()) return f;
  if (rewriteOn()) {
    orderOperands(a, b);
    if (isZero(b)) return noteRewrite(a);
    // (x + c1) + c2  ->  x + (c1+c2): collapses PC-relative address chains.
    const TermNode& na = node(a);
    if (b.isConst() && na.kind == Kind::Add && node(na.b).kind == Kind::Const) {
      const uint64_t c = node(na.b).aux + b.constValue();
      // Copy out of the node pool before mkConst can reallocate it.
      const TermId x = na.a;
      return noteRewrite(mkAdd(TermRef(this, x), mkConst(a.width(), c)));
    }
  }
  return intern(Kind::Add, a.width(), a.id(), b.id());
}

TermRef TermManager::mkSub(TermRef a, TermRef b) {
  if (TermRef f = foldBinary(Kind::Sub, a, b); f.valid()) return f;
  if (rewriteOn()) {
    if (isZero(b)) return noteRewrite(a);
    if (isZero(a)) return noteRewrite(mkNeg(b));
    if (a == b) return noteRewrite(mkConst(a.width(), 0));
    // x - c  ->  x + (-c): lets the Add chain-collapse rule fire.
    if (b.isConst())
      return noteRewrite(mkAdd(a, mkConst(a.width(), 0 - b.constValue())));
  }
  return intern(Kind::Sub, a.width(), a.id(), b.id());
}

TermRef TermManager::mkMul(TermRef a, TermRef b) {
  if (TermRef f = foldBinary(Kind::Mul, a, b); f.valid()) return f;
  if (rewriteOn()) {
    orderOperands(a, b);
    if (isZero(b)) return noteRewrite(mkConst(a.width(), 0));
    if (isOne(b)) return noteRewrite(a);
    // x * 2^k -> x << k (cheaper to bit-blast)
    if (b.isConst() && b.constValue() != 0 &&
        (b.constValue() & (b.constValue() - 1)) == 0) {
      unsigned k = 0;
      while ((b.constValue() >> k) != 1) ++k;
      return noteRewrite(mkShl(a, mkConst(a.width(), k)));
    }
  }
  return intern(Kind::Mul, a.width(), a.id(), b.id());
}

TermRef TermManager::mkUDiv(TermRef a, TermRef b) {
  if (TermRef f = foldBinary(Kind::UDiv, a, b); f.valid()) return f;
  if (rewriteOn()) {
    if (isOne(b)) return noteRewrite(a);
    if (b.isConst() && b.constValue() != 0 &&
        (b.constValue() & (b.constValue() - 1)) == 0) {
      unsigned k = 0;
      while ((b.constValue() >> k) != 1) ++k;
      return noteRewrite(mkLShr(a, mkConst(a.width(), k)));
    }
  }
  return intern(Kind::UDiv, a.width(), a.id(), b.id());
}

TermRef TermManager::mkURem(TermRef a, TermRef b) {
  if (TermRef f = foldBinary(Kind::URem, a, b); f.valid()) return f;
  if (rewriteOn()) {
    if (isOne(b)) return noteRewrite(mkConst(a.width(), 0));
    if (b.isConst() && b.constValue() != 0 &&
        (b.constValue() & (b.constValue() - 1)) == 0) {
      return noteRewrite(mkAnd(a, mkConst(a.width(), b.constValue() - 1)));
    }
  }
  return intern(Kind::URem, a.width(), a.id(), b.id());
}

TermRef TermManager::mkSDiv(TermRef a, TermRef b) {
  if (TermRef f = foldBinary(Kind::SDiv, a, b); f.valid()) return f;
  if (rewriteOn() && isOne(b)) return noteRewrite(a);
  return intern(Kind::SDiv, a.width(), a.id(), b.id());
}

TermRef TermManager::mkSRem(TermRef a, TermRef b) {
  if (TermRef f = foldBinary(Kind::SRem, a, b); f.valid()) return f;
  if (rewriteOn() && isOne(b)) return noteRewrite(mkConst(a.width(), 0));
  return intern(Kind::SRem, a.width(), a.id(), b.id());
}

TermRef TermManager::mkShl(TermRef a, TermRef b) {
  if (TermRef f = foldBinary(Kind::Shl, a, b); f.valid()) return f;
  if (rewriteOn()) {
    if (isZero(b)) return noteRewrite(a);
    if (isZero(a)) return noteRewrite(a);
    if (b.isConst() && b.constValue() >= a.width())
      return noteRewrite(mkConst(a.width(), 0));
  }
  return intern(Kind::Shl, a.width(), a.id(), b.id());
}

TermRef TermManager::mkLShr(TermRef a, TermRef b) {
  if (TermRef f = foldBinary(Kind::LShr, a, b); f.valid()) return f;
  if (rewriteOn()) {
    if (isZero(b)) return noteRewrite(a);
    if (isZero(a)) return noteRewrite(a);
    if (b.isConst() && b.constValue() >= a.width())
      return noteRewrite(mkConst(a.width(), 0));
  }
  return intern(Kind::LShr, a.width(), a.id(), b.id());
}

TermRef TermManager::mkAShr(TermRef a, TermRef b) {
  if (TermRef f = foldBinary(Kind::AShr, a, b); f.valid()) return f;
  if (rewriteOn()) {
    if (isZero(b)) return noteRewrite(a);
    if (isZero(a)) return noteRewrite(a);
  }
  return intern(Kind::AShr, a.width(), a.id(), b.id());
}

TermRef TermManager::mkConcat(TermRef high, TermRef low) {
  check(high.manager() == this && low.manager() == this, "foreign term operand");
  const unsigned w = high.width() + low.width();
  check(w <= 64, "concat result exceeds 64 bits");
  if (high.isConst() && low.isConst()) {
    return mkConst(w, (high.constValue() << low.width()) | low.constValue());
  }
  if (rewriteOn()) {
    // concat(extract(x, hi, m+1), extract(x, m, lo)) -> extract(x, hi, lo)
    const TermNode& nh = node(high);
    const TermNode& nl = node(low);
    if (nh.kind == Kind::Extract && nl.kind == Kind::Extract && nh.a == nl.a) {
      const unsigned hHi = static_cast<unsigned>(nh.aux >> 8);
      const unsigned hLo = static_cast<unsigned>(nh.aux & 0xff);
      const unsigned lHi = static_cast<unsigned>(nl.aux >> 8);
      const unsigned lLo = static_cast<unsigned>(nl.aux & 0xff);
      if (hLo == lHi + 1)
        return noteRewrite(mkExtract(TermRef(this, nh.a), hHi, lLo));
    }
  }
  return intern(Kind::Concat, w, high.id(), low.id());
}

TermRef TermManager::mkExtract(TermRef a, unsigned hi, unsigned lo) {
  check(a.manager() == this, "foreign term operand");
  check(hi >= lo && hi < a.width(), "extract range out of bounds");
  const unsigned w = hi - lo + 1;
  if (w == a.width()) return a;
  if (a.isConst()) return mkConst(w, bitSlice(a.constValue(), hi, lo));
  if (rewriteOn()) {
    const TermNode& n = node(a);
    // extract of extract composes.
    if (n.kind == Kind::Extract) {
      const unsigned iLo = static_cast<unsigned>(n.aux & 0xff);
      return noteRewrite(mkExtract(TermRef(this, n.a), iLo + hi, iLo + lo));
    }
    // extract entirely within one half of a concat.
    if (n.kind == Kind::Concat) {
      TermRef h(this, n.a);
      TermRef l(this, n.b);
      if (hi < l.width()) return noteRewrite(mkExtract(l, hi, lo));
      if (lo >= l.width())
        return noteRewrite(mkExtract(h, hi - l.width(), lo - l.width()));
    }
    // extract of ite pushes inside (conditions stay width-1).
    if (n.kind == Kind::Ite) {
      // Copy out of the node pool: the inner mkExtract calls can
      // reallocate it and invalidate `n`.
      const TermId c = n.a, t = n.b, e = n.c;
      return noteRewrite(mkIte(TermRef(this, c),
                               mkExtract(TermRef(this, t), hi, lo),
                               mkExtract(TermRef(this, e), hi, lo)));
    }
  }
  return intern(Kind::Extract, w, a.id(), kInvalidTerm, kInvalidTerm,
                (static_cast<uint64_t>(hi) << 8) | lo);
}

TermRef TermManager::mkZExt(TermRef a, unsigned newWidth) {
  check(newWidth >= a.width(), "zext must not shrink");
  if (newWidth == a.width()) return a;
  return mkConcat(mkConst(newWidth - a.width(), 0), a);
}

TermRef TermManager::mkSExt(TermRef a, unsigned newWidth) {
  check(newWidth >= a.width(), "sext must not shrink");
  if (newWidth == a.width()) return a;
  const unsigned extra = newWidth - a.width();
  TermRef sign = mkExtract(a, a.width() - 1, a.width() - 1);
  TermRef fill = mkIte(sign, mkConst(extra, lowMask(extra)), mkConst(extra, 0));
  return mkConcat(fill, a);
}

TermRef TermManager::mkResize(TermRef a, unsigned newWidth) {
  if (newWidth == a.width()) return a;
  if (newWidth < a.width()) return mkExtract(a, newWidth - 1, 0);
  return mkZExt(a, newWidth);
}

TermRef TermManager::mkEq(TermRef a, TermRef b) {
  if (TermRef f = foldBinary(Kind::Eq, a, b); f.valid()) return f;
  if (rewriteOn()) {
    orderOperands(a, b);
    if (a == b) return noteRewrite(mkTrue());
    if (a.width() == 1) {
      // (x == true) -> x ; (x == false) -> !x
      if (b.isTrue()) return noteRewrite(a);
      if (b.isFalse()) return noteRewrite(mkNot(a));
      if (a.isTrue()) return noteRewrite(b);
      if (a.isFalse()) return noteRewrite(mkNot(b));
    }
    // ite(c, k1, k2) == k  resolves when k1/k2/k are constants.
    const TermNode& na = node(a);
    if (na.kind == Kind::Ite && b.isConst()) {
      TermRef t(this, na.b);
      TermRef e(this, na.c);
      if (t.isConst() && e.isConst()) {
        const bool tHit = t.constValue() == b.constValue();
        const bool eHit = e.constValue() == b.constValue();
        TermRef c(this, na.a);
        if (tHit && eHit) return noteRewrite(mkTrue());
        if (tHit && !eHit) return noteRewrite(c);
        if (!tHit && eHit) return noteRewrite(mkNot(c));
        return noteRewrite(mkFalse());
      }
    }
  }
  return intern(Kind::Eq, 1, a.id(), b.id());
}

TermRef TermManager::mkUlt(TermRef a, TermRef b) {
  if (TermRef f = foldBinary(Kind::Ult, a, b); f.valid()) return f;
  if (rewriteOn()) {
    if (a == b) return noteRewrite(mkFalse());
    if (isZero(b)) return noteRewrite(mkFalse());      // x < 0 never
    if (isAllOnes(a)) return noteRewrite(mkFalse());   // max < x never
    if (isZero(a)) return noteRewrite(mkNot(mkEq(b, mkConst(b.width(), 0))));
  }
  return intern(Kind::Ult, 1, a.id(), b.id());
}

TermRef TermManager::mkUle(TermRef a, TermRef b) {
  if (TermRef f = foldBinary(Kind::Ule, a, b); f.valid()) return f;
  if (rewriteOn()) {
    if (a == b) return noteRewrite(mkTrue());
    if (isZero(a)) return noteRewrite(mkTrue());
    if (isAllOnes(b)) return noteRewrite(mkTrue());
  }
  return intern(Kind::Ule, 1, a.id(), b.id());
}

TermRef TermManager::mkSlt(TermRef a, TermRef b) {
  if (TermRef f = foldBinary(Kind::Slt, a, b); f.valid()) return f;
  if (rewriteOn() && a == b) return noteRewrite(mkFalse());
  return intern(Kind::Slt, 1, a.id(), b.id());
}

TermRef TermManager::mkSle(TermRef a, TermRef b) {
  if (TermRef f = foldBinary(Kind::Sle, a, b); f.valid()) return f;
  if (rewriteOn() && a == b) return noteRewrite(mkTrue());
  return intern(Kind::Sle, 1, a.id(), b.id());
}

TermRef TermManager::mkIte(TermRef cond, TermRef thenT, TermRef elseT) {
  check(cond.manager() == this && thenT.manager() == this &&
            elseT.manager() == this, "foreign term operand");
  check(cond.width() == 1, "ite condition must be width 1");
  check(thenT.width() == elseT.width(), "ite arm width mismatch");
  if (cond.isConst()) return cond.constValue() ? thenT : elseT;
  if (rewriteOn()) {
    if (thenT == elseT) return noteRewrite(thenT);
    if (thenT.width() == 1) {
      // Boolean ites lower to and/or — blasts smaller.
      if (thenT.isTrue() && elseT.isFalse()) return noteRewrite(cond);
      if (thenT.isFalse() && elseT.isTrue()) return noteRewrite(mkNot(cond));
      if (thenT.isTrue()) return noteRewrite(mkOr(cond, elseT));
      if (thenT.isFalse()) return noteRewrite(mkAnd(mkNot(cond), elseT));
      if (elseT.isTrue()) return noteRewrite(mkOr(mkNot(cond), thenT));
      if (elseT.isFalse()) return noteRewrite(mkAnd(cond, thenT));
    }
    // ite(!c, a, b) -> ite(c, b, a)
    const TermNode& nc = node(cond);
    if (nc.kind == Kind::Not)
      return noteRewrite(mkIte(TermRef(this, nc.a), elseT, thenT));
    // Nested same-condition ites collapse.
    const TermNode& nt = node(thenT);
    if (nt.kind == Kind::Ite && nt.a == cond.id())
      return noteRewrite(mkIte(cond, TermRef(this, nt.b), elseT));
    const TermNode& ne = node(elseT);
    if (ne.kind == Kind::Ite && ne.a == cond.id())
      return noteRewrite(mkIte(cond, thenT, TermRef(this, ne.c)));
  }
  return intern(Kind::Ite, thenT.width(), cond.id(), thenT.id(), elseT.id());
}

}  // namespace adlsym::smt
