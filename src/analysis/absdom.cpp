#include "analysis/absdom.h"

#include <algorithm>
#include <bit>
#include <sstream>

#include "support/error.h"

namespace adlsym::analysis {

namespace {

using smt::Kind;
using smt::TermId;
using smt::TermManager;
using smt::TermNode;
using smt::TermRef;
using u128 = unsigned __int128;

uint64_t lowMask(unsigned w) { return w >= 64 ? ~0ull : (1ull << w) - 1; }

/// Consecutive known bits starting at bit 0.
unsigned knownLowBits(uint64_t care) {
  return static_cast<unsigned>(std::countr_one(care));
}

/// Arc [cLo, cHi] covers arc [xLo, xHi] (both mod-2^w circles). Linearize
/// by offset from cLo: X fits iff it starts inside C and its length does
/// not run past C's end.
bool arcCovers(uint64_t cLo, uint64_t cHi, uint64_t xLo, uint64_t xHi,
               uint64_t m) {
  const u128 sizeC = static_cast<u128>((cHi - cLo) & m) + 1;
  const u128 sizeX = static_cast<u128>((xHi - xLo) & m) + 1;
  const u128 off = (xLo - cLo) & m;
  return off + sizeX <= sizeC;
}

}  // namespace

// ---- AbsValue basics ---------------------------------------------------

uint64_t AbsValue::mask() const { return lowMask(bits.width); }

AbsValue AbsValue::top(unsigned width) {
  AbsValue v;
  v.bits = TernaryPattern{width, 0, 0};
  v.lo = 0;
  v.hi = lowMask(width);
  return v;
}

AbsValue AbsValue::bottom(unsigned width) {
  AbsValue v = top(width);
  v.bot = true;
  return v;
}

AbsValue AbsValue::constant(unsigned width, uint64_t x) {
  x &= lowMask(width);
  AbsValue v;
  v.bits = TernaryPattern{width, lowMask(width), x};
  v.lo = v.hi = x;
  return v;
}

AbsValue AbsValue::range(unsigned width, uint64_t l, uint64_t h) {
  AbsValue v = top(width);
  v.lo = l & lowMask(width);
  v.hi = h & lowMask(width);
  return absReduce(v);
}

AbsValue AbsValue::fromBits(unsigned width, uint64_t care, uint64_t value) {
  AbsValue v = top(width);
  v.bits.care = care & lowMask(width);
  v.bits.value = value & v.bits.care;
  return absReduce(v);
}

bool AbsValue::isConst(uint64_t* v) const {
  if (bot) return false;
  if (bits.care == mask()) {
    if (v) *v = bits.value;
    return true;
  }
  if (lo == hi) {
    if (v) *v = lo;
    return true;
  }
  return false;
}

bool AbsValue::arcContains(uint64_t x) const {
  return lo <= hi ? (x >= lo && x <= hi) : (x >= lo || x <= hi);
}

bool AbsValue::contains(uint64_t x) const {
  return !bot && bits.matches(x) && arcContains(x);
}

unsigned __int128 AbsValue::arcSize() const {
  return static_cast<u128>((hi - lo) & mask()) + 1;
}

uint64_t AbsValue::bitsMax() const { return (bits.value | ~bits.care) & mask(); }

uint64_t AbsValue::umin() const {
  const uint64_t arcMin = lo <= hi ? lo : 0;  // a wrapped arc passes 0
  return std::max(arcMin, bitsMin());
}

uint64_t AbsValue::umax() const {
  const uint64_t arcMax = lo <= hi ? hi : mask();  // wrapped passes mask
  return std::min(arcMax, bitsMax());
}

std::string AbsValue::str() const {
  if (bot) return "bot";
  std::ostringstream os;
  uint64_t v = 0;
  if (isConst(&v)) {
    os << "const " << v;
    return os.str();
  }
  os << "bits=" << bits.str() << " arc=[" << lo << "," << hi << "]";
  return os.str();
}

// ---- reduction ---------------------------------------------------------

AbsValue absReduce(AbsValue v) {
  const unsigned w = v.width();
  const uint64_t m = lowMask(w);
  if (v.bot) return AbsValue::bottom(w);
  v.bits.care &= m;
  v.bits.value &= v.bits.care;
  v.lo &= m;
  v.hi &= m;
  // Any arc of 2^w values is the full circle.
  if (((v.hi - v.lo) & m) == m) {
    v.lo = 0;
    v.hi = m;
  }
  // Singleton arc: the bits must agree; then both components are exact.
  if (v.lo == v.hi) {
    if (!v.bits.matches(v.lo)) return AbsValue::bottom(w);
    v.bits.care = m;
    v.bits.value = v.lo;
    return v;
  }
  // Fully known bits: the arc must contain the value.
  if (v.bits.care == m) {
    if (!v.arcContains(v.bits.value)) return AbsValue::bottom(w);
    v.lo = v.hi = v.bits.value;
    return v;
  }
  // Tighten the arc by the pure-bits bounds (and detect emptiness).
  const uint64_t bmin = v.bitsMin();
  const uint64_t bmax = v.bitsMax();
  if (v.lo <= v.hi) {
    const uint64_t nlo = std::max(v.lo, bmin);
    const uint64_t nhi = std::min(v.hi, bmax);
    if (nlo > nhi) return AbsValue::bottom(w);
    if (nlo != v.lo || nhi != v.hi) {
      v.lo = nlo;
      v.hi = nhi;
      return absReduce(v);  // may have become a singleton
    }
    // An unwrapped arc pins the high bits above hi's top set bit to 0.
    const unsigned bl = std::bit_width(v.hi);
    const uint64_t zeros = m & ~lowMask(bl);
    if ((zeros & ~v.bits.care) != 0) {
      if ((v.bits.value & zeros) != 0) return AbsValue::bottom(w);
      v.bits.care |= zeros;
      return absReduce(v);
    }
    return v;
  }
  // Wrapped arc = segments [lo, m] and [0, hi]; drop a segment the bits
  // bounds exclude entirely.
  const bool hiSeg = bmax >= v.lo;  // [lo, m] reachable
  const bool loSeg = bmin <= v.hi;  // [0, hi] reachable
  if (!hiSeg && !loSeg) return AbsValue::bottom(w);
  if (hiSeg && !loSeg) {
    v.lo = std::max(v.lo, bmin);
    v.hi = std::min(m, bmax);
    return absReduce(v);
  }
  if (!hiSeg && loSeg) {
    v.lo = bmin;
    v.hi = std::min(v.hi, bmax);
    return absReduce(v);
  }
  return v;
}

// ---- lattice ops -------------------------------------------------------

AbsValue absJoin(const AbsValue& a, const AbsValue& b) {
  check(a.width() == b.width(), "absJoin: width mismatch");
  if (a.bot) return absReduce(b);
  if (b.bot) return absReduce(a);
  const unsigned w = a.width();
  const uint64_t m = lowMask(w);
  AbsValue r = AbsValue::top(w);
  const uint64_t agree = ~(a.bits.value ^ b.bits.value);
  r.bits.care = a.bits.care & b.bits.care & agree & m;
  r.bits.value = a.bits.value & r.bits.care;
  // Smallest arc hull: one of the inputs (nesting) or a stitched arc
  // start-of-one → end-of-other. Candidate order breaks size ties
  // deterministically.
  const uint64_t cand[4][2] = {
      {a.lo, a.hi}, {b.lo, b.hi}, {a.lo, b.hi}, {b.lo, a.hi}};
  u128 bestSize = static_cast<u128>(m) + 2;  // > full circle
  uint64_t bestLo = 0, bestHi = m;
  for (const auto& c : cand) {
    if (!arcCovers(c[0], c[1], a.lo, a.hi, m)) continue;
    if (!arcCovers(c[0], c[1], b.lo, b.hi, m)) continue;
    const u128 size = static_cast<u128>((c[1] - c[0]) & m) + 1;
    if (size < bestSize) {
      bestSize = size;
      bestLo = c[0];
      bestHi = c[1];
    }
  }
  r.lo = bestLo;
  r.hi = bestHi;
  return absReduce(r);
}

AbsValue absMeet(const AbsValue& a, const AbsValue& b) {
  check(a.width() == b.width(), "absMeet: width mismatch");
  const unsigned w = a.width();
  if (a.bot || b.bot) return AbsValue::bottom(w);
  const uint64_t m = lowMask(w);
  if ((a.bits.care & b.bits.care & (a.bits.value ^ b.bits.value)) != 0) {
    return AbsValue::bottom(w);  // a bit known differently on each side
  }
  AbsValue r = AbsValue::top(w);
  r.bits.care = a.bits.care | b.bits.care;
  r.bits.value = a.bits.value | b.bits.value;
  if (arcCovers(a.lo, a.hi, b.lo, b.hi, m)) {
    r.lo = b.lo;
    r.hi = b.hi;
  } else if (arcCovers(b.lo, b.hi, a.lo, a.hi, m)) {
    r.lo = a.lo;
    r.hi = a.hi;
  } else {
    const bool aStartInB = b.lo <= b.hi ? (a.lo >= b.lo && a.lo <= b.hi)
                                        : (a.lo >= b.lo || a.lo <= b.hi);
    const bool bStartInA = a.lo <= a.hi ? (b.lo >= a.lo && b.lo <= a.hi)
                                        : (b.lo >= a.lo || b.lo <= a.hi);
    if (aStartInB && bStartInA) {
      // Two crossing segments; over-approximate with the smaller input.
      if (a.arcSize() <= b.arcSize()) {
        r.lo = a.lo;
        r.hi = a.hi;
      } else {
        r.lo = b.lo;
        r.hi = b.hi;
      }
    } else if (bStartInA) {
      r.lo = b.lo;
      r.hi = a.hi;
    } else if (aStartInB) {
      r.lo = a.lo;
      r.hi = b.hi;
    } else {
      return AbsValue::bottom(w);  // disjoint arcs
    }
  }
  return absReduce(r);
}

// ---- concretization witness --------------------------------------------

namespace {

/// Smallest x >= s (plain unsigned order, within the width) with
/// (x & care) == value, or nullopt. O(1): force the known bits onto s; if
/// that went below s, the highest disagreeing position p is a known bit
/// forced from 1 to 0, so every match >= s must be strictly larger above
/// p — zero the free bits at or below p and advance the free-bit counter
/// above p by one step (matching values above p form a subset counter
/// over the free mask, so the standard subset increment is exact).
std::optional<uint64_t> nextMatching(uint64_t s, uint64_t care, uint64_t value,
                                     uint64_t m) {
  const uint64_t free = ~care & m;
  const uint64_t c = (s & free) | value;
  if (c >= s) return c;
  const int p = 63 - __builtin_clzll(s ^ c);
  // p == 63 wraps atOrBelowP to all-ones: hiFree == 0, so the maxed-
  // counter test below correctly reports no match.
  const uint64_t atOrBelowP = (2ull << p) - 1;
  const uint64_t hiFree = free & ~atOrBelowP;
  const uint64_t cur = c & hiFree;
  if (cur == hiFree) return std::nullopt;  // free counter above p maxed
  const uint64_t next = ((cur | ~hiFree) + 1) & hiFree;
  return next | value;
}

}  // namespace

std::optional<uint64_t> absPickConcrete(const AbsValue& v) {
  if (v.bot) return std::nullopt;
  const uint64_t m = v.mask();
  const auto inRange = [&](uint64_t a, uint64_t b) -> std::optional<uint64_t> {
    const auto x = nextMatching(a, v.bits.care, v.bits.value, m);
    if (x.has_value() && *x <= b) return x;
    return std::nullopt;
  };
  if (v.lo <= v.hi) return inRange(v.lo, v.hi);
  // Wrapped: the unsigned-smallest member lives in the low segment.
  if (const auto x = inRange(0, v.hi)) return x;
  return inRange(v.lo, m);
}

// ---- transfer functions ------------------------------------------------

namespace {

/// Tristate ripple-carry addition: out bit known iff both addend bits and
/// the incoming carry are known; carry-out known once two of the three
/// inputs agree. `carry` is tristate: 0 / 1 / -1 (unknown).
void kbAdd(uint64_t careA, uint64_t valA, uint64_t careB, uint64_t valB,
           int carry, unsigned w, uint64_t* careOut, uint64_t* valOut) {
  uint64_t co = 0, vo = 0;
  for (unsigned i = 0; i < w; ++i) {
    const int a = (careA >> i) & 1 ? static_cast<int>((valA >> i) & 1) : -1;
    const int b = (careB >> i) & 1 ? static_cast<int>((valB >> i) & 1) : -1;
    if (a >= 0 && b >= 0 && carry >= 0) {
      const int s = a + b + carry;
      co |= 1ull << i;
      vo |= static_cast<uint64_t>(s & 1) << i;
      carry = s >> 1;
    } else {
      int ones = 0, zeros = 0;
      for (const int x : {a, b, carry}) {
        if (x == 1) ++ones;
        if (x == 0) ++zeros;
      }
      carry = ones >= 2 ? 1 : zeros >= 2 ? 0 : -1;
    }
  }
  *careOut = co;
  *valOut = vo;
}

AbsValue kbNot(const AbsValue& a) {
  AbsValue r = AbsValue::top(a.width());
  r.bits.care = a.bits.care;
  r.bits.value = ~a.bits.value & a.bits.care & a.mask();
  return r;  // caller reduces
}

/// Rotate by 2^(w-1): maps signed order onto unsigned order (x ^ signbit
/// == x + signbit mod 2^w), so signed comparisons reuse the unsigned
/// logic. An involution.
AbsValue rotSign(const AbsValue& a) {
  AbsValue r = a;
  const unsigned w = a.width();
  const uint64_t m = lowMask(w);
  const uint64_t sb = 1ull << (w - 1);
  r.bits.value ^= sb & r.bits.care;
  r.lo = (r.lo + sb) & m;
  r.hi = (r.hi + sb) & m;
  return r;
}

AbsValue evalShl(unsigned width, const AbsValue& a, const AbsValue& b) {
  const uint64_t m = lowMask(width);
  uint64_t sh = 0;
  if (b.isConst(&sh)) {
    if (sh >= width) return AbsValue::constant(width, 0);
    AbsValue r = AbsValue::top(width);
    r.bits.care = ((a.bits.care << sh) & m) | lowMask(static_cast<unsigned>(sh));
    r.bits.value = (a.bits.value << sh) & m & r.bits.care;
    if ((static_cast<u128>(a.umax()) << sh) <= m) {
      r.lo = a.umin() << sh;
      r.hi = a.umax() << sh;
    }
    return absReduce(r);
  }
  const uint64_t smin = b.umin();
  if (smin >= width) return AbsValue::constant(width, 0);
  // Every possible shift clears at least the low smin bits.
  return AbsValue::fromBits(width, lowMask(static_cast<unsigned>(smin)), 0);
}

AbsValue evalLShr(unsigned width, const AbsValue& a, const AbsValue& b) {
  const uint64_t m = lowMask(width);
  uint64_t sh = 0;
  if (b.isConst(&sh)) {
    if (sh >= width) return AbsValue::constant(width, 0);
    AbsValue r = AbsValue::top(width);
    r.bits.care = (a.bits.care >> sh) | (~(m >> sh) & m);
    r.bits.value = (a.bits.value >> sh) & r.bits.care;
    r.lo = a.umin() >> sh;  // monotone in x
    r.hi = a.umax() >> sh;
    return absReduce(r);
  }
  const uint64_t smin = b.umin();
  if (smin >= width) return AbsValue::constant(width, 0);
  return AbsValue::range(width, 0, a.umax() >> smin);
}

AbsValue evalAShr(unsigned width, const AbsValue& a, const AbsValue& b) {
  const uint64_t m = lowMask(width);
  uint64_t sh = 0;
  if (!b.isConst(&sh)) return AbsValue::top(width);
  const uint64_t sb = 1ull << (width - 1);
  const int sign = (a.bits.care & sb) != 0 ? ((a.bits.value & sb) != 0) : -1;
  if (sign < 0) return AbsValue::top(width);
  if (sh >= width) return AbsValue::constant(width, sign ? m : 0);
  const uint64_t fill = sign ? ~(m >> sh) & m : 0;
  AbsValue r = AbsValue::top(width);
  r.bits.care = (a.bits.care >> sh) | (~(m >> sh) & m);
  r.bits.value = (((a.bits.value >> sh) | fill)) & r.bits.care;
  // Sign known: (x >> sh) | fill is monotone over the all-negative or
  // all-non-negative operand range.
  r.lo = (a.umin() >> sh) | fill;
  r.hi = (a.umax() >> sh) | fill;
  return absReduce(r);
}

AbsValue evalMul(unsigned width, const AbsValue& a, const AbsValue& b) {
  const uint64_t m = lowMask(width);
  uint64_t ca = 0, cb = 0;
  if ((a.isConst(&ca) && ca == 0) || (b.isConst(&cb) && cb == 0)) {
    return AbsValue::constant(width, 0);
  }
  AbsValue r = AbsValue::top(width);
  if (static_cast<u128>(a.umax()) * b.umax() <= m) {
    r.lo = a.umin() * b.umin();
    r.hi = a.umax() * b.umax();
  }
  // Low k bits of the product depend only on the low k bits of each
  // operand; known trailing zeros add up on top of that.
  const unsigned klow = std::min({knownLowBits(a.bits.care),
                                  knownLowBits(b.bits.care), width});
  if (klow > 0) {
    const uint64_t lm = lowMask(klow);
    r.bits.care |= lm;
    r.bits.value |= (a.bits.value * b.bits.value) & lm;
  }
  const unsigned za = knownLowBits(a.bits.care & ~a.bits.value & m);
  const unsigned zb = knownLowBits(b.bits.care & ~b.bits.value & m);
  const unsigned zeros = std::min(width, za + zb);
  r.bits.care |= lowMask(zeros);  // value bits there stay 0
  return absReduce(r);
}

AbsValue evalUDiv(unsigned width, const AbsValue& a, const AbsValue& b) {
  const uint64_t m = lowMask(width);
  AbsValue r = AbsValue::bottom(width);
  if (b.umax() != 0) {  // a nonzero divisor is possible
    const uint64_t dmin = std::max<uint64_t>(b.umin(), 1);
    r = AbsValue::range(width, a.umin() / b.umax(), a.umax() / dmin);
  }
  if (b.contains(0)) r = absJoin(r, AbsValue::constant(width, m));
  return absReduce(r);
}

AbsValue evalURem(unsigned width, const AbsValue& a, const AbsValue& b) {
  AbsValue r = AbsValue::bottom(width);
  if (b.umax() != 0) {
    r = AbsValue::range(width, 0, std::min(a.umax(), b.umax() - 1));
  }
  if (b.contains(0)) r = absJoin(r, a);  // x urem 0 == x
  return absReduce(r);
}

}  // namespace

AbsValue absEvalOp(Kind k, unsigned width, const AbsValue& a, const AbsValue& b,
                   const AbsValue& c, uint64_t aux) {
  const uint64_t m = lowMask(width);
  const bool unary = k == Kind::Not || k == Kind::Neg || k == Kind::Extract;
  const bool ternary = k == Kind::Ite;
  if (a.bot || (!unary && b.bot) || (ternary && c.bot)) {
    return AbsValue::bottom(width);
  }
  // All-singleton operands: defer to the concrete folder (this is what
  // makes SDiv/SRem and friends exact without bespoke transfer code).
  {
    uint64_t av = 0, bv = 0, cv = 0;
    if (a.isConst(&av) && (unary || b.isConst(&bv)) &&
        (!ternary || c.isConst(&cv))) {
      switch (k) {
        case Kind::Ite:
          return av != 0 ? AbsValue::constant(width, bv)
                         : AbsValue::constant(width, cv);
        case Kind::Concat:
          return AbsValue::constant(width, (av << b.width()) | bv);
        case Kind::Eq:
        case Kind::Ult:
        case Kind::Ule:
        case Kind::Slt:
        case Kind::Sle:
        case Kind::Extract:
          // evalOp takes the OPERAND width for these.
          return AbsValue::constant(
              width, TermManager::evalOp(k, a.width(), av, bv, aux));
        default:
          return AbsValue::constant(width,
                                    TermManager::evalOp(k, width, av, bv, aux));
      }
    }
  }
  switch (k) {
    case Kind::Not: {
      AbsValue r = kbNot(a);
      r.lo = ~a.hi & m;  // x -> ~x reverses the circle: arcs map to arcs
      r.hi = ~a.lo & m;
      return absReduce(r);
    }
    case Kind::Neg: {
      AbsValue r = AbsValue::top(width);
      const AbsValue na = kbNot(a);  // -x == ~x + 1
      kbAdd(na.bits.care, na.bits.value, m, 0, 1, width, &r.bits.care,
            &r.bits.value);
      r.lo = (0 - a.hi) & m;
      r.hi = (0 - a.lo) & m;
      return absReduce(r);
    }
    case Kind::And: {
      const uint64_t ones = a.bits.value & b.bits.value;
      const uint64_t zeros = (a.bits.care & ~a.bits.value) |
                             (b.bits.care & ~b.bits.value);
      AbsValue r = AbsValue::fromBits(width, (ones | zeros) & m, ones & m);
      return absMeet(r, AbsValue::range(width, 0,
                                        std::min(a.umax(), b.umax())));
    }
    case Kind::Or: {
      const uint64_t ones = a.bits.value | b.bits.value;
      const uint64_t zeros = (a.bits.care & ~a.bits.value) &
                             (b.bits.care & ~b.bits.value);
      AbsValue r = AbsValue::fromBits(width, (ones | zeros) & m, ones & m);
      return absMeet(r, AbsValue::range(width,
                                        std::max(a.umin(), b.umin()), m));
    }
    case Kind::Xor: {
      const uint64_t care = a.bits.care & b.bits.care;
      return AbsValue::fromBits(width, care,
                                (a.bits.value ^ b.bits.value) & care);
    }
    case Kind::Add: {
      AbsValue r = AbsValue::top(width);
      kbAdd(a.bits.care, a.bits.value, b.bits.care, b.bits.value, 0, width,
            &r.bits.care, &r.bits.value);
      if (a.arcSize() + b.arcSize() - 1 <= (static_cast<u128>(m) + 1)) {
        r.lo = (a.lo + b.lo) & m;
        r.hi = (a.hi + b.hi) & m;
      }
      return absReduce(r);
    }
    case Kind::Sub: {
      AbsValue r = AbsValue::top(width);
      const AbsValue nb = kbNot(b);  // x - y == x + ~y + 1
      kbAdd(a.bits.care, a.bits.value, nb.bits.care, nb.bits.value, 1, width,
            &r.bits.care, &r.bits.value);
      if (a.arcSize() + b.arcSize() - 1 <= (static_cast<u128>(m) + 1)) {
        r.lo = (a.lo - b.hi) & m;
        r.hi = (a.hi - b.lo) & m;
      }
      return absReduce(r);
    }
    case Kind::Mul:
      return evalMul(width, a, b);
    case Kind::UDiv:
      return evalUDiv(width, a, b);
    case Kind::URem:
      return evalURem(width, a, b);
    case Kind::SDiv:
    case Kind::SRem:
      return AbsValue::top(width);  // singleton case handled above
    case Kind::Shl:
      return evalShl(width, a, b);
    case Kind::LShr:
      return evalLShr(width, a, b);
    case Kind::AShr:
      return evalAShr(width, a, b);
    case Kind::Concat: {
      const unsigned wb = b.width();
      AbsValue r = AbsValue::top(width);
      r.bits.care = ((a.bits.care << wb) | b.bits.care) & m;
      r.bits.value = ((a.bits.value << wb) | b.bits.value) & m;
      // High and low halves are independent; no wrap inside the wider
      // result width.
      r.lo = (a.umin() << wb) + b.umin();
      r.hi = (a.umax() << wb) + b.umax();
      return absReduce(r);
    }
    case Kind::Extract: {
      const unsigned hiB = static_cast<unsigned>(aux >> 8);
      const unsigned loB = static_cast<unsigned>(aux & 0xff);
      AbsValue r = AbsValue::top(width);
      r.bits.care = (a.bits.care >> loB) & m;
      r.bits.value = (a.bits.value >> loB) & m;
      // When the whole operand range shares its bits above hiB, the slice
      // is monotone over [umin, umax].
      const uint64_t lo64 = a.umin(), hi64 = a.umax();
      const bool sameWindow =
          hiB + 1 >= 64 || (lo64 >> (hiB + 1)) == (hi64 >> (hiB + 1));
      if (a.lo <= a.hi && sameWindow) {
        r.lo = (lo64 >> loB) & m;
        r.hi = (hi64 >> loB) & m;
      }
      return absReduce(r);
    }
    case Kind::Eq:
      if (absMeet(a, b).bot) return AbsValue::constant(1, 0);
      return AbsValue::top(1);
    case Kind::Ult:
      if (a.umax() < b.umin()) return AbsValue::constant(1, 1);
      if (a.umin() >= b.umax()) return AbsValue::constant(1, 0);
      return AbsValue::top(1);
    case Kind::Ule:
      if (a.umax() <= b.umin()) return AbsValue::constant(1, 1);
      if (a.umin() > b.umax()) return AbsValue::constant(1, 0);
      return AbsValue::top(1);
    case Kind::Slt:
      return absEvalOp(Kind::Ult, 1, rotSign(a), rotSign(b), c, 0);
    case Kind::Sle:
      return absEvalOp(Kind::Ule, 1, rotSign(a), rotSign(b), c, 0);
    case Kind::Ite: {
      uint64_t cond = 0;
      if (a.isConst(&cond)) return absReduce(cond != 0 ? b : c);
      return absJoin(b, c);
    }
    case Kind::Const:
      return AbsValue::constant(width, aux);
    case Kind::Var:
      return AbsValue::top(width);
  }
  return AbsValue::top(width);
}

// ---- DAG evaluator -----------------------------------------------------

void TermAbsEvaluator::bind(TermId var, const AbsValue& v) {
  env_[var] = absReduce(v);
  memo_.clear();
}

const AbsValue* TermAbsEvaluator::binding(TermId var) const {
  const auto it = env_.find(var);
  return it == env_.end() ? nullptr : &it->second;
}

void TermAbsEvaluator::reset() {
  env_.clear();
  memo_.clear();
  spent_ = 0;
}

std::optional<AbsValue> TermAbsEvaluator::eval(TermRef t) {
  check(t.valid() && t.manager() == &tm_, "TermAbsEvaluator: foreign term");
  // Iterative post-order (same shape as TermManager::evalWith) so deep
  // path-condition chains cannot overflow the stack.
  std::vector<std::pair<TermId, bool>> stack;
  stack.emplace_back(t.id(), false);
  while (!stack.empty()) {
    const auto [id, expanded] = stack.back();
    stack.pop_back();
    if (memo_.count(id) != 0) continue;
    if (spent_ >= budget_) return std::nullopt;
    const TermNode& n = tm_.node(id);
    if (!expanded) {
      stack.emplace_back(id, true);
      if (n.a != smt::kInvalidTerm) stack.emplace_back(n.a, false);
      if (n.b != smt::kInvalidTerm) stack.emplace_back(n.b, false);
      if (n.c != smt::kInvalidTerm) stack.emplace_back(n.c, false);
      continue;
    }
    ++spent_;
    AbsValue v = AbsValue::top(n.width);
    switch (n.kind) {
      case Kind::Const:
        v = AbsValue::constant(n.width, n.aux);
        break;
      case Kind::Var: {
        const auto it = env_.find(id);
        if (it != env_.end()) v = it->second;
        break;
      }
      default: {
        // Identical operands decide comparisons structurally.
        if (n.a == n.b &&
            (n.kind == Kind::Eq || n.kind == Kind::Ule || n.kind == Kind::Sle)) {
          v = AbsValue::constant(1, 1);
          break;
        }
        if (n.a == n.b && (n.kind == Kind::Ult || n.kind == Kind::Slt)) {
          v = AbsValue::constant(1, 0);
          break;
        }
        static const AbsValue kNone = AbsValue::top(1);
        const AbsValue& va = memo_.at(n.a);
        const AbsValue& vb = n.b != smt::kInvalidTerm ? memo_.at(n.b) : kNone;
        const AbsValue& vc = n.c != smt::kInvalidTerm ? memo_.at(n.c) : kNone;
        v = absEvalOp(n.kind, n.width, va, vb, vc, n.aux);
        break;
      }
    }
    memo_.emplace(id, v);
  }
  return memo_.at(t.id());
}

// ---- refinement extraction ---------------------------------------------

namespace {

constexpr int kRefineDepth = 32;

void refineTermTo(TermRef x, AbsValue val, TermAbsEvaluator& ev,
                  std::vector<VarRefinement>& out, int depth);

/// Arc for `v OP c` / `c OP v` with an unsigned comparison; nullopt means
/// the comparison is unsatisfiable (the eventual meet-with-bottom reports
/// that). `varLeft` says the variable side is the left operand.
std::optional<AbsValue> unsignedCmpArc(Kind k, bool pol, bool varLeft,
                                       unsigned w, uint64_t c) {
  const uint64_t m = lowMask(w);
  // Normalize to: v < c / v <= c / v >= c / v > c.
  enum Rel { Lt, Le, Ge, Gt };
  Rel rel;
  if (varLeft) {
    rel = k == Kind::Ult ? (pol ? Lt : Ge) : (pol ? Le : Gt);
  } else {
    rel = k == Kind::Ult ? (pol ? Gt : Le) : (pol ? Ge : Lt);
  }
  switch (rel) {
    case Lt:
      if (c == 0) return AbsValue::bottom(w);
      return AbsValue::range(w, 0, c - 1);
    case Le:
      return AbsValue::range(w, 0, c);
    case Ge:
      return AbsValue::range(w, c, m);
    case Gt:
      if (c == m) return AbsValue::bottom(w);
      return AbsValue::range(w, c + 1, m);
  }
  return std::nullopt;
}

void refineCmp(Kind k, bool pol, TermRef a, TermRef b, TermAbsEvaluator& ev,
               std::vector<VarRefinement>& out, int depth) {
  const bool varLeft = b.isConst();
  TermRef sym = varLeft ? a : b;
  TermRef con = varLeft ? b : a;
  if (!con.isConst() || sym.isConst()) return;
  const unsigned w = sym.width();
  const uint64_t m = lowMask(w);
  uint64_t c = con.constValue();
  const bool isSigned = k == Kind::Slt || k == Kind::Sle;
  const Kind uk = k == Kind::Slt   ? Kind::Ult
                  : k == Kind::Sle ? Kind::Ule
                                   : k;
  const uint64_t sb = 1ull << (w - 1);
  if (isSigned) c = (c + sb) & m;  // compare in the rotated (unsigned) order
  auto arc = unsignedCmpArc(uk, pol, varLeft, w, c);
  if (!arc.has_value()) return;
  if (isSigned && !arc->bot) {
    AbsValue r = AbsValue::top(w);  // rotate the arc back; drop bits info
    r.lo = (arc->lo - sb) & m;
    r.hi = (arc->hi - sb) & m;
    arc = absReduce(r);
  }
  refineTermTo(sym, *arc, ev, out, depth);
}

void refineEq(TermRef a, TermRef b, bool pol, TermAbsEvaluator& ev,
              std::vector<VarRefinement>& out, int depth) {
  if (a.isConst()) std::swap(a, b);
  if (!b.isConst() || a.isConst()) return;
  const unsigned w = a.width();
  const uint64_t m = lowMask(w);
  const uint64_t c = b.constValue();
  if (pol) {
    refineTermTo(a, AbsValue::constant(w, c), ev, out, depth);
    return;
  }
  // x != c: the complement arc [c+1, c-1] (everything but c).
  AbsValue r = AbsValue::top(w);
  r.lo = (c + 1) & m;
  r.hi = (c - 1) & m;
  refineTermTo(a, absReduce(r), ev, out, depth);
}

void refineTermTo(TermRef x, AbsValue val, TermAbsEvaluator& ev,
                  std::vector<VarRefinement>& out, int depth) {
  if (depth <= 0) return;
  const unsigned w = x.width();
  const uint64_t m = lowMask(w);
  const TermNode& n = x.manager()->node(x.id());
  const AbsValue none = AbsValue::top(1);
  // Tighten by the term's structural abstract value (evaluated with every
  // variable top): x always lies in it, so the meet is still a sound
  // preimage — and it converts arc-only facts into known bits the mask /
  // shift cases below can push through. `And(y, 1) != 0` arrives here as
  // the arc [1, 2^w-1]; met with the structural value (bit 0 unknown, the
  // rest known 0) it collapses to the constant 1.
  if (const auto sv = ev.eval(x); sv.has_value()) val = absMeet(val, *sv);
  switch (n.kind) {
    case Kind::Var:
      out.emplace_back(x.id(), absReduce(val));
      return;
    case Kind::Not:  // involution: preimage == image of the inverse
      refineTermTo(x.operand(0), absEvalOp(Kind::Not, w, val, none, none), ev,
                   out, depth - 1);
      return;
    case Kind::Neg:
      refineTermTo(x.operand(0), absEvalOp(Kind::Neg, w, val, none, none), ev,
                   out, depth - 1);
      return;
    case Kind::Xor:
    case Kind::Add:
    case Kind::Sub: {
      TermRef p = x.operand(0), q = x.operand(1);
      if (n.kind != Kind::Sub && q.isConst()) {
      } else if (n.kind != Kind::Sub && p.isConst()) {
        std::swap(p, q);
      } else if (n.kind == Kind::Sub && !q.isConst() && p.isConst()) {
        // c - y == val  =>  y == c - val
        const AbsValue cv = AbsValue::constant(w, p.constValue());
        refineTermTo(q, absEvalOp(Kind::Sub, w, cv, val, none), ev, out,
                     depth - 1);
        return;
      }
      if (!q.isConst()) return;
      const AbsValue cv = AbsValue::constant(w, q.constValue());
      // y xor c == val => y == val xor c; y + c == val => y == val - c;
      // y - c == val => y == val + c.
      const Kind inv = n.kind == Kind::Xor   ? Kind::Xor
                       : n.kind == Kind::Add ? Kind::Sub
                                             : Kind::Add;
      refineTermTo(p, absEvalOp(inv, w, val, cv, none), ev, out, depth - 1);
      return;
    }
    case Kind::And:
    case Kind::Or: {
      TermRef p = x.operand(0), q = x.operand(1);
      if (p.isConst()) std::swap(p, q);
      if (!q.isConst()) return;
      const uint64_t mc = q.constValue();
      // Bits the mask passes through (And: where mc==1; Or: where mc==0)
      // come straight from the operand.
      const uint64_t pass = n.kind == Kind::And ? mc : ~mc & m;
      refineTermTo(p,
                   AbsValue::fromBits(w, val.bits.care & pass,
                                      val.bits.value & pass),
                   ev, out, depth - 1);
      return;
    }
    case Kind::Concat: {
      const TermRef hiPart = x.operand(0), loPart = x.operand(1);
      const unsigned wl = loPart.width();
      refineTermTo(hiPart,
                   absEvalOp(Kind::Extract, hiPart.width(), val, none, none,
                             (static_cast<uint64_t>(w - 1) << 8) | wl),
                   ev, out, depth - 1);
      refineTermTo(loPart,
                   absEvalOp(Kind::Extract, wl, val, none, none,
                             (static_cast<uint64_t>(wl - 1) << 8) | 0),
                   ev, out, depth - 1);
      return;
    }
    case Kind::Extract: {
      const unsigned loB = static_cast<unsigned>(n.aux & 0xff);
      const TermRef y = x.operand(0);
      refineTermTo(y,
                   AbsValue::fromBits(y.width(), val.bits.care << loB,
                                      val.bits.value << loB),
                   ev, out, depth - 1);
      return;
    }
    case Kind::Shl: {
      const TermRef p = x.operand(0), q = x.operand(1);
      if (!q.isConst()) return;
      const uint64_t sh = q.constValue();
      if (sh >= w) return;
      refineTermTo(p,
                   AbsValue::fromBits(w, (val.bits.care >> sh) & (m >> sh),
                                      (val.bits.value >> sh) & (m >> sh)),
                   ev, out, depth - 1);
      return;
    }
    case Kind::LShr: {
      // Result bit i came from operand bit i+sh; known low result bits
      // pin the operand's bits above the shift (the shifted-out low bits
      // stay unknown).
      const TermRef p = x.operand(0), q = x.operand(1);
      if (!q.isConst()) return;
      const uint64_t sh = q.constValue();
      if (sh >= w) return;
      refineTermTo(p,
                   AbsValue::fromBits(w, (val.bits.care << sh) & m,
                                      (val.bits.value << sh) & m),
                   ev, out, depth - 1);
      return;
    }
    default:
      return;
  }
}

void refineConstraint(TermRef t, bool pol, TermAbsEvaluator& ev,
                      std::vector<VarRefinement>& out, int depth) {
  if (depth <= 0) return;
  const TermNode& n = t.manager()->node(t.id());
  switch (n.kind) {
    case Kind::Var:
      out.emplace_back(t.id(), AbsValue::constant(1, pol ? 1 : 0));
      return;
    case Kind::Not:
      refineConstraint(t.operand(0), !pol, ev, out, depth - 1);
      return;
    case Kind::And:  // width-1 And is conjunction
      if (t.width() == 1 && pol) {
        refineConstraint(t.operand(0), true, ev, out, depth - 1);
        refineConstraint(t.operand(1), true, ev, out, depth - 1);
      }
      return;
    case Kind::Or:  // a false Or falsifies both disjuncts
      if (t.width() == 1 && !pol) {
        refineConstraint(t.operand(0), false, ev, out, depth - 1);
        refineConstraint(t.operand(1), false, ev, out, depth - 1);
      }
      return;
    case Kind::Eq:
      refineEq(t.operand(0), t.operand(1), pol, ev, out, depth - 1);
      return;
    case Kind::Ult:
    case Kind::Ule:
    case Kind::Slt:
    case Kind::Sle:
      refineCmp(n.kind, pol, t.operand(0), t.operand(1), ev, out, depth - 1);
      return;
    default:
      return;
  }
}

}  // namespace

void appendRefinements(TermRef constraint, std::vector<VarRefinement>& out) {
  check(constraint.valid() && constraint.width() == 1,
        "appendRefinements: constraint must be width 1");
  // Unbound evaluator: pure structural values, used only to tighten the
  // preimages refineTermTo descends with.
  TermAbsEvaluator ev(*constraint.manager());
  refineConstraint(constraint, true, ev, out, kRefineDepth);
}

}  // namespace adlsym::analysis
