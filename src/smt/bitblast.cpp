#include "smt/bitblast.h"

#include <algorithm>

#include "support/bits.h"

namespace adlsym::smt {

BitBlaster::BitBlaster(TermManager& tm, SatSolver& sat)
    : tm_(tm), sat_(sat), trueLit_(sat.newVar(), false) {
  sat_.addUnit(trueLit_);
}

Lit BitBlaster::freshLit() {
  ++stats_.gates;
  return Lit(sat_.newVar(), false);
}

Lit BitBlaster::mkAnd2(Lit a, Lit b) {
  // Constant and structural shortcuts.
  if (isFalseLit(a) || isFalseLit(b)) return falseLit();
  if (isTrueLit(a)) return b;
  if (isTrueLit(b)) return a;
  if (a == b) return a;
  if (a == ~b) return falseLit();
  ++gateRequests_;
  if (a.x > b.x) std::swap(a, b);
  const auto key = std::make_pair(a.x, b.x);
  if (auto it = andCache_.find(key); it != andCache_.end()) {
    ++stats_.cacheHits;
    return it->second;
  }
  const Lit o = freshLit();
  sat_.addBinary(~o, a);
  sat_.addBinary(~o, b);
  sat_.addTernary(~a, ~b, o);
  andCache_.emplace(key, o);
  return o;
}

Lit BitBlaster::mkXor2(Lit a, Lit b) {
  if (isFalseLit(a)) return b;
  if (isFalseLit(b)) return a;
  if (isTrueLit(a)) return ~b;
  if (isTrueLit(b)) return ~a;
  if (a == b) return falseLit();
  if (a == ~b) return trueLit();
  ++gateRequests_;
  // Normalize: cache on positive-var pair; output phase absorbs signs.
  bool flip = false;
  if (a.sign()) { a = ~a; flip = !flip; }
  if (b.sign()) { b = ~b; flip = !flip; }
  if (a.x > b.x) std::swap(a, b);
  const auto key = std::make_pair(a.x, b.x);
  auto it = xorCache_.find(key);
  Lit o;
  if (it != xorCache_.end()) {
    ++stats_.cacheHits;
    o = it->second;
  } else {
    o = freshLit();
    sat_.addTernary(~a, ~b, ~o);
    sat_.addTernary(a, b, ~o);
    sat_.addTernary(~a, b, o);
    sat_.addTernary(a, ~b, o);
    xorCache_.emplace(key, o);
  }
  return flip ? ~o : o;
}

Lit BitBlaster::mkMux(Lit c, Lit t, Lit e) {
  if (isTrueLit(c)) return t;
  if (isFalseLit(c)) return e;
  if (t == e) return t;
  return mkOr2(mkAnd2(c, t), mkAnd2(~c, e));
}

Lit BitBlaster::andAll(const std::vector<Lit>& ls) {
  Lit acc = trueLit();
  for (const Lit l : ls) acc = mkAnd2(acc, l);
  return acc;
}

BitBlaster::Bits BitBlaster::addCirc(const Bits& a, const Bits& b, Lit carryIn) {
  check(a.size() == b.size(), "adder width mismatch");
  Bits sum(a.size());
  Lit carry = carryIn;
  for (size_t i = 0; i < a.size(); ++i) {
    const Lit axb = mkXor2(a[i], b[i]);
    sum[i] = mkXor2(axb, carry);
    carry = mkOr2(mkAnd2(a[i], b[i]), mkAnd2(carry, axb));
  }
  return sum;
}

BitBlaster::Bits BitBlaster::negCirc(const Bits& a) {
  Bits na(a.size());
  for (size_t i = 0; i < a.size(); ++i) na[i] = ~a[i];
  Bits zero(a.size(), falseLit());
  return addCirc(na, zero, trueLit());
}

BitBlaster::Bits BitBlaster::mulCirc(const Bits& a, const Bits& b) {
  const size_t w = a.size();
  Bits acc(w, falseLit());
  for (size_t i = 0; i < w; ++i) {
    // Row i: (a << i) gated by b[i], added into acc.
    Bits row(w, falseLit());
    bool any = false;
    for (size_t k = i; k < w; ++k) {
      row[k] = mkAnd2(b[i], a[k - i]);
      any = any || !isFalseLit(row[k]);
    }
    if (any) acc = addCirc(acc, row, falseLit());
  }
  return acc;
}

Lit BitBlaster::ultCirc(const Bits& a, const Bits& b) {
  check(a.size() == b.size(), "comparator width mismatch");
  Lit lt = falseLit();
  for (size_t i = 0; i < a.size(); ++i) {  // LSB to MSB
    const Lit eq = mkXnor2(a[i], b[i]);
    lt = mkOr2(mkAnd2(~a[i], b[i]), mkAnd2(eq, lt));
  }
  return lt;
}

Lit BitBlaster::uleCirc(const Bits& a, const Bits& b) { return ~ultCirc(b, a); }

BitBlaster::Bits BitBlaster::muxBits(Lit c, const Bits& t, const Bits& e) {
  check(t.size() == e.size(), "mux width mismatch");
  Bits out(t.size());
  for (size_t i = 0; i < t.size(); ++i) out[i] = mkMux(c, t[i], e[i]);
  return out;
}

void BitBlaster::divremCirc(const Bits& a, const Bits& b, Bits& quot, Bits& rem) {
  const size_t w = a.size();
  // Restoring long division, MSB first. The running remainder needs w+1
  // bits so that the compare/subtract never overflows.
  Bits r(w + 1, falseLit());
  Bits bx = b;
  bx.push_back(falseLit());  // zero-extend divisor to w+1
  Bits q(w, falseLit());
  for (size_t step = 0; step < w; ++step) {
    const size_t i = w - 1 - step;  // next dividend bit
    // r = (r << 1) | a[i]
    for (size_t k = w; k > 0; --k) r[k] = r[k - 1];
    r[0] = a[i];
    const Lit geq = uleCirc(bx, r);
    const Bits diff = addCirc(r, negCirc(bx), falseLit());
    r = muxBits(geq, diff, r);
    q[i] = geq;
  }
  // SMT-LIB by-zero semantics: udiv(x,0) = all-ones, urem(x,0) = x.
  Lit bZero = trueLit();
  for (const Lit l : b) bZero = mkAnd2(bZero, ~l);
  Bits ones(w, trueLit());
  quot = muxBits(bZero, ones, q);
  Bits rlow(r.begin(), r.begin() + static_cast<long>(w));
  rem = muxBits(bZero, a, rlow);
}

BitBlaster::Bits BitBlaster::shiftCirc(Kind kind, const Bits& a, const Bits& sh) {
  const size_t w = a.size();
  const Lit fill0 = falseLit();
  const Lit sign = a[w - 1];
  const Lit fill = kind == Kind::AShr ? sign : fill0;
  Bits cur = a;
  // Barrel shifter over the shift-amount bits that matter.
  for (size_t s = 0; s < sh.size() && (size_t{1} << s) < w; ++s) {
    const size_t d = size_t{1} << s;
    Bits shifted(w);
    for (size_t i = 0; i < w; ++i) {
      if (kind == Kind::Shl) {
        shifted[i] = i >= d ? cur[i - d] : fill0;
      } else {
        shifted[i] = i + d < w ? cur[i + d] : fill;
      }
    }
    cur = muxBits(sh[s], shifted, cur);
  }
  // If the shift amount is >= w, the result is all-fill.
  Bits wConst(sh.size());
  for (size_t i = 0; i < sh.size(); ++i) {
    wConst[i] = (i < 64 && ((static_cast<uint64_t>(w) >> i) & 1)) ? trueLit() : falseLit();
  }
  const Lit tooBig = uleCirc(wConst, sh);  // sh >= w
  Bits fills(w, fill);
  return muxBits(tooBig, fills, cur);
}

const BitBlaster::Bits& BitBlaster::blast(TermId id) {
  if (auto it = blasted_.find(id); it != blasted_.end()) return it->second;

  // Iterative DFS so deep path-condition cones don't overflow the stack.
  std::vector<std::pair<TermId, bool>> stack;
  stack.emplace_back(id, false);
  while (!stack.empty()) {
    auto [cur, expanded] = stack.back();
    stack.pop_back();
    if (blasted_.count(cur)) continue;
    const TermNode& n = tm_.node(cur);
    if (!expanded) {
      stack.emplace_back(cur, true);
      if (n.a != kInvalidTerm) stack.emplace_back(n.a, false);
      if (n.b != kInvalidTerm) stack.emplace_back(n.b, false);
      if (n.c != kInvalidTerm) stack.emplace_back(n.c, false);
      continue;
    }
    ++stats_.termsBlasted;
    const uint64_t requests0 = gateRequests_;
    const unsigned w = n.width;
    Bits out;
    auto A = [&]() -> const Bits& { return blasted_.at(n.a); };
    auto B = [&]() -> const Bits& { return blasted_.at(n.b); };
    auto C = [&]() -> const Bits& { return blasted_.at(n.c); };
    switch (n.kind) {
      case Kind::Const: {
        out.resize(w);
        for (unsigned i = 0; i < w; ++i)
          out[i] = ((n.aux >> i) & 1) ? trueLit() : falseLit();
        break;
      }
      case Kind::Var: {
        out.resize(w);
        for (unsigned i = 0; i < w; ++i) out[i] = Lit(sat_.newVar(), false);
        varTerms_.emplace_back(cur, out);
        break;
      }
      case Kind::Not: {
        out = A();
        for (Lit& l : out) l = ~l;
        break;
      }
      case Kind::Neg: out = negCirc(A()); break;
      case Kind::And: case Kind::Or: case Kind::Xor: {
        const Bits& a = A();
        const Bits& b = B();
        out.resize(w);
        for (unsigned i = 0; i < w; ++i) {
          out[i] = n.kind == Kind::And ? mkAnd2(a[i], b[i])
                 : n.kind == Kind::Or  ? mkOr2(a[i], b[i])
                                       : mkXor2(a[i], b[i]);
        }
        break;
      }
      case Kind::Add: out = addCirc(A(), B(), falseLit()); break;
      case Kind::Sub: {
        Bits nb = B();
        for (Lit& l : nb) l = ~l;
        out = addCirc(A(), nb, trueLit());
        break;
      }
      case Kind::Mul: out = mulCirc(A(), B()); break;
      case Kind::UDiv: case Kind::URem: {
        Bits q, r;
        divremCirc(A(), B(), q, r);
        out = n.kind == Kind::UDiv ? q : r;
        break;
      }
      case Kind::SDiv: case Kind::SRem: {
        const Bits& a = A();
        const Bits& b = B();
        const Lit sa = a[w - 1];
        const Lit sb = b[w - 1];
        const Bits absA = muxBits(sa, negCirc(a), a);
        const Bits absB = muxBits(sb, negCirc(b), b);
        Bits q, r;
        divremCirc(absA, absB, q, r);
        if (n.kind == Kind::SDiv) {
          const Lit qsign = mkXor2(sa, sb);
          out = muxBits(qsign, negCirc(q), q);
        } else {
          out = muxBits(sa, negCirc(r), r);
        }
        break;
      }
      case Kind::Shl: case Kind::LShr: case Kind::AShr:
        out = shiftCirc(n.kind, A(), B());
        break;
      case Kind::Concat: {
        out = B();  // low part
        const Bits& hi = A();
        out.insert(out.end(), hi.begin(), hi.end());
        break;
      }
      case Kind::Extract: {
        const unsigned hi = static_cast<unsigned>(n.aux >> 8);
        const unsigned lo = static_cast<unsigned>(n.aux & 0xff);
        const Bits& a = A();
        out.assign(a.begin() + lo, a.begin() + hi + 1);
        break;
      }
      case Kind::Eq: {
        const Bits& a = A();
        const Bits& b = B();
        std::vector<Lit> eqs(a.size());
        for (size_t i = 0; i < a.size(); ++i) eqs[i] = mkXnor2(a[i], b[i]);
        out = {andAll(eqs)};
        break;
      }
      case Kind::Ult: out = {ultCirc(A(), B())}; break;
      case Kind::Ule: out = {uleCirc(A(), B())}; break;
      case Kind::Slt: case Kind::Sle: {
        // Signed compare = unsigned compare with sign bits flipped.
        Bits a = A();
        Bits b = B();
        a.back() = ~a.back();
        b.back() = ~b.back();
        out = {n.kind == Kind::Slt ? ultCirc(a, b) : uleCirc(a, b)};
        break;
      }
      case Kind::Ite: out = muxBits(A()[0], B(), C()); break;
    }
    check(out.size() == w, "bitblast produced wrong width");
    blasted_.emplace(cur, std::move(out));
    if (termGates_.size() <= cur) termGates_.resize(size_t{cur} + 1, 0);
    termGates_[cur] = static_cast<uint32_t>(gateRequests_ - requests0);
  }
  return blasted_.at(id);
}

Lit BitBlaster::litFor(TermRef t) {
  check(t.manager() == &tm_, "litFor: foreign term");
  check(t.width() == 1, "litFor requires a width-1 term");
  return blast(t.id())[0];
}

const BitBlaster::Bits& BitBlaster::bitsFor(TermRef t) {
  check(t.manager() == &tm_, "bitsFor: foreign term");
  return blast(t.id());
}

uint64_t BitBlaster::modelValueOf(TermRef t) {
  const Bits& bits = blast(t.id());
  uint64_t v = 0;
  for (size_t i = 0; i < bits.size(); ++i) {
    if (sat_.modelValue(bits[i])) v |= uint64_t{1} << i;
  }
  return v;
}

}  // namespace adlsym::smt
