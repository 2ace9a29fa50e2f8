#include <gtest/gtest.h>

#include "smt/printer.h"
#include "smt/term.h"
#include "smt/termio.h"
#include "support/bits.h"

namespace adlsym::smt {
namespace {

class TermTest : public ::testing::Test {
 protected:
  TermManager tm;
  TermRef c(unsigned w, uint64_t v) { return tm.mkConst(w, v); }
  TermRef x = TermRef();
  TermRef y = TermRef();
  void SetUp() override {
    x = tm.mkVar(8, "x");
    y = tm.mkVar(8, "y");
  }
};

TEST_F(TermTest, HashConsing) {
  EXPECT_EQ(c(8, 5), c(8, 5));
  EXPECT_NE(c(8, 5), c(8, 6));
  EXPECT_NE(c(8, 5), c(16, 5));
  EXPECT_EQ(tm.mkAdd(x, y), tm.mkAdd(x, y));
  EXPECT_EQ(tm.mkVar(8, "x"), x);
  EXPECT_THROW(tm.mkVar(16, "x"), Error);  // width conflict
}

TEST_F(TermTest, ConstantsTruncate) {
  EXPECT_EQ(c(8, 0x1ff).constValue(), 0xffu);
  EXPECT_EQ(c(1, 2).constValue(), 0u);
}

TEST_F(TermTest, ConstantFolding) {
  EXPECT_EQ(tm.mkAdd(c(8, 200), c(8, 100)).constValue(), 44u);  // mod 256
  EXPECT_EQ(tm.mkSub(c(8, 1), c(8, 2)).constValue(), 0xffu);
  EXPECT_EQ(tm.mkMul(c(8, 16), c(8, 17)).constValue(), 16u);
  EXPECT_EQ(tm.mkNeg(c(8, 1)).constValue(), 0xffu);
  EXPECT_EQ(tm.mkNot(c(8, 0xf0)).constValue(), 0x0fu);
  EXPECT_TRUE(tm.mkUlt(c(8, 1), c(8, 2)).isTrue());
  EXPECT_TRUE(tm.mkSlt(c(8, 0xff), c(8, 0)).isTrue());  // -1 < 0
  EXPECT_TRUE(tm.mkSlt(c(8, 0), c(8, 0x80)).isFalse());  // 0 < -128 ? no
}

TEST_F(TermTest, DivisionSemantics) {
  // SMT-LIB by-zero semantics.
  EXPECT_EQ(tm.mkUDiv(c(8, 7), c(8, 0)).constValue(), 0xffu);
  EXPECT_EQ(tm.mkURem(c(8, 7), c(8, 0)).constValue(), 7u);
  EXPECT_EQ(tm.mkSDiv(c(8, 7), c(8, 0)).constValue(), 0xffu);   // +/0 = -1
  EXPECT_EQ(tm.mkSDiv(c(8, 0xf9), c(8, 0)).constValue(), 1u);   // -/0 = 1
  EXPECT_EQ(tm.mkSRem(c(8, 0xf9), c(8, 0)).constValue(), 0xf9u);
  // Round toward zero.
  EXPECT_EQ(tm.mkSDiv(c(8, 0xf9), c(8, 2)).constValue(), 0xfdu);  // -7/2=-3
  EXPECT_EQ(tm.mkSRem(c(8, 0xf9), c(8, 2)).constValue(), 0xffu);  // rem -1
  // INT_MIN / -1 wraps.
  EXPECT_EQ(tm.mkSDiv(c(8, 0x80), c(8, 0xff)).constValue(), 0x80u);
  EXPECT_EQ(tm.mkSRem(c(8, 0x80), c(8, 0xff)).constValue(), 0u);
}

TEST_F(TermTest, ShiftSemantics) {
  EXPECT_EQ(tm.mkShl(c(8, 1), c(8, 9)).constValue(), 0u);    // >= width
  EXPECT_EQ(tm.mkLShr(c(8, 0x80), c(8, 9)).constValue(), 0u);
  EXPECT_EQ(tm.mkAShr(c(8, 0x80), c(8, 9)).constValue(), 0xffu);  // sign fill
  EXPECT_EQ(tm.mkAShr(c(8, 0x80), c(8, 1)).constValue(), 0xc0u);
}

TEST_F(TermTest, Identities) {
  EXPECT_EQ(tm.mkAdd(x, c(8, 0)), x);
  EXPECT_EQ(tm.mkSub(x, c(8, 0)), x);
  EXPECT_EQ(tm.mkMul(x, c(8, 1)), x);
  EXPECT_TRUE(tm.mkMul(x, c(8, 0)).isConst());
  EXPECT_EQ(tm.mkAnd(x, c(8, 0xff)), x);
  EXPECT_TRUE(tm.mkAnd(x, c(8, 0)).isConst());
  EXPECT_EQ(tm.mkOr(x, c(8, 0)), x);
  EXPECT_EQ(tm.mkXor(x, c(8, 0)), x);
  EXPECT_TRUE(tm.mkXor(x, x).isConst());
  EXPECT_EQ(tm.mkNot(tm.mkNot(x)), x);
  EXPECT_EQ(tm.mkNeg(tm.mkNeg(x)), x);
  EXPECT_TRUE(tm.mkEq(x, x).isTrue());
  EXPECT_TRUE(tm.mkUlt(x, x).isFalse());
  EXPECT_TRUE(tm.mkUle(x, x).isTrue());
  EXPECT_TRUE(tm.mkUlt(x, c(8, 0)).isFalse());
  EXPECT_TRUE(tm.mkUle(c(8, 0), x).isTrue());
}

TEST_F(TermTest, AddChainCollapses) {
  // (x + 3) + 5 -> x + 8
  TermRef t = tm.mkAdd(tm.mkAdd(x, c(8, 3)), c(8, 5));
  ASSERT_EQ(t.kind(), Kind::Add);
  EXPECT_EQ(t.operand(0), x);
  EXPECT_EQ(t.operand(1).constValue(), 8u);
  // x - 3 -> x + 253 (sub normalizes to add for chain collapsing)
  TermRef u = tm.mkSub(tm.mkAdd(x, c(8, 3)), c(8, 3));
  EXPECT_EQ(u, x);
}

TEST_F(TermTest, CommutativeNormalization) {
  EXPECT_EQ(tm.mkAdd(c(8, 3), x), tm.mkAdd(x, c(8, 3)));
  EXPECT_EQ(tm.mkAnd(y, x), tm.mkAnd(x, y));
  EXPECT_EQ(tm.mkEq(c(8, 3), x), tm.mkEq(x, c(8, 3)));
}

TEST_F(TermTest, ExtractAndConcat) {
  TermRef cat = tm.mkConcat(x, y);  // x = high byte
  EXPECT_EQ(cat.width(), 16u);
  EXPECT_EQ(tm.mkExtract(cat, 7, 0), y);
  EXPECT_EQ(tm.mkExtract(cat, 15, 8), x);
  EXPECT_EQ(tm.mkExtract(x, 7, 0), x);  // full range is identity
  // extract of extract composes
  TermRef mid = tm.mkExtract(cat, 11, 4);
  TermRef lo = tm.mkExtract(mid, 3, 0);
  EXPECT_EQ(lo, tm.mkExtract(y, 7, 4));
  // concat of adjacent extracts re-fuses
  TermRef hi4 = tm.mkExtract(x, 7, 4);
  TermRef lo4 = tm.mkExtract(x, 3, 0);
  EXPECT_EQ(tm.mkConcat(hi4, lo4), x);
  EXPECT_EQ(tm.mkConcat(c(8, 0xab), c(8, 0xcd)).constValue(), 0xabcdu);
}

TEST_F(TermTest, Extensions) {
  EXPECT_EQ(tm.mkZExt(c(8, 0x80), 16).constValue(), 0x80u);
  EXPECT_EQ(tm.mkSExt(c(8, 0x80), 16).constValue(), 0xff80u);
  EXPECT_EQ(tm.mkSExt(c(8, 0x7f), 16).constValue(), 0x7fu);
  EXPECT_EQ(tm.mkZExt(x, 8), x);
  EXPECT_EQ(tm.mkResize(x, 4).width(), 4u);
  EXPECT_EQ(tm.mkResize(x, 12).width(), 12u);
}

TEST_F(TermTest, IteSimplification) {
  TermRef p = tm.mkVar(1, "p");
  EXPECT_EQ(tm.mkIte(tm.mkTrue(), x, y), x);
  EXPECT_EQ(tm.mkIte(tm.mkFalse(), x, y), y);
  EXPECT_EQ(tm.mkIte(p, x, x), x);
  EXPECT_EQ(tm.mkIte(p, tm.mkTrue(), tm.mkFalse()), p);
  EXPECT_EQ(tm.mkIte(p, tm.mkFalse(), tm.mkTrue()), tm.mkNot(p));
  // ite(!c, a, b) -> ite(c, b, a)
  EXPECT_EQ(tm.mkIte(tm.mkNot(p), x, y), tm.mkIte(p, y, x));
}

TEST_F(TermTest, BoolRewrites) {
  TermRef p = tm.mkVar(1, "p");
  TermRef q = tm.mkVar(1, "q");
  EXPECT_TRUE(tm.mkAnd(p, tm.mkNot(p)).isFalse());
  EXPECT_TRUE(tm.mkOr(p, tm.mkNot(p)).isTrue());
  EXPECT_EQ(tm.mkEq(p, tm.mkTrue()), p);
  EXPECT_EQ(tm.mkEq(p, tm.mkFalse()), tm.mkNot(p));
  // De Morgan-ish comparison complement: !(a < b) == (b <= a)
  EXPECT_EQ(tm.mkNot(tm.mkUlt(x, y)), tm.mkUle(y, x));
  EXPECT_EQ(tm.mkNot(tm.mkSle(x, y)), tm.mkSlt(y, x));
  (void)q;
}

TEST_F(TermTest, RewriterAblationSwitch) {
  TermManager raw;
  raw.setRewritingEnabled(false);
  TermRef v = raw.mkVar(8, "v");
  TermRef t = raw.mkAdd(v, raw.mkConst(8, 0));
  EXPECT_EQ(t.kind(), Kind::Add);  // identity NOT applied
  // Constant folding still works with rewriting off.
  EXPECT_TRUE(raw.mkAdd(raw.mkConst(8, 1), raw.mkConst(8, 2)).isConst());
  EXPECT_EQ(raw.rewriteHits(), 0u);
}

TEST_F(TermTest, EvalWith) {
  TermRef t = tm.mkAdd(tm.mkMul(x, y), c(8, 1));
  const uint32_t xi = tm.varIndex(x.id());
  const uint32_t yi = tm.varIndex(y.id());
  auto env = [&](uint32_t idx) -> uint64_t {
    if (idx == xi) return 7;
    if (idx == yi) return 5;
    return 0;
  };
  EXPECT_EQ(tm.evalWith(t, env), 36u);
  // Deep chain does not overflow the stack.
  TermRef deep = x;
  for (int i = 0; i < 50000; ++i) deep = tm.mkAdd(deep, y);
  EXPECT_EQ(tm.evalWith(deep, env), (7 + 50000 * 5) % 256);
}

TEST_F(TermTest, EvalTermReusesItsMemoAcrossAssignments) {
  // One assignment memoizes shared subterms across evalTerm calls; the
  // next evalBegin forgets every value and binding, and an unbound
  // variable reads 0.
  const TermRef sum = tm.mkAdd(x, y);
  const TermRef twice = tm.mkAdd(sum, sum);
  tm.evalBegin();
  tm.evalBind(x, 3);
  tm.evalBind(y, 0x104);  // truncated to the variable's 8 bits
  EXPECT_EQ(tm.evalTerm(sum), 7u);
  EXPECT_EQ(tm.evalTerm(twice), 14u);
  tm.evalBegin();
  tm.evalBind(x, 10);
  EXPECT_EQ(tm.evalTerm(twice), 20u);
  EXPECT_EQ(tm.evalTerm(sum), 10u);
  // evalWith starts its own assignment; terms built since the last
  // evaluation are covered.
  const TermRef later = tm.mkMul(sum, c(8, 3));
  EXPECT_EQ(tm.evalWith(later, [](uint32_t) { return uint64_t{1}; }), 6u);
  tm.evalBegin();
  EXPECT_EQ(tm.evalTerm(later), 0u);
}

TEST_F(TermTest, PrinterRendersSmtLib) {
  TermRef t = tm.mkEq(tm.mkAdd(x, c(8, 4)), y);
  const std::string s = toString(t);
  EXPECT_NE(s.find("bvadd"), std::string::npos);
  EXPECT_NE(s.find("x"), std::string::npos);
  EXPECT_NE(s.find("#x04"), std::string::npos);
  const std::string script = toSmtLib({t});
  EXPECT_NE(script.find("(set-logic QF_BV)"), std::string::npos);
  EXPECT_NE(script.find("(declare-const x (_ BitVec 8))"), std::string::npos);
  EXPECT_NE(script.find("(check-sat)"), std::string::npos);
}

// Two pools that create the same variables in opposite orders, as a
// thief and a victim worker do after a steal, must build one structure for
// one constraint: commutative operands are ordered by structural hash,
// never by pool-local TermId.
TEST(TermIdentity, OperandOrderIsPoolIndependent) {
  TermManager p1;
  TermManager p2;
  const TermRef x1 = p1.mkVar(8, "in0_w8");
  const TermRef y1 = p1.mkVar(8, "in1_w8");
  const TermRef y2 = p2.mkVar(8, "in1_w8");
  const TermRef x2 = p2.mkVar(8, "in0_w8");
  const auto expectSame = [](TermRef t1, TermRef t2) {
    EXPECT_EQ(toString(t1), toString(t2));
    TermTableWriter w1;
    TermTableWriter w2;
    w1.slot(t1);
    w2.slot(t2);
    EXPECT_EQ(w1.table(), w2.table()) << toString(t1);
  };
  using Builder = TermRef (TermManager::*)(TermRef, TermRef);
  for (const Builder mk : {&TermManager::mkAdd, &TermManager::mkMul,
                           &TermManager::mkAnd, &TermManager::mkOr,
                           &TermManager::mkXor, &TermManager::mkEq}) {
    expectSame((p1.*mk)(x1, y1), (p2.*mk)(x2, y2));
    expectSame((p1.*mk)(x1, y1), (p2.*mk)(y2, x2));
  }
  const auto nested = [](TermManager& tm, TermRef x, TermRef y) {
    return tm.mkEq(tm.mkAdd(tm.mkMul(x, tm.mkConst(8, 3)), y),
                   tm.mkXor(tm.mkOr(y, x), tm.mkAnd(x, y)));
  };
  expectSame(nested(p1, x1, y1), nested(p2, x2, y2));
}

TEST(TermIdentity, StructuralHashes) {
  TermManager p1;
  TermManager p2;
  p2.mkVar(8, "noise");  // shifts every pool-local index in p2
  const TermRef a1 = p1.mkAdd(p1.mkVar(8, "a"), p1.mkConst(8, 3));
  const TermRef a2 = p2.mkAdd(p2.mkVar(8, "a"), p2.mkConst(8, 3));
  const TermRef b2 = p2.mkAdd(p2.mkVar(8, "b"), p2.mkConst(8, 3));
  // Named: equal structure and names, equal hash in any pool.
  EXPECT_EQ(p1.node(a1).named, p2.node(a2).named);
  EXPECT_NE(p2.node(a2).named, p2.node(b2).named);
  // Blind: a renaming of variables keeps the hash, a width change does not.
  EXPECT_EQ(p1.node(a1).blind, p2.node(b2).blind);
  const TermRef wide = p2.mkAdd(p2.mkVar(16, "w"), p2.mkConst(16, 3));
  EXPECT_NE(p2.node(a2).blind, p2.node(wide).blind);
}

TEST_F(TermTest, WidthChecksThrow) {
  TermRef w16 = tm.mkVar(16, "w16");
  EXPECT_THROW(tm.mkAdd(x, w16), Error);
  EXPECT_THROW(tm.mkExtract(x, 8, 0), Error);
  EXPECT_THROW(tm.mkIte(x, x, x), Error);  // condition must be width 1
  EXPECT_THROW(tm.mkConst(0, 0), Error);
}

}  // namespace
}  // namespace adlsym::smt
