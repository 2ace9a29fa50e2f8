#include <gtest/gtest.h>

#include "adl/parser.h"

namespace adlsym::adl {
namespace {

std::unique_ptr<ast::ArchDecl> parseOk(std::string_view src) {
  DiagEngine diags;
  auto arch = parseArch(src, diags);
  EXPECT_TRUE(arch != nullptr) << diags.str();
  return arch;
}

void parseFail(std::string_view src, const char* needle) {
  DiagEngine diags;
  auto arch = parseArch(src, diags);
  EXPECT_EQ(arch, nullptr);
  EXPECT_TRUE(diags.hasErrors());
  EXPECT_NE(diags.str().find(needle), std::string::npos)
      << "wanted '" << needle << "' in:\n" << diags.str();
}

constexpr char kMini[] = R"q(
arch mini {
  endian little;
  wordsize 8;
  reg pc : 16;
  reg A : 8;
  flag Z;
  mem M : byte[16];
  enc OpImm = [imm8:8][opcode:8];
  insn foo "foo %i(imm8)" : OpImm(opcode=1) {
    A = imm8;
    Z = A == 0;
  }
}
)q";

TEST(Parser, MinimalArch) {
  auto arch = parseOk(kMini);
  EXPECT_EQ(arch->name, "mini");
  EXPECT_TRUE(arch->endianLittle);
  EXPECT_EQ(arch->wordSize, 8u);
  ASSERT_EQ(arch->regs.size(), 2u);
  EXPECT_EQ(arch->regs[0].name, "pc");
  EXPECT_EQ(arch->regs[0].width, 16u);
  ASSERT_EQ(arch->flags.size(), 1u);
  ASSERT_EQ(arch->mems.size(), 1u);
  EXPECT_EQ(arch->mems[0].addrWidth, 16u);
  ASSERT_EQ(arch->encodings.size(), 1u);
  ASSERT_EQ(arch->encodings[0].fields.size(), 2u);
  EXPECT_EQ(arch->encodings[0].fields[0].name, "imm8");
  ASSERT_EQ(arch->insns.size(), 1u);
  EXPECT_EQ(arch->insns[0].name, "foo");
  EXPECT_EQ(arch->insns[0].syntax, "foo %i(imm8)");
  ASSERT_EQ(arch->insns[0].fixes.size(), 1u);
  EXPECT_EQ(arch->insns[0].fixes[0].field, "opcode");
  EXPECT_EQ(arch->insns[0].fixes[0].value, 1u);
  EXPECT_EQ(arch->insns[0].body.size(), 2u);
}

TEST(Parser, RegFileWithZero) {
  auto arch = parseOk(R"q(
    arch a { wordsize 32; reg pc : 32; mem M : byte[32];
      regfile x[16] : 32 { zero = 0 };
      enc E = [a:8];
      insn n "n" : E(a=1) { pc = pc; }
    })q");
  ASSERT_EQ(arch->regfiles.size(), 1u);
  EXPECT_EQ(arch->regfiles[0].count, 16u);
  EXPECT_EQ(arch->regfiles[0].zeroReg, 0u);
}

TEST(Parser, ExpressionPrecedence) {
  auto arch = parseOk(R"q(
    arch a { wordsize 8; reg pc : 8; reg A : 8; mem M : byte[8];
      enc E = [op:8];
      insn n "n" : E(op=1) {
        A = 1 + 2 * 3;
        A = (1 + 2) * 3;
        A = A << 2 & 3;
        if (A == 1 || A == 2 && A != 3) { A = 0; }
      }
    })q");
  const auto& body = arch->insns[0].body;
  ASSERT_EQ(body.size(), 4u);
  // 1 + 2*3: top node is Add.
  EXPECT_EQ(body[0]->value->binop, ast::BinOp::Add);
  EXPECT_EQ(body[0]->value->args[1]->binop, ast::BinOp::Mul);
  // (1+2)*3: top is Mul.
  EXPECT_EQ(body[1]->value->binop, ast::BinOp::Mul);
  // << binds tighter than &.
  EXPECT_EQ(body[2]->value->binop, ast::BinOp::And);
  EXPECT_EQ(body[2]->value->args[0]->binop, ast::BinOp::Shl);
  // || is lowest; && binds tighter.
  EXPECT_EQ(body[3]->value->binop, ast::BinOp::LogicalOr);
  EXPECT_EQ(body[3]->value->args[1]->binop, ast::BinOp::LogicalAnd);
}

TEST(Parser, StatementForms) {
  auto arch = parseOk(R"q(
    arch a { wordsize 16; reg pc : 16; mem M : byte[16];
      regfile r[4] : 16;
      enc E = [op:4][rd:2][ra:2];
      insn n "n %r(rd), %r(ra)" : E(op=1) {
        let t = r[ra] + 1;
        r[rd] = t;
        store16(t, r[rd]);
        output(t);
        if (t == 0) { halt(1); } else if (t == 1) { halt(2); } else { halt(3); }
      }
    })q");
  const auto& body = arch->insns[0].body;
  ASSERT_EQ(body.size(), 5u);
  EXPECT_EQ(body[0]->kind, ast::Stmt::Kind::Let);
  EXPECT_EQ(body[1]->kind, ast::Stmt::Kind::AssignIndexed);
  EXPECT_EQ(body[2]->kind, ast::Stmt::Kind::CallStmt);
  EXPECT_EQ(body[3]->kind, ast::Stmt::Kind::CallStmt);
  EXPECT_EQ(body[4]->kind, ast::Stmt::Kind::If);
  // else-if chains nest as a one-statement else body.
  ASSERT_EQ(body[4]->elseBody.size(), 1u);
  EXPECT_EQ(body[4]->elseBody[0]->kind, ast::Stmt::Kind::If);
  EXPECT_EQ(body[4]->elseBody[0]->elseBody.size(), 1u);
}

TEST(Parser, UnaryOperators) {
  auto arch = parseOk(R"q(
    arch a { wordsize 8; reg pc : 8; reg A : 8; mem M : byte[8];
      enc E = [op:8];
      insn n "n" : E(op=1) { A = -~A; if (!(A == 0)) { A = 0; } }
    })q");
  const auto& e = arch->insns[0].body[0]->value;
  EXPECT_EQ(e->unop, ast::UnOp::Neg);
  EXPECT_EQ(e->args[0]->unop, ast::UnOp::Not);
}

TEST(Parser, Errors) {
  parseFail("notanarch {}", "must start with 'arch");
  parseFail("arch a { bogus x; }", "unknown declaration");
  parseFail("arch a { endian sideways; }", "little");
  parseFail("arch a { reg pc 32; }", "expected ':'");
  parseFail("arch a { enc E = ; }", "no fields");
  parseFail(R"q(arch a { enc E = [x:8]; insn n : E() {} })q",
            "expected assembly syntax string");
  parseFail(R"q(arch a { enc E = [x:8]; insn n "n" : E() { x = ; } })q",
            "expected expression");
}

TEST(Parser, ErrorRecoveryReportsMultiple) {
  DiagEngine diags;
  (void)parseArch(R"q(
    arch a {
      bogus1 x;
      bogus2 y;
      wordsize 8;
    })q", diags);
  EXPECT_GE(diags.errorCount(), 2u);
}

// An architecture whose one instruction body is `body`.
std::string archWithBody(const std::string& body) {
  return "arch a { wordsize 8; reg pc : 16; reg A : 8; mem M : byte[16];\n"
         "  enc E = [op:8];\n  insn n \"n\" : E(op=1) {\n" +
         body + "\n  }\n}\n";
}

std::string repeat(const std::string& s, size_t n) {
  std::string out;
  out.reserve(s.size() * n);
  for (size_t i = 0; i < n; ++i) out += s;
  return out;
}

TEST(Parser, NestingLimitRejectsDeepInputWithoutOverflow) {
  // Each would exhaust the stack of a recursive descent without a limit
  // (the flat chains: of sema's lowering and the tree destructors).
  const std::string cases[] = {
      archWithBody("A = " + std::string(10000, '(') + "1" +
                   std::string(10000, ')') + ";"),
      archWithBody("if (A == 0) { A = 1; }" +
                   repeat(" else if (A == 0) { A = 1; }", 100000)),
      archWithBody(repeat("if (A == 0) { ", 1000) + "A = 1;" +
                   repeat(" }", 1000)),
      archWithBody("A = 1" + repeat(" + 1", 100000) + ";"),
      archWithBody("A = " + std::string(100000, '~') + "1;"),
  };
  for (const std::string& src : cases) {
    parseFail(src, "nesting deeper than 256 levels");
  }
}

TEST(Parser, NestingBelowTheLimitParses) {
  parseOk(archWithBody("A = " + std::string(200, '(') + "1" +
                       std::string(200, ')') + ";"));
  parseOk(archWithBody("A = 1" + repeat(" + 1", 200) + ";"));
  parseOk(archWithBody("if (A == 0) { A = 1; }" +
                       repeat(" else if (A == 0) { A = 1; }", 200)));
}

TEST(Parser, RegfileAttributeBlockSkipsStrayTokens) {
  // A token no attribute starts with must not stall the attribute loop,
  // which would report errors until memory ran out.
  DiagEngine diags;
  EXPECT_EQ(parseArch("arch a {\n  regfile x[16] : 32 { ( };\n}\n", diags),
            nullptr);
  EXPECT_TRUE(diags.hasErrors());
  EXPECT_LT(diags.errorCount(), 10u) << diags.str();
}

TEST(Parser, NamesOutliveTheSourceBuffer) {
  // The tree keeps its own copy of the text its names view into.
  std::string src(kMini);
  DiagEngine diags;
  auto arch = parseArch(src, diags);
  ASSERT_NE(arch, nullptr) << diags.str();
  src.assign(src.size(), '#');
  EXPECT_EQ(arch->name, "mini");
  EXPECT_EQ(arch->insns[0].syntax, "foo %i(imm8)");
  EXPECT_EQ(arch->insns[0].body[0]->name, "A");
}

}  // namespace
}  // namespace adlsym::adl
