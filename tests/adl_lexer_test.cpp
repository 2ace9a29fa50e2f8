#include <gtest/gtest.h>

#include "adl/lexer.h"

namespace adlsym::adl {
namespace {

std::vector<Token> lex(std::string_view src, DiagEngine* diagsOut = nullptr) {
  DiagEngine diags;
  Lexer lexer(src, diags);
  auto toks = lexer.lexAll();
  if (diagsOut != nullptr) *diagsOut = diags;
  EXPECT_FALSE(diags.hasErrors()) << diags.str();
  return toks;
}

TEST(Lexer, EmptyInput) {
  const auto toks = lex("");
  ASSERT_EQ(toks.size(), 1u);
  EXPECT_EQ(toks[0].kind, Tok::End);
}

TEST(Lexer, IdentifiersAndInts) {
  const auto toks = lex("arch r2d2 _x 42 0x2a 0b1010 0o17");
  ASSERT_EQ(toks.size(), 8u);
  EXPECT_EQ(toks[0].text, "arch");
  EXPECT_EQ(toks[1].text, "r2d2");
  EXPECT_EQ(toks[2].text, "_x");
  EXPECT_EQ(toks[3].intValue, 42u);
  EXPECT_EQ(toks[4].intValue, 42u);
  EXPECT_EQ(toks[5].intValue, 10u);
  EXPECT_EQ(toks[6].intValue, 15u);
}

TEST(Lexer, Strings) {
  const auto toks = lex(R"q("add %r(rd)" "a\nb")q");
  EXPECT_EQ(toks[0].kind, Tok::String);
  EXPECT_EQ(toks[0].text, "add %r(rd)");
  EXPECT_EQ(toks[1].text, "a\nb");
}

TEST(Lexer, Operators) {
  const auto toks =
      lex("+ - * / % & | ^ ~ ! && || == != < <= > >= << >> >>a = ; : ,");
  const Tok expected[] = {
      Tok::Plus, Tok::Minus, Tok::Star, Tok::Slash, Tok::Percent,
      Tok::Amp, Tok::Pipe, Tok::Caret, Tok::Tilde, Tok::Bang,
      Tok::AmpAmp, Tok::PipePipe, Tok::EqEq, Tok::BangEq,
      Tok::Lt, Tok::LtEq, Tok::Gt, Tok::GtEq,
      Tok::Shl, Tok::Shr, Tok::ShrA, Tok::Assign,
      Tok::Semi, Tok::Colon, Tok::Comma};
  for (size_t i = 0; i < std::size(expected); ++i) {
    EXPECT_EQ(toks[i].kind, expected[i]) << "token " << i;
  }
}

TEST(Lexer, SignedComparisonSuffix) {
  const auto toks = lex("a <s b <=s c >s d >=s e");
  EXPECT_EQ(toks[1].kind, Tok::LtS);
  EXPECT_EQ(toks[3].kind, Tok::LtEqS);
  EXPECT_EQ(toks[5].kind, Tok::GtS);
  EXPECT_EQ(toks[7].kind, Tok::GtEqS);
}

TEST(Lexer, SuffixDoesNotEatIdentifiers) {
  // `x < sum` must lex as Lt + Ident("sum"), not LtS + Ident("um").
  const auto toks = lex("x < sum");
  EXPECT_EQ(toks[1].kind, Tok::Lt);
  EXPECT_EQ(toks[2].text, "sum");
  const auto toks2 = lex("x >> all");
  EXPECT_EQ(toks2[1].kind, Tok::Shr);
  EXPECT_EQ(toks2[2].text, "all");
}

TEST(Lexer, Comments) {
  const auto toks = lex("a // line comment\n b /* block\n comment */ c");
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[0].text, "a");
  EXPECT_EQ(toks[1].text, "b");
  EXPECT_EQ(toks[2].text, "c");
}

TEST(Lexer, LineAndColumnTracking) {
  const auto toks = lex("ab\n  cd");
  EXPECT_EQ(toks[0].loc.line, 1u);
  EXPECT_EQ(toks[0].loc.col, 1u);
  EXPECT_EQ(toks[1].loc.line, 2u);
  EXPECT_EQ(toks[1].loc.col, 3u);
}

TEST(Lexer, ErrorsReported) {
  DiagEngine diags;
  Lexer lexer("a $ b", diags);
  (void)lexer.lexAll();
  EXPECT_TRUE(diags.hasErrors());

  DiagEngine diags2;
  Lexer lexer2("\"unterminated", diags2);
  (void)lexer2.lexAll();
  EXPECT_TRUE(diags2.hasErrors());

  DiagEngine diags3;
  Lexer lexer3("/* never closed", diags3);
  (void)lexer3.lexAll();
  EXPECT_TRUE(diags3.hasErrors());

  DiagEngine diags4;
  Lexer lexer4("0xqq", diags4);
  (void)lexer4.lexAll();
  EXPECT_TRUE(diags4.hasErrors());
}

TEST(Lexer, LongRunOfStrayCharactersIsIterative) {
  // A run of stray bytes is reported once and skipped in a loop, so a
  // long run cannot exhaust the stack.
  const std::string src(50000, '@');
  DiagEngine diags;
  Lexer lexer(src, diags);
  const auto toks = lexer.lexAll();
  ASSERT_EQ(toks.size(), 1u);
  EXPECT_EQ(toks[0].kind, Tok::End);
  EXPECT_EQ(diags.errorCount(), 1u);
  EXPECT_EQ(diags.all().back().loc.col, 1u);
}

TEST(Lexer, StrayRunIsOneDiagnosticAtItsFirstByte) {
  // Runs end at space, a line end or a byte that starts a token; a lone
  // stray byte keeps the one-byte message.
  DiagEngine diags;
  Lexer lexer("a @#$ b\n  ?` +\x01\x02(c)\n`", diags);
  const auto toks = lexer.lexAll();
  ASSERT_EQ(toks.size(), 7u);
  EXPECT_EQ(toks[0].text, "a");
  EXPECT_EQ(toks[1].text, "b");
  EXPECT_EQ(toks[2].kind, Tok::Plus);
  EXPECT_EQ(toks[2].loc.col, 6u);
  EXPECT_EQ(toks[3].kind, Tok::LParen);
  EXPECT_EQ(toks[3].loc.col, 9u);
  EXPECT_EQ(toks[4].text, "c");
  EXPECT_EQ(toks[5].kind, Tok::RParen);
  EXPECT_EQ(toks[6].kind, Tok::End);
  ASSERT_EQ(diags.errorCount(), 4u);
  const auto& d = diags.all();
  EXPECT_EQ(d[0].loc.line, 1u);
  EXPECT_EQ(d[0].loc.col, 3u);
  EXPECT_EQ(d[0].message, "unexpected character '@' (3 stray bytes in a row)");
  EXPECT_EQ(d[1].loc.line, 2u);
  EXPECT_EQ(d[1].loc.col, 3u);
  EXPECT_EQ(d[1].message, "unexpected character '?' (2 stray bytes in a row)");
  EXPECT_EQ(d[2].loc.col, 7u);
  EXPECT_EQ(d[2].message,
            "unexpected character '\x01' (2 stray bytes in a row)");
  EXPECT_EQ(d[3].loc.line, 3u);
  EXPECT_EQ(d[3].loc.col, 1u);
  EXPECT_EQ(d[3].message, "unexpected character '`'");
}

TEST(Lexer, TextViewsTheSourceUnlessEscaped) {
  const std::string src = R"q(name "plain" "esc\"aped")q";
  const auto toks = lex(src);
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[0].text.data(), src.data());
  EXPECT_EQ(toks[1].text, "plain");
  EXPECT_EQ(toks[1].text.data(), src.data() + 6);
  EXPECT_EQ(toks[1].unescaped, nullptr);
  EXPECT_EQ(toks[2].text, "esc\"aped");
  ASSERT_NE(toks[2].unescaped, nullptr);
  EXPECT_EQ(toks[2].text.data(), toks[2].unescaped->data());
}

}  // namespace
}  // namespace adlsym::adl
