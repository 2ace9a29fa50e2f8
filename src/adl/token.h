// Token definitions for the architecture description language.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "support/diag.h"

namespace adlsym::adl {

enum class Tok : uint8_t {
  End,
  Ident,      // identifiers and keywords (keyword check by text)
  Int,        // integer literal (value in Token::intValue)
  String,     // "..." (un-escaped text in Token::text)
  LBrace, RBrace, LParen, RParen, LBracket, RBracket,
  Semi, Colon, Comma, Assign,          // ; : , =
  Plus, Minus, Star, Slash, Percent,
  Amp, Pipe, Caret, Tilde, Bang,
  AmpAmp, PipePipe,
  EqEq, BangEq,
  Lt, LtEq, Gt, GtEq,                  // unsigned comparisons
  LtS, LtEqS, GtS, GtEqS,              // <s <=s >s >=s signed comparisons
  Shl, Shr, ShrA,                      // << >> >>a
};

const char* tokName(Tok t);

struct Token {
  Tok kind = Tok::End;
  SourceLoc loc;
  /// Ident / String text: a view into the lexed source, which must outlive
  /// the token, except for a string literal with escapes, whose un-escaped
  /// text the token owns in `unescaped`.
  std::string_view text;
  uint64_t intValue = 0;   // Int
  std::unique_ptr<std::string> unescaped;
};

}  // namespace adlsym::adl
