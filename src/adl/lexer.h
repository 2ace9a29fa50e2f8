// Hand-written lexer for the ADL. Supports //-comments, /* */ comments,
// decimal/hex/binary/octal literals with '_' separators, and the small
// operator set of the RTL expression language.
#pragma once

#include <string_view>
#include <vector>

#include "adl/token.h"
#include "support/diag.h"

namespace adlsym::adl {

class Lexer {
 public:
  Lexer(std::string_view source, DiagEngine& diags);

  /// Tokenize the whole buffer; always ends with a Tok::End token. Token
  /// text views into `source` (see Token::text).
  std::vector<Token> lexAll();

 private:
  /// Fill `tok` with the next token, reporting and skipping every
  /// character that starts none.
  void next(Token& tok);
  char peek(size_t ahead = 0) const;
  char advance();
  bool match(char expected);
  bool matchWordSuffix(char expected);
  SourceLoc here() const { return {line_, col_}; }
  void skipTrivia();

  std::string_view src_;
  DiagEngine& diags_;
  size_t pos_ = 0;
  unsigned line_ = 1;
  unsigned col_ = 1;
};

}  // namespace adlsym::adl
