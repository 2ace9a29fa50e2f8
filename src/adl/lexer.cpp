#include "adl/lexer.h"

#include <algorithm>
#include <array>

#include "support/strings.h"

namespace adlsym::adl {

const char* tokName(Tok t) {
  switch (t) {
    case Tok::End: return "end of input";
    case Tok::Ident: return "identifier";
    case Tok::Int: return "integer";
    case Tok::String: return "string";
    case Tok::LBrace: return "'{'";
    case Tok::RBrace: return "'}'";
    case Tok::LParen: return "'('";
    case Tok::RParen: return "')'";
    case Tok::LBracket: return "'['";
    case Tok::RBracket: return "']'";
    case Tok::Semi: return "';'";
    case Tok::Colon: return "':'";
    case Tok::Comma: return "','";
    case Tok::Assign: return "'='";
    case Tok::Plus: return "'+'";
    case Tok::Minus: return "'-'";
    case Tok::Star: return "'*'";
    case Tok::Slash: return "'/'";
    case Tok::Percent: return "'%'";
    case Tok::Amp: return "'&'";
    case Tok::Pipe: return "'|'";
    case Tok::Caret: return "'^'";
    case Tok::Tilde: return "'~'";
    case Tok::Bang: return "'!'";
    case Tok::AmpAmp: return "'&&'";
    case Tok::PipePipe: return "'||'";
    case Tok::EqEq: return "'=='";
    case Tok::BangEq: return "'!='";
    case Tok::Lt: return "'<'";
    case Tok::LtEq: return "'<='";
    case Tok::Gt: return "'>'";
    case Tok::GtEq: return "'>='";
    case Tok::LtS: return "'<s'";
    case Tok::LtEqS: return "'<=s'";
    case Tok::GtS: return "'>s'";
    case Tok::GtEqS: return "'>=s'";
    case Tok::Shl: return "'<<'";
    case Tok::Shr: return "'>>'";
    case Tok::ShrA: return "'>>a'";
  }
  return "?";
}

namespace {

// ASCII character classes, as the "C" locale's <cctype> answers them,
// and kStray: the bytes that start no token.
enum : uint8_t {
  kSpace = 1,
  kIdentStart = 2,
  kIdentCont = 4,
  kDigit = 8,
  kStray = 16
};

constexpr std::array<uint8_t, 256> kCharClass = [] {
  std::array<uint8_t, 256> t{};
  for (const char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    t[static_cast<unsigned char>(c)] = kSpace;
  }
  for (int c = 'a'; c <= 'z'; ++c) t[c] = kIdentStart | kIdentCont;
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = kIdentStart | kIdentCont;
  for (int c = '0'; c <= '9'; ++c) t[c] = kDigit | kIdentCont;
  t['_'] = kIdentStart | kIdentCont;
  for (uint8_t& cls : t) {
    if (cls == 0) cls = kStray;
  }
  // The bytes Lexer::next's switch starts a token with.
  for (const char c : std::string_view("\"{}()[];:,+-*/%^~&|=!<>")) {
    t[static_cast<unsigned char>(c)] = 0;
  }
  return t;
}();

bool isClass(char c, uint8_t cls) {
  return (kCharClass[static_cast<unsigned char>(c)] & cls) != 0;
}

}  // namespace

Lexer::Lexer(std::string_view source, DiagEngine& diags)
    : src_(source), diags_(diags) {}

char Lexer::peek(size_t ahead) const {
  return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
}

char Lexer::advance() {
  const char c = src_[pos_++];
  if (c == '\n') {
    ++line_;
    col_ = 1;
  } else {
    ++col_;
  }
  return c;
}

bool Lexer::match(char expected) {
  if (peek() != expected) return false;
  advance();
  return true;
}

bool Lexer::matchWordSuffix(char expected) {
  // Consume a one-letter operator suffix ('s' in '<s', 'a' in '>>a') only
  // when it is not the start of an identifier: `x <s y` vs `x < sum`.
  if (peek() != expected) return false;
  if (isClass(peek(1), kIdentCont)) return false;
  advance();
  return true;
}

void Lexer::skipTrivia() {
  while (pos_ < src_.size()) {
    const char c = src_[pos_];
    if (isClass(c, kSpace)) {
      advance();
    } else if (c == '/' && peek(1) == '/') {
      const size_t eol = std::min(src_.find('\n', pos_), src_.size());
      col_ += static_cast<unsigned>(eol - pos_);
      pos_ = eol;
    } else if (c == '/' && peek(1) == '*') {
      const SourceLoc start = here();
      const size_t close = src_.find("*/", pos_ + 2);
      const size_t end =
          close == std::string_view::npos ? src_.size() : close + 2;
      while (pos_ < end) advance();
      if (close == std::string_view::npos) {
        diags_.error(start, "unterminated block comment");
      }
    } else {
      return;
    }
  }
}

void Lexer::next(Token& tok) {
  while (true) {
    skipTrivia();
    tok.loc = here();
    if (pos_ >= src_.size()) {
      tok.kind = Tok::End;
      return;
    }
    const size_t start = pos_;
    const char c = advance();

    if (isClass(c, kIdentStart | kDigit)) {
      // Identifiers and numbers never span a newline. Numbers accept
      // hex/bin/oct prefixes and '_' separators; parseInt validates.
      while (pos_ < src_.size() && isClass(src_[pos_], kIdentCont)) ++pos_;
      col_ += static_cast<unsigned>(pos_ - start - 1);
      const std::string_view text = src_.substr(start, pos_ - start);
      if (isClass(c, kIdentStart)) {
        tok.kind = Tok::Ident;
        tok.text = text;
        return;
      }
      tok.kind = Tok::Int;
      const auto v = parseInt(text);
      if (!v) {
        diags_.error(tok.loc,
                     "malformed integer literal '" + std::string(text) + "'");
        return;
      }
      tok.intValue = *v;
      return;
    }

    switch (c) {
      case '"': {
        // The text is a view of the literal's body until an escape needs
        // an un-escaped copy. A newline or the end of input ends an
        // unterminated literal.
        const size_t body = pos_;
        size_t end = src_.size();
        bool closed = false;
        std::unique_ptr<std::string> owned;
        while (pos_ < src_.size()) {
          const char d = advance();
          if (d == '"' || d == '\n') {
            closed = d == '"';
            end = pos_ - 1;
            break;
          }
          if (d == '\\' && pos_ < src_.size()) {
            if (!owned) {
              owned = std::make_unique<std::string>(
                  src_.substr(body, pos_ - 1 - body));
            }
            const char e = advance();
            owned->push_back(e == 'n' ? '\n' : e == 't' ? '\t' : e);
          } else if (owned) {
            owned->push_back(d);
          }
        }
        if (!closed) diags_.error(tok.loc, "unterminated string literal");
        tok.kind = Tok::String;
        tok.text =
            owned ? std::string_view(*owned) : src_.substr(body, end - body);
        tok.unescaped = std::move(owned);
        return;
      }
      case '{': tok.kind = Tok::LBrace; return;
      case '}': tok.kind = Tok::RBrace; return;
      case '(': tok.kind = Tok::LParen; return;
      case ')': tok.kind = Tok::RParen; return;
      case '[': tok.kind = Tok::LBracket; return;
      case ']': tok.kind = Tok::RBracket; return;
      case ';': tok.kind = Tok::Semi; return;
      case ':': tok.kind = Tok::Colon; return;
      case ',': tok.kind = Tok::Comma; return;
      case '+': tok.kind = Tok::Plus; return;
      case '-': tok.kind = Tok::Minus; return;
      case '*': tok.kind = Tok::Star; return;
      case '/': tok.kind = Tok::Slash; return;
      case '%': tok.kind = Tok::Percent; return;
      case '^': tok.kind = Tok::Caret; return;
      case '~': tok.kind = Tok::Tilde; return;
      case '&': tok.kind = match('&') ? Tok::AmpAmp : Tok::Amp; return;
      case '|': tok.kind = match('|') ? Tok::PipePipe : Tok::Pipe; return;
      case '=': tok.kind = match('=') ? Tok::EqEq : Tok::Assign; return;
      case '!': tok.kind = match('=') ? Tok::BangEq : Tok::Bang; return;
      case '<':
        if (match('<')) {
          tok.kind = Tok::Shl;
        } else if (match('=')) {
          tok.kind = matchWordSuffix('s') ? Tok::LtEqS : Tok::LtEq;
        } else {
          tok.kind = matchWordSuffix('s') ? Tok::LtS : Tok::Lt;
        }
        return;
      case '>':
        if (match('>')) {
          tok.kind = matchWordSuffix('a') ? Tok::ShrA : Tok::Shr;
        } else if (match('=')) {
          tok.kind = matchWordSuffix('s') ? Tok::GtEqS : Tok::GtEq;
        } else {
          tok.kind = matchWordSuffix('s') ? Tok::GtS : Tok::Gt;
        }
        return;
      default: {
        // Report a run of stray bytes once and skip it, then lex on: a
        // loop, not a recursive call, so a long run cannot exhaust the
        // stack. A run never spans a line, as '\n' is space.
        const size_t runStart = pos_;
        while (pos_ < src_.size() && isClass(src_[pos_], kStray)) ++pos_;
        const size_t run = pos_ - runStart + 1;
        col_ += static_cast<unsigned>(run - 1);
        diags_.error(tok.loc,
                     run == 1 ? formatStr("unexpected character '%c'", c)
                              : formatStr("unexpected character '%c' (%zu "
                                          "stray bytes in a row)",
                                          c, run));
        break;
      }
    }
  }
}

std::vector<Token> Lexer::lexAll() {
  std::vector<Token> out;
  // The shipped descriptions average 3.6 to 4.3 source bytes per token.
  out.reserve(src_.size() / 3 + 16);
  do {
    next(out.emplace_back());
  } while (out.back().kind != Tok::End);
  return out;
}

}  // namespace adlsym::adl
