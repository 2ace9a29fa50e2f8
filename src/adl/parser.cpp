#include "adl/parser.h"

#include "adl/lexer.h"
#include "support/strings.h"

namespace adlsym::adl {

namespace {

using ast::BinOp;
using ast::Expr;
using ast::ExprPtr;
using ast::Stmt;
using ast::StmtPtr;
using ast::UnOp;

/// Deepest nesting the parser accepts. Each statement inside another's
/// body (and each `else if`), each expression operand (parenthesized,
/// call argument, subscript), each unary operator and each binary
/// operator of a chain is one level; the shipped descriptions reach 8.
/// The limit keeps the recursive descent, sema's recursive lowering and
/// the RTL trees' destructors far from the end of the stack.
constexpr unsigned kMaxNesting = 256;

struct NestingTooDeep {
  SourceLoc loc;
};

/// Precedence level (0 = loosest) of a binary operator token, and its
/// operator; -1 for any other token. Every level is left-associative.
int binaryLevel(Tok t, BinOp& op) {
  switch (t) {
    case Tok::PipePipe: op = BinOp::LogicalOr; return 0;
    case Tok::AmpAmp: op = BinOp::LogicalAnd; return 1;
    case Tok::Pipe: op = BinOp::Or; return 2;
    case Tok::Caret: op = BinOp::Xor; return 3;
    case Tok::Amp: op = BinOp::And; return 4;
    case Tok::EqEq: op = BinOp::Eq; return 5;
    case Tok::BangEq: op = BinOp::Ne; return 5;
    case Tok::Lt: op = BinOp::Ult; return 6;
    case Tok::LtEq: op = BinOp::Ule; return 6;
    case Tok::Gt: op = BinOp::Ugt; return 6;
    case Tok::GtEq: op = BinOp::Uge; return 6;
    case Tok::LtS: op = BinOp::Slt; return 6;
    case Tok::LtEqS: op = BinOp::Sle; return 6;
    case Tok::GtS: op = BinOp::Sgt; return 6;
    case Tok::GtEqS: op = BinOp::Sge; return 6;
    case Tok::Shl: op = BinOp::Shl; return 7;
    case Tok::Shr: op = BinOp::LShr; return 7;
    case Tok::ShrA: op = BinOp::AShr; return 7;
    case Tok::Plus: op = BinOp::Add; return 8;
    case Tok::Minus: op = BinOp::Sub; return 8;
    case Tok::Star: op = BinOp::Mul; return 9;
    case Tok::Slash: op = BinOp::UDiv; return 9;
    case Tok::Percent: op = BinOp::URem; return 9;
    default: return -1;
  }
}

class Parser {
 public:
  Parser(ast::ArchDecl& arch, std::vector<Token> toks, DiagEngine& diags)
      : arch_(arch), toks_(std::move(toks)), diags_(diags) {}

  /// Fill the ArchDecl; false when the text is not an architecture at all.
  bool parseArch();

 private:
  const Token& peek(size_t ahead = 0) const {
    const size_t i = pos_ + ahead;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  const Token& advance() {
    const Token& t = peek();
    if (pos_ + 1 < toks_.size()) ++pos_;
    return t;
  }
  bool at(Tok k) const { return peek().kind == k; }
  bool atIdent(std::string_view text) const {
    return at(Tok::Ident) && peek().text == text;
  }
  bool accept(Tok k) {
    if (!at(k)) return false;
    advance();
    return true;
  }
  bool expect(Tok k, const char* context) {
    if (accept(k)) return true;
    diags_.error(peek().loc, formatStr("expected %s %s, found %s", tokName(k),
                                       context, tokName(peek().kind)));
    return false;
  }
  std::string_view expectIdent(const char* context) {
    if (at(Tok::Ident)) return advance().text;  // a view into arch_'s copy
    diags_.error(peek().loc, formatStr("expected identifier %s, found %s",
                                       context, tokName(peek().kind)));
    return {};
  }
  std::optional<uint64_t> expectInt(const char* context) {
    if (at(Tok::Int)) return advance().intValue;
    diags_.error(peek().loc, formatStr("expected integer %s, found %s",
                                       context, tokName(peek().kind)));
    return std::nullopt;
  }
  /// Skip to the next ';' or '}' for error recovery.
  void synchronize() {
    while (!at(Tok::End) && !at(Tok::RBrace)) {
      if (accept(Tok::Semi)) return;
      advance();
    }
  }

  void parseItem();
  void parseReg();
  void parseRegFile();
  void parseFlag();
  void parseMem();
  void parseEncoding();
  void parseInsn();

  ast::StmtList parseBlock();
  ast::ExprList parseArgs();
  ExprPtr makeExpr(Expr::Kind kind, SourceLoc loc) {
    ExprPtr e = arch_.make<Expr>();
    e->kind = kind;
    e->loc = loc;
    return e;
  }
  /// An arena list of one or two operands.
  ast::ExprList operands(ExprPtr a, ExprPtr b = nullptr) {
    const size_t mark = exprStack_.size();
    exprStack_.push_back(a);
    if (b != nullptr) exprStack_.push_back(b);
    return arch_.popSince(exprStack_, mark);
  }
  StmtPtr parseStmt();
  StmtPtr parseStmtBody();
  ExprPtr parseExpr();
  /// An operand joined by binary operators of precedence `minLevel` or
  /// tighter.
  ExprPtr parseBinary(int minLevel);
  ExprPtr parseUnary();
  ExprPtr parsePrimary();

  /// Enter one more nesting level; throws NestingTooDeep past the limit.
  /// The caller leaves it by decrementing depth_.
  void nest() {
    if (++depth_ > kMaxNesting) throw NestingTooDeep{peek().loc};
  }

  ast::ArchDecl& arch_;
  std::vector<Token> toks_;
  DiagEngine& diags_;
  size_t pos_ = 0;
  unsigned depth_ = 0;
  // Statements and call arguments collect here while their block or list
  // is open (nested ones above them), so each list is allocated once, at
  // its final size.
  std::vector<StmtPtr> stmtStack_;
  std::vector<ExprPtr> exprStack_;
};

bool Parser::parseArch() {
  arch_.loc = peek().loc;
  if (!atIdent("arch")) {
    diags_.error(peek().loc, "ADL file must start with 'arch <name> { ... }'");
    return false;
  }
  advance();
  arch_.name = expectIdent("after 'arch'");
  if (!expect(Tok::LBrace, "to open architecture body")) return false;
  while (!at(Tok::RBrace) && !at(Tok::End)) parseItem();
  expect(Tok::RBrace, "to close architecture body");
  return true;
}

void Parser::parseItem() {
  if (!at(Tok::Ident)) {
    diags_.error(peek().loc, formatStr("expected declaration, found %s",
                                       tokName(peek().kind)));
    synchronize();
    return;
  }
  const std::string_view kw = peek().text;
  if (kw == "endian") {
    advance();
    const std::string_view which = expectIdent("after 'endian'");
    if (which == "little") arch_.endianLittle = true;
    else if (which == "big") arch_.endianLittle = false;
    else diags_.error(peek().loc, "endianness must be 'little' or 'big'");
    arch_.endianSeen = true;
    expect(Tok::Semi, "after endian declaration");
  } else if (kw == "wordsize") {
    advance();
    if (auto v = expectInt("after 'wordsize'")) {
      arch_.wordSize = static_cast<unsigned>(*v);
    }
    expect(Tok::Semi, "after wordsize declaration");
  } else if (kw == "const") {
    advance();
    ast::ConstDecl d;
    d.loc = peek().loc;
    d.name = expectIdent("for constant name");
    expect(Tok::Assign, "after constant name");
    if (auto v = expectInt("for constant value")) d.value = *v;
    expect(Tok::Semi, "after constant declaration");
    arch_.consts.push_back(d);
  } else if (kw == "reg") {
    parseReg();
  } else if (kw == "regfile") {
    parseRegFile();
  } else if (kw == "flag") {
    parseFlag();
  } else if (kw == "mem") {
    parseMem();
  } else if (kw == "enc") {
    parseEncoding();
  } else if (kw == "insn") {
    parseInsn();
  } else {
    diags_.error(peek().loc, "unknown declaration '" + std::string(kw) + "'");
    synchronize();
  }
}

void Parser::parseReg() {
  ast::RegDecl d;
  d.loc = peek().loc;
  advance();  // 'reg'
  d.name = expectIdent("for register name");
  expect(Tok::Colon, "after register name");
  if (auto w = expectInt("for register width")) d.width = static_cast<unsigned>(*w);
  expect(Tok::Semi, "after register declaration");
  arch_.regs.push_back(d);
}

void Parser::parseRegFile() {
  ast::RegFileDecl d;
  d.loc = peek().loc;
  advance();  // 'regfile'
  d.name = expectIdent("for register file name");
  expect(Tok::LBracket, "after register file name");
  if (auto n = expectInt("for register count")) d.count = static_cast<unsigned>(*n);
  expect(Tok::RBracket, "after register count");
  expect(Tok::Colon, "after register file size");
  if (auto w = expectInt("for register width")) d.width = static_cast<unsigned>(*w);
  if (accept(Tok::LBrace)) {
    // Attribute block: currently only `zero = <index>;`
    while (!at(Tok::RBrace) && !at(Tok::End)) {
      const size_t start = pos_;
      const std::string_view attr = expectIdent("for register file attribute");
      expect(Tok::Assign, "after attribute name");
      auto v = expectInt("for attribute value");
      if (attr == "zero" && v) {
        d.zeroReg = static_cast<unsigned>(*v);
      } else if (attr != "zero") {
        diags_.error(peek().loc, "unknown register file attribute '" +
                                     std::string(attr) + "'");
      }
      accept(Tok::Semi);
      if (pos_ == start) advance();  // no attribute starts here: skip a token
    }
    expect(Tok::RBrace, "to close attribute block");
  }
  expect(Tok::Semi, "after register file declaration");
  arch_.regfiles.push_back(d);
}

void Parser::parseFlag() {
  ast::FlagDecl d;
  d.loc = peek().loc;
  advance();  // 'flag'
  d.name = expectIdent("for flag name");
  expect(Tok::Semi, "after flag declaration");
  arch_.flags.push_back(d);
}

void Parser::parseMem() {
  ast::MemDecl d;
  d.loc = peek().loc;
  advance();  // 'mem'
  d.name = expectIdent("for memory name");
  expect(Tok::Colon, "after memory name");
  const std::string_view unit = expectIdent("for memory unit");
  if (unit != "byte") diags_.error(d.loc, "only byte-addressed memory is supported");
  expect(Tok::LBracket, "after 'byte'");
  if (auto w = expectInt("for address width")) d.addrWidth = static_cast<unsigned>(*w);
  expect(Tok::RBracket, "after address width");
  expect(Tok::Semi, "after memory declaration");
  arch_.mems.push_back(d);
}

void Parser::parseEncoding() {
  ast::EncodingDecl d;
  d.loc = peek().loc;
  advance();  // 'enc'
  d.name = expectIdent("for encoding name");
  expect(Tok::Assign, "after encoding name");
  while (at(Tok::LBracket)) {
    advance();
    ast::EncFieldDecl f;
    f.loc = peek().loc;
    f.name = expectIdent("for encoding field name");
    expect(Tok::Colon, "after field name");
    if (auto w = expectInt("for field width")) f.width = static_cast<unsigned>(*w);
    expect(Tok::RBracket, "after field width");
    d.fields.push_back(f);
  }
  if (d.fields.empty()) diags_.error(d.loc, "encoding has no fields");
  expect(Tok::Semi, "after encoding declaration");
  arch_.encodings.push_back(std::move(d));
}

void Parser::parseInsn() {
  ast::InsnDecl d;
  d.loc = peek().loc;
  advance();  // 'insn'
  d.name = expectIdent("for instruction name");
  if (at(Tok::String)) {
    const Token& t = advance();
    // An escaped literal's text lives in its token: keep a copy.
    d.syntax = t.unescaped ? arch_.keep(t.text) : t.text;
  } else {
    diags_.error(peek().loc, "expected assembly syntax string after instruction name");
  }
  expect(Tok::Colon, "after syntax string");
  d.encodingName = expectIdent("for encoding name");
  expect(Tok::LParen, "after encoding name");
  while (!at(Tok::RParen) && !at(Tok::End)) {
    ast::FieldFix fix;
    fix.loc = peek().loc;
    fix.field = expectIdent("for fixed field name");
    expect(Tok::Assign, "after fixed field name");
    if (at(Tok::Ident)) {
      fix.ref = advance().text;  // named constant, resolved in sema
    } else if (auto v = expectInt("for fixed field value")) {
      fix.value = *v;
    }
    d.fixes.push_back(fix);
    if (!accept(Tok::Comma)) break;
  }
  expect(Tok::RParen, "to close fixed field list");
  if (!expect(Tok::LBrace, "to open instruction semantics")) {
    synchronize();
    return;
  }
  d.body = parseBlock();
  arch_.insns.push_back(std::move(d));
}

ast::StmtList Parser::parseBlock() {
  // Caller consumed '{'.
  const size_t mark = stmtStack_.size();
  while (!at(Tok::RBrace) && !at(Tok::End)) {
    if (StmtPtr s = parseStmt()) stmtStack_.push_back(s);
  }
  expect(Tok::RBrace, "to close block");
  return arch_.popSince(stmtStack_, mark);
}

ast::ExprList Parser::parseArgs() {
  // Caller consumed '('; the caller expects the ')'.
  const size_t mark = exprStack_.size();
  while (!at(Tok::RParen) && !at(Tok::End)) {
    exprStack_.push_back(parseExpr());
    if (!accept(Tok::Comma)) break;
  }
  return arch_.popSince(exprStack_, mark);
}

StmtPtr Parser::parseStmt() {
  nest();
  StmtPtr s = parseStmtBody();
  --depth_;
  return s;
}

StmtPtr Parser::parseStmtBody() {
  StmtPtr s = arch_.make<Stmt>();
  s->loc = peek().loc;

  if (atIdent("let")) {
    advance();
    s->kind = Stmt::Kind::Let;
    s->name = expectIdent("for let binding");
    expect(Tok::Assign, "after let name");
    s->value = parseExpr();
    expect(Tok::Semi, "after let binding");
    return s;
  }
  if (atIdent("if")) {
    advance();
    s->kind = Stmt::Kind::If;
    expect(Tok::LParen, "after 'if'");
    s->value = parseExpr();
    expect(Tok::RParen, "after if condition");
    if (expect(Tok::LBrace, "to open if body")) s->thenBody = parseBlock();
    if (atIdent("else")) {
      advance();
      if (atIdent("if")) {
        // else-if chains nest as a single-statement else body.
        const size_t mark = stmtStack_.size();
        stmtStack_.push_back(parseStmt());
        s->elseBody = arch_.popSince(stmtStack_, mark);
      } else if (expect(Tok::LBrace, "to open else body")) {
        s->elseBody = parseBlock();
      }
    }
    return s;
  }

  if (!at(Tok::Ident)) {
    diags_.error(peek().loc, formatStr("expected statement, found %s",
                                       tokName(peek().kind)));
    synchronize();
    return nullptr;
  }

  const std::string_view name = advance().text;
  if (at(Tok::LParen)) {
    // Intrinsic call statement.
    advance();
    s->kind = Stmt::Kind::CallStmt;
    s->name = name;
    s->args = parseArgs();
    expect(Tok::RParen, "to close call arguments");
    expect(Tok::Semi, "after call statement");
    return s;
  }
  if (at(Tok::LBracket)) {
    advance();
    s->kind = Stmt::Kind::AssignIndexed;
    s->name = name;
    s->index = parseExpr();
    expect(Tok::RBracket, "after subscript");
    expect(Tok::Assign, "in indexed assignment");
    s->value = parseExpr();
    expect(Tok::Semi, "after assignment");
    return s;
  }
  s->kind = Stmt::Kind::AssignReg;
  s->name = name;
  expect(Tok::Assign, "in assignment");
  s->value = parseExpr();
  expect(Tok::Semi, "after assignment");
  return s;
}

// --------------------------------------------------------- expressions --

ExprPtr Parser::parseExpr() {
  nest();
  ExprPtr e = parseBinary(0);
  --depth_;
  return e;
}

ExprPtr Parser::parseBinary(int minLevel) {
  // Precedence climbing: the tree recursive descent with one function per
  // level would build, without a call per level for every operand.
  ExprPtr lhs = parseUnary();
  // A chain builds a left-deep tree: one nesting level per operator.
  const unsigned outer = depth_;
  BinOp op{};
  for (int level; (level = binaryLevel(peek().kind, op)) >= minLevel;) {
    nest();
    const SourceLoc loc = advance().loc;
    ExprPtr rhs = parseBinary(level + 1);
    ExprPtr e = makeExpr(Expr::Kind::Binary, loc);
    e->binop = op;
    e->args = operands(lhs, rhs);
    lhs = e;
  }
  depth_ = outer;
  return lhs;
}

ExprPtr Parser::parseUnary() {
  const SourceLoc loc = peek().loc;
  UnOp op;
  if (accept(Tok::Tilde)) {
    op = UnOp::Not;
  } else if (accept(Tok::Minus)) {
    op = UnOp::Neg;
  } else if (accept(Tok::Bang)) {
    op = UnOp::LogicalNot;
  } else {
    return parsePrimary();
  }
  nest();
  ExprPtr a = parseUnary();
  --depth_;
  ExprPtr e = makeExpr(Expr::Kind::Unary, loc);
  e->unop = op;
  e->args = operands(a);
  return e;
}

ExprPtr Parser::parsePrimary() {
  const SourceLoc loc = peek().loc;
  if (at(Tok::Int)) {
    ExprPtr e = makeExpr(Expr::Kind::IntLit, loc);
    e->intValue = advance().intValue;
    return e;
  }
  if (accept(Tok::LParen)) {
    ExprPtr e = parseExpr();
    expect(Tok::RParen, "to close parenthesized expression");
    return e;
  }
  if (at(Tok::Ident)) {
    const std::string_view name = advance().text;
    if (accept(Tok::LParen)) {
      ExprPtr e = makeExpr(Expr::Kind::Call, loc);
      e->name = name;
      e->args = parseArgs();
      expect(Tok::RParen, "to close call arguments");
      return e;
    }
    if (accept(Tok::LBracket)) {
      ExprPtr e = makeExpr(Expr::Kind::Index, loc);
      e->name = name;
      e->args = operands(parseExpr());
      expect(Tok::RBracket, "to close subscript");
      return e;
    }
    ExprPtr e = makeExpr(Expr::Kind::NameRef, loc);
    e->name = name;
    return e;
  }
  diags_.error(loc, formatStr("expected expression, found %s", tokName(peek().kind)));
  advance();
  return makeExpr(Expr::Kind::IntLit, loc);
}

}  // namespace

std::unique_ptr<ast::ArchDecl> parseArch(std::string_view source,
                                         DiagEngine& diags) {
  // The tree's names view into its own copy of the text. The shipped
  // descriptions take 4.6 to 7.2 arena bytes per source byte.
  auto arch = std::make_unique<ast::ArchDecl>(8 * source.size() + 1024);
  Lexer lexer(arch->keep(source), diags);
  Parser parser(*arch, lexer.lexAll(), diags);
  try {
    if (!parser.parseArch()) return nullptr;
  } catch (const NestingTooDeep& e) {
    diags.error(e.loc, formatStr("nesting deeper than %u levels", kMaxNesting));
  }
  if (diags.hasErrors()) return nullptr;
  return arch;
}

}  // namespace adlsym::adl
