#include "adl/sema.h"

#include <algorithm>
#include <bit>
#include <unordered_map>
#include <unordered_set>

#include "analysis/lint.h"
#include "support/bits.h"
#include "support/strings.h"

namespace adlsym::adl {

namespace {

using ast::BinOp;
using ast::UnOp;
using rtl::ExprOp;
using rtl::StmtOp;

rtl::ExprPtr mkRtl(ExprOp op, unsigned width, uint64_t aux = 0) {
  auto e = std::make_unique<rtl::Expr>();
  e->op = op;
  e->width = static_cast<uint8_t>(width);
  e->aux = aux;
  return e;
}

/// An interior node over one or two operands.
rtl::ExprPtr mkRtl(ExprOp op, unsigned width, uint64_t aux, rtl::ExprPtr a,
                   rtl::ExprPtr b = nullptr) {
  auto e = mkRtl(op, width, aux);
  e->args.reserve(b ? 2 : 1);
  e->args.push_back(std::move(a));
  if (b) e->args.push_back(std::move(b));
  return e;
}

/// isspace() in the "C" locale.
bool isSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

// EncodingInfo::findField and InsnInfo::operandFieldIndex for names the
// parse tree holds as views.
const EncFieldInfo* findField(const EncodingInfo& enc, std::string_view name) {
  for (const EncFieldInfo& f : enc.fields) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

int operandFieldIndex(const InsnInfo& insn, std::string_view name) {
  for (size_t i = 0; i < insn.operandFields.size(); ++i) {
    if (insn.operandFields[i]->name == name) return static_cast<int>(i);
  }
  return -1;
}

ExprOp binOpToRtl(BinOp op) {
  switch (op) {
    case BinOp::Add: return ExprOp::Add;
    case BinOp::Sub: return ExprOp::Sub;
    case BinOp::Mul: return ExprOp::Mul;
    case BinOp::UDiv: return ExprOp::UDiv;
    case BinOp::URem: return ExprOp::URem;
    case BinOp::And: return ExprOp::And;
    case BinOp::Or: return ExprOp::Or;
    case BinOp::Xor: return ExprOp::Xor;
    case BinOp::Shl: return ExprOp::Shl;
    case BinOp::LShr: return ExprOp::LShr;
    case BinOp::AShr: return ExprOp::AShr;
    case BinOp::Eq: return ExprOp::Eq;
    case BinOp::Ne: return ExprOp::Ne;
    case BinOp::Ult: return ExprOp::Ult;
    case BinOp::Ule: return ExprOp::Ule;
    case BinOp::Ugt: return ExprOp::Ugt;
    case BinOp::Uge: return ExprOp::Uge;
    case BinOp::Slt: return ExprOp::Slt;
    case BinOp::Sle: return ExprOp::Sle;
    case BinOp::Sgt: return ExprOp::Sgt;
    case BinOp::Sge: return ExprOp::Sge;
    case BinOp::LogicalAnd: return ExprOp::LogicalAnd;
    case BinOp::LogicalOr: return ExprOp::LogicalOr;
  }
  throw Error("unreachable binop");
}

bool isComparison(BinOp op) {
  switch (op) {
    case BinOp::Eq: case BinOp::Ne:
    case BinOp::Ult: case BinOp::Ule: case BinOp::Ugt: case BinOp::Uge:
    case BinOp::Slt: case BinOp::Sle: case BinOp::Sgt: case BinOp::Sge:
      return true;
    default:
      return false;
  }
}

bool isLogical(BinOp op) {
  return op == BinOp::LogicalAnd || op == BinOp::LogicalOr;
}

class Analyzer {
 public:
  Analyzer(const ast::ArchDecl& arch, DiagEngine& diags)
      : arch_(arch), diags_(diags) {}

  std::unique_ptr<ArchModel> run();

 private:
  void error(SourceLoc loc, std::string msg) { diags_.error(loc, std::move(msg)); }

  /// What a global name (constant, register or flag, register file,
  /// memory, encoding) resolves to: a constant's value, a register's index
  /// into ArchModel::regs or an encoding's index. A name stays Declared,
  /// resolving to nothing, until its declaration passes its checks.
  struct Symbol {
    enum class Kind : uint8_t { Declared, Const, Reg, Encoding };
    Kind kind = Kind::Declared;
    uint64_t value = 0;
  };

  /// Claim `name` for a declaration, or report a duplicate (nullptr).
  Symbol* declareName(SourceLoc loc, std::string_view name, const char* what) {
    const auto [it, fresh] = globals_.try_emplace(name);
    if (!fresh) {
      error(loc, formatStr("duplicate declaration of '%s' (%s)",
                           std::string(name).c_str(), what));
      return nullptr;
    }
    return &it->second;
  }
  /// The symbol `name` resolves to, if it is a `kind`.
  const Symbol* lookup(std::string_view name, Symbol::Kind kind) const {
    const auto it = globals_.find(name);
    if (it == globals_.end() || it->second.kind != kind) return nullptr;
    return &it->second;
  }

  void analyzeStorage();
  void analyzeEncodings();
  void analyzeInsn(const ast::InsnDecl& insn);
  bool parseSyntaxTemplate(const ast::InsnDecl& insn, InsnInfo& info);
  void checkDecodeAmbiguity();

  // Semantics lowering. `want` = required width; 0 = inferred (integer
  // literals then default to wordSize).
  rtl::ExprPtr lowerExpr(const ast::Expr& e, unsigned want);
  std::vector<rtl::StmtPtr> lowerBlock(const ast::StmtList& body);
  rtl::StmtPtr lowerStmt(const ast::Stmt& s);
  /// True if the lowered expression only depends on encoding fields and
  /// constants (required for regfile subscripts: they must be computable at
  /// decode time).
  bool isDecodeConcrete(const rtl::Expr& e);
  /// Coerce an rtl expression to `want` bits for contexts with a known
  /// width, allowing implicit zext of *constants* only.
  rtl::ExprPtr coerceConst(rtl::ExprPtr e, unsigned want, SourceLoc loc);

  const ast::ArchDecl& arch_;
  DiagEngine& diags_;
  std::unique_ptr<ArchModel> model_;
  // Names view into the parse tree's arena, which outlives the analysis.
  std::unordered_map<std::string_view, Symbol> globals_;
  std::unordered_set<std::string_view> mnemonics_;  // of model_->insns

  // Per-instruction lowering state.
  const InsnInfo* curInsn_ = nullptr;
  struct LetBinding {
    std::string_view name;
    unsigned slot;
    unsigned width;
  };
  std::vector<LetBinding> letScope_;
  unsigned numLetSlots_ = 0;
  unsigned rtlStmtCount_ = 0;
};

std::unique_ptr<ArchModel> Analyzer::run() {
  model_ = std::make_unique<ArchModel>();
  model_->name = arch_.name;
  model_->endianLittle = arch_.endianLittle;

  if (arch_.wordSize != 8 && arch_.wordSize != 16 && arch_.wordSize != 32 &&
      arch_.wordSize != 64) {
    error(arch_.loc, "wordsize must be 8, 16, 32 or 64");
    return nullptr;
  }
  model_->wordSize = arch_.wordSize;
  model_->regs.reserve(arch_.regs.size() + arch_.flags.size());
  model_->encodings.reserve(arch_.encodings.size());
  model_->insns.reserve(arch_.insns.size());
  globals_.reserve(arch_.consts.size() + arch_.regs.size() +
                   arch_.flags.size() + arch_.regfiles.size() +
                   arch_.mems.size() + arch_.encodings.size());
  mnemonics_.reserve(arch_.insns.size());

  for (const auto& c : arch_.consts) {
    if (Symbol* sym = declareName(c.loc, c.name, "constant")) {
      *sym = {Symbol::Kind::Const, c.value};
    }
  }
  analyzeStorage();
  analyzeEncodings();
  if (diags_.hasErrors()) return nullptr;
  for (const auto& insn : arch_.insns) analyzeInsn(insn);
  if (model_->insns.empty()) error(arch_.loc, "architecture defines no instructions");
  checkDecodeAmbiguity();
  if (diags_.hasErrors()) return nullptr;

  model_->minInsnBytes = ~0u;
  model_->maxInsnBytes = 0;
  for (const auto& i : model_->insns) {
    model_->minInsnBytes = std::min(model_->minInsnBytes, i.lengthBytes);
    model_->maxInsnBytes = std::max(model_->maxInsnBytes, i.lengthBytes);
  }
  return std::move(model_);
}

void Analyzer::analyzeStorage() {
  bool sawPC = false;
  for (const auto& r : arch_.regs) {
    Symbol* sym = declareName(r.loc, r.name, "register");
    if (sym == nullptr) continue;
    if (r.width < 1 || r.width > 64) {
      error(r.loc, "register width must be in [1, 64]");
      continue;
    }
    *sym = {Symbol::Kind::Reg, model_->regs.size()};
    RegInfo info{std::string(r.name), r.width, r.name == "pc", false};
    if (info.isPC) {
      sawPC = true;
      model_->pcIndex = static_cast<unsigned>(model_->regs.size());
    }
    model_->regs.push_back(std::move(info));
  }
  for (const auto& f : arch_.flags) {
    Symbol* sym = declareName(f.loc, f.name, "flag");
    if (sym == nullptr) continue;
    *sym = {Symbol::Kind::Reg, model_->regs.size()};
    model_->regs.push_back(RegInfo{std::string(f.name), 1, false, true});
  }
  if (!sawPC) {
    error(arch_.loc, "architecture must declare a program counter: 'reg pc : <width>;'");
  }

  if (arch_.regfiles.size() > 1) {
    error(arch_.regfiles[1].loc, "at most one register file is supported");
  }
  if (!arch_.regfiles.empty()) {
    const auto& rf = arch_.regfiles.front();
    if (declareName(rf.loc, rf.name, "register file")) {
      if (rf.count < 1 || rf.count > 256) {
        error(rf.loc, "register file count must be in [1, 256]");
      } else if (rf.width < 1 || rf.width > 64) {
        error(rf.loc, "register file width must be in [1, 64]");
      } else {
        if (rf.zeroReg && *rf.zeroReg >= rf.count) {
          error(rf.loc, "zero register index out of range");
        }
        model_->regfile =
            RegFileInfo{std::string(rf.name), rf.count, rf.width, rf.zeroReg};
      }
    }
  }

  if (arch_.mems.size() != 1) {
    error(arch_.loc, "architecture must declare exactly one memory space");
    return;
  }
  const auto& m = arch_.mems.front();
  if (declareName(m.loc, m.name, "memory")) {
    if (m.addrWidth < 8 || m.addrWidth > 64) {
      error(m.loc, "memory address width must be in [8, 64]");
    }
    model_->mem = MemInfo{std::string(m.name), m.addrWidth};
  }
}

void Analyzer::analyzeEncodings() {
  std::vector<std::string_view> fieldNames;
  for (const auto& enc : arch_.encodings) {
    Symbol* sym = declareName(enc.loc, enc.name, "encoding");
    if (sym == nullptr) continue;
    EncodingInfo info;
    info.name = enc.name;
    unsigned total = 0;
    fieldNames.clear();
    for (const auto& f : enc.fields) {
      if (f.width < 1 || f.width > 64) {
        error(f.loc, "encoding field width must be in [1, 64]");
        continue;
      }
      if (std::find(fieldNames.begin(), fieldNames.end(), f.name) !=
          fieldNames.end()) {
        error(f.loc, "duplicate encoding field '" + std::string(f.name) + "'");
        continue;
      }
      fieldNames.push_back(f.name);
      total += f.width;
    }
    if (total == 0 || total > 64 || total % 8 != 0) {
      error(enc.loc,
            formatStr("encoding '%s' is %u bits; must be a nonzero multiple "
                      "of 8 up to 64",
                      std::string(enc.name).c_str(), total));
      continue;
    }
    info.totalWidth = total;
    // Fields are written MSB-first; compute each field's LSB offset.
    unsigned hi = total;
    info.fields.reserve(enc.fields.size());
    for (const auto& f : enc.fields) {
      info.fields.push_back(
          EncFieldInfo{std::string(f.name), f.width, hi - f.width});
      hi -= f.width;
    }
    *sym = {Symbol::Kind::Encoding, model_->encodings.size()};
    model_->encodings.push_back(std::move(info));
  }
}

void Analyzer::analyzeInsn(const ast::InsnDecl& insn) {
  if (mnemonics_.count(insn.name) != 0) {
    error(insn.loc,
          "duplicate instruction mnemonic '" + std::string(insn.name) + "'");
    return;
  }
  const Symbol* encSym = lookup(insn.encodingName, Symbol::Kind::Encoding);
  if (encSym == nullptr) {
    error(insn.loc,
          "unknown encoding '" + std::string(insn.encodingName) + "'");
    return;
  }
  InsnInfo info;
  info.name = insn.name;
  info.syntax = insn.syntax;
  info.encodingIdx = static_cast<unsigned>(encSym->value);
  const EncodingInfo& enc = model_->encodings[info.encodingIdx];
  info.lengthBytes = enc.totalWidth / 8;

  // Bit k set: enc.fields[k] is fixed. An encoding that passed its checks
  // has at most 64 fields, all named apart.
  uint64_t fixed = 0;
  for (const ast::FieldFix& fix : insn.fixes) {
    uint64_t value = fix.value;
    if (!fix.ref.empty()) {
      const Symbol* c = lookup(fix.ref, Symbol::Kind::Const);
      if (c == nullptr) {
        error(fix.loc, "unknown constant '" + std::string(fix.ref) +
                           "' in fixed field");
        continue;
      }
      value = c->value;
    }
    const EncFieldInfo* f = findField(enc, fix.field);
    if (f == nullptr) {
      error(fix.loc, formatStr("encoding '%s' has no field '%s'",
                               enc.name.c_str(),
                               std::string(fix.field).c_str()));
      continue;
    }
    const uint64_t bit = uint64_t{1} << (f - enc.fields.data());
    if ((fixed & bit) != 0) {
      error(fix.loc, "field '" + std::string(fix.field) + "' fixed twice");
      continue;
    }
    fixed |= bit;
    if (!fitsUnsigned(value, f->width)) {
      error(fix.loc, formatStr("value %llu does not fit field '%s' (%u bits)",
                               static_cast<unsigned long long>(value),
                               f->name.c_str(), f->width));
      continue;
    }
    info.fixedMask |= lowMask(f->width) << f->lo;
    info.fixedMatch |= value << f->lo;
  }
  info.operandFields.reserve(enc.fields.size() -
                             static_cast<size_t>(std::popcount(fixed)));
  for (size_t k = 0; k < enc.fields.size(); ++k) {
    if (((fixed >> k) & 1) == 0) info.operandFields.push_back(&enc.fields[k]);
  }
  if (info.fixedMask == 0) {
    error(insn.loc, "instruction fixes no encoding bits; it would match anything");
  }

  if (!parseSyntaxTemplate(insn, info)) return;

  // Lower semantics.
  curInsn_ = &info;
  letScope_.clear();
  numLetSlots_ = 0;
  info.semantics = lowerBlock(insn.body);
  info.numLetSlots = numLetSlots_;
  curInsn_ = nullptr;

  mnemonics_.insert(insn.name);
  model_->insns.push_back(std::move(info));
}

bool Analyzer::parseSyntaxTemplate(const ast::InsnDecl& insn, InsnInfo& info) {
  const std::string_view s = insn.syntax;
  // Mnemonic = leading word; must equal the instruction name.
  size_t i = 0;
  while (i < s.size() && !isSpace(s[i])) ++i;
  if (s.substr(0, i) != insn.name) {
    error(insn.loc, formatStr("syntax template must start with mnemonic '%s'",
                              std::string(insn.name).c_str()));
    return false;
  }
  while (i < s.size() && isSpace(s[i])) ++i;

  const EncodingInfo& enc = model_->encodings[info.encodingIdx];
  const auto placeholders =
      static_cast<size_t>(std::count(s.begin(), s.end(), '%'));
  info.operands.reserve(placeholders);
  info.syntaxPieces.reserve(2 * placeholders + 1);
  // Literal text (separators like ", ") runs from each placeholder's end
  // to the next '%'.
  auto addLiteral = [&](size_t end) {
    if (end > i) {
      SyntaxPiece p;
      p.isOperand = false;
      p.literal = s.substr(i, end - i);
      info.syntaxPieces.push_back(std::move(p));
    }
  };
  uint64_t used = 0;  // bit k: operandFields[k] has a placeholder

  while (i < s.size()) {
    const size_t pct = std::min(s.find('%', i), s.size());
    if (pct == s.size()) break;
    const size_t j = std::min(s.find('(', pct + 1), s.size());
    if (j >= s.size()) {
      error(insn.loc, "malformed operand placeholder (expected '%kind(field)')");
      return false;
    }
    const std::string_view kindStr = s.substr(pct + 1, j - pct - 1);
    const size_t k = std::min(s.find(')', j + 1), s.size());
    if (k >= s.size()) {
      error(insn.loc, "unterminated operand placeholder");
      return false;
    }
    const std::string_view fieldName = s.substr(j + 1, k - j - 1);

    OperandKind kind;
    unsigned relScale = 1;
    if (kindStr == "r") kind = OperandKind::Reg;
    else if (kindStr == "i") kind = OperandKind::Imm;
    else if (kindStr == "rel") kind = OperandKind::Rel;
    else if (kindStr == "rel2") { kind = OperandKind::Rel; relScale = 2; }
    else if (kindStr == "rel4") { kind = OperandKind::Rel; relScale = 4; }
    else if (kindStr == "abs") kind = OperandKind::Abs;
    else {
      error(insn.loc, "unknown operand kind '%" + std::string(kindStr) + "'");
      return false;
    }
    if (kind == OperandKind::Reg && !model_->regfile) {
      error(insn.loc, "%r operands require a register file");
      return false;
    }
    if (findField(enc, fieldName) == nullptr) {
      error(insn.loc, formatStr("syntax references unknown field '%s'",
                                std::string(fieldName).c_str()));
      return false;
    }
    const int opIdx = operandFieldIndex(info, fieldName);
    if (opIdx < 0) {
      error(insn.loc, formatStr("syntax references fixed field '%s'",
                                std::string(fieldName).c_str()));
      return false;
    }
    const uint64_t bit = uint64_t{1} << opIdx;
    if ((used & bit) != 0) {
      error(insn.loc, formatStr("field '%s' appears twice in syntax",
                                std::string(fieldName).c_str()));
      return false;
    }
    used |= bit;
    addLiteral(pct);
    i = k + 1;
    OperandInfo op;
    op.fieldName = fieldName;
    op.fieldIndex = static_cast<unsigned>(opIdx);
    op.kind = kind;
    op.relScale = relScale;
    SyntaxPiece p;
    p.isOperand = true;
    p.operandIdx = static_cast<unsigned>(info.operands.size());
    info.syntaxPieces.push_back(p);
    info.operands.push_back(std::move(op));
  }
  addLiteral(s.size());

  for (size_t fi = 0; fi < info.operandFields.size(); ++fi) {
    if (((used >> fi) & 1) == 0) {
      error(insn.loc, formatStr("operand field '%s' missing from syntax "
                                "template (fix it or add a placeholder)",
                                info.operandFields[fi]->name.c_str()));
      return false;
    }
  }
  return true;
}

void Analyzer::checkDecodeAmbiguity() {
  // The exact ternary-set check lives in the analysis layer so `adlsym
  // lint` and sema report identical findings. True ambiguity (ADL001) is
  // a load error; the rest of the decode-space pass (ADL002/003) stays
  // advisory, and only lint runs it.
  std::vector<analysis::Finding> findings;
  analysis::appendAmbiguityFindings(*model_, findings);
  for (const analysis::Finding& f : findings) {
    error(f.loc, formatStr("[%s] %s", analysis::lintCodeName(f.code),
                           f.message.c_str()));
  }
}

// ------------------------------------------------------------ lowering --

rtl::ExprPtr Analyzer::coerceConst(rtl::ExprPtr e, unsigned want, SourceLoc loc) {
  if (want == 0 || e == nullptr || e->width == want) return e;
  if (e->op == ExprOp::Const) {
    if (!fitsUnsigned(e->aux, want)) {
      error(loc, formatStr("literal %llu does not fit in %u bits",
                           static_cast<unsigned long long>(e->aux), want));
    }
    return mkRtl(ExprOp::Const, want, truncTo(e->aux, want));
  }
  error(loc, formatStr("width mismatch: expected %u bits, found %u "
                       "(use zext/sext/trunc)",
                       want, e->width));
  return mkRtl(ExprOp::Const, want, 0);
}

rtl::ExprPtr Analyzer::lowerExpr(const ast::Expr& e, unsigned want) {
  switch (e.kind) {
    case ast::Expr::Kind::IntLit: {
      const unsigned w = want != 0 ? want : model_->wordSize;
      if (!fitsUnsigned(e.intValue, w)) {
        error(e.loc, formatStr("literal %llu does not fit in %u bits",
                               static_cast<unsigned long long>(e.intValue), w));
      }
      return mkRtl(ExprOp::Const, w, truncTo(e.intValue, w));
    }

    case ast::Expr::Kind::NameRef: {
      // Resolution order: let bindings (innermost last), operand fields,
      // scalar registers/flags/pc.
      for (auto it = letScope_.rbegin(); it != letScope_.rend(); ++it) {
        if (it->name == e.name) {
          return coerceConst(mkRtl(ExprOp::LetRef, it->width, it->slot), want, e.loc);
        }
      }
      if (curInsn_ != nullptr) {
        const int fi = operandFieldIndex(*curInsn_, e.name);
        if (fi >= 0) {
          return coerceConst(
              mkRtl(ExprOp::Field, curInsn_->operandFields[static_cast<size_t>(fi)]->width,
                    static_cast<uint64_t>(fi)),
              want, e.loc);
        }
      }
      if (const Symbol* c = lookup(e.name, Symbol::Kind::Const)) {
        // Named constants behave exactly like integer literals: they adapt
        // to the width their context requires.
        const unsigned w = want != 0 ? want : model_->wordSize;
        if (!fitsUnsigned(c->value, w)) {
          error(e.loc, formatStr("constant '%s' (%llu) does not fit in %u bits",
                                 std::string(e.name).c_str(),
                                 static_cast<unsigned long long>(c->value), w));
        }
        return mkRtl(ExprOp::Const, w, truncTo(c->value, w));
      }
      if (const Symbol* r = lookup(e.name, Symbol::Kind::Reg)) {
        return coerceConst(
            mkRtl(ExprOp::RegRead, model_->regs[r->value].width, r->value),
            want, e.loc);
      }
      error(e.loc, "unknown name '" + std::string(e.name) + "'");
      return mkRtl(ExprOp::Const, want != 0 ? want : model_->wordSize, 0);
    }

    case ast::Expr::Kind::Index: {
      if (!model_->regfile || e.name != model_->regfile->name) {
        error(e.loc, "subscript requires the register file ('" +
                         std::string(e.name) + "' is not indexable)");
        return mkRtl(ExprOp::Const, want != 0 ? want : model_->wordSize, 0);
      }
      rtl::ExprPtr idx = lowerExpr(*e.args[0], 0);
      if (!isDecodeConcrete(*idx)) {
        error(e.loc, "register file subscript must be computable at decode "
                     "time (fields and constants only)");
      }
      return coerceConst(
          mkRtl(ExprOp::RegFileRead, model_->regfile->width, 0, std::move(idx)),
          want, e.loc);
    }

    case ast::Expr::Kind::Unary: {
      if (e.unop == UnOp::LogicalNot) {
        rtl::ExprPtr a = lowerExpr(*e.args[0], 1);
        if (a->width != 1) error(e.loc, "'!' requires a 1-bit operand");
        return coerceConst(mkRtl(ExprOp::LogicalNot, 1, 0, std::move(a)), want,
                           e.loc);
      }
      rtl::ExprPtr a = lowerExpr(*e.args[0], want);
      const unsigned w = a->width;
      return coerceConst(mkRtl(e.unop == UnOp::Not ? ExprOp::Not : ExprOp::Neg,
                               w, 0, std::move(a)),
                         want, e.loc);
    }

    case ast::Expr::Kind::Binary: {
      const bool cmp = isComparison(e.binop);
      const bool logical = isLogical(e.binop);
      const unsigned opWant = logical ? 1 : (cmp ? 0 : want);
      // Lower the non-literal side first so literals adapt to it.
      const ast::Expr& lhs = *e.args[0];
      const ast::Expr& rhs = *e.args[1];
      rtl::ExprPtr a;
      rtl::ExprPtr b;
      if (lhs.kind == ast::Expr::Kind::IntLit && rhs.kind != ast::Expr::Kind::IntLit) {
        b = lowerExpr(rhs, opWant);
        a = lowerExpr(lhs, b->width);
      } else {
        a = lowerExpr(lhs, opWant);
        b = lowerExpr(rhs, a->width);
      }
      if (a->width != b->width) {
        error(e.loc, formatStr("operand width mismatch: %u vs %u bits "
                               "(use zext/sext/trunc)",
                               a->width, b->width));
        b = mkRtl(ExprOp::Const, a->width, 0);
      }
      if (logical && a->width != 1) {
        error(e.loc, "'&&'/'||' require 1-bit operands (compare explicitly)");
      }
      const unsigned resW = cmp || logical ? 1 : a->width;
      return coerceConst(
          mkRtl(binOpToRtl(e.binop), resW, 0, std::move(a), std::move(b)), want,
          e.loc);
    }

    case ast::Expr::Kind::Call: {
      const std::string_view fn = e.name;
      auto argCount = [&](size_t n) {
        if (e.args.size() != n) {
          error(e.loc, formatStr("%s expects %zu argument(s), got %zu",
                                 std::string(fn).c_str(), n, e.args.size()));
          return false;
        }
        return true;
      };
      auto litArg = [&](size_t i) -> std::optional<uint64_t> {
        if (i < e.args.size() && e.args[i]->kind == ast::Expr::Kind::IntLit)
          return e.args[i]->intValue;
        error(e.loc, formatStr("argument %zu of %s must be an integer literal",
                               i + 1, std::string(fn).c_str()));
        return std::nullopt;
      };

      if (fn == "zext" || fn == "sext" || fn == "trunc") {
        if (!argCount(2)) return mkRtl(ExprOp::Const, 8, 0);
        auto w = litArg(1);
        if (!w || *w < 1 || *w > 64) {
          error(e.loc, "target width must be in [1, 64]");
          return mkRtl(ExprOp::Const, 8, 0);
        }
        rtl::ExprPtr a = lowerExpr(*e.args[0], 0);
        const unsigned tw = static_cast<unsigned>(*w);
        if (fn == "trunc") {
          if (tw > a->width) error(e.loc, "trunc target width exceeds operand width");
        } else if (tw < a->width) {
          error(e.loc, "extension target width below operand width");
        }
        const ExprOp op = fn == "zext"   ? ExprOp::ZExt
                          : fn == "sext" ? ExprOp::SExt
                                         : ExprOp::Trunc;
        return coerceConst(mkRtl(op, tw, 0, std::move(a)), want, e.loc);
      }
      if (fn == "bits" || fn == "bit") {
        const bool single = fn == "bit";
        if (!argCount(single ? 2 : 3)) return mkRtl(ExprOp::Const, 1, 0);
        rtl::ExprPtr a = lowerExpr(*e.args[0], 0);
        auto hiOpt = litArg(1);
        auto loOpt = single ? hiOpt : litArg(2);
        if (!hiOpt || !loOpt) return mkRtl(ExprOp::Const, 1, 0);
        const unsigned hi = static_cast<unsigned>(*hiOpt);
        const unsigned lo = static_cast<unsigned>(*loOpt);
        if (hi < lo || hi >= a->width) {
          error(e.loc, formatStr("bit range [%u:%u] out of bounds for %u-bit value",
                                 hi, lo, a->width));
          return mkRtl(ExprOp::Const, 1, 0);
        }
        return coerceConst(mkRtl(ExprOp::Extract, hi - lo + 1,
                                 (static_cast<uint64_t>(hi) << 8) | lo,
                                 std::move(a)),
                           want, e.loc);
      }
      if (fn == "concat") {
        if (!argCount(2)) return mkRtl(ExprOp::Const, 8, 0);
        rtl::ExprPtr hi = lowerExpr(*e.args[0], 0);
        rtl::ExprPtr lo = lowerExpr(*e.args[1], 0);
        const unsigned w = hi->width + lo->width;
        if (w > 64) {
          error(e.loc, "concat result exceeds 64 bits");
          return mkRtl(ExprOp::Const, 8, 0);
        }
        return coerceConst(
            mkRtl(ExprOp::Concat, w, 0, std::move(hi), std::move(lo)), want,
            e.loc);
      }
      if (fn == "sdiv" || fn == "srem") {
        if (!argCount(2)) return mkRtl(ExprOp::Const, 8, 0);
        rtl::ExprPtr a = lowerExpr(*e.args[0], want);
        rtl::ExprPtr b = lowerExpr(*e.args[1], a->width);
        if (a->width != b->width) {
          error(e.loc, "sdiv/srem operand width mismatch");
          b = mkRtl(ExprOp::Const, a->width, 0);
        }
        const unsigned w = a->width;
        return coerceConst(mkRtl(fn == "sdiv" ? ExprOp::SDiv : ExprOp::SRem, w,
                                 0, std::move(a), std::move(b)),
                           want, e.loc);
      }
      if (fn == "load8" || fn == "load16" || fn == "load32") {
        if (!argCount(1)) return mkRtl(ExprOp::Const, 8, 0);
        const unsigned size = fn == "load8" ? 1 : fn == "load16" ? 2 : 4;
        rtl::ExprPtr addr = lowerExpr(*e.args[0], model_->mem.addrWidth);
        if (addr->width != model_->mem.addrWidth) {
          error(e.loc, formatStr("address must be %u bits", model_->mem.addrWidth));
        }
        return coerceConst(mkRtl(ExprOp::Load, size * 8, size, std::move(addr)),
                           want, e.loc);
      }
      if (fn == "input8" || fn == "input16" || fn == "input32") {
        if (!argCount(0)) return mkRtl(ExprOp::Const, 8, 0);
        const unsigned w = fn == "input8" ? 8 : fn == "input16" ? 16 : 32;
        return coerceConst(mkRtl(ExprOp::Input, w), want, e.loc);
      }
      error(e.loc, "unknown function '" + std::string(fn) + "' in expression");
      return mkRtl(ExprOp::Const, want != 0 ? want : model_->wordSize, 0);
    }
  }
  throw Error("unreachable expr kind");
}

bool Analyzer::isDecodeConcrete(const rtl::Expr& e) {
  switch (e.op) {
    case ExprOp::RegRead:
    case ExprOp::RegFileRead:
    case ExprOp::Load:
    case ExprOp::Input:
    case ExprOp::LetRef:
      return false;
    default:
      for (const auto& a : e.args) {
        if (!isDecodeConcrete(*a)) return false;
      }
      return true;
  }
}

std::vector<rtl::StmtPtr> Analyzer::lowerBlock(const ast::StmtList& body) {
  const size_t scopeMark = letScope_.size();
  std::vector<rtl::StmtPtr> out;
  out.reserve(body.size());
  for (const auto& s : body) {
    if (rtl::StmtPtr lowered = lowerStmt(*s)) out.push_back(std::move(lowered));
  }
  letScope_.resize(scopeMark);
  return out;
}

rtl::StmtPtr Analyzer::lowerStmt(const ast::Stmt& s) {
  ++rtlStmtCount_;
  auto out = std::make_unique<rtl::Stmt>();
  out->loc = s.loc;

  switch (s.kind) {
    case ast::Stmt::Kind::AssignReg: {
      const Symbol* reg = lookup(s.name, Symbol::Kind::Reg);
      if (reg == nullptr) {
        error(s.loc, "assignment to unknown register '" +
                         std::string(s.name) + "'");
        return nullptr;
      }
      out->op = StmtOp::AssignReg;
      out->aux = reg->value;
      out->args.push_back(lowerExpr(*s.value, model_->regs[reg->value].width));
      return out;
    }
    case ast::Stmt::Kind::AssignIndexed: {
      if (!model_->regfile || s.name != model_->regfile->name) {
        error(s.loc, "'" + std::string(s.name) +
                         "' is not an indexable register file");
        return nullptr;
      }
      rtl::ExprPtr idx = lowerExpr(*s.index, 0);
      if (!isDecodeConcrete(*idx)) {
        error(s.loc, "register file subscript must be computable at decode time");
      }
      out->op = StmtOp::AssignRegFile;
      out->args.reserve(2);
      out->args.push_back(std::move(idx));
      out->args.push_back(lowerExpr(*s.value, model_->regfile->width));
      return out;
    }
    case ast::Stmt::Kind::Let: {
      rtl::ExprPtr v = lowerExpr(*s.value, 0);
      const unsigned slot = numLetSlots_++;
      letScope_.push_back(LetBinding{s.name, slot, v->width});
      out->op = StmtOp::Let;
      out->aux = slot;
      out->args.push_back(std::move(v));
      return out;
    }
    case ast::Stmt::Kind::If: {
      rtl::ExprPtr cond = lowerExpr(*s.value, 1);
      if (cond->width != 1) {
        error(s.loc, "if condition must be 1 bit (use a comparison)");
      }
      out->op = StmtOp::If;
      out->args.push_back(std::move(cond));
      out->thenBody = lowerBlock(s.thenBody);
      out->elseBody = lowerBlock(s.elseBody);
      return out;
    }
    case ast::Stmt::Kind::CallStmt: {
      const std::string_view fn = s.name;
      auto argCount = [&](size_t n) {
        if (s.args.size() != n) {
          error(s.loc, formatStr("%s expects %zu argument(s), got %zu",
                                 std::string(fn).c_str(), n, s.args.size()));
          return false;
        }
        return true;
      };
      if (fn == "store8" || fn == "store16" || fn == "store32") {
        if (!argCount(2)) return nullptr;
        const unsigned size = fn == "store8" ? 1 : fn == "store16" ? 2 : 4;
        out->op = StmtOp::Store;
        out->aux = size;
        rtl::ExprPtr addr = lowerExpr(*s.args[0], model_->mem.addrWidth);
        if (addr->width != model_->mem.addrWidth) {
          error(s.loc, formatStr("address must be %u bits", model_->mem.addrWidth));
        }
        out->args.reserve(2);
        out->args.push_back(std::move(addr));
        out->args.push_back(lowerExpr(*s.args[1], size * 8));
        return out;
      }
      if (fn == "output") {
        if (!argCount(1)) return nullptr;
        out->op = StmtOp::Output;
        out->args.push_back(lowerExpr(*s.args[0], 0));
        return out;
      }
      if (fn == "halt") {
        if (!argCount(1)) return nullptr;
        out->op = StmtOp::Halt;
        rtl::ExprPtr code = lowerExpr(*s.args[0], 0);
        if (code->width != 32) {
          // Normalize exit codes to 32 bits for uniform reporting.
          const ExprOp op = code->width < 32 ? ExprOp::ZExt : ExprOp::Trunc;
          code = mkRtl(op, 32, 0, std::move(code));
        }
        out->args.push_back(std::move(code));
        return out;
      }
      if (fn == "asserteq") {
        if (!argCount(2)) return nullptr;
        out->op = StmtOp::AssertEq;
        rtl::ExprPtr a = lowerExpr(*s.args[0], 0);
        rtl::ExprPtr b = lowerExpr(*s.args[1], a->width);
        if (a->width != b->width) {
          error(s.loc, "asserteq operand width mismatch");
          b = mkRtl(ExprOp::Const, a->width, 0);
        }
        out->args.reserve(2);
        out->args.push_back(std::move(a));
        out->args.push_back(std::move(b));
        return out;
      }
      if (fn == "trap") {
        if (!argCount(1)) return nullptr;
        if (s.args[0]->kind != ast::Expr::Kind::IntLit) {
          error(s.loc, "trap class must be an integer literal");
          return nullptr;
        }
        out->op = StmtOp::Trap;
        out->aux = s.args[0]->intValue;
        return out;
      }
      error(s.loc, "unknown intrinsic '" + std::string(fn) + "'");
      return nullptr;
    }
  }
  throw Error("unreachable stmt kind");
}

}  // namespace

std::unique_ptr<ArchModel> analyzeArch(const ast::ArchDecl& arch,
                                       DiagEngine& diags) {
  Analyzer analyzer(arch, diags);
  auto model = analyzer.run();
  if (diags.hasErrors()) return nullptr;
  return model;
}

}  // namespace adlsym::adl
