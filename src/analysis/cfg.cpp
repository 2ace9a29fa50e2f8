#include "analysis/cfg.h"

#include <optional>
#include <set>
#include <unordered_set>

#include "decode/decoder.h"
#include "smt/term.h"
#include "support/bits.h"
#include "support/strings.h"

namespace adlsym::analysis {

namespace {

using adl::rtl::Expr;
using adl::rtl::ExprOp;
using adl::rtl::Stmt;
using adl::rtl::StmtOp;

Finding mkFinding(LintCode code, uint64_t addr, std::string message,
                  std::string insn = "") {
  Finding f;
  f.code = code;
  f.severity = lintDefaultSeverity(code);
  f.message = std::move(message);
  f.insn = std::move(insn);
  f.addr = addr;
  return f;
}

/// Constant evaluation of an RTL expression in a decode context: operand
/// fields and the instruction's own address are known, everything that
/// depends on machine state is not.
class StaticEval {
 public:
  StaticEval(const adl::ArchModel& model, const decode::DecodedInsn& d,
             uint64_t insnAddr)
      : model_(model), d_(d), insnAddr_(insnAddr) {}

  std::optional<uint64_t> expr(const Expr& e,
                               const std::map<unsigned, std::optional<uint64_t>>&
                                   lets) const {
    auto arg = [&](size_t i) { return expr(*e.args[i], lets); };
    const unsigned w = e.width;
    switch (e.op) {
      case ExprOp::Const: return e.aux;
      case ExprOp::Field: return d_.operandValues[e.aux];
      case ExprOp::LetRef: {
        auto it = lets.find(static_cast<unsigned>(e.aux));
        return it == lets.end() ? std::nullopt : it->second;
      }
      case ExprOp::RegRead:
        if (e.aux == model_.pcIndex) return truncTo(insnAddr_, w);
        return std::nullopt;
      case ExprOp::RegFileRead:
      case ExprOp::Load:
      case ExprOp::Input:
        return std::nullopt;
      case ExprOp::Not: {
        auto a = arg(0);
        return a ? std::optional(truncTo(~*a, w)) : std::nullopt;
      }
      case ExprOp::Neg: {
        auto a = arg(0);
        return a ? std::optional(truncTo(~*a + 1, w)) : std::nullopt;
      }
      case ExprOp::LogicalNot: {
        auto a = arg(0);
        return a ? std::optional<uint64_t>(*a == 0 ? 1 : 0) : std::nullopt;
      }
      case ExprOp::ZExt: {
        auto a = arg(0);
        return a ? std::optional(*a) : std::nullopt;
      }
      case ExprOp::SExt: {
        auto a = arg(0);
        if (!a) return std::nullopt;
        return truncTo(signExtend(*a, e.args[0]->width), w);
      }
      case ExprOp::Trunc: {
        auto a = arg(0);
        return a ? std::optional(truncTo(*a, w)) : std::nullopt;
      }
      case ExprOp::Extract: {
        auto a = arg(0);
        if (!a) return std::nullopt;
        const unsigned hi = static_cast<unsigned>(e.aux >> 8);
        const unsigned lo = static_cast<unsigned>(e.aux & 0xff);
        return bitSlice(*a, hi, lo);
      }
      case ExprOp::Concat: {
        auto a = arg(0), b = arg(1);
        if (!a || !b) return std::nullopt;
        return truncTo((*a << e.args[1]->width) | *b, w);
      }
      default: break;
    }
    // The remaining ops are binary; TermManager::evalOp does their
    // arithmetic, as it does the engines'.
    auto a = arg(0), b = arg(1);
    if (!a || !b) return std::nullopt;
    using smt::Kind;
    const unsigned ow = e.args[0]->width;
    auto eval = [](Kind k, unsigned width, uint64_t x, uint64_t y) {
      return smt::TermManager::evalOp(k, width, x, y);
    };
    // A zero divisor makes the target unknown.
    auto div = [&](Kind k) -> std::optional<uint64_t> {
      if (truncTo(*b, ow) == 0) return std::nullopt;
      return eval(k, w, *a, *b);
    };
    switch (e.op) {
      case ExprOp::Add: return eval(Kind::Add, w, *a, *b);
      case ExprOp::Sub: return eval(Kind::Sub, w, *a, *b);
      case ExprOp::Mul: return eval(Kind::Mul, w, *a, *b);
      case ExprOp::UDiv: return div(Kind::UDiv);
      case ExprOp::URem: return div(Kind::URem);
      case ExprOp::SDiv: return div(Kind::SDiv);
      case ExprOp::SRem: return div(Kind::SRem);
      case ExprOp::And:
      case ExprOp::LogicalAnd: return eval(Kind::And, w, *a, *b);
      case ExprOp::Or:
      case ExprOp::LogicalOr: return eval(Kind::Or, w, *a, *b);
      case ExprOp::Xor: return eval(Kind::Xor, w, *a, *b);
      case ExprOp::Shl: return eval(Kind::Shl, w, *a, *b);
      case ExprOp::LShr: return eval(Kind::LShr, w, *a, *b);
      case ExprOp::AShr: return eval(Kind::AShr, w, *a, *b);
      // Comparisons take the operand width. Those evalOp lacks are its
      // own with the operands swapped or the result negated, as the term
      // builders define them.
      case ExprOp::Eq: return eval(Kind::Eq, ow, *a, *b);
      case ExprOp::Ne: return 1 - eval(Kind::Eq, ow, *a, *b);
      case ExprOp::Ult: return eval(Kind::Ult, ow, *a, *b);
      case ExprOp::Ule: return eval(Kind::Ule, ow, *a, *b);
      case ExprOp::Ugt: return eval(Kind::Ult, ow, *b, *a);
      case ExprOp::Uge: return eval(Kind::Ule, ow, *b, *a);
      case ExprOp::Slt: return eval(Kind::Slt, ow, *a, *b);
      case ExprOp::Sle: return eval(Kind::Sle, ow, *a, *b);
      case ExprOp::Sgt: return eval(Kind::Slt, ow, *b, *a);
      case ExprOp::Sge: return eval(Kind::Sle, ow, *b, *a);
      default: return std::nullopt;
    }
  }

 private:
  const adl::ArchModel& model_;
  const decode::DecodedInsn& d_;
  uint64_t insnAddr_;
};

/// Enumerate the ways one instruction's semantics can end, following both
/// arms of non-constant ifs. Path counts are tiny in practice (one or two
/// ifs per instruction); a cap keeps pathological models bounded.
class SuccessorScan {
 public:
  SuccessorScan(const adl::ArchModel& model, const decode::DecodedInsn& d,
                uint64_t addr)
      : model_(model), eval_(model, d, addr) {}

  void run(const std::vector<adl::rtl::StmtPtr>& body, CfgInsn& out) {
    State init;
    std::vector<const Stmt*> flat;
    for (const auto& s : body) flat.push_back(s.get());
    walk(flat, 0, init);
    std::set<uint64_t> dedup(targets_.begin(), targets_.end());
    out.targets.assign(dedup.begin(), dedup.end());
    out.mayFallThrough = mayFallThrough_;
    out.indirect = indirect_;
  }

 private:
  struct State {
    std::map<unsigned, std::optional<uint64_t>> lets;
    bool pcWritten = false;
    std::optional<uint64_t> pcTarget;
  };

  void finish(const State& st) {
    if (!st.pcWritten) {
      mayFallThrough_ = true;
    } else if (st.pcTarget) {
      targets_.push_back(*st.pcTarget);
    } else {
      indirect_ = true;
    }
  }

  void walk(const std::vector<const Stmt*>& stmts, size_t i, State st) {
    if (++steps_ > kMaxPaths) {  // bail out conservatively
      mayFallThrough_ = true;
      indirect_ = true;
      return;
    }
    for (; i < stmts.size(); ++i) {
      const Stmt& s = *stmts[i];
      switch (s.op) {
        case StmtOp::Let:
          st.lets[static_cast<unsigned>(s.aux)] = eval_.expr(*s.args[0], st.lets);
          break;
        case StmtOp::AssignReg:
          if (s.aux == model_.pcIndex) {
            st.pcWritten = true;
            st.pcTarget = eval_.expr(*s.args[0], st.lets);
          }
          break;
        case StmtOp::Halt:
        case StmtOp::Trap:
          return;  // path ends inside the instruction: no successors
        case StmtOp::If: {
          const auto cond = eval_.expr(*s.args[0], st.lets);
          std::vector<const Stmt*> rest(stmts.begin() + i + 1, stmts.end());
          auto runArm = [&](const std::vector<adl::rtl::StmtPtr>& arm) {
            std::vector<const Stmt*> seq;
            for (const auto& a : arm) seq.push_back(a.get());
            seq.insert(seq.end(), rest.begin(), rest.end());
            walk(seq, 0, st);
          };
          if (!cond || *cond != 0) runArm(s.thenBody);
          if (!cond || *cond == 0) runArm(s.elseBody);
          return;
        }
        default:
          break;  // stores/outputs/asserts don't affect control flow
      }
    }
    finish(st);
  }

  static constexpr unsigned kMaxPaths = 256;
  const adl::ArchModel& model_;
  StaticEval eval_;
  std::vector<uint64_t> targets_;
  bool mayFallThrough_ = false;
  bool indirect_ = false;
  unsigned steps_ = 0;
};

bool inCode(const loader::Image& image, uint64_t addr) {
  const loader::Section* s = image.sectionAt(addr);
  return s != nullptr && !s->writable;
}

}  // namespace

Cfg recoverCfg(const adl::ArchModel& model, const loader::Image& image) {
  Cfg cfg;
  decode::Decoder decoder(model);

  const uint64_t entry = image.entry();
  if (!inCode(image, entry)) {
    cfg.report.add(mkFinding(
        LintCode::JumpOutsideCode, entry,
        formatStr("entry point 0x%llx is not in an executable section",
                  static_cast<unsigned long long>(entry))));
    return cfg;
  }

  std::vector<uint64_t> work{entry};
  while (!work.empty()) {
    const uint64_t addr = work.back();
    work.pop_back();
    if (cfg.insns.count(addr)) continue;

    const decode::DecodedInsn* d = decoder.decodeAt(image, addr);
    if (d == nullptr) {
      cfg.report.add(mkFinding(
          LintCode::UndecodableReachable, addr,
          formatStr("reachable address 0x%llx does not decode as any "
                    "instruction (data reached by control flow?)",
                    static_cast<unsigned long long>(addr))));
      continue;
    }

    CfgInsn node;
    node.addr = addr;
    node.lengthBytes = d->lengthBytes;
    node.insn = d->insn;
    SuccessorScan(model, *d, addr).run(d->insn->semantics, node);

    for (const uint64_t t : node.targets) {
      if (inCode(image, t)) {
        work.push_back(t);
      } else {
        cfg.report.add(mkFinding(
            LintCode::JumpOutsideCode, addr,
            formatStr("'%s' at 0x%llx jumps to 0x%llx, outside executable "
                      "code",
                      d->insn->name.c_str(),
                      static_cast<unsigned long long>(addr),
                      static_cast<unsigned long long>(t)),
            d->insn->name));
      }
    }
    if (node.mayFallThrough) {
      const uint64_t ft = addr + node.lengthBytes;
      if (inCode(image, ft)) {
        work.push_back(ft);
      } else {
        cfg.report.add(mkFinding(
            LintCode::FallThroughOffEnd, addr,
            formatStr("execution can fall through '%s' at 0x%llx to 0x%llx, "
                      "which is off the end of mapped code",
                      d->insn->name.c_str(),
                      static_cast<unsigned long long>(addr),
                      static_cast<unsigned long long>(ft)),
            d->insn->name));
      }
    }
    cfg.insns.emplace(addr, std::move(node));
  }

  // Block formation: leaders are the entry and every static target;
  // blocks also break after branching/halting instructions.
  std::set<uint64_t> leaders{entry};
  for (const auto& [addr, node] : cfg.insns) {
    for (const uint64_t t : node.targets) leaders.insert(t);
    if (!node.targets.empty() || node.indirect || !node.mayFallThrough) {
      leaders.insert(addr + node.lengthBytes);
    }
  }
  for (auto it = cfg.insns.begin(); it != cfg.insns.end();) {
    CfgBlock block;
    block.start = it->first;
    const CfgInsn* last = &it->second;
    for (;;) {
      last = &it->second;
      ++it;
      const uint64_t next = last->addr + last->lengthBytes;
      if (it == cfg.insns.end() || it->first != next || leaders.count(next))
        break;
    }
    block.end = last->addr + last->lengthBytes;
    for (const uint64_t t : last->targets) {
      if (cfg.insns.count(t)) block.succs.push_back(t);
    }
    if (last->mayFallThrough && cfg.insns.count(block.end)) {
      block.succs.push_back(block.end);
    }
    cfg.blocks.push_back(std::move(block));
  }

  // IMG001: decodable runs in executable sections never reached from the
  // entry. Undecodable unreached bytes are assumed to be data and stay
  // silent.
  std::unordered_set<uint64_t> covered;
  for (const auto& [addr, node] : cfg.insns) {
    for (unsigned b = 0; b < node.lengthBytes; ++b) covered.insert(addr + b);
  }
  for (const loader::Section& sec : image.sections()) {
    if (sec.writable) continue;
    uint64_t a = sec.base;
    while (a < sec.end()) {
      if (covered.count(a)) {
        ++a;
        continue;
      }
      uint64_t runStart = a;
      unsigned runInsns = 0;
      while (a < sec.end() && !covered.count(a)) {
        const decode::DecodedInsn* d = decoder.decodeAt(image, a);
        if (d == nullptr) break;
        a += d->lengthBytes;
        ++runInsns;
      }
      if (runInsns > 0) {
        cfg.report.add(mkFinding(
            LintCode::UnreachableBlock, runStart,
            formatStr("unreachable code: %u instruction(s) at "
                      "0x%llx..0x%llx are never reached from the entry "
                      "point",
                      runInsns, static_cast<unsigned long long>(runStart),
                      static_cast<unsigned long long>(a))));
      } else {
        ++a;  // undecodable byte: treat as data
      }
    }
  }

  return cfg;
}

LintReport lintImage(const adl::ArchModel& model, const loader::Image& image) {
  return std::move(recoverCfg(model, image).report);
}

}  // namespace adlsym::analysis
