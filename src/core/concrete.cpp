#include "core/concrete.h"

#include "core/testgen.h"
#include "smt/term.h"
#include "support/bits.h"

namespace adlsym::core {

using adl::rtl::Expr;
using adl::rtl::ExprOp;
using adl::rtl::Stmt;
using adl::rtl::StmtOp;

namespace {

smt::Kind exprOpToKind(ExprOp op) {
  using smt::Kind;
  switch (op) {
    case ExprOp::Add: return Kind::Add;
    case ExprOp::Sub: return Kind::Sub;
    case ExprOp::Mul: return Kind::Mul;
    case ExprOp::UDiv: return Kind::UDiv;
    case ExprOp::URem: return Kind::URem;
    case ExprOp::SDiv: return Kind::SDiv;
    case ExprOp::SRem: return Kind::SRem;
    case ExprOp::And: case ExprOp::LogicalAnd: return Kind::And;
    case ExprOp::Or: case ExprOp::LogicalOr: return Kind::Or;
    case ExprOp::Xor: return Kind::Xor;
    case ExprOp::Shl: return Kind::Shl;
    case ExprOp::LShr: return Kind::LShr;
    case ExprOp::AShr: return Kind::AShr;
    case ExprOp::Eq: return Kind::Eq;
    case ExprOp::Ult: return Kind::Ult;
    case ExprOp::Ule: return Kind::Ule;
    case ExprOp::Slt: return Kind::Slt;
    case ExprOp::Sle: return Kind::Sle;
    default: throw Error("exprOpToKind: not a direct binary op");
  }
}

}  // namespace

struct ConcreteRunner::Ctx {
  std::vector<uint64_t> regs;
  std::vector<uint64_t> regfile;
  std::unordered_map<uint64_t, uint8_t> memWrites;
  uint64_t pc = 0;
  const std::vector<uint64_t>* inputs = nullptr;
  size_t inputPos = 0;
  ConcreteResult result;

  // Per-instruction:
  const decode::DecodedInsn* d = nullptr;
  uint64_t insnAddr = 0;
  std::vector<uint64_t> lets;
  bool pcAssigned = false;
  uint64_t newPc = 0;
  bool stop = false;  // halt or defect inside semantics
};

namespace {

class Interp {
 public:
  Interp(const adl::ArchModel& model, const loader::Image& image,
         ConcreteRunner::Ctx& ctx)
      : model_(model), image_(image), ctx_(ctx) {}

  uint64_t eval(const Expr& e);
  void execBlock(const std::vector<adl::rtl::StmtPtr>& body);

 private:
  void defect(DefectKind kind) {
    ctx_.result.status = PathStatus::Defect;
    ctx_.result.defect = kind;
    ctx_.result.defectPc = ctx_.insnAddr;
    ctx_.stop = true;
  }

  uint8_t readByte(uint64_t addr, bool& ok) {
    if (auto it = ctx_.memWrites.find(addr); it != ctx_.memWrites.end()) {
      ok = true;
      return it->second;
    }
    if (auto b = image_.byteAt(addr)) {
      ok = true;
      return *b;
    }
    ok = false;
    return 0;
  }

  const adl::ArchModel& model_;
  const loader::Image& image_;
  ConcreteRunner::Ctx& ctx_;
};

uint64_t Interp::eval(const Expr& e) {
  if (ctx_.stop) return 0;
  switch (e.op) {
    case ExprOp::Const: return e.aux;
    case ExprOp::Field: return ctx_.d->operandValues[e.aux];
    case ExprOp::LetRef: return ctx_.lets[e.aux];
    case ExprOp::RegRead:
      if (e.aux == model_.pcIndex) return truncTo(ctx_.insnAddr, e.width);
      return ctx_.regs[e.aux];
    case ExprOp::RegFileRead: {
      const uint64_t idx = eval(*e.args[0]);
      if (idx >= ctx_.regfile.size()) {
        defect(DefectKind::IllegalInsn);
        return 0;
      }
      const auto& rf = *model_.regfile;
      if (rf.zeroReg && idx == *rf.zeroReg) return 0;
      return ctx_.regfile[idx];
    }
    case ExprOp::Load: {
      const uint64_t addr = eval(*e.args[0]);
      const unsigned size = static_cast<unsigned>(e.aux);
      uint64_t v = 0;
      for (unsigned i = 0; i < size && !ctx_.stop; ++i) {
        const uint64_t a = model_.endianLittle ? addr + i : addr + size - 1 - i;
        bool ok = false;
        const uint8_t b = readByte(a, ok);
        if (!ok) {
          defect(DefectKind::OobRead);
          return 0;
        }
        v |= static_cast<uint64_t>(b) << (8 * i);
      }
      return v;
    }
    case ExprOp::Input: {
      const uint64_t v = ctx_.inputPos < ctx_.inputs->size()
                             ? (*ctx_.inputs)[ctx_.inputPos]
                             : 0;
      ++ctx_.inputPos;
      return truncTo(v, e.width);
    }
    case ExprOp::Not: return truncTo(~eval(*e.args[0]), e.width);
    case ExprOp::Neg: return truncTo(0 - eval(*e.args[0]), e.width);
    case ExprOp::LogicalNot: return eval(*e.args[0]) ? 0 : 1;
    case ExprOp::Ne:
      return eval(*e.args[0]) != eval(*e.args[1]) ? 1 : 0;
    case ExprOp::Ugt: {
      const uint64_t a = eval(*e.args[0]);
      return a > eval(*e.args[1]) ? 1 : 0;
    }
    case ExprOp::Uge: {
      const uint64_t a = eval(*e.args[0]);
      return a >= eval(*e.args[1]) ? 1 : 0;
    }
    case ExprOp::Sgt: {
      const unsigned w = e.args[0]->width;
      const int64_t a = asSigned(eval(*e.args[0]), w);
      return a > asSigned(eval(*e.args[1]), w) ? 1 : 0;
    }
    case ExprOp::Sge: {
      const unsigned w = e.args[0]->width;
      const int64_t a = asSigned(eval(*e.args[0]), w);
      return a >= asSigned(eval(*e.args[1]), w) ? 1 : 0;
    }
    case ExprOp::UDiv: case ExprOp::URem:
    case ExprOp::SDiv: case ExprOp::SRem: {
      const uint64_t a = eval(*e.args[0]);
      const uint64_t b = eval(*e.args[1]);
      if (truncTo(b, e.width) == 0) {
        defect(DefectKind::DivByZero);
        return 0;
      }
      return smt::TermManager::evalOp(exprOpToKind(e.op), e.width, a, b);
    }
    case ExprOp::ZExt: return eval(*e.args[0]);
    case ExprOp::SExt:
      return truncTo(signExtend(eval(*e.args[0]), e.args[0]->width), e.width);
    case ExprOp::Trunc: return truncTo(eval(*e.args[0]), e.width);
    case ExprOp::Concat:
      return truncTo((eval(*e.args[0]) << e.args[1]->width) | eval(*e.args[1]),
                     e.width);
    case ExprOp::Extract:
      return bitSlice(eval(*e.args[0]), static_cast<unsigned>(e.aux >> 8),
                      static_cast<unsigned>(e.aux & 0xff));
    default: {
      // Remaining direct binary operators share evalOp. Comparison ops use
      // the operand width.
      const smt::Kind k = exprOpToKind(e.op);
      unsigned w = e.width;
      if (k == smt::Kind::Eq || k == smt::Kind::Ult || k == smt::Kind::Ule ||
          k == smt::Kind::Slt || k == smt::Kind::Sle) {
        w = e.args[0]->width;
      }
      const uint64_t a = eval(*e.args[0]);
      const uint64_t b = eval(*e.args[1]);
      return smt::TermManager::evalOp(k, w, a, b);
    }
  }
}

void Interp::execBlock(const std::vector<adl::rtl::StmtPtr>& body) {
  for (const auto& sp : body) {
    if (ctx_.stop) return;
    const Stmt& s = *sp;
    switch (s.op) {
      case StmtOp::AssignReg: {
        const uint64_t v = eval(*s.args[0]);
        if (ctx_.stop) return;
        if (s.aux == model_.pcIndex) {
          ctx_.pcAssigned = true;
          ctx_.newPc = v;
        } else {
          ctx_.regs[s.aux] = v;
        }
        break;
      }
      case StmtOp::AssignRegFile: {
        const uint64_t idx = eval(*s.args[0]);
        const uint64_t v = eval(*s.args[1]);
        if (ctx_.stop) return;
        if (idx >= ctx_.regfile.size()) {
          defect(DefectKind::IllegalInsn);
          return;
        }
        const auto& rf = *model_.regfile;
        if (rf.zeroReg && idx == *rf.zeroReg) break;
        ctx_.regfile[idx] = v;
        break;
      }
      case StmtOp::Let:
        ctx_.lets[s.aux] = eval(*s.args[0]);
        break;
      case StmtOp::Store: {
        const uint64_t addr = eval(*s.args[0]);
        const uint64_t v = eval(*s.args[1]);
        if (ctx_.stop) return;
        const unsigned size = static_cast<unsigned>(s.aux);
        // Bounds: whole access must fall in one writable section.
        const loader::Section* sec = image_.sectionAt(addr);
        if (sec == nullptr || !sec->writable || addr + size > sec->end()) {
          defect(DefectKind::OobWrite);
          return;
        }
        for (unsigned i = 0; i < size; ++i) {
          const unsigned shift =
              model_.endianLittle ? 8 * i : 8 * (size - 1 - i);
          ctx_.memWrites[addr + i] = static_cast<uint8_t>((v >> shift) & 0xff);
        }
        break;
      }
      case StmtOp::Output:
        ctx_.result.outputs.push_back(eval(*s.args[0]));
        break;
      case StmtOp::Halt:
        ctx_.result.exitCode = eval(*s.args[0]);
        ctx_.result.status = PathStatus::Exited;
        ctx_.stop = true;
        return;
      case StmtOp::AssertEq: {
        const uint64_t a = eval(*s.args[0]);
        const uint64_t b = eval(*s.args[1]);
        if (ctx_.stop) return;
        if (a != b) {
          defect(DefectKind::AssertFail);
          return;
        }
        break;
      }
      case StmtOp::Trap:
        defect(DefectKind::Trap);
        return;
      case StmtOp::If:
        if (eval(*s.args[0]) != 0) {
          execBlock(s.thenBody);
        } else {
          execBlock(s.elseBody);
        }
        if (ctx_.stop) return;
        break;
    }
  }
}

}  // namespace

ConcreteRunner::ConcreteRunner(const adl::ArchModel& model,
                               const loader::Image& image,
                               telemetry::Telemetry* telemetry)
    : model_(model), image_(image), decoder_(model), tel_(telemetry) {}

ConcreteResult ConcreteRunner::run(const std::vector<uint64_t>& inputs,
                                   uint64_t maxSteps) {
  Ctx ctx;
  ctx.inputs = &inputs;
  ctx.pc = image_.entry();
  ctx.regs.assign(model_.regs.size(), 0);
  if (model_.regfile) ctx.regfile.assign(model_.regfile->count, 0);

  Interp interp(model_, image_, ctx);
  telemetry::Counter* stepsCtr =
      tel_ ? &tel_->metrics().counter("run.steps") : nullptr;
  while (ctx.result.status == PathStatus::Running) {
    if (ctx.result.steps >= maxSteps) {
      ctx.result.status = PathStatus::Budget;
      break;
    }
    const decode::DecodedInsn* d = decoder_.decodeAt(image_, ctx.pc);
    if (d == nullptr) {
      ctx.result.status = PathStatus::Illegal;
      ctx.result.defect = DefectKind::IllegalInsn;
      ctx.result.defectPc = ctx.pc;
      break;
    }
    ctx.d = d;
    ctx.insnAddr = ctx.pc;
    ctx.lets.assign(d->insn->numLetSlots, 0);
    ctx.pcAssigned = false;
    ctx.stop = false;
    interp.execBlock(d->insn->semantics);
    ++ctx.result.steps;
    if (stepsCtr) stepsCtr->add();
    if (ctx.result.status != PathStatus::Running) break;
    const unsigned addrW = model_.regs[model_.pcIndex].width;
    ctx.pc = ctx.pcAssigned ? ctx.newPc
                            : truncTo(ctx.insnAddr + d->lengthBytes, addrW);
  }
  ctx.result.finalPc = ctx.pc;
  return ctx.result;
}

ConcreteResult ConcreteRunner::run(const TestCase& tc, uint64_t maxSteps) {
  std::vector<uint64_t> inputs;
  inputs.reserve(tc.inputs.size());
  for (const auto& v : tc.inputs) inputs.push_back(v.value);
  return run(inputs, maxSteps);
}

}  // namespace adlsym::core
