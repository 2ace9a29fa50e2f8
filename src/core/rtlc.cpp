// RTL-to-bytecode compiler and its two VMs (see rtlc.h for the design).
//
// Equivalence discipline: the symbolic VM makes exactly the same term-
// builder, checker and solver calls in exactly the same order as
// AdlExecutor::evalExpr/execStmts for every instruction, so path
// conditions, forks, defects, witnesses and tick counts are bit-identical.
// The only permitted divergence is the set of *leaf* constant terms
// interned (specialization folds decode-constants the walker materializes
// at runtime), which is observable solely through term-pool size — and the
// drivers never fuse or diff under the one governor (--mem-budget-mb) that
// reads it. rtlc_diff_test and insn_fuzz_test enforce the contract.
#include "core/rtlc.h"

#include <algorithm>

#include "support/bits.h"
#include "support/strings.h"

namespace adlsym::core {

using adl::rtl::Expr;
using adl::rtl::ExprOp;
using adl::rtl::Stmt;
using adl::rtl::StmtOp;
using rtlc::Op;
using rtlc::OpCode;
using rtlc::Program;

namespace {

// ------------------------------------------------------------ lowering --

class Compiler {
 public:
  Compiler(const adl::InsnInfo& insn, const adl::ArchModel& model)
      : model_(model) {
    prog_.numLetSlots = static_cast<uint16_t>(insn.numLetSlots);
    nextSlot_ = prog_.numLetSlots;
    lowerStmtList(insn.semantics);
    prog_.numSlots = nextSlot_;
    for (const Op& op : prog_.ops) {
      if (op.code == OpCode::Input) prog_.hasInput = true;
    }
  }

  Program take() { return std::move(prog_); }

 private:
  uint16_t newSlot() {
    check(nextSlot_ != UINT16_MAX, "rtlc: temp slot overflow");
    return nextSlot_++;
  }

  size_t emitOp(OpCode code) {
    Op op;
    op.code = code;
    prog_.ops.push_back(op);
    return prog_.ops.size() - 1;
  }

  Op& at(size_t i) { return prog_.ops[i]; }

  uint16_t unary(OpCode code, const Expr& e) {
    const uint16_t a = lowerExpr(*e.args[0]);
    const size_t i = emitOp(code);
    at(i).width = e.width;
    at(i).a = a;
    at(i).dst = newSlot();
    return at(i).dst;
  }

  /// Binary op; `width` defaults to the result width — comparisons pass
  /// the operand width instead (what evalOp needs).
  uint16_t binary(OpCode code, const Expr& e, uint8_t width) {
    const uint16_t a = lowerExpr(*e.args[0]);
    const uint16_t b = lowerExpr(*e.args[1]);
    const size_t i = emitOp(code);
    at(i).width = width;
    at(i).a = a;
    at(i).b = b;
    at(i).dst = newSlot();
    return at(i).dst;
  }

  /// Post-order: children first, one op per node — the same evaluation
  /// order as the walker's evalExpr recursion.
  uint16_t lowerExpr(const Expr& e) {
    switch (e.op) {
      case ExprOp::Const: {
        const size_t i = emitOp(OpCode::Const);
        at(i).width = e.width;
        at(i).imm = truncTo(e.aux, e.width);
        at(i).dst = newSlot();
        return at(i).dst;
      }
      case ExprOp::Field: {
        const size_t i = emitOp(OpCode::Field);
        at(i).width = e.width;
        at(i).imm = e.aux;
        at(i).dst = newSlot();
        return at(i).dst;
      }
      case ExprOp::LetRef: {
        const size_t i = emitOp(OpCode::CheckLet);
        at(i).a = static_cast<uint16_t>(e.aux);
        return static_cast<uint16_t>(e.aux);
      }
      case ExprOp::RegRead: {
        const size_t i =
            emitOp(e.aux == model_.pcIndex ? OpCode::PcRead : OpCode::RegRead);
        at(i).width = e.width;
        at(i).imm = e.aux;
        at(i).dst = newSlot();
        return at(i).dst;
      }
      case ExprOp::RegFileRead: {
        const size_t i = emitOp(OpCode::RegFileRead);
        at(i).width = e.width;
        at(i).idx = e.args[0].get();
        at(i).dst = newSlot();
        return at(i).dst;
      }
      case ExprOp::Load: {
        const uint16_t a = lowerExpr(*e.args[0]);
        const size_t i = emitOp(OpCode::Load);
        at(i).width = e.width;
        at(i).a = a;
        at(i).imm = e.aux;
        at(i).dst = newSlot();
        return at(i).dst;
      }
      case ExprOp::Input: {
        const size_t i = emitOp(OpCode::Input);
        at(i).width = e.width;
        at(i).dst = newSlot();
        return at(i).dst;
      }
      case ExprOp::Not: return unary(OpCode::Not, e);
      case ExprOp::Neg: return unary(OpCode::Neg, e);
      // The walker maps LogicalNot to mkNot as well (bitwise on width 1).
      case ExprOp::LogicalNot: return unary(OpCode::Not, e);
      case ExprOp::Add: return binary(OpCode::Add, e, e.width);
      case ExprOp::Sub: return binary(OpCode::Sub, e, e.width);
      case ExprOp::Mul: return binary(OpCode::Mul, e, e.width);
      case ExprOp::UDiv: return binary(OpCode::UDiv, e, e.width);
      case ExprOp::URem: return binary(OpCode::URem, e, e.width);
      case ExprOp::SDiv: return binary(OpCode::SDiv, e, e.width);
      case ExprOp::SRem: return binary(OpCode::SRem, e, e.width);
      case ExprOp::And: return binary(OpCode::And, e, e.width);
      case ExprOp::Or: return binary(OpCode::Or, e, e.width);
      case ExprOp::Xor: return binary(OpCode::Xor, e, e.width);
      case ExprOp::Shl: return binary(OpCode::Shl, e, e.width);
      case ExprOp::LShr: return binary(OpCode::LShr, e, e.width);
      case ExprOp::AShr: return binary(OpCode::AShr, e, e.width);
      case ExprOp::LogicalAnd: return binary(OpCode::And, e, e.width);
      case ExprOp::LogicalOr: return binary(OpCode::Or, e, e.width);
      case ExprOp::Eq: return binary(OpCode::Eq, e, e.args[0]->width);
      case ExprOp::Ne: return binary(OpCode::Ne, e, e.args[0]->width);
      case ExprOp::Ult: return binary(OpCode::Ult, e, e.args[0]->width);
      case ExprOp::Ule: return binary(OpCode::Ule, e, e.args[0]->width);
      case ExprOp::Ugt: return binary(OpCode::Ugt, e, e.args[0]->width);
      case ExprOp::Uge: return binary(OpCode::Uge, e, e.args[0]->width);
      case ExprOp::Slt: return binary(OpCode::Slt, e, e.args[0]->width);
      case ExprOp::Sle: return binary(OpCode::Sle, e, e.args[0]->width);
      case ExprOp::Sgt: return binary(OpCode::Sgt, e, e.args[0]->width);
      case ExprOp::Sge: return binary(OpCode::Sge, e, e.args[0]->width);
      case ExprOp::ZExt: return unary(OpCode::ZExt, e);
      case ExprOp::SExt: {
        const uint16_t s = unary(OpCode::SExt, e);
        prog_.ops.back().imm = e.args[0]->width;  // fold needs source width
        return s;
      }
      case ExprOp::Trunc: return unary(OpCode::Trunc, e);
      case ExprOp::Concat: {
        const uint16_t s = binary(OpCode::Concat, e, e.width);
        prog_.ops.back().imm = e.args[1]->width;  // fold needs low width
        return s;
      }
      case ExprOp::Extract: {
        const uint16_t s = unary(OpCode::Extract, e);
        prog_.ops.back().imm = e.aux;
        return s;
      }
    }
    throw Error("unreachable rtl expr op");
  }

  void lowerStmt(const Stmt& s) {
    switch (s.op) {
      case StmtOp::AssignReg: {
        const uint16_t a = lowerExpr(*s.args[0]);
        const size_t i = emitOp(s.aux == model_.pcIndex ? OpCode::AssignPc
                                                        : OpCode::AssignReg);
        at(i).a = a;
        at(i).imm = s.aux;
        break;
      }
      case StmtOp::AssignRegFile: {
        // The index is decode-concrete and effect-free, so resolving it at
        // specialize time (before the RHS runs) matches the walker, which
        // computes it first but validates it only after the RHS.
        const uint16_t a = lowerExpr(*s.args[1]);
        const size_t i = emitOp(OpCode::AssignRegFile);
        at(i).a = a;
        at(i).idx = s.args[0].get();
        break;
      }
      case StmtOp::Let: {
        const uint16_t a = lowerExpr(*s.args[0]);
        const size_t i = emitOp(OpCode::Copy);
        at(i).a = a;
        at(i).dst = static_cast<uint16_t>(s.aux);
        break;
      }
      case StmtOp::Store: {
        const uint16_t a = lowerExpr(*s.args[0]);
        const uint16_t b = lowerExpr(*s.args[1]);
        const size_t i = emitOp(OpCode::Store);
        at(i).a = a;
        at(i).b = b;
        at(i).imm = s.aux;
        break;
      }
      case StmtOp::Output: {
        const uint16_t a = lowerExpr(*s.args[0]);
        const size_t i = emitOp(OpCode::Output);
        at(i).a = a;
        at(i).width = s.args[0]->width;
        break;
      }
      case StmtOp::Halt: {
        const uint16_t a = lowerExpr(*s.args[0]);
        const size_t i = emitOp(OpCode::Halt);
        at(i).a = a;
        at(i).width = s.args[0]->width;
        break;
      }
      case StmtOp::AssertEq: {
        const uint16_t a = lowerExpr(*s.args[0]);
        const uint16_t b = lowerExpr(*s.args[1]);
        const size_t i = emitOp(OpCode::AssertEq);
        at(i).a = a;
        at(i).b = b;
        break;
      }
      case StmtOp::Trap: {
        const size_t i = emitOp(OpCode::Trap);
        at(i).imm = s.aux;
        break;
      }
      case StmtOp::If: {
        // Layout: [cond ops, BrFalse ->else, then..., Jmp ->end, else...].
        const uint16_t a = lowerExpr(*s.args[0]);
        const size_t br = emitOp(OpCode::BrFalse);
        at(br).a = a;
        lowerStmtList(s.thenBody);
        if (!s.elseBody.empty()) {
          const size_t j = emitOp(OpCode::Jmp);
          at(br).t = static_cast<uint32_t>(prog_.ops.size());
          lowerStmtList(s.elseBody);
          at(j).t = static_cast<uint32_t>(prog_.ops.size());
        } else {
          at(br).t = static_cast<uint32_t>(prog_.ops.size());
        }
        break;
      }
    }
  }

  void lowerStmtList(const std::vector<adl::rtl::StmtPtr>& list) {
    for (const auto& s : list) {
      const size_t mark = prog_.ops.size();
      lowerStmt(*s);
      // Every statement emits at least one op; the first carries the tick
      // marker (the walker ticks at statement start, before any eval).
      prog_.ops[mark].stmt = s.get();
    }
  }

  const adl::ArchModel& model_;
  Program prog_;
  uint16_t nextSlot_ = 0;
};

// ------------------------------------------------------------- folding --

bool isDivRem(OpCode c) {
  return c == OpCode::UDiv || c == OpCode::URem || c == OpCode::SDiv ||
         c == OpCode::SRem;
}

/// Pure producers the fold pass may evaluate. Excludes Load (memory),
/// Input, reg reads, and Copy/CheckLet (let slots never fold).
bool isFoldable(OpCode c) {
  switch (c) {
    case OpCode::Not: case OpCode::Neg:
    case OpCode::Add: case OpCode::Sub: case OpCode::Mul:
    case OpCode::And: case OpCode::Or: case OpCode::Xor:
    case OpCode::Shl: case OpCode::LShr: case OpCode::AShr:
    case OpCode::UDiv: case OpCode::URem:
    case OpCode::SDiv: case OpCode::SRem:
    case OpCode::Eq: case OpCode::Ne:
    case OpCode::Ult: case OpCode::Ule: case OpCode::Ugt: case OpCode::Uge:
    case OpCode::Slt: case OpCode::Sle: case OpCode::Sgt: case OpCode::Sge:
    case OpCode::ZExt: case OpCode::SExt: case OpCode::Trunc:
    case OpCode::Concat: case OpCode::Extract:
      return true;
    default:
      return false;
  }
}

bool isUnaryProducer(OpCode c) {
  switch (c) {
    case OpCode::Not: case OpCode::Neg:
    case OpCode::ZExt: case OpCode::SExt: case OpCode::Trunc:
    case OpCode::Extract:
      return true;
    default:
      return false;
  }
}

/// Concrete evaluation of a pure producer, matching the term builders'
/// constant folds bit for bit (smt/builder.cpp + TermManager::evalOp).
uint64_t foldValue(const Op& op, uint64_t va, uint64_t vb) {
  using smt::Kind;
  using smt::TermManager;
  const unsigned w = op.width;
  switch (op.code) {
    case OpCode::Not: return TermManager::evalOp(Kind::Not, w, va, 0);
    case OpCode::Neg: return TermManager::evalOp(Kind::Neg, w, va, 0);
    case OpCode::Add: return TermManager::evalOp(Kind::Add, w, va, vb);
    case OpCode::Sub: return TermManager::evalOp(Kind::Sub, w, va, vb);
    case OpCode::Mul: return TermManager::evalOp(Kind::Mul, w, va, vb);
    case OpCode::And: return TermManager::evalOp(Kind::And, w, va, vb);
    case OpCode::Or: return TermManager::evalOp(Kind::Or, w, va, vb);
    case OpCode::Xor: return TermManager::evalOp(Kind::Xor, w, va, vb);
    case OpCode::Shl: return TermManager::evalOp(Kind::Shl, w, va, vb);
    case OpCode::LShr: return TermManager::evalOp(Kind::LShr, w, va, vb);
    case OpCode::AShr: return TermManager::evalOp(Kind::AShr, w, va, vb);
    case OpCode::UDiv: return TermManager::evalOp(Kind::UDiv, w, va, vb);
    case OpCode::URem: return TermManager::evalOp(Kind::URem, w, va, vb);
    case OpCode::SDiv: return TermManager::evalOp(Kind::SDiv, w, va, vb);
    case OpCode::SRem: return TermManager::evalOp(Kind::SRem, w, va, vb);
    // Comparisons: op.width is the operand width; result is 1 bit. The
    // derived forms mirror the mkNe/mkUgt/... builder definitions.
    case OpCode::Eq: return TermManager::evalOp(Kind::Eq, w, va, vb);
    case OpCode::Ne: return TermManager::evalOp(Kind::Eq, w, va, vb) ^ 1;
    case OpCode::Ult: return TermManager::evalOp(Kind::Ult, w, va, vb);
    case OpCode::Ule: return TermManager::evalOp(Kind::Ule, w, va, vb);
    case OpCode::Ugt: return TermManager::evalOp(Kind::Ult, w, vb, va);
    case OpCode::Uge: return TermManager::evalOp(Kind::Ule, w, vb, va);
    case OpCode::Slt: return TermManager::evalOp(Kind::Slt, w, va, vb);
    case OpCode::Sle: return TermManager::evalOp(Kind::Sle, w, va, vb);
    case OpCode::Sgt: return TermManager::evalOp(Kind::Slt, w, vb, va);
    case OpCode::Sge: return TermManager::evalOp(Kind::Sle, w, vb, va);
    case OpCode::ZExt: return va;
    case OpCode::SExt:
      return truncTo(signExtend(va, static_cast<unsigned>(op.imm)), w);
    case OpCode::Trunc: return truncTo(va, w);
    case OpCode::Concat:
      return truncTo((va << op.imm) | vb, w);
    case OpCode::Extract:
      return bitSlice(va, static_cast<unsigned>(op.imm >> 8),
                      static_cast<unsigned>(op.imm & 0xff));
    default:
      throw Error("rtlc: foldValue on non-foldable op");
  }
}

/// Operand slots read by an op at runtime (liveness). Dead (folded) ops
/// read nothing.
int readSlots(const Op& op, uint16_t s[2]) {
  switch (op.code) {
    case OpCode::Not: case OpCode::Neg:
    case OpCode::ZExt: case OpCode::SExt: case OpCode::Trunc:
    case OpCode::Extract: case OpCode::Load: case OpCode::Copy:
    case OpCode::CheckLet: case OpCode::AssignReg: case OpCode::AssignPc:
    case OpCode::AssignRegFile: case OpCode::Output: case OpCode::Halt:
    case OpCode::BrFalse:
      s[0] = op.a;
      return 1;
    case OpCode::Add: case OpCode::Sub: case OpCode::Mul:
    case OpCode::And: case OpCode::Or: case OpCode::Xor:
    case OpCode::Shl: case OpCode::LShr: case OpCode::AShr:
    case OpCode::UDiv: case OpCode::URem:
    case OpCode::SDiv: case OpCode::SRem:
    case OpCode::Eq: case OpCode::Ne:
    case OpCode::Ult: case OpCode::Ule: case OpCode::Ugt: case OpCode::Uge:
    case OpCode::Slt: case OpCode::Sle: case OpCode::Sgt: case OpCode::Sge:
    case OpCode::Concat: case OpCode::Store: case OpCode::AssertEq:
      s[0] = op.a;
      s[1] = op.b;
      return 2;
    default:
      return 0;
  }
}

}  // namespace

namespace rtlc {

Program compile(const adl::InsnInfo& insn, const adl::ArchModel& model) {
  return Compiler(insn, model).take();
}

Program specialize(const Program& generic, const decode::DecodedInsn& d,
                   uint64_t insnAddr, const adl::ArchModel& model) {
  Program p = generic;
  const uint64_t rfCount = model.regfile ? model.regfile->count : 0;
  // The hard-wired zero register's index; rfCount (no register) if none.
  const uint64_t zeroReg = model.regfile && model.regfile->zeroReg
                               ? *model.regfile->zeroReg
                               : rfCount;

  // Phase A: bind decode-dependent leaves. zeroReg regfile reads become
  // the constant 0 (the walker materializes the same constant at runtime);
  // zeroReg writes become Nops — the RHS still evaluates, its value is
  // dropped, exactly like writeRegFile. Out-of-range indices (encodable
  // but invalid) become defect ops at the walker's exact check position:
  // reads fail during expression evaluation, writes only after the RHS.
  for (Op& op : p.ops) {
    switch (op.code) {
      case OpCode::Field:
        op.code = OpCode::Const;
        op.imm = truncTo(d.operandValues[op.imm], op.width);
        break;
      case OpCode::PcRead:
        op.code = OpCode::Const;
        op.imm = truncTo(insnAddr, op.width);
        break;
      case OpCode::RegFileRead: {
        const uint64_t idx = evalConcrete(*op.idx, d);
        op.idx = nullptr;
        if (idx >= rfCount) {
          op.code = OpCode::RegIndexDefect;
          op.imm = idx;
        } else if (idx == zeroReg) {
          op.code = OpCode::Const;
          op.imm = 0;
        } else {
          op.imm = idx;
        }
        break;
      }
      case OpCode::AssignRegFile: {
        const uint64_t idx = evalConcrete(*op.idx, d);
        op.idx = nullptr;
        if (idx >= rfCount) {
          op.code = OpCode::RegIndexDefect;
          op.imm = idx;
        } else if (idx == zeroReg) {
          op.code = OpCode::Nop;
        } else {
          op.imm = idx;
        }
        break;
      }
      default:
        break;
    }
  }

  // Phase B: forward constant folding. Temps are SSA (one producer each,
  // no reads across statements), so const facts survive control flow and
  // no invalidation is needed. Let slots never fold (Copy/CheckLet are
  // opaque). Div/rem fold only for a nonzero constant divisor — a zero
  // divisor keeps its ops so the runtime guard fires the defect in the
  // walker's order.
  const size_t n = p.ops.size();
  std::vector<uint8_t> known(p.numSlots, 0);
  std::vector<uint64_t> cval(p.numSlots, 0);
  std::vector<int32_t> producer(p.numSlots, -1);
  std::vector<uint8_t> dead(n, 0);
  for (size_t i = 0; i < n; ++i) {
    Op& op = p.ops[i];
    if (op.code == OpCode::Const) {
      known[op.dst] = 1;
      cval[op.dst] = op.imm;
      producer[op.dst] = static_cast<int32_t>(i);
      dead[i] = 1;
      continue;
    }
    if (isFoldable(op.code)) {
      const bool un = isUnaryProducer(op.code);
      if (!known[op.a] || (!un && !known[op.b])) continue;
      if (isDivRem(op.code) && cval[op.b] == 0) continue;
      const uint64_t v = foldValue(op, cval[op.a], un ? 0 : cval[op.b]);
      op.code = OpCode::Const;  // keeps dst/width/stmt; revivable
      op.imm = v;
      known[op.dst] = 1;
      cval[op.dst] = v;
      producer[op.dst] = static_cast<int32_t>(i);
      dead[i] = 1;
      continue;
    }
    if (op.code == OpCode::BrFalse && known[op.a]) {
      // Decode-constant condition: pick the arm statically. Nop falls
      // through into the then arm; Jmp skips to the else target. Either
      // keeps the If's tick marker alive.
      op.code = cval[op.a] != 0 ? OpCode::Nop : OpCode::Jmp;
    }
  }

  // Liveness: revive folded constants some surviving op still reads (they
  // stayed in place as Const ops). Revived consts read nothing, so one
  // forward pass suffices.
  for (size_t i = 0; i < n; ++i) {
    if (dead[i]) continue;
    uint16_t s[2];
    const int k = readSlots(p.ops[i], s);
    for (int j = 0; j < k; ++j) {
      const int32_t pr = producer[s[j]];
      if (pr >= 0) dead[static_cast<size_t>(pr)] = 0;
    }
  }

  // Phase C: compact. Branch targets remap to the first surviving op at or
  // after the old target; a deleted statement-head's tick marker migrates
  // forward to the statement's first surviving op (the statement terminal
  // never dies, so markers cannot cross statements).
  std::vector<uint32_t> remap(n + 1, 0);
  uint32_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    remap[i] = kept;
    if (!dead[i]) ++kept;
  }
  remap[n] = kept;
  std::vector<Op> out;
  out.reserve(kept);
  const Stmt* pending = nullptr;
  for (size_t i = 0; i < n; ++i) {
    Op op = p.ops[i];
    if (op.stmt != nullptr && pending == nullptr) pending = op.stmt;
    if (dead[i]) continue;
    if (pending != nullptr) {
      op.stmt = pending;
      pending = nullptr;
    }
    if (op.code == OpCode::BrFalse || op.code == OpCode::Jmp) {
      op.t = remap[op.t];
    }
    out.push_back(op);
  }
  check(pending == nullptr, "rtlc: statement marker lost in folding");
  p.ops = std::move(out);
  return p;
}

}  // namespace rtlc

// ------------------------------------------------------------ executor --

BytecodeExecutor::BytecodeExecutor(const adl::ArchModel& model,
                                   EngineServices& services)
    : AdlExecutorBase(model, services) {
  generic_.reserve(model_.insns.size());
  for (const adl::InsnInfo& insn : model_.insns) {
    generic_.push_back(rtlc::compile(insn, model_));
  }
}

const rtlc::Program& BytecodeExecutor::programFor(
    uint64_t pc, const decode::DecodedInsn* d) {
  auto it = spec_.find(pc);
  if (it != spec_.end()) return it->second;
  const size_t insnIdx = static_cast<size_t>(d->insn - model_.insns.data());
  rtlc::Program p = rtlc::specialize(generic_[insnIdx], *d, pc, model_);
  return spec_.emplace(pc, std::move(p)).first->second;
}

void BytecodeExecutor::exec(MachineState&& st, SymFrame& fr, size_t ip,
                            StepOut& out) {
  smt::TermManager& tm = svc_.tm;
  const std::vector<Op>& ops = fr.prog->ops;
  while (ip < ops.size()) {
    const Op& op = ops[ip];
    if (op.stmt != nullptr) tick(op.stmt, out);
    switch (op.code) {
      case OpCode::Const:
        fr.slots[op.dst] = tm.mkConst(op.width, op.imm);
        break;
      case OpCode::RegRead:
        fr.slots[op.dst] = st.regs[op.imm];
        break;
      case OpCode::RegFileRead:
        fr.slots[op.dst] = st.regfile[op.imm];
        break;
      case OpCode::RegIndexDefect:
        emitDefect(std::move(st), out, DefectKind::IllegalInsn, fr.site,
                   formatStr("register index %llu out of range",
                             static_cast<unsigned long long>(op.imm)));
        return;
      case OpCode::CheckLet:
        check(fr.slots[op.a].valid(), "let slot read before assignment");
        break;
      case OpCode::Copy:
        fr.slots[op.dst] = fr.slots[op.a];
        break;
      case OpCode::Load: {
        const smt::TermRef v =
            checkedLoad(svc_, st, out, fr.slots[op.a],
                        static_cast<unsigned>(op.imm), !model_.endianLittle,
                        fr.site);
        if (!v.valid()) return;
        fr.slots[op.dst] = v;
        break;
      }
      case OpCode::Input:
        fr.slots[op.dst] = svc_.newInput(st, op.width);
        break;
      case OpCode::Not:
        fr.slots[op.dst] = tm.mkNot(fr.slots[op.a]);
        break;
      case OpCode::Neg:
        fr.slots[op.dst] = tm.mkNeg(fr.slots[op.a]);
        break;
      case OpCode::Add:
        fr.slots[op.dst] = tm.mkAdd(fr.slots[op.a], fr.slots[op.b]);
        break;
      case OpCode::Sub:
        fr.slots[op.dst] = tm.mkSub(fr.slots[op.a], fr.slots[op.b]);
        break;
      case OpCode::Mul:
        fr.slots[op.dst] = tm.mkMul(fr.slots[op.a], fr.slots[op.b]);
        break;
      case OpCode::And:
        fr.slots[op.dst] = tm.mkAnd(fr.slots[op.a], fr.slots[op.b]);
        break;
      case OpCode::Or:
        fr.slots[op.dst] = tm.mkOr(fr.slots[op.a], fr.slots[op.b]);
        break;
      case OpCode::Xor:
        fr.slots[op.dst] = tm.mkXor(fr.slots[op.a], fr.slots[op.b]);
        break;
      case OpCode::Shl:
        fr.slots[op.dst] = tm.mkShl(fr.slots[op.a], fr.slots[op.b]);
        break;
      case OpCode::LShr:
        fr.slots[op.dst] = tm.mkLShr(fr.slots[op.a], fr.slots[op.b]);
        break;
      case OpCode::AShr:
        fr.slots[op.dst] = tm.mkAShr(fr.slots[op.a], fr.slots[op.b]);
        break;
      case OpCode::UDiv:
      case OpCode::URem:
      case OpCode::SDiv:
      case OpCode::SRem: {
        const smt::TermRef a = fr.slots[op.a];
        const smt::TermRef b = fr.slots[op.b];
        if (!guardDivisor(svc_, st, out, b, fr.site)) return;
        switch (op.code) {
          case OpCode::UDiv: fr.slots[op.dst] = tm.mkUDiv(a, b); break;
          case OpCode::URem: fr.slots[op.dst] = tm.mkURem(a, b); break;
          case OpCode::SDiv: fr.slots[op.dst] = tm.mkSDiv(a, b); break;
          default: fr.slots[op.dst] = tm.mkSRem(a, b); break;
        }
        break;
      }
      case OpCode::Eq:
        fr.slots[op.dst] = tm.mkEq(fr.slots[op.a], fr.slots[op.b]);
        break;
      case OpCode::Ne:
        fr.slots[op.dst] = tm.mkNe(fr.slots[op.a], fr.slots[op.b]);
        break;
      case OpCode::Ult:
        fr.slots[op.dst] = tm.mkUlt(fr.slots[op.a], fr.slots[op.b]);
        break;
      case OpCode::Ule:
        fr.slots[op.dst] = tm.mkUle(fr.slots[op.a], fr.slots[op.b]);
        break;
      case OpCode::Ugt:
        fr.slots[op.dst] = tm.mkUgt(fr.slots[op.a], fr.slots[op.b]);
        break;
      case OpCode::Uge:
        fr.slots[op.dst] = tm.mkUge(fr.slots[op.a], fr.slots[op.b]);
        break;
      case OpCode::Slt:
        fr.slots[op.dst] = tm.mkSlt(fr.slots[op.a], fr.slots[op.b]);
        break;
      case OpCode::Sle:
        fr.slots[op.dst] = tm.mkSle(fr.slots[op.a], fr.slots[op.b]);
        break;
      case OpCode::Sgt:
        fr.slots[op.dst] = tm.mkSgt(fr.slots[op.a], fr.slots[op.b]);
        break;
      case OpCode::Sge:
        fr.slots[op.dst] = tm.mkSge(fr.slots[op.a], fr.slots[op.b]);
        break;
      case OpCode::ZExt:
        fr.slots[op.dst] = tm.mkZExt(fr.slots[op.a], op.width);
        break;
      case OpCode::SExt:
        fr.slots[op.dst] = tm.mkSExt(fr.slots[op.a], op.width);
        break;
      case OpCode::Trunc:
        fr.slots[op.dst] = tm.mkExtract(fr.slots[op.a], op.width - 1, 0);
        break;
      case OpCode::Concat:
        fr.slots[op.dst] = tm.mkConcat(fr.slots[op.a], fr.slots[op.b]);
        break;
      case OpCode::Extract:
        fr.slots[op.dst] =
            tm.mkExtract(fr.slots[op.a], static_cast<unsigned>(op.imm >> 8),
                         static_cast<unsigned>(op.imm & 0xff));
        break;
      case OpCode::AssignReg:
        st.regs[op.imm] = fr.slots[op.a];
        break;
      case OpCode::AssignPc:
        fr.newPc = fr.slots[op.a];
        break;
      case OpCode::AssignRegFile:
        st.regfile[op.imm] = fr.slots[op.a];
        break;
      case OpCode::Store:
        if (!checkedStore(svc_, st, out, fr.slots[op.a], fr.slots[op.b],
                          static_cast<unsigned>(op.imm), !model_.endianLittle,
                          fr.site)) {
          return;
        }
        break;
      case OpCode::Output:
        st.outputs.push_back(OutputRecord{fr.slots[op.a], fr.insnAddr});
        break;
      case OpCode::Halt:
        st.status = PathStatus::Exited;
        st.exitCode = fr.slots[op.a];
        ++st.steps;
        out.successors.push_back(std::move(st));
        return;
      case OpCode::AssertEq:
        if (!guardAssertEq(svc_, st, out, fr.slots[op.a], fr.slots[op.b],
                           fr.site)) {
          return;
        }
        break;
      case OpCode::Trap:
        emitDefect(std::move(st), out, DefectKind::Trap, fr.site,
                   formatStr("trap(%llu) reached",
                             static_cast<unsigned long long>(op.imm)),
                   {}, op.imm);
        return;
      case OpCode::Jmp:
        ip = op.t;
        continue;
      case OpCode::Nop:
        break;
      case OpCode::BrFalse: {
        const smt::TermRef cond = fr.slots[op.a];
        if (cond.isConst()) {
          // A runtime-constant condition (e.g. two equal registers): pick
          // the arm without forking, like the walker's isConst path.
          if (cond.constValue() != 0) break;
          ip = op.t;
          continue;
        }
        auto [thenSide, elseSide] = svc_.branch(st, cond);
        if (thenSide.feasible && elseSide.feasible) {
          MachineState other = st;
          EngineServices::enter(other, std::move(elseSide));
          ++other.forks;
          SymFrame otherFr = fr;
          exec(std::move(other), otherFr, op.t, out);  // else arm first
          EngineServices::enter(st, std::move(thenSide));
          ++st.forks;
          break;  // fall through into the then arm
        }
        if (thenSide.feasible) {
          EngineServices::enter(st, std::move(thenSide));
          break;
        }
        if (elseSide.feasible) {
          EngineServices::enter(st, std::move(elseSide));
          ip = op.t;
          continue;
        }
        return;  // both sides infeasible: path dies silently
      }
      case OpCode::PcRead:
      case OpCode::Field:
        throw Error("rtlc: unspecialized op reached the VM");
    }
    ++ip;
  }
  finishInsn(std::move(st), fr, out);
}

void BytecodeExecutor::execInsn(MachineState&& st, InsnFrame f,
                                StepOut& out) {
  const rtlc::Program& prog = programFor(f.insnAddr, f.d);
  slots_.assign(prog.numSlots, smt::TermRef());
  SymFrame fr{std::move(f), &prog, std::move(slots_)};
  exec(std::move(st), fr, 0, out);
  slots_ = std::move(fr.slots);
}

void BytecodeExecutor::stepMany(MachineState&& in, StepOut& out,
                                uint64_t fuel) {
  // Self-gate: fuse only when nothing can observe intermediate steps.
  // Telemetry counts per-step metrics and profiling attributes per-
  // statement hits; the explorers additionally gate on observers, fault
  // arming and governor budgets before offering fuel > 1. A superblock
  // needs every register concrete.
  auto concrete = [](const std::vector<smt::TermRef>& rs) {
    return std::all_of(rs.begin(), rs.end(),
                       [](smt::TermRef r) { return r.isConst(); });
  };
  if (fuel <= 1 || svc_.telemetry != nullptr || rtlProf_ != nullptr ||
      !concrete(in.regs) || !concrete(in.regfile)) {
    stepOne(std::move(in), out);
    return;
  }
  runSuperblock(std::move(in), out, fuel);
}

void BytecodeExecutor::runSuperblock(MachineState&& in, StepOut& out,
                                     uint64_t fuel) {
  smt::TermManager& tm = svc_.tm;
  const bool little = model_.endianLittle;
  FuseScratch& fs = fuse_;
  using COut = FuseScratch::COut;
  using RegUndo = FuseScratch::RegUndo;

  // Concrete machine image.
  std::vector<uint64_t>& regs = fs.regs;
  regs.clear();
  for (const smt::TermRef& r : in.regs) regs.push_back(r.constValue());
  std::vector<uint64_t>& regfile = fs.regfile;
  regfile.clear();
  for (const smt::TermRef& r : in.regfile) regfile.push_back(r.constValue());
  uint64_t pc = in.pc;

  // Committed effects of retired instructions.
  std::vector<std::pair<uint64_t, uint8_t>>& writeLog = fs.writeLog;
  std::unordered_map<uint64_t, uint8_t>& memView = fs.memView;
  std::vector<COut>& outputs = fs.outputs;
  writeLog.clear();
  memView.clear();
  outputs.clear();
  uint64_t ticks = 0;
  uint64_t retired = 0;
  std::vector<uint64_t>& fusedPcs = out.fusedPcs;

  // Per-instruction scratch. The undo log holds the current instruction's
  // register writes: a bail must discard ALL of its effects (e.g. a stack
  // machine bumps sp before its faulting store), since the symbolic
  // re-execution replays the whole instruction from its entry state.
  std::vector<uint64_t>& slots = fs.slots;
  std::vector<uint8_t>& letOk = fs.letOk;
  std::vector<std::pair<uint64_t, uint8_t>>& pend = fs.pend;
  std::vector<COut>& pendOut = fs.pendOut;
  std::vector<RegUndo>& regUndo = fs.regUndo;

  // Concrete byte read: pending writes shadow committed writes shadow the
  // incoming state's memory. A symbolic or unmapped byte bails.
  auto readByteC = [&](uint64_t a, uint64_t& v) -> bool {
    for (auto it = pend.rbegin(); it != pend.rend(); ++it) {
      if (it->first == a) {
        v = it->second;
        return true;
      }
    }
    if (auto it = memView.find(a); it != memView.end()) {
      v = it->second;
      return true;
    }
    const smt::TermRef byte = in.memory.readByte(tm, a);
    if (!byte.valid() || !byte.isConst()) return false;
    v = byte.constValue();
    return true;
  };
  auto inBounds = [&](uint64_t addr, unsigned size, bool forWrite) -> bool {
    const loader::Section* s = svc_.image.sectionAt(addr);
    if (s == nullptr || (forWrite && !s->writable)) return false;
    return addr + size <= s->end() && addr + size > addr;
  };

  bool bailed = false;
  bool halted = false;
  uint64_t exitVal = 0;
  uint8_t exitW = 0;

  while (retired < fuel) {
    const decode::DecodedInsn* d = decoder_.decodeAt(svc_.image, pc);
    if (d == nullptr) {
      bailed = true;
      break;
    }
    const rtlc::Program& p = programFor(pc, d);
    if (p.hasInput) {
      bailed = true;
      break;
    }
    pend.clear();
    pendOut.clear();
    regUndo.clear();
    slots.assign(p.numSlots, 0);
    letOk.assign(p.numLetSlots, 0);
    uint64_t insnTicks = 0;
    bool haveNewPc = false;
    uint64_t newPc = 0;
    bool bail = false;
    bool halt = false;
    size_t ip = 0;
    const size_t nOps = p.ops.size();
    while (ip < nOps && !bail && !halt) {
      const Op& op = p.ops[ip];
      if (op.stmt != nullptr) ++insnTicks;
      switch (op.code) {
        case OpCode::Const: slots[op.dst] = op.imm; break;
        case OpCode::RegRead: slots[op.dst] = regs[op.imm]; break;
        case OpCode::RegFileRead: slots[op.dst] = regfile[op.imm]; break;
        case OpCode::RegIndexDefect: bail = true; break;
        case OpCode::CheckLet:
          if (!letOk[op.a]) bail = true;
          break;
        case OpCode::Copy:
          slots[op.dst] = slots[op.a];
          letOk[op.dst] = 1;
          break;
        case OpCode::Load: {
          const uint64_t addr = slots[op.a];
          const unsigned size = static_cast<unsigned>(op.imm);
          if (!inBounds(addr, size, false)) {
            bail = true;
            break;
          }
          uint64_t v = 0;
          for (unsigned i = 0; i < size && !bail; ++i) {
            const uint64_t a = little ? addr + i : addr + size - 1 - i;
            uint64_t b = 0;
            if (!readByteC(a, b)) {
              bail = true;
              break;
            }
            v |= b << (8 * i);
          }
          if (!bail) slots[op.dst] = v;
          break;
        }
        case OpCode::Input: bail = true; break;  // statically gated anyway
        case OpCode::UDiv:
        case OpCode::URem:
        case OpCode::SDiv:
        case OpCode::SRem:
          if (slots[op.b] == 0) {
            bail = true;  // the symbolic guard owns this case
            break;
          }
          slots[op.dst] = foldValue(op, slots[op.a], slots[op.b]);
          break;
        case OpCode::Not: case OpCode::Neg:
        case OpCode::Add: case OpCode::Sub: case OpCode::Mul:
        case OpCode::And: case OpCode::Or: case OpCode::Xor:
        case OpCode::Shl: case OpCode::LShr: case OpCode::AShr:
        case OpCode::Eq: case OpCode::Ne:
        case OpCode::Ult: case OpCode::Ule:
        case OpCode::Ugt: case OpCode::Uge:
        case OpCode::Slt: case OpCode::Sle:
        case OpCode::Sgt: case OpCode::Sge:
        case OpCode::ZExt: case OpCode::SExt: case OpCode::Trunc:
        case OpCode::Concat: case OpCode::Extract:
          slots[op.dst] = foldValue(op, slots[op.a], slots[op.b]);
          break;
        case OpCode::AssignReg:
          regUndo.push_back(RegUndo{false, static_cast<uint16_t>(op.imm),
                                    regs[op.imm]});
          regs[op.imm] = slots[op.a];
          break;
        case OpCode::AssignPc:
          haveNewPc = true;
          newPc = slots[op.a];
          break;
        case OpCode::AssignRegFile:
          regUndo.push_back(RegUndo{true, static_cast<uint16_t>(op.imm),
                                    regfile[op.imm]});
          regfile[op.imm] = slots[op.a];
          break;
        case OpCode::Store: {
          const uint64_t addr = slots[op.a];
          const unsigned size = static_cast<unsigned>(op.imm);
          if (!inBounds(addr, size, true)) {
            bail = true;
            break;
          }
          const uint64_t v = slots[op.b];
          for (unsigned i = 0; i < size; ++i) {
            const unsigned lo = 8 * (little ? i : size - 1 - i);
            pend.emplace_back(addr + i,
                              static_cast<uint8_t>((v >> lo) & 0xff));
          }
          break;
        }
        case OpCode::Output:
          pendOut.push_back(COut{slots[op.a], op.width, pc});
          break;
        case OpCode::Halt:
          exitVal = slots[op.a];
          exitW = op.width;
          halt = true;
          break;
        case OpCode::AssertEq:
          if (slots[op.a] != slots[op.b]) bail = true;
          break;
        case OpCode::Trap: bail = true; break;
        case OpCode::BrFalse:
          if (slots[op.a] == 0) {
            ip = op.t;
            continue;
          }
          break;
        case OpCode::Jmp:
          ip = op.t;
          continue;
        case OpCode::Nop: break;
        case OpCode::PcRead:
        case OpCode::Field:
          throw Error("rtlc: unspecialized op reached the VM");
      }
      ++ip;
    }
    if (bail) {
      // Discard every pending effect of this instruction, including its
      // already-applied register writes (undone in reverse order).
      for (auto it = regUndo.rbegin(); it != regUndo.rend(); ++it) {
        (it->file ? regfile : regs)[it->idx] = it->old;
      }
      bailed = true;
      break;
    }
    // Commit.
    for (const auto& wb : pend) {
      writeLog.push_back(wb);
      memView[wb.first] = wb.second;
    }
    for (const COut& o : pendOut) outputs.push_back(o);
    ticks += insnTicks;
    if (retired > 0) fusedPcs.push_back(pc);
    ++retired;
    if (halt) {
      halted = true;
      break;
    }
    pc = haveNewPc ? newPc : fallThrough(pc, *d);
  }

  if (retired == 0) {
    // Bailed on the very first instruction: plain symbolic step.
    stepOne(std::move(in), out);
    return;
  }

  ++fstats_.superblocks;
  fstats_.fusedSteps += retired;

  // Materialize the committed effects onto the incoming state, in place.
  // mkConst interning makes unwritten registers identical refs; the write
  // log replays in program order so the overlay contents match a
  // per-instruction run byte for byte.
  MachineState& st = in;
  for (size_t i = 0; i < regs.size(); ++i) {
    st.regs[i] = tm.mkConst(model_.regs[i].width, regs[i]);
  }
  if (model_.regfile) {
    for (size_t i = 0; i < regfile.size(); ++i) {
      st.regfile[i] = tm.mkConst(model_.regfile->width, regfile[i]);
    }
  }
  for (const auto& wb : writeLog) {
    st.memory.writeByte(wb.first, tm.mkConst(8, wb.second));
  }
  for (const COut& o : outputs) {
    st.outputs.push_back(OutputRecord{tm.mkConst(o.w, o.v), o.pc});
  }
  st.steps += retired;
  st.pc = pc;
  out.rtlTicks += ticks;

  if (halted) {
    st.status = PathStatus::Exited;
    st.exitCode = tm.mkConst(exitW, exitVal);
    out.successors.push_back(std::move(st));
  } else if (bailed) {
    // Re-execute the bailing instruction through the full symbolic VM on
    // the materialized state: checkers, forks and defects happen exactly
    // as a per-instruction run would have them.
    ++fstats_.bails;
    stepOne(std::move(st), out);
    fusedPcs.push_back(pc);
    ++retired;
  } else {
    out.successors.push_back(std::move(st));  // fuel exhausted: still running
  }
  out.retired = retired;
}

}  // namespace adlsym::core
