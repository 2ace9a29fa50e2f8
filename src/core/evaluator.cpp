#include "core/evaluator.h"

#include "core/checkers.h"
#include "support/bits.h"
#include "support/strings.h"

namespace adlsym::core {

using adl::rtl::Expr;
using adl::rtl::ExprOp;
using adl::rtl::Stmt;
using adl::rtl::StmtOp;

smt::TermRef AdlExecutor::readRegFile(MachineState& st, uint64_t index) {
  check(index < st.regfile.size(), "register file index out of range");
  const auto& rf = *model_.regfile;
  if (rf.zeroReg && index == *rf.zeroReg) return svc_.tm.mkConst(rf.width, 0);
  return st.regfile[index];
}

void AdlExecutor::writeRegFile(MachineState& st, uint64_t index, smt::TermRef v) {
  check(index < st.regfile.size(), "register file index out of range");
  const auto& rf = *model_.regfile;
  if (rf.zeroReg && index == *rf.zeroReg) return;  // hardwired zero
  st.regfile[index] = v;
}

smt::TermRef AdlExecutor::evalExpr(const Expr& e, MachineState& st, Frame& f,
                                   StepOut& out, bool& dead) {
  smt::TermManager& tm = svc_.tm;
  auto sub = [&](unsigned i) { return evalExpr(*e.args[i], st, f, out, dead); };
  auto binary = [&](auto method) -> smt::TermRef {
    const smt::TermRef a = sub(0);
    if (dead) return {};
    const smt::TermRef b = sub(1);
    if (dead) return {};
    return (tm.*method)(a, b);
  };

  switch (e.op) {
    case ExprOp::Const: return tm.mkConst(e.width, e.aux);
    case ExprOp::Field:
      return tm.mkConst(e.width, f.d->operandValues[e.aux]);
    case ExprOp::LetRef: {
      const smt::TermRef v = f.lets[e.aux];
      check(v.valid(), "let slot read before assignment");
      return v;
    }
    case ExprOp::RegRead: {
      // pc reads always yield the current instruction's address.
      if (e.aux == model_.pcIndex) {
        return tm.mkConst(e.width, truncTo(f.insnAddr, e.width));
      }
      return st.regs[e.aux];
    }
    case ExprOp::RegFileRead: {
      const uint64_t idx = evalConcrete(*e.args[0], *f.d);
      if (idx >= st.regfile.size()) {
        // Encodable-but-invalid register number (e.g. a 5-bit field on a
        // 16-register file): an illegal instruction, not an engine bug.
        emitDefect(std::move(st), out, DefectKind::IllegalInsn, f.site,
                   formatStr("register index %llu out of range",
                             static_cast<unsigned long long>(idx)));
        dead = true;
        return {};
      }
      return readRegFile(st, idx);
    }
    case ExprOp::Load: {
      const smt::TermRef addr = sub(0);
      if (dead) return {};
      const smt::TermRef v =
          checkedLoad(svc_, st, out, addr, static_cast<unsigned>(e.aux),
                      !model_.endianLittle, f.site);
      if (!v.valid()) dead = true;
      return v;
    }
    case ExprOp::Input: return svc_.newInput(st, e.width);
    case ExprOp::Not: {
      const smt::TermRef a = sub(0);
      return dead ? smt::TermRef() : tm.mkNot(a);
    }
    case ExprOp::Neg: {
      const smt::TermRef a = sub(0);
      return dead ? smt::TermRef() : tm.mkNeg(a);
    }
    case ExprOp::LogicalNot: {
      const smt::TermRef a = sub(0);
      return dead ? smt::TermRef() : tm.mkNot(a);
    }
    case ExprOp::Add: return binary(&smt::TermManager::mkAdd);
    case ExprOp::Sub: return binary(&smt::TermManager::mkSub);
    case ExprOp::Mul: return binary(&smt::TermManager::mkMul);
    case ExprOp::And: return binary(&smt::TermManager::mkAnd);
    case ExprOp::Or: return binary(&smt::TermManager::mkOr);
    case ExprOp::Xor: return binary(&smt::TermManager::mkXor);
    case ExprOp::Shl: return binary(&smt::TermManager::mkShl);
    case ExprOp::LShr: return binary(&smt::TermManager::mkLShr);
    case ExprOp::AShr: return binary(&smt::TermManager::mkAShr);
    case ExprOp::Eq: return binary(&smt::TermManager::mkEq);
    case ExprOp::Ne: return binary(&smt::TermManager::mkNe);
    case ExprOp::Ult: return binary(&smt::TermManager::mkUlt);
    case ExprOp::Ule: return binary(&smt::TermManager::mkUle);
    case ExprOp::Ugt: return binary(&smt::TermManager::mkUgt);
    case ExprOp::Uge: return binary(&smt::TermManager::mkUge);
    case ExprOp::Slt: return binary(&smt::TermManager::mkSlt);
    case ExprOp::Sle: return binary(&smt::TermManager::mkSle);
    case ExprOp::Sgt: return binary(&smt::TermManager::mkSgt);
    case ExprOp::Sge: return binary(&smt::TermManager::mkSge);
    case ExprOp::LogicalAnd: return binary(&smt::TermManager::mkAnd);
    case ExprOp::LogicalOr: return binary(&smt::TermManager::mkOr);
    case ExprOp::UDiv:
    case ExprOp::URem:
    case ExprOp::SDiv:
    case ExprOp::SRem: {
      const smt::TermRef a = sub(0);
      if (dead) return {};
      const smt::TermRef b = sub(1);
      if (dead) return {};
      if (!guardDivisor(svc_, st, out, b, f.site)) {
        dead = true;
        return {};
      }
      switch (e.op) {
        case ExprOp::UDiv: return tm.mkUDiv(a, b);
        case ExprOp::URem: return tm.mkURem(a, b);
        case ExprOp::SDiv: return tm.mkSDiv(a, b);
        default: return tm.mkSRem(a, b);
      }
    }
    case ExprOp::ZExt: {
      const smt::TermRef a = sub(0);
      return dead ? smt::TermRef() : tm.mkZExt(a, e.width);
    }
    case ExprOp::SExt: {
      const smt::TermRef a = sub(0);
      return dead ? smt::TermRef() : tm.mkSExt(a, e.width);
    }
    case ExprOp::Trunc: {
      const smt::TermRef a = sub(0);
      return dead ? smt::TermRef() : tm.mkExtract(a, e.width - 1, 0);
    }
    case ExprOp::Concat: return binary(&smt::TermManager::mkConcat);
    case ExprOp::Extract: {
      const smt::TermRef a = sub(0);
      if (dead) return {};
      return tm.mkExtract(a, static_cast<unsigned>(e.aux >> 8),
                          static_cast<unsigned>(e.aux & 0xff));
    }
  }
  throw Error("unreachable rtl expr op");
}

void AdlExecutor::execStmts(MachineState&& st, Frame frame,
                            std::vector<const Stmt*> work, StepOut& out) {
  while (!work.empty()) {
    const Stmt* s = work.front();
    work.erase(work.begin());
    bool dead = false;
    tick(s, out);

    switch (s->op) {
      case StmtOp::AssignReg: {
        const smt::TermRef v = evalExpr(*s->args[0], st, frame, out, dead);
        if (dead) return;
        if (s->aux == model_.pcIndex) {
          frame.newPc = v;
        } else {
          st.regs[s->aux] = v;
        }
        break;
      }
      case StmtOp::AssignRegFile: {
        const uint64_t idx = evalConcrete(*s->args[0], *frame.d);
        // Evaluate the RHS before validating the destination index: its
        // own checks (loads, divisions) fire first, matching the concrete
        // interpreter's evaluation order.
        const smt::TermRef v = evalExpr(*s->args[1], st, frame, out, dead);
        if (dead) return;
        if (idx >= st.regfile.size()) {
          emitDefect(std::move(st), out, DefectKind::IllegalInsn, frame.site,
                     formatStr("register index %llu out of range",
                               static_cast<unsigned long long>(idx)));
          return;
        }
        writeRegFile(st, idx, v);
        break;
      }
      case StmtOp::Let: {
        const smt::TermRef v = evalExpr(*s->args[0], st, frame, out, dead);
        if (dead) return;
        frame.lets[s->aux] = v;
        break;
      }
      case StmtOp::Store: {
        const smt::TermRef addr = evalExpr(*s->args[0], st, frame, out, dead);
        if (dead) return;
        const smt::TermRef v = evalExpr(*s->args[1], st, frame, out, dead);
        if (dead) return;
        if (!checkedStore(svc_, st, out, addr, v, static_cast<unsigned>(s->aux),
                          !model_.endianLittle, frame.site)) {
          return;
        }
        break;
      }
      case StmtOp::Output: {
        const smt::TermRef v = evalExpr(*s->args[0], st, frame, out, dead);
        if (dead) return;
        st.outputs.push_back(OutputRecord{v, frame.insnAddr});
        break;
      }
      case StmtOp::Halt: {
        const smt::TermRef code = evalExpr(*s->args[0], st, frame, out, dead);
        if (dead) return;
        st.status = PathStatus::Exited;
        st.exitCode = code;
        ++st.steps;
        out.successors.push_back(std::move(st));
        return;
      }
      case StmtOp::AssertEq: {
        const smt::TermRef a = evalExpr(*s->args[0], st, frame, out, dead);
        if (dead) return;
        const smt::TermRef b = evalExpr(*s->args[1], st, frame, out, dead);
        if (dead) return;
        if (!guardAssertEq(svc_, st, out, a, b, frame.site)) return;
        break;
      }
      case StmtOp::Trap: {
        emitDefect(std::move(st), out, DefectKind::Trap, frame.site,
                   formatStr("trap(%llu) reached",
                             static_cast<unsigned long long>(s->aux)),
                   {}, s->aux);
        return;
      }
      case StmtOp::If: {
        const smt::TermRef cond = evalExpr(*s->args[0], st, frame, out, dead);
        if (dead) return;
        auto enqueueArm = [&](const std::vector<adl::rtl::StmtPtr>& body,
                              std::vector<const Stmt*> rest) {
          std::vector<const Stmt*> next;
          next.reserve(body.size() + rest.size());
          for (const auto& b : body) next.push_back(b.get());
          next.insert(next.end(), rest.begin(), rest.end());
          return next;
        };
        if (cond.isConst()) {
          const auto& body = cond.constValue() ? s->thenBody : s->elseBody;
          work = enqueueArm(body, std::move(work));
          break;
        }
        // Symbolic branch: fork.
        auto [thenSide, elseSide] = svc_.branch(st, cond);
        if (thenSide.feasible && elseSide.feasible) {
          MachineState other = st;
          EngineServices::enter(other, std::move(elseSide));
          ++other.forks;
          execStmts(std::move(other), frame, enqueueArm(s->elseBody, work), out);
          EngineServices::enter(st, std::move(thenSide));
          ++st.forks;
          work = enqueueArm(s->thenBody, std::move(work));
          break;
        }
        if (thenSide.feasible) {
          EngineServices::enter(st, std::move(thenSide));
          work = enqueueArm(s->thenBody, std::move(work));
          break;
        }
        if (elseSide.feasible) {
          EngineServices::enter(st, std::move(elseSide));
          work = enqueueArm(s->elseBody, std::move(work));
          break;
        }
        return;  // both sides infeasible: path dies silently
      }
    }
  }
  finishInsn(std::move(st), frame, out);
}

void AdlExecutor::execInsn(MachineState&& st, InsnFrame f, StepOut& out) {
  const adl::InsnInfo& insn = *f.d->insn;
  std::vector<const Stmt*> work;
  work.reserve(insn.semantics.size());
  for (const auto& s : insn.semantics) work.push_back(s.get());
  execStmts(std::move(st),
            Frame{std::move(f), std::vector<smt::TermRef>(insn.numLetSlots)},
            std::move(work), out);
}

}  // namespace adlsym::core
