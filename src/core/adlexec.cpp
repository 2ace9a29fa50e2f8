#include "core/adlexec.h"

#include <algorithm>

namespace adlsym::core {

using adl::rtl::Expr;
using adl::rtl::ExprOp;

uint64_t evalConcrete(const Expr& e, const decode::DecodedInsn& d) {
  using smt::Kind;
  auto bin = [&](Kind k) {
    return smt::TermManager::evalOp(k, e.width, evalConcrete(*e.args[0], d),
                                    evalConcrete(*e.args[1], d));
  };
  switch (e.op) {
    case ExprOp::Const: return e.aux;
    case ExprOp::Field: return d.operandValues[e.aux];
    case ExprOp::Not: return truncTo(~evalConcrete(*e.args[0], d), e.width);
    case ExprOp::Neg: return truncTo(0 - evalConcrete(*e.args[0], d), e.width);
    case ExprOp::LogicalNot: return evalConcrete(*e.args[0], d) ? 0 : 1;
    case ExprOp::Add: return bin(Kind::Add);
    case ExprOp::Sub: return bin(Kind::Sub);
    case ExprOp::Mul: return bin(Kind::Mul);
    case ExprOp::UDiv: return bin(Kind::UDiv);
    case ExprOp::URem: return bin(Kind::URem);
    case ExprOp::SDiv: return bin(Kind::SDiv);
    case ExprOp::SRem: return bin(Kind::SRem);
    case ExprOp::And: return bin(Kind::And);
    case ExprOp::Or: return bin(Kind::Or);
    case ExprOp::Xor: return bin(Kind::Xor);
    case ExprOp::Shl: return bin(Kind::Shl);
    case ExprOp::LShr: return bin(Kind::LShr);
    case ExprOp::AShr: return bin(Kind::AShr);
    case ExprOp::ZExt: return evalConcrete(*e.args[0], d);
    case ExprOp::SExt:
      return truncTo(signExtend(evalConcrete(*e.args[0], d), e.args[0]->width),
                     e.width);
    case ExprOp::Trunc: return truncTo(evalConcrete(*e.args[0], d), e.width);
    case ExprOp::Concat:
      return truncTo((evalConcrete(*e.args[0], d) << e.args[1]->width) |
                         evalConcrete(*e.args[1], d),
                     e.width);
    case ExprOp::Extract:
      return bitSlice(evalConcrete(*e.args[0], d),
                      static_cast<unsigned>(e.aux >> 8),
                      static_cast<unsigned>(e.aux & 0xff));
    default:
      throw Error("evalConcrete: expression is not decode-concrete");
  }
}

AdlExecutorBase::AdlExecutorBase(const adl::ArchModel& model,
                                 EngineServices& services)
    : model_(model), svc_(services), decoder_(model) {
  if (telemetry::Telemetry* t = svc_.telemetry) {
    stepsCtr_ = &t->metrics().counter("engine.steps");
    ticksCtr_ = &t->metrics().counter("engine.rtl_ticks");
    decodeHist_ = &t->metrics().histogram("engine.decode_us");
    evalHist_ = &t->metrics().histogram("engine.eval_us");
  }
}

void AdlExecutorBase::setRtlProfile(RtlProfile* p) {
  flushRtlProfile();
  rtlProf_ = p;
  rtlLocal_.assign(p != nullptr ? p->size() + 1 : 0, 0);
}

void AdlExecutorBase::flushRtlProfile() {
  if (rtlProf_ == nullptr) return;
  rtlProf_->addCounts(rtlLocal_);
  std::fill(rtlLocal_.begin(), rtlLocal_.end(), 0);
}

MachineState AdlExecutorBase::initialState() {
  MachineState st;
  st.memory = SymMemory(&svc_.image);
  st.pc = svc_.image.entry();
  st.regs.reserve(model_.regs.size());
  for (const adl::RegInfo& r : model_.regs) {
    st.regs.push_back(svc_.tm.mkConst(r.width, 0));
  }
  if (model_.regfile) {
    st.regfile.assign(model_.regfile->count,
                      svc_.tm.mkConst(model_.regfile->width, 0));
  }
  return st;
}

void AdlExecutorBase::stepMany(MachineState&& in, StepOut& out,
                               uint64_t fuel) {
  (void)fuel;
  stepOne(std::move(in), out);
}

void AdlExecutorBase::stepOne(MachineState&& st, StepOut& out) {
  if (stepsCtr_) stepsCtr_->add();
  const decode::DecodedInsn* d = nullptr;
  {
    telemetry::ScopedTimer t(svc_.telemetry, decodeHist_);
    d = decoder_.decodeAt(svc_.image, st.pc);
  }
  if (d == nullptr) {
    st.status = PathStatus::Illegal;
    Defect def;
    def.kind = DefectKind::IllegalInsn;
    def.pc = st.pc;
    def.message = "undecodable or unmapped instruction";
    st.defect = std::move(def);
    out.successors.push_back(std::move(st));
    return;
  }
  const uint64_t ticksBefore = out.rtlTicks;
  {
    telemetry::ScopedTimer t(svc_.telemetry, evalHist_);
    InsnFrame f{d, st.pc, {}, CheckSite{st.pc, d->insn->name}};
    execInsn(std::move(st), std::move(f), out);
  }
  if (ticksCtr_) ticksCtr_->add(out.rtlTicks - ticksBefore);
}

void AdlExecutorBase::finishInsn(MachineState&& st, const InsnFrame& f,
                                 StepOut& out) {
  ++st.steps;
  if (!f.newPc.valid()) {
    st.pc = fallThrough(f.insnAddr, *f.d);
    out.successors.push_back(std::move(st));
    return;
  }
  if (f.newPc.isConst()) {
    st.pc = f.newPc.constValue();
    out.successors.push_back(std::move(st));
    return;
  }
  svc_.forkJumpTargets(std::move(st), f.newPc, out);
}

}  // namespace adlsym::core
