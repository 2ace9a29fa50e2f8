// EngineServices: the one feasibility decision every executor routes its
// branches, checker guards and symbolic jumps through (DESIGN.md §6.8).
#include "core/executor.h"

namespace adlsym::core {

namespace {

/// Does st's carried witness satisfy the width-1 `c`?
bool witnessSatisfies(smt::TermManager& tm, const MachineState& st,
                      smt::TermRef c) {
  bindInputs(tm, st.inputs, st.witness);
  return tm.evalTerm(c) != 0;
}

}  // namespace

Side EngineServices::side(const MachineState& st, smt::TermRef c, Ask ask) {
  if (st.witnessValid && witnessSatisfies(tm, st, c)) {
    return Side{c};  // the free side: no query
  }
  return decide(st, c, ask);
}

std::pair<Side, Side> EngineServices::branch(const MachineState& st,
                                             smt::TermRef cond) {
  const smt::TermRef notCond = tm.mkNot(cond);
  if (!st.witnessValid) {
    Side onTrue = decide(st, cond, branchAsk());
    return {std::move(onTrue), decide(st, notCond, branchAsk())};
  }
  // Exactly one arm holds under the witness: that one is free.
  if (witnessSatisfies(tm, st, cond)) {
    return {Side{cond}, decide(st, notCond, branchAsk())};
  }
  return {decide(st, cond, branchAsk()), Side{notCond}};
}

Side EngineServices::decide(const MachineState& st, smt::TermRef c, Ask ask) {
  Side s{c};
  if (ask == Ask::Trust) {
    s.from = Side::From::None;
    return s;
  }
  std::vector<smt::TermRef> assumptions = st.pathCond;
  assumptions.push_back(c);
  if (ask == Ask::Verdict) {
    // The model is never read, so a conclusive abstract-prefilter Sat can
    // short-circuit the solve entirely (smt/presolver.h).
    s.feasible = solver.checkNoModel(assumptions) == smt::CheckResult::Sat;
    return s;
  }
  s.feasible = solver.check(assumptions) == smt::CheckResult::Sat;
  if (s.feasible) {
    s.from = Side::From::Model;
    s.model = modelWitness(st);
  }
  return s;
}

void EngineServices::enter(MachineState& st, Side&& s) {
  if (s.cond.valid()) st.addConstraint(s.cond);
  switch (s.from) {
    case Side::From::Carried: break;
    case Side::From::Model:
      st.witness = std::move(s.model);
      st.witnessValid = true;
      break;
    case Side::From::None: st.witnessValid = false; break;
  }
}

void EngineServices::forkJumpTargets(MachineState&& st, smt::TermRef target,
                                     StepOut& out) {
  const unsigned w = target.width();
  std::vector<smt::TermRef> blocking = st.pathCond;
  for (unsigned i = 0; i < config.maxIndirectTargets; ++i) {
    const bool carried = i == 0 && st.witnessValid;
    uint64_t value;
    if (carried) {
      bindInputs(tm, st.inputs, st.witness);
      value = tm.evalTerm(target);
    } else {
      if (solver.check(blocking) != smt::CheckResult::Sat) return;
      value = solver.modelValue(target);
    }
    MachineState succ = st;
    if (!carried) {
      succ.witness = modelWitness(st);
      succ.witnessValid = true;
    }
    const smt::TermRef at = tm.mkConst(w, value);
    succ.addConstraint(tm.mkEq(target, at));
    succ.pc = value;
    ++succ.forks;
    out.successors.push_back(std::move(succ));
    blocking.push_back(tm.mkNe(target, at));
  }
  // Values beyond the bound are dropped; record the state as a budget end.
  if (solver.checkNoModel(blocking) == smt::CheckResult::Sat) {
    st.status = PathStatus::Budget;
    out.successors.push_back(std::move(st));
  }
}

std::vector<uint64_t> EngineServices::modelWitness(const MachineState& st) {
  std::vector<uint64_t> w;
  w.reserve(st.inputs.size());
  for (const InputRecord& in : st.inputs) {
    w.push_back(solver.modelValue(in.term));
  }
  return w;
}

}  // namespace adlsym::core
