// EngineServices: the one feasibility decision every executor routes its
// branches, checker guards and symbolic jumps through (DESIGN.md §6.8),
// and the symbolic input stream.
#include "core/executor.h"

#include "support/strings.h"

namespace adlsym::core {

namespace {

/// Case-split bound for a symbolic jump target (forkJumpTargets).
constexpr unsigned kMaxJumpTargets = 16;

/// Does st's carried witness satisfy the width-1 `c`?
bool witnessSatisfies(smt::TermManager& tm, const MachineState& st,
                      smt::TermRef c) {
  bindInputs(tm, st.inputs, st.witness);
  return tm.evalTerm(c) != 0;
}

/// The assumptions of the query "pathCond(st) /\ c".
std::vector<smt::TermRef> withCond(const MachineState& st, smt::TermRef c) {
  std::vector<smt::TermRef> assumptions = st.pathCond;
  assumptions.push_back(c);
  return assumptions;
}

/// `assumptions` checked for a model nearest st's carried witness
/// (SmtSolver::check): one model for the query whichever engine, worker
/// or schedule asks.
smt::CheckResult checkNearest(smt::SmtSolver& solver, const MachineState& st,
                              const std::vector<smt::TermRef>& assumptions) {
  std::vector<smt::TermRef> inputs;
  inputs.reserve(st.inputs.size());
  for (const InputRecord& in : st.inputs) inputs.push_back(in.term);
  return solver.check(assumptions, inputs, st.witness);
}

}  // namespace

Side EngineServices::side(const MachineState& st, smt::TermRef c) {
  if (witnessSatisfies(tm, st, c)) return Side(c);  // the free side
  return decide(st, c);
}

std::pair<Side, Side> EngineServices::branch(const MachineState& st,
                                             smt::TermRef cond) {
  const smt::TermRef notCond = tm.mkNot(cond);
  // Exactly one arm holds under the witness: that one is free.
  if (witnessSatisfies(tm, st, cond)) {
    return {Side(cond), decide(st, notCond)};
  }
  return {decide(st, cond), Side(notCond)};
}

bool EngineServices::feasible(const MachineState& st, smt::TermRef c) {
  if (witnessSatisfies(tm, st, c)) return true;
  return solver.check(withCond(st, c)) == smt::CheckResult::Sat;
}

Side EngineServices::decide(const MachineState& st, smt::TermRef c) {
  Side s(c);
  s.feasible = !witnessOnly && checkNearest(solver, st, withCond(st, c)) ==
                                   smt::CheckResult::Sat;
  if (s.feasible) s.model = modelWitness(st);
  return s;
}

void EngineServices::enter(MachineState& st, Side&& s) {
  if (s.cond.valid()) st.addConstraint(s.cond);
  if (s.model) st.witness = std::move(*s.model);
}

void EngineServices::forkJumpTargets(MachineState&& st, smt::TermRef target,
                                     StepOut& out) {
  const unsigned w = target.width();
  std::vector<smt::TermRef> blocking = st.pathCond;
  for (unsigned i = 0; i < kMaxJumpTargets; ++i) {
    uint64_t value;
    if (i == 0) {
      bindInputs(tm, st.inputs, st.witness);
      value = tm.evalTerm(target);
    } else {
      if (checkNearest(solver, st, blocking) != smt::CheckResult::Sat) return;
      value = solver.modelValue(target);
    }
    MachineState succ = st;
    if (i != 0) succ.witness = modelWitness(st);
    const smt::TermRef at = tm.mkConst(w, value);
    succ.addConstraint(tm.mkEq(target, at));
    succ.pc = value;
    ++succ.forks;
    out.successors.push_back(std::move(succ));
    if (witnessOnly) return;
    blocking.push_back(tm.mkNe(target, at));
  }
  // Values beyond the bound are dropped; record the state as a budget end.
  if (solver.check(blocking) == smt::CheckResult::Sat) {
    st.status = PathStatus::Budget;
    out.successors.push_back(std::move(st));
  }
}

smt::TermRef EngineServices::newInput(MachineState& st, unsigned width) {
  std::string name = formatStr("in%u_w%u", st.inputCounter++, width);
  const smt::TermRef v = tm.mkVar(width, name);
  st.inputs.push_back(InputRecord{std::move(name), width, v});
  return v;
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
