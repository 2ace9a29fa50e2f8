#include "core/concolic.h"

#include <deque>

#include "core/testgen.h"

namespace adlsym::core {

namespace {

/// Do pathCond[from..] of `st` hold under a concrete input seed? A seed is
/// an assignment by input position, like a carried witness (bindInputs).
bool suffixHoldsUnderSeed(smt::TermManager& tm, const MachineState& st,
                          const std::vector<uint64_t>& seed, size_t from) {
  bindInputs(tm, st.inputs, seed);
  for (size_t i = from; i < st.pathCond.size(); ++i) {
    if (tm.evalTerm(st.pathCond[i]) == 0) return false;
  }
  return true;
}

}  // namespace

MachineState ConcolicDriver::executeSeed(const std::vector<uint64_t>& seed,
                                         std::vector<BranchPoint>& branches,
                                         uint64_t& steps,
                                         std::set<uint64_t>& covered) {
  MachineState st = exec_.initialState();
  while (st.status == PathStatus::Running && steps < config_.maxStepsPerRun) {
    covered.insert(st.pc);
    const size_t prefixLen = st.pathCond.size();
    StepOut out;
    exec_.step(st, out);
    ++steps;
    if (out.successors.empty()) {
      // The (concrete) path died without a terminal state — treat as
      // infeasible; should not happen for a valid seed.
      st.status = PathStatus::Infeasible;
      return st;
    }
    // Pick the successor the seed actually takes: the one whose newly
    // added constraints all hold concretely. Terminal states (defects,
    // exits) win over running ones when both hold (the defect *is* the
    // concrete behavior, e.g. divisor == 0).
    int chosen = -1;
    for (size_t i = 0; i < out.successors.size(); ++i) {
      const MachineState& succ = out.successors[i];
      if (!suffixHoldsUnderSeed(svc_.tm, succ, seed, prefixLen)) continue;
      if (chosen < 0) {
        chosen = static_cast<int>(i);
        continue;
      }
      const bool curTerminal =
          out.successors[static_cast<size_t>(chosen)].status != PathStatus::Running;
      const bool newTerminal = succ.status != PathStatus::Running;
      if (newTerminal && !curTerminal) chosen = static_cast<int>(i);
    }
    if (chosen < 0) {
      // No successor matches the seed (e.g. an Unknown solver verdict
      // pruned the concrete side). Record and stop.
      st.status = PathStatus::Budget;
      return st;
    }
    // Every non-chosen sibling contributes a branch point to negate.
    for (size_t i = 0; i < out.successors.size(); ++i) {
      if (static_cast<int>(i) == chosen) continue;
      const MachineState& alt = out.successors[i];
      if (alt.pathCond.size() <= prefixLen) continue;  // no new constraint
      BranchPoint bp;
      bp.prefix.assign(alt.pathCond.begin(),
                       alt.pathCond.begin() + static_cast<long>(prefixLen));
      bp.altSuffix.assign(alt.pathCond.begin() + static_cast<long>(prefixLen),
                          alt.pathCond.end());
      branches.push_back(std::move(bp));
    }
    st = std::move(out.successors[static_cast<size_t>(chosen)]);
  }
  if (st.status == PathStatus::Running) st.status = PathStatus::Budget;
  return st;
}

ConcolicResult ConcolicDriver::run() {
  telemetry::Telemetry* tel = svc_.telemetry;
  telemetry::Clock& clk = tel ? tel->clock() : telemetry::Clock::system();
  telemetry::Counter* runsCtr = tel ? &tel->metrics().counter("concolic.runs") : nullptr;
  telemetry::Counter* seedsCtr =
      tel ? &tel->metrics().counter("concolic.seeds_generated") : nullptr;
  telemetry::Counter* stepsCtr = tel ? &tel->metrics().counter("concolic.steps") : nullptr;
  const uint64_t startUs = clk.nowMicros();
  ConcolicResult result;
  std::deque<std::vector<uint64_t>> queue;
  std::set<std::vector<uint64_t>> seen;
  queue.push_back({});  // the all-zeroes seed
  seen.insert({});
  ++result.seedsGenerated;

  while (!queue.empty() && result.seedsExecuted < config_.maxRuns) {
    const std::vector<uint64_t> seed = std::move(queue.front());
    queue.pop_front();
    ++result.seedsExecuted;

    std::vector<BranchPoint> branches;
    uint64_t steps = 0;
    MachineState final = executeSeed(seed, branches, steps, result.coveredSet);
    result.totalSteps += steps;
    if (runsCtr) {
      runsCtr->add();
      stepsCtr->add(steps);
    }

    // Record the executed path (witness = the seed itself, padded to the
    // inputs the run actually consumed).
    PathResult pr;
    pr.status = final.status;
    pr.finalPc = final.pc;
    pr.steps = final.steps;
    pr.forks = final.forks;
    for (size_t i = 0; i < final.inputs.size(); ++i) {
      pr.test.inputs.push_back({final.inputs[i].name, final.inputs[i].width,
                                i < seed.size() ? seed[i] : 0});
    }
    if (final.defect) {
      pr.defect = final.defect;
      pr.defect->witness = pr.test;
    }
    bindInputs(svc_.tm, final.inputs, seed);
    if (final.status == PathStatus::Exited && final.exitCode.valid()) {
      pr.exitCode = svc_.tm.evalTerm(final.exitCode);
    }
    for (const OutputRecord& o : final.outputs) {
      pr.outputs.push_back(svc_.tm.evalTerm(o.term));
    }
    result.paths.push_back(std::move(pr));

    // Generational search: negate every branch point of this run.
    const size_t limit = config_.generational ? branches.size()
                         : branches.empty() ? 0
                                            : 1;
    for (size_t b = 0; b < limit; ++b) {
      const BranchPoint& bp =
          config_.generational ? branches[b] : branches.back();
      std::vector<smt::TermRef> assumptions = bp.prefix;
      assumptions.insert(assumptions.end(), bp.altSuffix.begin(),
                         bp.altSuffix.end());
      if (svc_.solver.check(assumptions) != smt::CheckResult::Sat) continue;
      // Extract a new seed from the model for the inputs seen so far.
      std::vector<uint64_t> next;
      for (const InputRecord& in : final.inputs) {
        next.push_back(svc_.solver.modelValue(in.term));
      }
      // Trim defaulted-zero tail so equivalent seeds deduplicate.
      while (!next.empty() && next.back() == 0) next.pop_back();
      ++result.seedsGenerated;
      if (seen.insert(next).second) queue.push_back(std::move(next));
    }
  }

  if (seedsCtr) seedsCtr->add(result.seedsGenerated);
  result.wallSeconds = double(clk.nowMicros() - startUs) / 1e6;
  return result;
}

}  // namespace adlsym::core
