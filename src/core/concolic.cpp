#include "core/concolic.h"

#include <deque>

#include "core/explorer.h"

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

MachineState ConcolicDriver::executeSeed(const Seed& seed,
                                         std::vector<Seed>& next,
                                         uint64_t& steps,
                                         std::set<uint64_t>& covered) {
  MachineState st = exec_.initialState();
  // Any assignment satisfies the root's empty path condition, so the seed
  // is the root's witness, and the side of every decision it takes is
  // free: the successor chosen below keeps it.
  st.witness = seed.values;
  // witnessOnly is set per step and restored on every exit, a throw too.
  struct Restore {
    bool& flag;
    const bool saved;
    ~Restore() { flag = saved; }
  } restore{svc_.witnessOnly, svc_.witnessOnly};
  while (st.status == PathStatus::Running && steps < config_.maxStepsPerRun) {
    covered.insert(st.pc);
    const size_t prefixLen = st.pathCond.size();
    // Below the bound the seed's ancestors already ran every side it does
    // not take, so those sides cost no query and make no successor.
    svc_.witnessOnly = prefixLen < seed.bound;
    StepOut out;
    exec_.step(st, out);
    ++steps;
    if (out.successors.empty()) {
      // The (concrete) path died without a terminal state — treat as
      // infeasible; should not happen for a valid seed.
      st.status = PathStatus::Infeasible;
      return st;
    }
    // Pick the successor the seed actually takes: one whose newly added
    // constraints all hold concretely. One that added constraints wins
    // over one that added none (a jump past the target bound ends in a
    // Budget successor that holds for every seed, beside the seed's own
    // target); after that, terminal states (defects, exits) win over
    // running ones (the defect *is* the concrete behavior, e.g. divisor
    // == 0).
    auto rank = [prefixLen](const MachineState& succ) {
      return 2 * (succ.pathCond.size() > prefixLen) +
             (succ.status != PathStatus::Running);
    };
    int chosen = -1;
    int chosenRank = -1;
    for (size_t i = 0; i < out.successors.size(); ++i) {
      const MachineState& succ = out.successors[i];
      if (!suffixHoldsUnderSeed(svc_.tm, succ, seed.values, prefixLen)) {
        continue;
      }
      if (rank(succ) > chosenRank) {
        chosen = static_cast<int>(i);
        chosenRank = rank(succ);
      }
    }
    if (chosen < 0) {
      // No successor matches the seed (e.g. with checkOob off, the engine
      // constrains the seed's out-of-bounds access in bounds). Record and
      // stop.
      st.status = PathStatus::Budget;
      return st;
    }
    // Every other successor that added a constraint is a side the seed did
    // not take, found feasible by one query whose model it carries as its
    // witness: the seed that drives it. Below the bound there is none.
    for (size_t i = 0; i < out.successors.size(); ++i) {
      if (static_cast<int>(i) == chosen) continue;
      MachineState& alt = out.successors[i];
      if (alt.pathCond.size() <= prefixLen) continue;  // no new constraint
      std::vector<uint64_t> w = std::move(alt.witness);
      // Trim defaulted-zero tail so equivalent seeds deduplicate.
      while (!w.empty() && w.back() == 0) w.pop_back();
      next.push_back({std::move(w), prefixLen + 1});
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
  std::deque<Seed> queue;
  std::set<std::vector<uint64_t>> seen;
  queue.push_back({});  // the all-zeroes seed
  seen.insert(std::vector<uint64_t>{});  // insert({}) would insert nothing
  ++result.seedsGenerated;

  while (!queue.empty() && result.seedsExecuted < config_.maxRuns) {
    const Seed seed = std::move(queue.front());
    queue.pop_front();
    ++result.seedsExecuted;

    std::vector<Seed> next;
    uint64_t steps = 0;
    MachineState final = executeSeed(seed, next, steps, result.coveredSet);
    result.totalSteps += steps;
    if (runsCtr) {
      runsCtr->add();
      stepsCtr->add(steps);
    }
    // The executed path, its witness (the seed) read as the explorers do.
    result.paths.push_back(
        finishPath(svc_, std::move(final), {}, 0, nullptr, nullptr));

    for (Seed& n : next) {
      ++result.seedsGenerated;
      if (seen.insert(n.values).second) queue.push_back(std::move(n));
    }
  }

  if (seedsCtr) seedsCtr->add(result.seedsGenerated);
  result.wallSeconds = double(clk.nowMicros() - startUs) / 1e6;
  return result;
}

}  // namespace adlsym::core
