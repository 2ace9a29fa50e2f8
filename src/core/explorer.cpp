#include "core/explorer.h"

#include <algorithm>

#include "core/testgen.h"
#include "smt/printer.h"
#include "support/bits.h"
#include "support/fault.h"
#include "support/stop.h"

namespace adlsym::core {

Explorer::Explorer(Executor& exec, EngineServices& services,
                   ExplorerConfig config)
    : exec_(exec),
      svc_(services),
      config_(config),
      tel_(services.telemetry),
      ctr_(tel_) {
  if (tel_) frontierPeak_ = &tel_->metrics().gauge("explore.frontier_peak");
}

const char* strategyName(SearchStrategy s) {
  switch (s) {
    case SearchStrategy::DFS: return "dfs";
    case SearchStrategy::BFS: return "bfs";
    case SearchStrategy::Random: return "random";
    case SearchStrategy::Coverage: return "coverage";
  }
  return "?";
}

namespace {
/// Conjunction of pathCond[from..].
smt::TermRef conjFrom(smt::TermManager& tm,
                      const std::vector<smt::TermRef>& pc, size_t from) {
  smt::TermRef acc = tm.mkTrue();
  for (size_t i = from; i < pc.size(); ++i) acc = tm.mkAnd(acc, pc[i]);
  return acc;
}
}  // namespace

bool Explorer::tryMerge(MachineState& host, const MachineState& incoming) {
  // Compatibility: identical storage shape and identical observable
  // traces so far (inputs must be the very same stream positions; output
  // *counts* must match — values are merged with ites).
  if (host.pc != incoming.pc) return false;
  if (host.status != PathStatus::Running ||
      incoming.status != PathStatus::Running) {
    return false;
  }
  if (host.regs.size() != incoming.regs.size() ||
      host.regfile.size() != incoming.regfile.size() ||
      host.inputCounter != incoming.inputCounter ||
      host.inputs.size() != incoming.inputs.size() ||
      host.outputs.size() != incoming.outputs.size()) {
    return false;
  }
  for (size_t i = 0; i < host.inputs.size(); ++i) {
    if (host.inputs[i].term != incoming.inputs[i].term) return false;
  }

  smt::TermManager& tm = svc_.tm;
  // Split the path conditions at their common prefix.
  size_t k = 0;
  const size_t maxK = std::min(host.pathCond.size(), incoming.pathCond.size());
  while (k < maxK && host.pathCond[k] == incoming.pathCond[k]) ++k;
  const smt::TermRef condHost = conjFrom(tm, host.pathCond, k);
  const smt::TermRef condIn = conjFrom(tm, incoming.pathCond, k);

  auto merge = [&](smt::TermRef a, smt::TermRef b) {
    return a == b ? a : tm.mkIte(condHost, a, b);
  };
  for (size_t i = 0; i < host.regs.size(); ++i) {
    host.regs[i] = merge(host.regs[i], incoming.regs[i]);
  }
  for (size_t i = 0; i < host.regfile.size(); ++i) {
    host.regfile[i] = merge(host.regfile[i], incoming.regfile[i]);
  }
  for (size_t i = 0; i < host.outputs.size(); ++i) {
    host.outputs[i].term = merge(host.outputs[i].term, incoming.outputs[i].term);
  }
  // Memory: ite-merge every byte either side has written.
  std::vector<uint64_t> addrs = host.memory.overlayAddresses();
  const std::vector<uint64_t> other = incoming.memory.overlayAddresses();
  addrs.insert(addrs.end(), other.begin(), other.end());
  std::sort(addrs.begin(), addrs.end());
  addrs.erase(std::unique(addrs.begin(), addrs.end()), addrs.end());
  for (const uint64_t addr : addrs) {
    const smt::TermRef a = host.memory.readByte(tm, addr);
    const smt::TermRef b = incoming.memory.readByte(tm, addr);
    check(a.valid() && b.valid(), "merge: overlay byte unreadable");
    if (a != b) host.memory.writeByte(addr, tm.mkIte(condHost, a, b));
  }

  host.pathCond.resize(k);
  host.addConstraint(tm.mkOr(condHost, condIn));
  // The host's witness satisfies prefix /\ condHost, hence the merged
  // prefix /\ (condHost \/ condIn): it stays.
  host.steps = std::max(host.steps, incoming.steps);
  host.forks = std::max(host.forks, incoming.forks);
  return true;
}

namespace {

/// The witness half of finishPath.
void finishWitness(EngineServices& svc, const MachineState& st,
                   PathResult& r) {
  if (st.status == PathStatus::Truncated) return;
  r.test.inputs.reserve(st.inputs.size());
  for (size_t i = 0; i < st.inputs.size(); ++i) {
    const InputRecord& in = st.inputs[i];
    r.test.inputs.push_back(
        {in.name, in.width, i < st.witness.size() ? st.witness[i] : 0});
  }
  if (r.defect) {
    r.defect->witness = r.test;
    return;
  }
  smt::TermManager& tm = svc.tm;
  bindInputs(tm, st.inputs, st.witness);
  if (st.status == PathStatus::Exited && st.exitCode.valid()) {
    r.exitCode = tm.evalTerm(st.exitCode);
  }
  r.outputs.reserve(st.outputs.size());
  for (const OutputRecord& o : st.outputs) {
    r.outputs.push_back(tm.evalTerm(o.term));
  }
}

}  // namespace

PathResult finishPath(EngineServices& svc, MachineState&& st,
                      std::string pathKey, uint64_t node, ExploreObserver* ob,
                      telemetry::Counter* pathsCtr) {
  PathResult r;
  r.status = st.status;
  r.truncReason = st.truncReason;
  r.finalPc = st.pc;
  r.steps = st.steps;
  r.forks = st.forks;
  r.pathKey = std::move(pathKey);
  if (pathsCtr) pathsCtr->add();
  r.defect = std::move(st.defect);
  finishWitness(svc, st, r);
  if (ob) ob->onPathDone(node, r);
  return r;
}

ExploreObserver::StepInfo stepInfo(const StepOrigin& from, const StepOut& out,
                                   const smt::SmtSolver::Stats& before,
                                   const smt::SmtSolver::Stats& after) {
  ExploreObserver::StepInfo si;
  si.pc = from.pc;
  si.numSuccessors = out.successors.size();
  si.stepSolverQueries = after.queries - before.queries;
  si.stepSolverMicros = after.totalMicros - before.totalMicros;
  si.stepCanonTerms = after.canon.terms - before.canon.terms;
  si.stepCanonGates = after.canon.gates - before.canon.gates;
  si.depth = from.forks;
  si.stepRtlTicks = out.rtlTicks;
  si.pathSteps = from.steps;
  return si;
}

std::string forkCond(const MachineState& st, size_t condBefore) {
  std::string cond;
  for (size_t i = condBefore; i < st.pathCond.size(); ++i) {
    if (!cond.empty()) cond += " & ";
    cond += smt::toString(st.pathCond[i]);
  }
  return cond;
}

void PathTreeNode::setResult(const PathResult& r) {
  status = pathStatusName(r.status);
  if (r.status == PathStatus::Truncated) {
    truncReason = truncReasonName(r.truncReason);
  }
  finalPc = r.finalPc;
  steps = r.steps;
  forks = r.forks;
  exitCode = r.exitCode;
  if (r.defect) {
    defectKind = defectKindName(r.defect->kind);
    defectPc = r.defect->pc;
  }
  testInputs = r.test.inputs;
}

ExploreCounters::ExploreCounters(telemetry::Telemetry* t) {
  if (t == nullptr) return;
  telemetry::MetricsRegistry& m = t->metrics();
  steps = &m.counter("explore.steps");
  forks = &m.counter("explore.forks");
  drops = &m.counter("explore.drops");
  merges = &m.counter("explore.merges");
  paths = &m.counter("explore.paths");
}

bool fusionOffered(const ExplorerConfig& cfg, const telemetry::Telemetry* tel) {
  return cfg.observer == nullptr && tel == nullptr && !cfg.mergeStates &&
         cfg.strategy == SearchStrategy::DFS && cfg.maxFrontier == 0 &&
         cfg.memBudgetBytes == 0 && !fault::armed();
}

uint64_t fusionFuel(const ExplorerConfig& cfg, uint64_t pathSteps,
                    uint64_t totalSteps) {
  uint64_t fuel = cfg.maxStepsPerPath - pathSteps;
  fuel = std::min(fuel, cfg.maxTotalSteps > totalSteps
                            ? cfg.maxTotalSteps - totalSteps
                            : uint64_t{1});
  fuel = std::min<uint64_t>(fuel, 4096);
  if (cfg.maxWallSeconds > 0.0) fuel = std::min<uint64_t>(fuel, 128);
  return fuel;
}

void tallyTruncated(ExploreSummary& s) {
  for (const PathResult& p : s.paths) {
    if (p.status == PathStatus::Truncated) {
      ++s.statesTruncated;
      ++s.truncatedByReason[static_cast<size_t>(p.truncReason)];
    }
  }
}

ExploreSummary Explorer::run() {
  // Wall time runs on the injectable telemetry clock when attached, the
  // system steady clock otherwise (so the budget stays testable without
  // sleeping).
  telemetry::Clock& clk =
      tel_ ? tel_->clock() : telemetry::Clock::system();
  const uint64_t startUs = clk.nowMicros();
  // Make maxWallSeconds a real bound: hand the solver the same absolute
  // deadline, so one slow query aborts (Unknown) at the budget instead of
  // overshooting it (the documented flaw this replaces). Cleared before
  // returning — the solver instance may outlive this run.
  if (config_.maxWallSeconds > 0.0) {
    svc_.solver.setWallDeadlineMicros(saturatingAdd(
        startUs, saturatingCast(config_.maxWallSeconds * 1e6)));
  }
  ExploreSummary summary;
  Rng rng(config_.rngSeed);
  covered_.clear();
  ExploreObserver* ob = config_.observer;
  // Maintain dotted structural path keys only on request: each fork costs
  // one string per successor, which un-keyed observers shouldn't pay.
  const bool wantKeys = ob != nullptr && ob->wantsPathKeys();
  // Path-forest node ids: 0 is the root; forks mint fresh ids, straight-
  // line steps keep theirs. Only meaningful (and only maintained past the
  // counter) when an observer is attached.
  uint64_t nodeCounter = 0;
  // Solver-work baseline so StepInfo can report run-relative deltas even
  // when the solver instance is shared across explorations.
  const smt::SmtSolver::Stats solverBase = svc_.solver.stats();

  std::vector<Frontier> frontier;
  uint64_t orderCounter = 0;
  size_t frontierBytes = 0;  // sum of Frontier::bytes (governor tally)
  // Completed (non-truncated) paths; the maxPaths unit. Governor
  // evictions do not count against the completed-path budget.
  uint64_t completed = 0;
  // The reason stamped on frontier states left over when the loop stops.
  TruncReason closeReason = TruncReason::None;

  // Record one finished path.
  auto finish = [&](MachineState&& st, uint64_t node, std::string key) {
    summary.paths.push_back(
        finishPath(svc_, std::move(st), std::move(key), node, ob, ctr_.paths));
  };
  // Close one frontier state as Truncated{why} (governor eviction).
  auto evict = [&](TruncReason why) {
    const size_t vi = pickEvict(config_.strategy, frontier, rng);
    Frontier ev = std::move(frontier[vi]);
    frontier.erase(frontier.begin() + static_cast<long>(vi));
    frontierBytes -= ev.bytes;
    ev.state.status = PathStatus::Truncated;
    ev.state.truncReason = why;
    finish(std::move(ev.state), ev.node, std::move(ev.key));
  };

  const bool fuseOk = fusionOffered(config_, tel_);
  StepOut out;  // reused by every step

  frontier.push_back(Frontier{exec_.initialState(), orderCounter++, 0,
                              nodeCounter++, 0, {}});
  frontier.back().bytes = frontier.back().state.approxBytes();
  frontierBytes = frontier.back().bytes;
  if (ob) ob->onRoot(frontier.back().node, frontier.back().state);

  while (!frontier.empty()) {
    if (support::stopRequested()) {
      summary.stopReason = "signal";
      closeReason = TruncReason::Signal;
      break;
    }
    if (completed >= config_.maxPaths) {
      summary.stopReason = "max-paths";
      closeReason = TruncReason::Paths;
      break;
    }
    if (summary.totalSteps >= config_.maxTotalSteps) {
      summary.stopReason = "max-steps";
      closeReason = TruncReason::Steps;
      break;
    }
    if (config_.maxWallSeconds > 0.0 &&
        double(clk.nowMicros() - startUs) / 1e6 > config_.maxWallSeconds) {
      summary.stopReason = "wall";
      closeReason = TruncReason::Wall;
      break;
    }

    const size_t idx = pickNext(config_.strategy, frontier, rng);
    Frontier cur = std::move(frontier[idx]);
    frontier.erase(frontier.begin() + static_cast<long>(idx));
    frontierBytes -= cur.bytes;

    if (cur.state.steps >= config_.maxStepsPerPath) {
      cur.state.status = PathStatus::Budget;
      finish(std::move(cur.state), cur.node, std::move(cur.key));
      ++completed;
      continue;
    }

    const StepOrigin from(cur.state);
    smt::SmtSolver::Stats solverBefore;
    if (ob) {
      solverBefore = svc_.solver.stats();
      ob->onStepBegin(cur.node, cur.state);
    }
    const uint64_t fuel =
        fuseOk ? fusionFuel(config_, from.steps, summary.totalSteps) : 1;
    out.clear();
    exec_.stepMany(std::move(cur.state), out, fuel);
    summary.totalSteps += out.retired;
    if (ctr_.steps) ctr_.steps->add(out.retired);
    const bool newPcHere = covered_.insert(from.pc).second;
    for (const uint64_t fpc : out.fusedPcs) covered_.insert(fpc);

    if (out.successors.size() > 1) {
      const uint64_t forks = out.successors.size() - 1;
      summary.totalForks += forks;
      if (ctr_.forks) ctr_.forks->add(forks);
    }
    if (out.successors.empty()) {
      ++summary.statesDropped;
      if (ctr_.drops) ctr_.drops->add();
      if (ob) ob->onDrop(cur.node, from.pc);
    }

    const bool forked = out.successors.size() > 1;
    bool sawDefect = false;
    for (size_t si = 0; si < out.successors.size(); ++si) {
      MachineState& succ = out.successors[si];
      const uint64_t childNode = forked ? nodeCounter++ : cur.node;
      // Structural key: forks append the successor index; straight-line
      // steps inherit (matches core/pexplorer's PathKey discipline).
      std::string childKey;
      if (wantKeys) {
        childKey = cur.key;
        if (forked) {
          if (!childKey.empty()) childKey += '.';
          childKey += std::to_string(si);
        }
      }
      if (ob && forked) ob->onChild(cur.node, childNode, succ, from.condSize);
      if (succ.status == PathStatus::Running) {
        if (config_.mergeStates) {
          bool merged = false;
          for (Frontier& f : frontier) {
            if (f.state.pc == succ.pc && tryMerge(f.state, succ)) {
              merged = true;
              ++summary.statesMerged;
              if (ctr_.merges) ctr_.merges->add();
              if (ob) ob->onMerge(f.node, childNode, succ.pc);
              break;
            }
          }
          if (merged) continue;
        }
        Frontier f;
        f.newCovered = cur.newCovered / 2 + (newPcHere ? 1 : 0);
        f.order = orderCounter++;
        f.node = childNode;
        f.key = std::move(childKey);
        f.state = std::move(succ);
        f.bytes = f.state.approxBytes();
        fault::hit("alloc");  // frontier growth is the engine's allocation site
        frontierBytes += f.bytes;
        frontier.push_back(std::move(f));
        if (frontierPeak_) {
          frontierPeak_->setMax(static_cast<int64_t>(frontier.size()));
        }
        if (config_.maxFrontier != 0 &&
            frontier.size() > config_.maxFrontier) {
          evict(TruncReason::Frontier);
        }
      } else {
        sawDefect = sawDefect || succ.defect.has_value();
        finish(std::move(succ), childNode, std::move(childKey));
        ++completed;
      }
    }
    // Byte budget: frontier states plus the shared term pool. Evict until
    // under budget; if that drains the whole frontier the run ends as
    // "mem-budget" (the pool alone no longer fits).
    if (config_.memBudgetBytes != 0 && !frontier.empty()) {
      const size_t poolBytes = svc_.tm.numTerms() * kBytesPerTerm;
      while (!frontier.empty() &&
             frontierBytes + poolBytes > config_.memBudgetBytes) {
        evict(TruncReason::Memory);
      }
      if (frontier.empty()) {
        summary.stopReason = "mem-budget";
        break;
      }
    }
    if (ob) {
      const smt::SmtSolver::Stats after = svc_.solver.stats();
      ExploreObserver::StepInfo si = stepInfo(from, out, solverBefore, after);
      si.node = cur.node;
      si.frontierSize = frontier.size();
      si.totalSteps = summary.totalSteps;
      si.pathsDone = summary.paths.size();
      si.coveredPcs = covered_.size();
      si.runSolverQueries = after.queries - solverBase.queries;
      si.runSolverMicros = after.totalMicros - solverBase.totalMicros;
      if (wantKeys) si.pathKey = cur.key;
      si.frontierBytes = frontierBytes;
      ob->onStepEnd(si);
    }
    if (sawDefect && config_.stopAtFirstDefect) {
      summary.stopReason = "first-defect";
      closeReason = TruncReason::EarlyStop;
      break;
    }
  }

  // Close out *every* remaining frontier state as Truncated{closeReason}
  // so truncated + completed paths account for each forked state:
  //   1 + totalForks == paths.size() + statesDropped + statesMerged.
  if (!frontier.empty()) {
    // A non-empty frontier here means a break fired, and every break sets
    // closeReason before breaking.
    for (Frontier& f : frontier) {
      f.state.status = PathStatus::Truncated;
      f.state.truncReason = closeReason;
      finish(std::move(f.state), f.node, std::move(f.key));
    }
    frontier.clear();
  }
  tallyTruncated(summary);
  summary.solverUnknowns = svc_.solver.stats().unknown - solverBase.unknown;

  summary.coveredPcs = covered_.size();
  summary.coveredSet.insert(covered_.begin(), covered_.end());
  summary.wallSeconds = double(clk.nowMicros() - startUs) / 1e6;
  svc_.solver.setWallDeadlineMicros(0);
  return summary;
}

}  // namespace adlsym::core
