// Explorer lifecycle observer (docs/observability.md): the hook surface
// the exploration observatory (src/obs) builds on. The explorer assigns
// every path-forest node a dense id (0 = the root; a fork mints one fresh
// id per successor, a straight-line step keeps its node) and reports
// forks, drops, merges and path completions against those ids. All
// callbacks default to no-ops and the explorer skips every hook (and the
// solver-stats snapshots feeding StepInfo) when no observer is attached,
// so un-observed runs pay nothing.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/state.h"

namespace adlsym::core {

/// One path-forest node: a straight-line run of instructions between
/// forks. obs::PathForestRecorder fills these live from the observer hooks
/// (sequential engine); ParallelExplorer builds the same records from its
/// canonical merged tree (ParallelResult::tree). Either way `id` is the
/// node's index in a dense vector.
struct PathTreeNode {
  uint64_t id = 0;
  std::optional<uint64_t> parent;  // unset for the root
  uint64_t forkPc = 0;   // pc of the instruction that minted this node
  uint64_t entryPc = 0;  // first pc this node executes
  /// Branch condition(s) added at creation, rendered with smt::toString
  /// and joined with " & " (empty for the root and unconstrained forks).
  std::string cond;
  /// "root"; "sat" when the creating step issued solver queries,
  /// "assumed" when it issued none.
  std::string verdict;
  uint64_t solverQueries = 0;  // queries issued by the creating step
  uint64_t solverMicros = 0;   // their total latency
  /// Terminal state: a pathStatusName() value, "dropped" (every successor
  /// infeasible), "merged" (veritesting), "forked" (interior node — the id
  /// was retired by a fork), or "open" if the run ended with the node
  /// still on the frontier.
  std::string status = "open";
  /// truncReasonName() when status == "truncated" (governor close-out),
  /// empty otherwise.
  std::string truncReason;
  uint64_t finalPc = 0;
  uint64_t steps = 0;
  unsigned forks = 0;
  std::optional<uint64_t> exitCode;
  std::string defectKind;  // empty when the path had no defect
  uint64_t defectPc = 0;
  std::vector<TestCase::Value> testInputs;
  std::optional<uint64_t> mergedInto;  // host node, when status == "merged"
  std::vector<uint64_t> children;

  /// Record how the node's path ended: the fields from `status` to
  /// `testInputs`.
  void setResult(const PathResult& r);
};

/// PathTreeNode::cond of a fork successor `st`: the conjuncts past the
/// first `condBefore` of its path condition, rendered with smt::toString
/// and joined with " & ".
std::string forkCond(const MachineState& st, size_t condBefore);

class ExploreObserver {
 public:
  virtual ~ExploreObserver() = default;

  /// Opt-in to structural path keys: when any attached observer returns
  /// true, both engines fill StepInfo::pathKey and PathResult::pathKey
  /// with the dotted fork-index key of the stepped state ("" = root,
  /// "1.0" = second child of the first fork, then its first child).
  /// Structural keys are the identity that survives parallel scheduling
  /// (docs/parallelism.md), so the event stream (obs/events.h) keys every
  /// record on them. Off by default because maintaining the strings costs
  /// an allocation per fork.
  virtual bool wantsPathKeys() const { return false; }

  /// The initial state entered the frontier as node `node` (always 0).
  virtual void onRoot(uint64_t /*node*/, const MachineState& /*st*/) {}

  /// The instruction at st.pc is about to execute on `node`. Solver
  /// queries issued until the matching onStepEnd originate here.
  virtual void onStepBegin(uint64_t /*node*/, const MachineState& /*st*/) {}

  /// One executed instruction, reported after its successors were
  /// requeued (and any terminal ones finished). Solver fields are deltas
  /// measured on SmtSolver::stats(): step* covers this step only, run*
  /// accumulates since Explorer::run() began.
  struct StepInfo {
    uint64_t node = 0;
    uint64_t pc = 0;            // address of the executed instruction
    size_t numSuccessors = 0;   // 0 = infeasible, >1 = fork
    size_t frontierSize = 0;    // after requeueing
    uint64_t totalSteps = 0;
    size_t pathsDone = 0;
    size_t coveredPcs = 0;
    uint64_t stepSolverQueries = 0;
    uint64_t stepSolverMicros = 0;
    uint64_t runSolverQueries = 0;
    uint64_t runSolverMicros = 0;
    /// Fork depth of the stepped state (its pathCond fork count) — the
    /// heartbeat's "frontier depth" signal.
    uint64_t depth = 0;
    /// RTL statements evaluated by this step (StepOut::rtlTicks); 0 for
    /// engines without RTL semantics.
    uint64_t stepRtlTicks = 0;
    /// Canonical solver cost charged to this step (deltas of
    /// SmtSolver::Stats::canon — structural, so identical across -jN;
    /// docs/observability.md).
    uint64_t stepCanonTerms = 0;
    uint64_t stepCanonGates = 0;
    /// Structural path key of the stepped state (see wantsPathKeys);
    /// empty unless an attached observer opted in.
    std::string pathKey;
    /// Steps this state had executed *before* this one — strictly
    /// increasing along a path-forest node, so (pathKey, pathSteps) is a
    /// schedule-independent total order on step events.
    uint64_t pathSteps = 0;
    /// Estimated heap bytes held by frontier states (after requeueing) —
    /// the governor's --mem-budget-mb accounting signal.
    uint64_t frontierBytes = 0;
  };
  virtual void onStepEnd(const StepInfo& /*info*/) {}

  /// Retired: no engine calls it. Every state carries its witness, so
  /// nothing solves outside a step window. Kept with its signature only
  /// because perfbench/src/ledger.cpp overrides it; a change to the
  /// benchmark removes both.
  virtual void onOffStepSolve(uint64_t /*pc*/, uint64_t /*queries*/,
                              uint64_t /*canonTerms*/, uint64_t /*canonGates*/,
                              uint64_t /*canonConflicts*/, uint64_t /*preHits*/,
                              uint64_t /*preMisses*/) {}

  /// A fork minted `child` from `parent`; `st` is the successor state and
  /// the constraints added by the fork are st.pathCond[condSizeBefore..].
  virtual void onChild(uint64_t /*parent*/, uint64_t /*child*/,
                       const MachineState& /*st*/,
                       size_t /*condSizeBefore*/) {}

  /// `node`'s step produced no successors (every side infeasible).
  virtual void onDrop(uint64_t /*node*/, uint64_t /*pc*/) {}

  /// Successor node `incoming` was veritesting-merged into frontier node
  /// `host` at `pc` instead of being requeued.
  virtual void onMerge(uint64_t /*host*/, uint64_t /*incoming*/,
                       uint64_t /*pc*/) {}

  /// `node` left the frontier with a terminal status; `result` carries
  /// the final status, defect and generated witness inputs.
  virtual void onPathDone(uint64_t /*node*/, const PathResult& /*result*/) {}
};

/// Fan-out observer: forwards every callback to each added observer in
/// order. The CLI composes path-forest recording, query-log origin
/// tracking and the progress heartbeat through one of these.
class ObserverMux final : public ExploreObserver {
 public:
  void add(ExploreObserver* ob) {
    if (ob != nullptr) obs_.push_back(ob);
  }
  bool empty() const { return obs_.empty(); }

  bool wantsPathKeys() const override {
    for (ExploreObserver* ob : obs_) {
      if (ob->wantsPathKeys()) return true;
    }
    return false;
  }

  void onRoot(uint64_t node, const MachineState& st) override {
    for (ExploreObserver* ob : obs_) ob->onRoot(node, st);
  }
  void onStepBegin(uint64_t node, const MachineState& st) override {
    for (ExploreObserver* ob : obs_) ob->onStepBegin(node, st);
  }
  void onStepEnd(const StepInfo& info) override {
    for (ExploreObserver* ob : obs_) ob->onStepEnd(info);
  }
  void onChild(uint64_t parent, uint64_t child, const MachineState& st,
               size_t condSizeBefore) override {
    for (ExploreObserver* ob : obs_) ob->onChild(parent, child, st, condSizeBefore);
  }
  void onDrop(uint64_t node, uint64_t pc) override {
    for (ExploreObserver* ob : obs_) ob->onDrop(node, pc);
  }
  void onMerge(uint64_t host, uint64_t incoming, uint64_t pc) override {
    for (ExploreObserver* ob : obs_) ob->onMerge(host, incoming, pc);
  }
  void onPathDone(uint64_t node, const PathResult& result) override {
    for (ExploreObserver* ob : obs_) ob->onPathDone(node, result);
  }

 private:
  std::vector<ExploreObserver*> obs_;
};

/// Mutex-serialized fan-out for the parallel explorer: worker threads
/// invoke live observers (progress heartbeat, site stats) concurrently,
/// and neither those observers' state nor the underlying stream is
/// thread-safe on its own. One lock around the whole fan-out also keeps
/// each callback's observer sequence atomic (a heartbeat never interleaves
/// inside another callback's updates).
class LockedObserverMux final : public ExploreObserver {
 public:
  void add(ExploreObserver* ob) { mux_.add(ob); }
  bool empty() const { return mux_.empty(); }

  // Queried once at run start, before workers exist — no lock needed.
  bool wantsPathKeys() const override { return mux_.wantsPathKeys(); }

  void onRoot(uint64_t node, const MachineState& st) override {
    std::lock_guard<std::mutex> lk(mu_);
    mux_.onRoot(node, st);
  }
  void onStepBegin(uint64_t node, const MachineState& st) override {
    std::lock_guard<std::mutex> lk(mu_);
    mux_.onStepBegin(node, st);
  }
  void onStepEnd(const StepInfo& info) override {
    std::lock_guard<std::mutex> lk(mu_);
    mux_.onStepEnd(info);
  }
  void onChild(uint64_t parent, uint64_t child, const MachineState& st,
               size_t condSizeBefore) override {
    std::lock_guard<std::mutex> lk(mu_);
    mux_.onChild(parent, child, st, condSizeBefore);
  }
  void onDrop(uint64_t node, uint64_t pc) override {
    std::lock_guard<std::mutex> lk(mu_);
    mux_.onDrop(node, pc);
  }
  void onMerge(uint64_t host, uint64_t incoming, uint64_t pc) override {
    std::lock_guard<std::mutex> lk(mu_);
    mux_.onMerge(host, incoming, pc);
  }
  void onPathDone(uint64_t node, const PathResult& result) override {
    std::lock_guard<std::mutex> lk(mu_);
    mux_.onPathDone(node, result);
  }

 private:
  std::mutex mu_;
  ObserverMux mux_;
};

}  // namespace adlsym::core
