// Path exploration driver (DESIGN.md S7): maintains the frontier of
// running states, applies a search strategy, enforces budgets, and collects
// PathResults (with generated test inputs) for every completed path.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/executor.h"
#include "core/observer.h"
#include "core/state.h"
#include "support/rng.h"

namespace adlsym::core {

enum class SearchStrategy : uint8_t {
  DFS,       // LIFO: plunge to path completion first
  BFS,       // FIFO: breadth over depth
  Random,    // uniform random pick (deterministic seed)
  Coverage,  // prefer states that most recently covered a new pc
};

const char* strategyName(SearchStrategy s);

/// The Coverage strategy's order on frontier entries: new-pc credit
/// (`newCovered`), ties broken by creation sequence (`order`). Both
/// engines' frontier entries carry the two fields.
template <class Entry>
bool coverageLess(const Entry& a, const Entry& b) {
  return std::pair(a.newCovered, a.order) < std::pair(b.newCovered, b.order);
}

/// The frontier entry the strategy runs next.
template <class Entry>
size_t pickNext(SearchStrategy s, const std::vector<Entry>& fr, Rng& rng) {
  switch (s) {
    case SearchStrategy::DFS: return fr.size() - 1;
    case SearchStrategy::BFS: return 0;
    case SearchStrategy::Random:
      return static_cast<size_t>(rng.below(fr.size()));
    case SearchStrategy::Coverage:
      // Highest new-coverage count wins; newest state breaks ties (keeps a
      // DFS flavor so progress is still made when nothing is novel).
      return static_cast<size_t>(
          std::max_element(fr.begin(), fr.end(), coverageLess<Entry>) -
          fr.begin());
  }
  return fr.size() - 1;
}

/// Eviction victim for the governor: the entry the strategy would
/// schedule *last* (mirror image of pickNext).
template <class Entry>
size_t pickEvict(SearchStrategy s, const std::vector<Entry>& fr, Rng& rng) {
  switch (s) {
    case SearchStrategy::DFS: return 0;  // the front goes last
    case SearchStrategy::BFS: return fr.size() - 1;  // the back goes last
    case SearchStrategy::Random:
      return static_cast<size_t>(rng.below(fr.size()));
    case SearchStrategy::Coverage:
      // Least new coverage loses; oldest breaks ties.
      return static_cast<size_t>(
          std::min_element(fr.begin(), fr.end(), coverageLess<Entry>) -
          fr.begin());
  }
  return 0;
}

/// Approximate resident bytes per hash-consed term (node + bucket + ref
/// bookkeeping): the memory governor's charge for a term pool.
inline constexpr size_t kBytesPerTerm = 48;

/// Close one path, the same way in both engines: its PathResult (status,
/// counters, defect, `pathKey`) and the witness half, that is its test
/// inputs and, unless it ended in a defect (whose witness is those
/// inputs), its concrete exit code and output trace, all read off the
/// carried witness. Truncated paths get no witness: the governor closed
/// them precisely because a budget ran out. Then ticks `pathsCtr` and
/// reports onPathDone(node) to `ob` (either may be null).
PathResult finishPath(EngineServices& svc, MachineState&& st,
                      std::string pathKey, uint64_t node, ExploreObserver* ob,
                      telemetry::Counter* pathsCtr);

/// What an explorer reads of a state it steps once the step is done: the
/// executor consumes the state (Executor::stepMany), so these are taken
/// before the call.
struct StepOrigin {
  explicit StepOrigin(const MachineState& st)
      : pc(st.pc),
        steps(st.steps),
        forks(st.forks),
        condSize(st.pathCond.size()) {}
  uint64_t pc;
  uint64_t steps;
  unsigned forks;
  size_t condSize;  // where a fork child's own constraints start
};

/// The StepInfo fields both engines fill alike for one step from `from`
/// that produced `out`: its pc, depth and pre-step count, the successor
/// and tick counts, and the step-scoped solver fields (queries, latency,
/// canonical cost), the deltas between the solver's stats `before` and
/// `after` the step.
ExploreObserver::StepInfo stepInfo(const StepOrigin& from, const StepOut& out,
                                   const smt::SmtSolver::Stats& before,
                                   const smt::SmtSolver::Stats& after);

struct ExplorerConfig {
  SearchStrategy strategy = SearchStrategy::DFS;
  uint64_t maxPaths = 100000;        // completed paths
  uint64_t maxTotalSteps = 1000000;  // instructions across all paths
  uint64_t maxStepsPerPath = 100000;
  /// Wall-clock budget in seconds; 0 = unlimited. Checked between steps
  /// *and* passed down to the solver as an absolute deadline
  /// (SmtSolver::setWallDeadlineMicros), so a slow query aborts (Unknown)
  /// at the budget instead of overshooting it. Measured on the telemetry
  /// clock when one is attached (EngineServices::telemetry), so tests can
  /// drive it deterministically with a ManualClock.
  double maxWallSeconds = 0.0;
  /// Frontier cap (0 = unbounded): when a push would exceed it, the
  /// governor evicts the state the strategy values *least* and reports it
  /// as Truncated{frontier}.
  uint64_t maxFrontier = 0;
  /// Approximate byte budget (0 = unbounded) covering frontier states
  /// (MachineState::approxBytes) plus the shared term pool; over budget,
  /// frontier states are evicted as Truncated{memory}.
  uint64_t memBudgetBytes = 0;
  uint64_t rngSeed = 1;
  /// Stop as soon as the first defect is reported (for E7 time-to-defect).
  bool stopAtFirstDefect = false;
  /// Veritesting-style state merging: frontier states that reconverge at
  /// the same pc with compatible traces are merged into one state with
  /// ite-selected registers/memory and a disjunctive path condition.
  /// Collapses diamond control flow (e.g. bitcount: 2^k paths -> k+1) at
  /// the cost of larger terms. Off by default (DESIGN.md §6 ablation).
  bool mergeStates = false;
  /// Lifecycle hook for the exploration observatory (core/observer.h).
  /// Not owned; null = no observation at zero cost.
  ExploreObserver* observer = nullptr;
};

struct ExploreSummary {
  std::vector<PathResult> paths;
  uint64_t totalSteps = 0;   // instructions symbolically executed
  uint64_t totalForks = 0;
  uint64_t statesDropped = 0;  // infeasible frontier entries
  uint64_t statesMerged = 0;   // frontier merges (mergeStates only)
  /// Paths the governor closed (status Truncated), total and by reason
  /// (indexed by TruncReason). Together with the completed paths these
  /// account for every forked state:
  ///   1 + totalForks == paths.size() + statesDropped + statesMerged.
  uint64_t statesTruncated = 0;
  std::array<uint64_t, 8> truncatedByReason{};
  /// Why the run stopped: "" when the frontier was exhausted (complete
  /// exploration), else "max-paths", "max-steps", "wall", "mem-budget"
  /// or "first-defect".
  std::string stopReason;
  /// Solver queries that returned Unknown during this run (conflict
  /// budget or deadline); those branches are treated as not-taken.
  uint64_t solverUnknowns = 0;
  size_t coveredPcs = 0;
  /// Every instruction address executed at least once (coverage report).
  std::set<uint64_t> coveredSet;
  double wallSeconds = 0.0;

  unsigned numDefects() const {
    unsigned n = 0;
    for (const auto& p : paths) n += p.defect.has_value() ? 1 : 0;
    return n;
  }
  unsigned numExited() const {
    unsigned n = 0;
    for (const auto& p : paths) n += p.status == PathStatus::Exited ? 1 : 0;
    return n;
  }
  /// True when any path was truncated for a *budget* reason (not the
  /// user-requested stopAtFirstDefect stop) — the CLI's exit-3 predicate.
  bool budgetExhausted() const {
    return statesTruncated >
           truncatedByReason[static_cast<size_t>(TruncReason::EarlyStop)];
  }
};

/// The five explore.* counters both engines tick, resolved once per
/// telemetry registry (all null when `t` is).
struct ExploreCounters {
  ExploreCounters() = default;
  explicit ExploreCounters(telemetry::Telemetry* t);
  telemetry::Counter* steps = nullptr;
  telemetry::Counter* forks = nullptr;
  telemetry::Counter* drops = nullptr;
  telemetry::Counter* merges = nullptr;
  telemetry::Counter* paths = nullptr;
};

/// Whether an engine offers superblock fusion (Executor::stepMany with
/// fuel > 1): only when nothing can observe intermediate instructions —
/// no observer, no telemetry `tel`, no state merging (it needs per-pc
/// frontier hits), no governor budgets (their eviction points are
/// step-granular), no fault injection (fault sites must fire at their
/// exact step) — and in DFS order (the fused stretch is exactly the
/// sequence DFS would pop).
bool fusionOffered(const ExplorerConfig& cfg, const telemetry::Telemetry* tel);

/// The fuel of one fused step on a path that has run `pathSteps`
/// instructions, when the run has retired `totalSteps`. The caps
/// reproduce every stop boundary a per-instruction loop would hit: the
/// per-path and total step budgets (at least 1 when concurrent workers
/// overshot the total) and, through a bounded slab size, the wall-clock
/// check cadence. The parallel engine caps it at its level barrier too.
uint64_t fusionFuel(const ExplorerConfig& cfg, uint64_t pathSteps,
                    uint64_t totalSteps);

/// Count the truncated paths of `s.paths`, in total and by reason.
void tallyTruncated(ExploreSummary& s);

class Explorer {
 public:
  Explorer(Executor& exec, EngineServices& services, ExplorerConfig config);

  /// Run exploration from the executor's initial state to exhaustion or
  /// budget. Deterministic for a fixed config.
  ExploreSummary run();

 private:
  struct Frontier {
    MachineState state;
    uint64_t order = 0;     // creation sequence number (tie-break)
    uint64_t newCovered = 0;  // pcs first covered by this state's last step
    uint64_t node = 0;        // path-forest node id (core/observer.h)
    size_t bytes = 0;         // approxBytes() at push time (governor tally)
    /// Dotted structural path key ("" = root, then fork successor indices
    /// joined by '.'); maintained only when the attached observer returns
    /// wantsPathKeys() — empty otherwise.
    std::string key;
  };

  /// Try to merge `incoming` into `host` (both Running, same pc).
  /// Returns false (leaving both untouched) when the states' traces are
  /// incompatible.
  bool tryMerge(MachineState& host, const MachineState& incoming);

  Executor& exec_;
  EngineServices& svc_;
  ExplorerConfig config_;
  std::unordered_set<uint64_t> covered_;  // sorted into the summary once

  // Telemetry handles, resolved once at construction (null when disabled).
  telemetry::Telemetry* tel_ = nullptr;
  ExploreCounters ctr_;
  telemetry::Gauge* frontierPeak_ = nullptr;
};

}  // namespace adlsym::core
