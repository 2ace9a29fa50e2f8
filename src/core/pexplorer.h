// Deterministic multi-threaded exploration engine (docs/parallelism.md).
// `explore --jobs=N` routes here instead of the sequential Explorer: a
// pool of N workers, each with a private TermManager + SmtSolver
// configured as the sequential engine's, cooperates over the frontier
// through work stealing.
// An API caller may also attach a shared single-flight query cache
// (src/smt/qcache.h); the CLI attaches none.
//
// Determinism contract: under --clock=manual the merged results — stats
// JSON, path forest, per-path test inputs and stdout — are byte-identical
// for every N, because
//   * every state is addressed by a structural path key (the sequence of
//     fork-successor indices from the root), independent of which worker
//     executes it or in what order;
//   * every Sat model is the one nearest the deciding state's witness
//     (SmtSolver::check), which does not depend on what the worker's
//     incremental core solved before, nor does a verdict, and canonical
//     costs are structural;
//   * the barrier merge walks the global record map in path-key order,
//     which is DFS preorder, and assigns dense node ids from that walk.
// Parallel node ids therefore differ from the sequential engine's
// completion-order ids, but are identical across all --jobs values.
// Remaining caveats (timing-dependent by nature): per-query wall
// deadlines, --max-wall-ms stops, a shared cache and a *binding*
// conflict budget all break cross-N identity;
// docs/parallelism.md lists them.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/executor.h"
#include "core/explorer.h"
#include "smt/solver.h"
#include "support/telemetry.h"

namespace adlsym::json {
class Writer;
struct Value;
}

namespace adlsym::smt {
class QueryCache;
}

namespace adlsym::core {

struct ParallelConfig {
  ExplorerConfig base;             // strategy, budgets, live observer
  unsigned jobs = 1;               // worker threads (clamped to >= 1)
  uint64_t manualClockStepUs = 0;  // per-worker ManualClock step; 0 = system
  smt::QueryCache* qcache = nullptr;  // shared cache; null (the CLI) = none
  uint64_t solverConflictBudget = 0;
  uint64_t solverTimeoutMicros = 0;   // per-query deadline on worker clocks
  /// Accumulate per-shape query rows in every worker solver (profiler
  /// runs; merged via queryShapes()).
  bool solverShapeProfile = false;
  /// Render each fork child's branch condition (core::forkCond) into its
  /// ParallelResult::tree node and checkpoint record. Only the path
  /// forest, its dot form and checkpoints read it, so a caller writing
  /// none of them can skip the rendering; otherwise `cond` stays empty.
  bool renderForkConds = true;
  /// Read by nothing: no worker solver consults the abstract pre-solver
  /// (docs/absdomain.md). Kept for API callers that still set it.
  bool prefilter = false;
  /// Extra query listener attached to every worker solver (not owned;
  /// null = none). Invoked from worker threads concurrently, so it must be
  /// thread-safe — the flight recorder (obs::EventBus) qualifies.
  smt::QueryListener* queryListener = nullptr;

  // ---- crash-safe checkpointing (docs/robustness.md) --------------------
  /// Canonical live gauges at the moment a checkpoint is written, handed
  /// to ckptExtras so CLI-owned sections can record schedule-independent
  /// values computed by the quiesced engine instead of their own racy
  /// rollups.
  struct CkptInfo {
    uint64_t steps = 0;
    uint64_t frontier = 0;
    uint64_t frontierBytes = 0;
    uint64_t pathsDone = 0;
    uint64_t coveredPcs = 0;
    uint64_t solverQueries = 0;
    uint64_t solverMicros = 0;
  };
  /// Write a checkpoint to `checkpointPath` every time all live states
  /// reach this many per-path steps (a level barrier — the pause point is
  /// a property of each state, not of scheduling, so checkpoint *content*
  /// is canonical across --jobs). 0 = no periodic checkpoints (the file,
  /// if configured, is still written on graceful stop and at run end).
  uint64_t checkpointEverySteps = 0;
  std::string checkpointPath;  // adlsym-ckpt-v6 file; empty = off
  /// Run identity echoed into every checkpoint so --resume can verify the
  /// resumed command matches the checkpointed one.
  std::string ckptIsa;
  std::string ckptStrategy;
  std::string ckptImageSha;
  /// Appends extra top-level sections ("sites", "events") to the
  /// checkpoint document. Called while every worker is quiescent; must
  /// not call back into the engine.
  std::function<void(json::Writer&, const CkptInfo&)> ckptExtras;
  /// Parsed checkpoint to resume from (ckpt::loadCheckpointFile): the
  /// engine seeds frontier, path records, counters and budgets from it
  /// instead of the executor's initial state. Not owned; must outlive
  /// run(). The CLI owns cross-checking the run identity fields.
  const json::Value* resume = nullptr;
};

struct ParallelResult {
  ExploreSummary summary;           // paths in preorder (tree) order
  /// Canonical merged path tree (core/observer.h): preorder-indexed, node
  /// 0 is the root and children follow their parent with ascending fork
  /// indices; obs::forestFromTree renders it.
  std::vector<PathTreeNode> tree;
};

class ParallelExplorer {
 public:
  /// Builds one executor per worker against that worker's private
  /// EngineServices (term pool + solver). The factory runs on the
  /// coordinator thread before workers start.
  using ExecutorFactory =
      std::function<std::unique_ptr<Executor>(EngineServices&)>;

  /// `mainTel` is the coordinator's bundle: its clock stamps wallSeconds
  /// (read exactly twice) and worker metric registries are merged into it
  /// at the barrier.
  ParallelExplorer(const loader::Image& image, const EngineConfig& engineCfg,
                   ParallelConfig cfg, ExecutorFactory factory,
                   telemetry::Telemetry* mainTel = nullptr);

  /// Runs the pool to completion and merges. Worker exceptions (injected
  /// faults, bad_alloc) stop the pool and rethrow here. Live observers in
  /// cfg.base.observer are invoked from worker threads with node id 0 —
  /// canonical ids exist only in the merged tree — so they must be
  /// thread-safe (LockedObserverMux) and use only order-independent
  /// StepInfo fields if their output is compared across --jobs values.
  ParallelResult run();

  /// Across-worker aggregate of the per-worker solver snapshots; valid
  /// after run(). Sums are canonical because each per-state query
  /// sequence is schedule-independent.
  const smt::SolverTelemetry& solverTelemetry() const { return solverTel_; }

  /// Across-worker merge of the per-shape query rows (valid after run()
  /// when cfg.solverShapeProfile was set). Worker-id-independent: per-key
  /// costs are canonical and a key's total hit count is issuances-1 under
  /// a non-binding cache, whichever worker took the miss.
  const std::map<unsigned, smt::SmtSolver::ShapeRow>& queryShapes() const {
    return shapes_;
  }

  /// Pool diagnostics, valid after run(). Inherently schedule-dependent
  /// (which worker stole what, how long thieves parked), so these go to
  /// stderr/heartbeat reporting only — never into the byte-identical
  /// stats/profile artifacts (docs/observability.md).
  struct PoolStats {
    unsigned jobs = 0;
    uint64_t steals = 0;        // frontier entries migrated to a thief
    uint64_t stealWaitMicros = 0;  // total time thieves parked (steady clock)
    uint64_t minWorkerSteps = 0;   // utilization spread across workers
    uint64_t maxWorkerSteps = 0;
    uint64_t totalSteps = 0;
  };
  const PoolStats& poolStats() const { return poolStats_; }

 private:
  const loader::Image& image_;
  EngineConfig engineCfg_;  // by value: worker services reference it
  ParallelConfig cfg_;
  ExecutorFactory factory_;
  telemetry::Telemetry* mainTel_;
  smt::SolverTelemetry solverTel_;
  std::map<unsigned, smt::SmtSolver::ShapeRow> shapes_;
  PoolStats poolStats_;
};

}  // namespace adlsym::core
