// Deterministic cost-attribution profiler (docs/observability.md): the
// one per-site collector, an ExploreObserver that charges execution cost
// (steps, RTL ticks, forks, infeasible drops) and solver cost (queries +
// canonical terms/gates) to the ADL semantic site that incurred
// it — the pc, and through the decoder the mnemonic. It feeds both the
// stats document's "opcodes"/"branch_sites" tables and the profile
// artifacts. Alongside it sits a report type that joins those sites with the
// per-RTL-statement tables (core::RtlProfile), the solver aggregate and
// the query-shape rows into the adlsym-profile-v5 JSON document, a
// collapsed-stack file for flamegraph tooling, and the top-level
// "profile" summary block of the stats schema (schema changelog:
// docs/observability.md).
//
// Every number here is canonical: per-step solver deltas are structural
// costs (smt::QueryCost), RTL tick counts depend only on what executed,
// and all tables are std::maps — so the emitted artifacts are
// byte-identical across --jobs values under --clock=manual. Schedule-
// dependent signals (wall micros, steal counts, worker utilization, SAT
// and blast work) are deliberately excluded; they live in
// ParallelExplorer::PoolStats and SolverTelemetry and go to stderr only.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>

#include "core/observer.h"
#include "core/rtlprofile.h"
#include "decode/decoder.h"
#include "smt/solver.h"

namespace adlsym::json {
class Writer;
struct Value;
}

namespace adlsym::obs {

class ProfileCollector final : public core::ExploreObserver {
 public:
  ProfileCollector(const adl::ArchModel& model, const loader::Image& image)
      : image_(image), decoder_(model) {}

  /// Thread-safe: parallel workers report concurrently (one mutex guards
  /// the decoder cache and the site table). All fields it reads from
  /// StepInfo are step-scoped deltas, never run* accumulators — in the
  /// parallel engine the latter are worker-local and meaningless summed.
  void onStepEnd(const StepInfo& info) override;
  /// A step at `pc` produced no successors (every side infeasible).
  /// Normal path termination also has zero successors but is not a drop,
  /// so drops are counted here rather than in onStepEnd.
  void onDrop(uint64_t node, uint64_t pc) override;

  struct SiteCost {
    std::string opcode;  // mnemonic; "<illegal>" when undecodable
    uint64_t steps = 0;
    uint64_t rtlTicks = 0;
    uint64_t forks = 0;          // steps yielding >1 successor
    uint64_t infeasible = 0;     // steps yielding 0 successors (drops)
    uint64_t queries = 0;        // issued inside this site's step windows
    smt::QueryCost canon;        // canonical (structural) solver cost
  };

  const std::map<uint64_t, SiteCost>& sites() const { return sites_; }

  // Collector-side totals; the report checks these against the engine and
  // solver aggregates (reconciliation).
  uint64_t totalSteps() const { return totalSteps_; }
  uint64_t totalRtlTicks() const { return totalTicks_; }
  /// Must equal the solver's query count: every query is in a step.
  uint64_t totalQueries() const { return totalQueries_; }

  /// Append the stats document's "opcodes" object (mnemonic -> steps) and
  /// "branch_sites" array (sites that forked or dropped) to an open JSON
  /// object.
  void writeJson(json::Writer& w) const;

  /// The checkpoint "sites" section (adlsym-ckpt-v6): the opcode table
  /// plus every executed or dropped site's [pc, steps, forks, infeasible],
  /// so a resumed run's final stats document is byte-identical to the
  /// uninterrupted run's.
  void writeCkptJson(json::Writer& w) const;

  /// Fold a parsed writeCkptJson() section in (--resume baseline); each
  /// restored pc is decoded afresh. Throws InputError on malformed input.
  void restoreFromCkpt(const json::Value& v);

 private:
  /// The site row for `pc`, decoded on first use. Caller holds mu_.
  SiteCost& siteAt(uint64_t pc);
  /// Per-mnemonic step totals of the executed sites. Caller holds mu_.
  std::map<std::string, uint64_t> opcodeSteps() const;

  mutable std::mutex mu_;
  const loader::Image& image_;
  decode::Decoder decoder_;
  std::map<uint64_t, SiteCost> sites_;  // pc -> cost
  uint64_t totalSteps_ = 0;
  uint64_t totalTicks_ = 0;
  uint64_t totalQueries_ = 0;
};

/// Joined view rendered after a run: collector sites + RTL statement
/// tables + solver aggregates. Plain struct — the CLI fills the
/// fields it has and calls the writers; null optional parts are skipped.
struct ProfileReport {
  std::string isa;      // ArchModel name
  std::string program;  // image path as given on the command line

  const ProfileCollector* prof = nullptr;  // required by all writers
  const core::RtlProfile* rtl = nullptr;   // per-statement tables; optional

  uint64_t engineSteps = 0;     // ExploreSummary::totalSteps
  uint64_t engineRtlTicks = 0;  // engine.rtl_ticks counter (merged)

  smt::SolverTelemetry solver;  // aggregate snapshot (merged across workers)
  /// Per-shape rows; null when shape profiling was off.
  const std::map<unsigned, smt::SmtSolver::ShapeRow>* shapes = nullptr;

  /// The acceptance identities: sum of per-site ticks == engine tick
  /// total, sum of per-site queries == solver query total.
  struct Reconcile {
    uint64_t siteRtlTicks = 0;
    uint64_t engineRtlTicks = 0;
    uint64_t siteQueries = 0;
    uint64_t solverQueries = 0;
    bool ticksOk() const { return siteRtlTicks == engineRtlTicks; }
    bool queriesOk() const { return siteQueries == solverQueries; }
    bool ok() const { return ticksOk() && queriesOk(); }
  };
  Reconcile reconcile() const;

  /// The full adlsym-profile-v5 document (compact JSON + '\n').
  void writeJson(std::ostream& os) const;
  /// Collapsed-stack lines ("frame;frame value") for flamegraph tooling.
  /// Roots name their unit: exec_ticks (RTL statements), solver_gates
  /// (canonical AIG gates).
  void writeFolded(std::ostream& os) const;
  /// The top-level "profile" summary block of adlsym-stats-v9 (appended
  /// to an open object; emitted only on profiling runs).
  void writeSummary(json::Writer& w) const;
  /// Human-readable tables for `adlsym profile` stdout.
  std::string formatText() const;
};

}  // namespace adlsym::obs
