// Flight recorder (docs/observability.md): the adlsym-events-v3 JSONL
// event stream. EventBus unifies the ExploreObserver and QueryListener
// hook surfaces into one versioned, seekable stream of events with
// monotone sequence numbers and periodic self-describing Snapshot events,
// so a reader can join mid-run (`adlsym tail`) or reconstruct the run's
// counters after the fact (`adlsym events summarize`).
//
// Determinism contract: the *set* of deterministic events (run_begin,
// step, merge, path_done, run_end) is identical across
// --jobs=1/2/8 under --clock=manual — every record is attributed to a
// structural path key (docs/parallelism.md), and only schedule-independent
// fields (canonical solver cost, per-step query counts) are emitted on
// them. Live signals (snapshot, heartbeat, query) carry schedule-
// dependent data and are quarantined to their own event types;
// canonicalizeEvents() drops them plus the seq/t fields and sorts what
// remains into a canonical order, which CI byte-compares across jobs
// counts.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/explorer.h"
#include "core/observer.h"
#include "smt/solver.h"
#include "support/json.h"
#include "support/telemetry.h"

namespace adlsym::obs {

struct EventBusOptions {
  /// Emit one snapshot event after every N step events (0 = never). The
  /// snapshot *count* is therefore deterministic across --jobs even
  /// though snapshot *content* is live.
  uint64_t snapshotEverySteps = 1000;
  /// Governor budgets echoed into snapshots (0 = unbounded).
  uint64_t maxFrontier = 0;
  uint64_t memBudgetBytes = 0;
  /// Decodable instructions in the image's code sections — the coverage-%
  /// denominator for snapshots and heartbeats (0 = unknown).
  uint64_t codePcs = 0;
};

/// The flight recorder. Attach to the explorer as an observer (through
/// the run's ObserverMux) and to the solver(s) via addQueryListener; call
/// runBegin() before exploration and runEnd() after. Thread-safe: worker
/// threads report steps and queries concurrently. Timestamps come from
/// the telemetry clock when attached — work-indexed (and deterministic in
/// sequence, though not across schedules) under --clock=manual.
class EventBus final : public core::ExploreObserver, public smt::QueryListener {
 public:
  /// `os` is borrowed and must outlive the bus; `tel` may be null
  /// (system-clock timestamps).
  EventBus(std::ostream& os, telemetry::Telemetry* tel,
           EventBusOptions opts = {});

  bool wantsPathKeys() const override { return true; }

  struct RunMeta {
    std::string command;   // "explore" | "profile"
    std::string isa;
    std::string strategy;
    std::string program;   // image label (cosmetic)
  };

  /// Emit the run_begin event (schema tag + invocation metadata).
  void runBegin(const RunMeta& meta);

  /// Emit the run_end event with the run's deterministic totals.
  /// `engineRtlTicks` is the evaluator's independently-flushed statement
  /// tick total (core/rtlprofile); pass 0 when not profiled — the field
  /// is omitted so summarize never checks ticks against a stale zero.
  void runEnd(const core::ExploreSummary& summary,
              const smt::SolverTelemetry& solver, uint64_t engineRtlTicks);

  // ---- ExploreObserver (deterministic events) -------------------------
  void onStepEnd(const StepInfo& info) override;
  void onMerge(uint64_t host, uint64_t incoming, uint64_t pc) override;
  void onPathDone(uint64_t node, const core::PathResult& result) override;

  // ---- QueryListener (live event) -------------------------------------
  void onCheck(const std::vector<smt::TermRef>& permanent,
               const std::vector<smt::TermRef>& assumptions,
               smt::CheckResult result, uint64_t micros, bool cached) override;

  // ---- live heartbeat (called by ProgressMeter) -----------------------
  void heartbeat(size_t frontier, size_t pathsDone, uint64_t steps,
                 double stepsPerSec, size_t coveredPcs, double solverShare,
                 uint64_t depth, uint64_t frontierBytes);

  struct Counts {
    uint64_t runBegin = 0;
    uint64_t step = 0;
    uint64_t snapshot = 0;
    uint64_t merge = 0;
    uint64_t pathDone = 0;
    uint64_t query = 0;
    uint64_t heartbeat = 0;
    uint64_t runEnd = 0;
    /// Events lost to a failed stream write (disk full, closed pipe).
    uint64_t dropped = 0;
  };
  Counts counts() const;

  /// The "events" object of the stats schema (v7): per-type emitted
  /// counts, drops and the snapshot cadence.
  void writeStatsJson(json::Writer& w) const;

  void flush();

  // ---- checkpoint support (adlsym-ckpt-v6, docs/robustness.md) ---------

  /// Canonical replacement values for the live snapshot gauges, computed
  /// by the quiesced engine at a checkpoint barrier. The bus's own
  /// rollups are last-writer racy across worker schedules, so checkpoints
  /// store these instead — keeping checkpoint bytes identical across -jN.
  struct CkptGauges {
    uint64_t steps = 0;
    uint64_t frontier = 0;
    uint64_t frontierBytes = 0;
    uint64_t pathsDone = 0;
    uint64_t covered = 0;
    uint64_t queries = 0;
    uint64_t solverMicros = 0;
  };

  /// Append the bus's deterministic watermark state (seq / per-type
  /// counts / snapshot cadence counter / first-event time) plus the
  /// canonical gauges as one JSON object. The caller wraps it with the
  /// stream byte offset and canonical-prefix hash. The inter-snapshot
  /// depth histogram is deliberately *not* stored (schedule-dependent,
  /// snapshot-only): a resumed run's first snapshot starts it empty.
  void writeCkptJson(json::Writer& w, const CkptGauges& gauges) const;

  /// Resume-mode begin: adopt run metadata and restore the counters from
  /// a checkpoint's "events" section instead of emitting a fresh
  /// run_begin — the spliced stream prefix already carries one.
  void resumeRun(const RunMeta& meta, const json::Value& v);

 private:
  // Hand-rolled line formatting: emission is on the interpreter hot path
  // (one step event per executed instruction), so events are rendered
  // into a reused std::string with std::to_chars — no ostringstream, no
  // per-event allocation once the buffer has grown. The hot helpers are
  // templates over the key literal so every field becomes a handful of
  // fixed-size memcpys into a stack buffer plus one string append. All
  // helpers require the caller to hold mu_.
  /// Open one event line ({"v":1,"seq":N,"t":T,"type":...) into line_.
  template <size_t N>
  void lineBegin(const char (&type)[N]) {
    line_.clear();
    const uint64_t t = tel_ != nullptr ? tel_->nowMicros()
                                       : telemetry::Clock::system().nowMicros();
    if (!started_) {
      started_ = true;
      startMicros_ = t;
    }
    char buf[N + 64];
    char* p = buf;
    std::memcpy(p, "{\"v\":1,\"seq\":", 13);
    p += 13;
    p = std::to_chars(p, p + 20, seq_++).ptr;
    std::memcpy(p, ",\"t\":", 5);
    p += 5;
    p = std::to_chars(p, p + 20, t).ptr;
    std::memcpy(p, ",\"type\":\"", 9);
    p += 9;
    std::memcpy(p, type, N - 1);
    p += N - 1;
    *p++ = '"';
    line_.append(buf, static_cast<size_t>(p - buf));
  }
  template <size_t N>
  void kvU(const char (&key)[N], uint64_t v) {  // ,"key":123
    char buf[N + 24];
    char* p = buf;
    *p++ = ',';
    *p++ = '"';
    std::memcpy(p, key, N - 1);
    p += N - 1;
    *p++ = '"';
    *p++ = ':';
    p = std::to_chars(p, p + 20, v).ptr;
    line_.append(buf, static_cast<size_t>(p - buf));
  }
  template <size_t N>
  void kvS(const char (&key)[N], std::string_view v) {  // ,"key":"escaped"
    char buf[N + 4];
    char* p = buf;
    *p++ = ',';
    *p++ = '"';
    std::memcpy(p, key, N - 1);
    p += N - 1;
    *p++ = '"';
    *p++ = ':';
    *p++ = '"';
    line_.append(buf, static_cast<size_t>(p - buf));
    appendJsonString(v);
    line_ += '"';
  }
  /// Append v to line_, escaping only when it contains bytes that need it.
  void appendJsonString(std::string_view v);
  void kvD(const char* key, double v);  // ,"key":1.5 (%.9g)
  void kvB(const char* key, bool v);    // ,"key":true
  /// Close the line and write it to the stream, tracking drops.
  void commit(uint64_t& counter, bool flushNow = false);
  void emitSnapshot();  // caller holds mu_

  std::ostream& os_;
  telemetry::Telemetry* tel_;
  EventBusOptions opts_;

  mutable std::mutex mu_;
  std::string line_;
  uint64_t seq_ = 0;
  Counts counts_;
  RunMeta meta_;
  /// Step events *seen* (independent of write failures) — the snapshot
  /// cadence counter, so the snapshot count stays deterministic even when
  /// the stream drops writes.
  uint64_t stepEvents_ = 0;

  // Live rollups feeding snapshots (updated on step events).
  uint64_t liveSteps_ = 0;
  uint64_t liveFrontier_ = 0;
  uint64_t liveFrontierBytes_ = 0;
  uint64_t livePathsDone_ = 0;
  uint64_t liveCovered_ = 0;
  uint64_t liveQueries_ = 0;
  uint64_t liveSolverMicros_ = 0;
  uint64_t startMicros_ = 0;
  bool started_ = false;
  /// Depth histogram of steps since the last snapshot: bucket 0 = depth 0,
  /// bucket k = depth in [2^(k-1), 2^k) for k in 1..6, bucket 7 = 64+.
  uint64_t depthHist_[8] = {};
};

// ---- stream tools -----------------------------------------------------

/// Canonicalize an adlsym-events-v3 stream: drop the live event types
/// (snapshot, heartbeat, query) and the schedule-dependent seq/t fields,
/// then sort the remaining events into canonical order — type rank, then
/// numeric structural path key, then per-path step index. The output is
/// byte-identical across --jobs for the same run configuration. Returns
/// the number of canonical events written. Throws adlsym::InputError on a
/// malformed stream.
size_t canonicalizeEvents(std::istream& in, std::ostream& out);

/// Counters recomputed from an event stream plus the run_end echo,
/// cross-checked against the reconciliation identities (paths identity,
/// query attribution, 4-bucket accounting, tick totals).
struct EventsSummary {
  // Recomputed from the deterministic events.
  uint64_t steps = 0;       // step events
  uint64_t forks = 0;       // sum of (succ - 1) over forking steps
  uint64_t dropped = 0;     // step events with 0 successors
  uint64_t merges = 0;      // merge events
  uint64_t pathsDone = 0;   // path_done events
  uint64_t truncated = 0;   // path_done with status "truncated"
  uint64_t defects = 0;     // path_done with a defect
  uint64_t exited = 0;      // path_done with status "exited"
  uint64_t stepQueries = 0;
  uint64_t rtlTicks = 0;
  uint64_t canonTerms = 0;
  uint64_t canonGates = 0;
  std::map<std::string, uint64_t> pathStatuses;
  // Raw per-type event counts (for the stats "events.emitted" cross-check).
  uint64_t queryEvents = 0;
  uint64_t snapshotEvents = 0;
  uint64_t heartbeatEvents = 0;

  // Echo of the run_begin / run_end records.
  bool sawRunBegin = false;
  bool sawRunEnd = false;
  std::string command;
  std::string isa;
  std::string strategy;
  std::string stopReason;
  uint64_t endSteps = 0;
  uint64_t endForks = 0;
  uint64_t endDropped = 0;
  uint64_t endMerged = 0;
  uint64_t endPaths = 0;
  uint64_t endTruncated = 0;
  uint64_t endCoveredPcs = 0;
  uint64_t endQueries = 0;
  uint64_t endCacheHits = 0;
  uint64_t endPreShortcircuit = 0;
  uint64_t endPreConsulted = 0;
  uint64_t endDirectSolves = 0;
  uint64_t endCanonTerms = 0;
  uint64_t endCanonGates = 0;
  bool endHasRtlTicks = false;
  uint64_t endRtlTicks = 0;

  /// Failed identities / malformed records, human-readable.
  std::vector<std::string> problems;
  bool ok() const { return problems.empty(); }
  std::string formatText() const;
};

/// Replay a stream and check every reconciliation identity. Throws
/// adlsym::InputError on unreadable/malformed JSONL.
EventsSummary summarizeEvents(std::istream& in);

/// Cross-check a summarized stream against a parsed adlsym-stats-v9
/// document (the run's --stats-json). Returns mismatch descriptions
/// (empty = the stream reconciles exactly with the stats counters).
std::vector<std::string> reconcileWithStats(const EventsSummary& es,
                                            const json::Value& stats);

// ---- live inspector (`adlsym tail`) -----------------------------------

/// Incremental reader state for the terminal inspector: apply() events in
/// stream order, render() the dashboard at any point. Pure state machine
/// (no I/O) so tests can drive it without a terminal.
class TailState {
 public:
  /// Apply one parsed event line. Unknown event types are counted but
  /// otherwise ignored (forward compatibility).
  void apply(const json::Value& ev);
  /// True once run_end was applied.
  bool done() const { return done_; }
  uint64_t eventsSeen() const { return events_; }
  /// Multi-line dashboard: run metadata, latest snapshot gauges, event
  /// counts and rates.
  std::string render() const;

 private:
  bool done_ = false;
  uint64_t events_ = 0;
  uint64_t lastSeq_ = 0;
  uint64_t lastMicros_ = 0;
  std::string command_, isa_, strategy_, program_, stopReason_;
  std::map<std::string, uint64_t> typeCounts_;
  // Latest gauges (snapshot > heartbeat > step, whichever came last).
  uint64_t frontier_ = 0, frontierBytes_ = 0, pathsDone_ = 0, steps_ = 0,
           covered_ = 0, codePcs_ = 0, depth_ = 0;
  double stepsPerSec_ = 0.0;
  std::vector<uint64_t> depthHist_;
  // Terminal totals from run_end.
  uint64_t endPaths_ = 0, endDefects_ = 0, endQueries_ = 0;
};

}  // namespace adlsym::obs
