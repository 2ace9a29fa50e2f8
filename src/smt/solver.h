// Incremental SMT(QF_BV) facade: simplify (at build time) -> bit-blast ->
// CDCL. One SmtSolver instance serves every path-feasibility query of an
// exploration run; path conditions are passed as assumptions so learned
// clauses are shared across paths. This is the repo's Z3 substitute
// (DESIGN.md, substitutions).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "smt/bitblast.h"
#include "smt/qcache.h"
#include "smt/sat.h"
#include "smt/term.h"
#include "support/telemetry.h"

namespace adlsym::smt {

enum class CheckResult { Sat, Unsat, Unknown };

const char* checkResultName(CheckResult r);

class PreSolver;  // smt/presolver.h; see setPreSolver

/// One snapshot of the whole SMT stack's statistics: query-level stats,
/// the SAT core, the bit-blaster and the shared cache, aggregated so
/// consumers read a single object instead of stitching stats()/satStats()/
/// blastStats() together (the CLI stats printout and the JSON stats
/// document are both rendered from this). The work counters (satCore,
/// blast, satVars, satClauses, coresKept, coreHits) count what one
/// incremental core did, which depends on what it solved before, and so
/// under --jobs on the schedule: they stay out of the stats document and
/// stdout and go to the [solver] stderr line of profiling runs
/// (workLine).
struct SolverTelemetry {
  uint64_t queries = 0;
  uint64_t sat = 0;
  uint64_t unsat = 0;
  uint64_t unknown = 0;
  uint64_t totalMicros = 0;
  uint64_t maxMicros = 0;
  uint64_t cacheHits = 0;
  SatSolver::Stats satCore;
  BitBlaster::Stats blast;
  uint64_t satVars = 0;
  uint64_t satClauses = 0;
  /// Kept Unsat cores: cores stored, and queries answered by one.
  uint64_t coresKept = 0;
  uint64_t coreHits = 0;
  /// Canonical (structural, schedule-independent) query cost totals; the
  /// profiler's reconciliation targets (docs/observability.md).
  QueryCost canon;

  /// Query buckets (the stats "prefilter" object, docs/observability.md).
  /// Every query lands in exactly one: cacheHits (the shared cache),
  /// preShortcircuit (permanently Unsat, a constant-false assumption, or
  /// an expired deadline) or directSolves (the solve step, kept-core
  /// answers included). The abstract prefilter's fields (preEnabled,
  /// preConsulted and its preSat/preUnsat/preFallback partition,
  /// preCoreConstraints) always read zero: no solver consults it any more
  /// (docs/absdomain.md). They stay until the stats schema drops them.
  bool preEnabled = false;
  uint64_t preConsulted = 0;
  uint64_t preSat = 0;
  uint64_t preUnsat = 0;
  uint64_t preFallback = 0;
  uint64_t preShortcircuit = 0;
  uint64_t directSolves = 0;
  /// Summed abstract-core sizes over conclusive-unsat verdicts: how many
  /// constraints the abstract explanation blamed, totalled per judged key.
  uint64_t preCoreConstraints = 0;

  /// Fold another snapshot in: counters add, maxMicros takes the max and
  /// preEnabled the or — the sum over a parallel run's workers.
  SolverTelemetry& operator+=(const SolverTelemetry& o);

  /// Hit rate over all queries (cached and solved), in [0,1].
  double cacheHitRate() const {
    return queries ? double(cacheHits) / double(queries) : 0.0;
  }

  /// Both prefilter accounting identities hold: the verdict kinds
  /// partition the consultations, and the four buckets partition the
  /// queries.
  bool prefilterReconciled() const {
    return preSat + preUnsat + preFallback == preConsulted &&
           cacheHits + preShortcircuit + preConsulted + directSolves ==
               queries;
  }

  /// The "solver" object of the stats schema (docs/observability.md).
  void writeJson(json::Writer& w) const;
  /// The top-level "prefilter" object of the stats schema (v6).
  void writePrefilterJson(json::Writer& w) const;
  /// Human-readable one-line form used by `adlsym explore`.
  std::string format() const;
  /// The work counters as the "[solver] ..." stderr line of profiling runs.
  std::string workLine() const;
};

/// Capture hook for every SmtSolver::check: receives the full query (the
/// permanent assertions plus this check's assumptions), the verdict and
/// the measured latency. obs::QueryLogger implements this to dump a
/// replayable SMT-LIB corpus (docs/observability.md).
class QueryListener {
 public:
  virtual ~QueryListener() = default;
  virtual void onCheck(const std::vector<TermRef>& permanent,
                       const std::vector<TermRef>& assumptions,
                       CheckResult result, uint64_t micros, bool cached) = 0;
};

class SmtSolver {
 public:
  explicit SmtSolver(TermManager& tm) : tm_(tm), bb_(tm, sat_) {}

  TermManager& termManager() { return tm_; }

  /// Permanently assert a width-1 term (conjoined with every later check).
  void assertAlways(TermRef t);

  /// Check satisfiability of the permanent assertions plus the given
  /// width-1 assumption terms. The one query pipeline: short-circuits,
  /// shared-cache lookup, deadline, solve (kept cores first), publish. A
  /// Sat model is whatever the incremental core found, so it depends on
  /// what this solver solved before: for probes whose model nobody reads.
  CheckResult check(const std::vector<TermRef>& assumptions);

  /// check() whose Sat model is the one nearest `witness`, a value per
  /// term of `inputs` (Var terms): the SAT core decides the inputs' bits
  /// first — inputs in order, each from its top bit, each at the
  /// witness's bit (an input past the witness's end at 0). So the model's
  /// inputs are the unique assignment whose XOR with the witness is least
  /// in that bit order, and an input outside the query keeps its witness
  /// value. That model depends only on the query, the inputs and the
  /// witness, never on this solver's history, so every engine and worker
  /// finds the same one (DESIGN.md decision 8).
  CheckResult check(const std::vector<TermRef>& assumptions,
                    const std::vector<TermRef>& inputs,
                    const std::vector<uint64_t>& witness);

  /// Model value of a term after a Sat result. The model is snapshotted at
  /// Sat time, so this works for any term (unconstrained variables read 0)
  /// and survives later incremental blasting.
  uint64_t modelValue(TermRef t);

  /// Throw an internal error (with the query as SMT-LIB) unless the last
  /// Sat model satisfies every permanent assertion and every one of
  /// `assumptions`, evaluated in one memoized pass. check() runs this on
  /// every Sat model it hands out, in every build.
  void verifyModel(const std::vector<TermRef>& assumptions);

  /// Abandon a query after this many SAT conflicts (0 = unlimited);
  /// exploration treats Unknown paths as not-taken and reports them.
  void setConflictBudget(uint64_t budget) { sat_.setConflictBudget(budget); }

  /// Per-query wall deadline, layered on the conflict budget: abandon a
  /// query (Unknown) once it has run this long on the query clock — the
  /// injected telemetry clock when attached, the system clock otherwise.
  /// 0 = unlimited.
  void setQueryTimeoutMicros(uint64_t us) { queryTimeoutMicros_ = us; }

  /// Absolute wall deadline shared by *all* queries (0 = none): the
  /// explorer sets this to its own budget's end so no single check()
  /// overshoots maxWallSeconds. A query starting past the deadline
  /// returns Unknown without touching the SAT core.
  void setWallDeadlineMicros(uint64_t us) { wallDeadlineMicros_ = us; }

  /// Debug cross-check: re-solve every incremental solve and every
  /// kept-core answer on a fresh single-shot solver (checkFresh) and throw
  /// (with an SMT-LIB dump) if the verdicts diverge. Extremely slow; for
  /// tests and bug reports only.
  void setParanoid(bool on) { paranoid_ = on; }

  /// No-op, kept for API callers that still call it. The solver keeps no
  /// query cache of its own: explore runs gave it no hits, and concolic
  /// runs no longer repeat their ancestors' queries. The one cache is the
  /// shared one (setSharedCache).
  void setQueryCacheEnabled(bool) {}
  /// Queries answered by the shared cache.
  uint64_t cacheHits() const { return cacheHits_; }

  struct Stats {
    uint64_t queries = 0;
    uint64_t sat = 0;
    uint64_t unsat = 0;
    uint64_t unknown = 0;
    uint64_t totalMicros = 0;
    uint64_t maxMicros = 0;
    /// Canonical per-query cost totals (see QueryCost): a Sat adds its
    /// cone's size, a cache hit *replays* the stored cost, so these
    /// accumulate identically whichever caller solved what. Observers
    /// read deltas of these to attribute solver cost per branch site.
    QueryCost canon;
    /// Query buckets besides cache hits; see SolverTelemetry.
    uint64_t preShortcircuit = 0;
    uint64_t directSolves = 0;
    /// Kept Unsat cores: cores stored, and queries answered by one (a
    /// part of directSolves).
    uint64_t coresKept = 0;
    uint64_t coreHits = 0;
  };
  const Stats& stats() const { return stats_; }
  const SatSolver::Stats& satStats() const { return sat_.stats(); }
  const BitBlaster::Stats& blastStats() const { return bb_.stats(); }

  /// Aggregate every layer's stats into one snapshot (see SolverTelemetry).
  SolverTelemetry telemetrySnapshot() const;

  /// Attach a telemetry bundle (may be null to detach): its clock times
  /// queries, and its registry gets the solver.query_us latency histogram
  /// and the solver.queries counter.
  void setTelemetry(telemetry::Telemetry* t);

  /// Attach a query-capture listener (null to detach). Every check() —
  /// including cache hits and short-circuited unsat checks — is reported.
  void setQueryListener(QueryListener* l) { listener_ = l; }

  /// Attach an *additional* listener (not owned, never detached): lets the
  /// event bus observe queries alongside a --query-log capture. Reported
  /// after the primary listener, in attachment order.
  void addQueryListener(QueryListener* l) {
    if (l != nullptr) extraListeners_.push_back(l);
  }

  /// Solve assumptions /\ permanent asserts once on a SAT core and
  /// bit-blaster built for this call alone, unbounded and off the books,
  /// so no state is shared with earlier queries. The reference verdict of
  /// paranoid mode and tests.
  CheckResult checkFresh(const std::vector<TermRef>& assumptions);

  /// Attach the run-wide shared query cache (not owned; null detaches).
  /// While attached, queries are keyed canonically
  /// (QueryCache::canonicalKey), hits replay the verdict, model and cost
  /// the key's first solve published, misses are solved and published
  /// single-flight. A replayed model is the one nearest the publishing
  /// caller's witness, not this caller's.
  void setSharedCache(QueryCache* c) { sharedCache_ = c; }

  /// No-op, kept for API callers that still call it. The solver consults
  /// no abstract pre-solver: a Sat side needs a model, which only a solve
  /// gives, and kept cores answer repeated Unsat sides (docs/absdomain.md).
  void setPreSolver(PreSolver*) {}

  /// One row of the profiler's query-shape table: queries grouped by the
  /// bit-width bucket of their canonical cone size. Sums are
  /// schedule-independent when aggregated over all workers: every
  /// issuance of a key carries the same replayed canonical cost, and a
  /// key with n issuances contributes exactly n-1 hits in total (under an
  /// unbounded cache) no matter which worker took the miss.
  struct ShapeRow {
    uint64_t queries = 0;
    uint64_t hits = 0;  // served from the shared cache
    uint64_t sat = 0;
    uint64_t unsat = 0;
    uint64_t unknown = 0;
    QueryCost cost;

    ShapeRow& operator+=(const ShapeRow& o) {
      queries += o.queries;
      hits += o.hits;
      sat += o.sat;
      unsat += o.unsat;
      unknown += o.unknown;
      cost += o.cost;
      return *this;
    }
  };

  /// Enable per-shape accumulation (profiler runs only; off by default).
  void setShapeProfiling(bool on) { shapeProfiling_ = on; }
  /// Rows keyed by bit_width(canonical terms) — 0 for cost-free
  /// short-circuited checks. std::map keeps emission order canonical.
  const std::map<unsigned, ShapeRow>& queryShapes() const { return shapes_; }

 private:
  /// The solve step: a kept core, else (unless `expired`: Unknown) the
  /// incremental core, deciding the witness's bits first (preferredLits),
  /// with the deadline on `clk` when `deadlineUs` is set. An Unsat keeps
  /// its failed assumptions as a core; a Sat fills model_ and `cost`.
  CheckResult solve(const std::vector<TermRef>& assumptions,
                    const std::vector<TermRef>& inputs,
                    const std::vector<uint64_t>& witness,
                    telemetry::Clock& clk, uint64_t deadlineUs, bool expired,
                    QueryCost& cost);
  /// The witness's bits as SAT literals to decide first, in check()'s
  /// order.
  std::vector<Lit> preferredLits(const std::vector<TermRef>& inputs,
                                 const std::vector<uint64_t>& witness);
  /// The canonical cost of a Sat query (QueryCost): the distinct terms of
  /// the cone of the permanent assertions and `assumptions`, all blasted,
  /// and the gates they requested.
  QueryCost coneCost(const std::vector<TermRef>& assumptions);

  /// Kept Unsat cores. After an Unsat of the incremental core, the
  /// assumption terms whose literals refuted it are stored as a sorted
  /// TermId set, watched under its largest (the newest) id. Permanent
  /// assertions only ever add constraints, so a core stays Unsat for the
  /// solver's lifetime and a query containing one is Unsat with no solve.
  /// Cores are not minimized: deletion re-solves cost more than the few
  /// extra hits they buy (ROADMAP). `lits` are the non-true assumptions'
  /// literals, in order.
  void keepCore(const std::vector<TermRef>& assumptions,
                const std::vector<Lit>& lits);
  /// Does a kept core lie inside the query's assumption set?
  bool refutedByCore(const std::vector<TermRef>& assumptions) const;
  /// Paranoid mode: re-solve with checkFresh and throw if it disagrees
  /// with `r`, the verdict `source` gave.
  void crossCheck(const std::vector<TermRef>& assumptions, CheckResult r,
                  const char* source);
  /// The query (permanent assertions and `assumptions`) as SMT-LIB.
  std::string querySmtLib(const std::vector<TermRef>& assumptions) const;

  /// Snapshot every blasted variable's value after a Sat answer into
  /// model_.
  void snapshotModel();
  /// model_ as the shared cache stores it: by α-slot (slotVars[i] is the
  /// Var behind slot i).
  std::vector<uint64_t> modelForCache(
      const std::vector<TermRef>& slotVars) const;
  /// Inverse of modelForCache: replace model_ with a cached model.
  void loadCachedModel(const std::vector<uint64_t>& values,
                       const std::vector<TermRef>& slotVars);

  TermManager& tm_;
  SatSolver sat_;
  BitBlaster bb_;
  std::vector<TermRef> permanentAsserts_;
  bool paranoid_ = false;
  bool permanentlyUnsat_ = false;
  std::vector<uint64_t> model_;  // Var index -> value (absent: 0)

  uint64_t cacheHits_ = 0;
  uint64_t queryTimeoutMicros_ = 0;
  uint64_t wallDeadlineMicros_ = 0;

  QueryCache* sharedCache_ = nullptr;

  // Kept Unsat cores (keepCore), and the cores watched under each id.
  std::vector<std::vector<TermId>> cores_;
  std::unordered_map<TermId, std::vector<uint32_t>> coreWatch_;

  // coneCost's visited marks: term id -> the walk that last saw it.
  std::vector<uint32_t> coneStamps_;
  uint32_t coneEpoch_ = 0;

  Stats stats_;

  bool shapeProfiling_ = false;
  std::map<unsigned, ShapeRow> shapes_;

  QueryListener* listener_ = nullptr;
  std::vector<QueryListener*> extraListeners_;

  // Telemetry (null when detached; hot paths branch on the pointers).
  telemetry::Telemetry* tel_ = nullptr;
  telemetry::Histogram* queryHist_ = nullptr;
  telemetry::Counter* queryCtr_ = nullptr;
};

}  // namespace adlsym::smt
