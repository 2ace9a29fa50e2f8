#include "smt/solver.h"

#include <algorithm>
#include <bit>

#include "smt/printer.h"
#include "smt/qcache.h"
#include "support/bits.h"
#include "support/fault.h"
#include "support/json.h"
#include "support/strings.h"

namespace adlsym::smt {

const char* checkResultName(CheckResult r) {
  switch (r) {
    case CheckResult::Sat: return "sat";
    case CheckResult::Unsat: return "unsat";
    case CheckResult::Unknown: return "unknown";
  }
  return "?";
}

void SolverTelemetry::writeJson(json::Writer& w) const {
  w.beginObject();
  w.kv("queries", queries);
  w.kv("sat", sat);
  w.kv("unsat", unsat);
  w.kv("unknown", unknown);
  w.kv("total_micros", totalMicros);
  w.kv("max_micros", maxMicros);
  w.kv("cache_hits", cacheHits);
  w.kv("cache_hit_rate", cacheHitRate());
  w.key("sat_core").beginObject();
  w.kv("conflicts", satCore.conflicts);
  w.kv("decisions", satCore.decisions);
  w.kv("propagations", satCore.propagations);
  w.kv("restarts", satCore.restarts);
  w.kv("learned", satCore.learned);
  w.kv("deleted_clauses", satCore.deletedClauses);
  w.kv("deadline_aborts", satCore.deadlineAborts);
  w.kv("vars", satVars);
  w.kv("clauses", satClauses);
  w.endObject();
  w.key("bitblast").beginObject();
  w.kv("gates", blast.gates);
  w.kv("gate_cache_hits", blast.cacheHits);
  w.kv("terms_blasted", blast.termsBlasted);
  w.endObject();
  // Canonical (cache-replayed) cost totals — schedule-independent, unlike
  // sat_core/bitblast which only count work actually performed. v5.
  w.key("canon").beginObject();
  w.kv("terms", canon.terms);
  w.kv("gates", canon.gates);
  w.kv("conflicts", canon.conflicts);
  w.endObject();
  w.endObject();
}

void SolverTelemetry::writePrefilterJson(json::Writer& w) const {
  w.beginObject();
  w.kv("enabled", preEnabled);
  w.kv("consulted", preConsulted);
  w.kv("sat", preSat);
  w.kv("unsat", preUnsat);
  w.kv("hits", preSat + preUnsat);
  w.kv("fallbacks", preFallback);
  w.kv("shortcircuit", preShortcircuit);
  w.kv("direct", directSolves);
  w.kv("core_constraints", preCoreConstraints);
  w.kv("reconciled", prefilterReconciled());
  w.endObject();
}

std::string SolverTelemetry::format() const {
  std::string out = formatStr(
      "solver: %llu queries (%llu sat, %llu unsat, %llu unknown), %.1f ms, "
      "%llu cache hits (%.0f%%)\n",
      static_cast<unsigned long long>(queries),
      static_cast<unsigned long long>(sat),
      static_cast<unsigned long long>(unsat),
      static_cast<unsigned long long>(unknown), totalMicros / 1e3,
      static_cast<unsigned long long>(cacheHits), 100.0 * cacheHitRate());
  out += formatStr(
      "sat: %llu conflicts, %llu decisions, %llu propagations | blast: "
      "%llu gates, %llu terms\n",
      static_cast<unsigned long long>(satCore.conflicts),
      static_cast<unsigned long long>(satCore.decisions),
      static_cast<unsigned long long>(satCore.propagations),
      static_cast<unsigned long long>(blast.gates),
      static_cast<unsigned long long>(blast.termsBlasted));
  return out;
}

SolverTelemetry& SolverTelemetry::operator+=(const SolverTelemetry& o) {
  queries += o.queries;
  sat += o.sat;
  unsat += o.unsat;
  unknown += o.unknown;
  totalMicros += o.totalMicros;
  maxMicros = std::max(maxMicros, o.maxMicros);
  cacheHits += o.cacheHits;
  satCore += o.satCore;
  blast += o.blast;
  satVars += o.satVars;
  satClauses += o.satClauses;
  canon += o.canon;
  preEnabled = preEnabled || o.preEnabled;
  preConsulted += o.preConsulted;
  preSat += o.preSat;
  preUnsat += o.preUnsat;
  preFallback += o.preFallback;
  preShortcircuit += o.preShortcircuit;
  directSolves += o.directSolves;
  preCoreConstraints += o.preCoreConstraints;
  return *this;
}

SolverTelemetry SmtSolver::telemetrySnapshot() const {
  SolverTelemetry t;
  t.queries = stats_.queries;
  t.sat = stats_.sat;
  t.unsat = stats_.unsat;
  t.unknown = stats_.unknown;
  t.totalMicros = stats_.totalMicros;
  t.maxMicros = stats_.maxMicros;
  t.cacheHits = cacheHits_;
  t.canon = stats_.canon;
  t.preShortcircuit = stats_.preShortcircuit;
  t.directSolves = stats_.directSolves;
  if (freshMode_) {
    t.satCore = freshSat_;
    t.blast = freshBlast_;
    t.satVars = freshVars_;
    t.satClauses = freshClauses_;
  } else {
    t.satCore = sat_.stats();
    t.blast = bb_.stats();
    t.satVars = sat_.numVars();
    t.satClauses = sat_.numClauses();
  }
  return t;
}

void SmtSolver::setTelemetry(telemetry::Telemetry* t) {
  tel_ = t;
  queryHist_ = t ? &t->metrics().histogram("solver.query_us") : nullptr;
  queryCtr_ = t ? &t->metrics().counter("solver.queries") : nullptr;
  coreHitCtr_ = nullptr;  // resolved by the next incremental query
  coresKeptCtr_ = nullptr;
  attachIncrementalTelemetry();
}

void SmtSolver::setFreshMode(bool on) {
  freshMode_ = on;
  attachIncrementalTelemetry();
}

void SmtSolver::attachIncrementalTelemetry() {
  // Attaching registers the SAT and blast metric names, so a registry
  // lists them whether or not a fresh solve ever runs. In fresh mode the
  // pair is the warm core, whose work stays off the books: detach again.
  sat_.setTelemetry(tel_);
  bb_.setTelemetry(tel_);
  if (freshMode_) {
    sat_.setTelemetry(nullptr);
    bb_.setTelemetry(nullptr);
  }
}

void SmtSolver::assertAlways(TermRef t) {
  adlsym::check(t.width() == 1, "assertAlways requires a width-1 term");
  if (t.isTrue()) return;
  permanentAsserts_.push_back(t);
  if (t.isFalse()) {
    permanentlyUnsat_ = true;
    return;
  }
  if (!sat_.addUnit(bb_.litFor(t))) permanentlyUnsat_ = true;
}

namespace {
CheckResult fromSat(SatResult r) {
  switch (r) {
    case SatResult::Sat: return CheckResult::Sat;
    case SatResult::Unsat: return CheckResult::Unsat;
    case SatResult::Unknown: return CheckResult::Unknown;
  }
  return CheckResult::Unknown;
}

/// Bump the counter of verdict `r`.
void tally(CheckResult r, uint64_t& sat, uint64_t& unsat, uint64_t& unknown) {
  ++(r == CheckResult::Sat ? sat : r == CheckResult::Unsat ? unsat : unknown);
}
}  // namespace

CheckResult SmtSolver::solveFresh(const std::vector<TermRef>& assumptions,
                                  telemetry::Clock* clk, uint64_t deadlineUs) {
  if (fresh_ == nullptr) {
    fresh_ = std::make_unique<FreshCore>(tm_);
  } else {
    fresh_->sat.reset();
    fresh_->bb.reset();
  }
  FreshCore& fc = *fresh_;
  if (clk != nullptr) {
    fc.sat.setTelemetry(tel_);
    fc.bb.setTelemetry(tel_);
    fc.sat.setConflictBudget(conflictBudget_);
    if (deadlineUs != 0) fc.sat.setDeadline(clk, deadlineUs);
  }
  bool ok = true;
  for (const TermRef t : permanentAsserts_) {
    if (t.isFalse() || !fc.sat.addUnit(fc.bb.litFor(t))) ok = false;
  }
  std::vector<Lit> lits;
  lits.reserve(assumptions.size());
  for (const TermRef t : assumptions) {
    if (t.isTrue()) continue;
    if (t.isFalse()) return CheckResult::Unsat;
    lits.push_back(fc.bb.litFor(t));
  }
  return ok ? fromSat(fc.sat.solve(lits)) : CheckResult::Unsat;
}

void SmtSolver::snapshotModel(BitBlaster& bb, const SatSolver& sat) {
  model_.clear();
  for (const auto& [termId, bits] : bb.varTerms()) {
    uint64_t v = 0;
    for (size_t i = 0; i < bits.size(); ++i) {
      if (sat.modelValue(bits[i])) v |= uint64_t{1} << i;
    }
    const uint32_t idx = tm_.varIndex(termId);
    if (idx >= model_.size()) model_.resize(idx + 1, 0);
    model_[idx] = v;
  }
}

std::vector<uint64_t> SmtSolver::modelForCache(
    const std::vector<TermRef>& slotVars) const {
  std::vector<uint64_t> values;
  values.reserve(slotVars.size());
  for (const TermRef v : slotVars) {
    const uint32_t idx = tm_.varIndex(v.id());
    values.push_back(idx < model_.size() ? model_[idx] : 0);
  }
  return values;
}

void SmtSolver::loadCachedModel(const std::vector<uint64_t>& values,
                                const std::vector<TermRef>& slotVars) {
  model_.clear();
  const size_t n = std::min(slotVars.size(), values.size());
  for (size_t i = 0; i < n; ++i) {
    const uint32_t idx = tm_.varIndex(slotVars[i].id());
    if (idx >= model_.size()) model_.resize(idx + 1, 0);
    model_[idx] = values[i];
  }
}

CheckResult SmtSolver::checkFresh(const std::vector<TermRef>& assumptions) {
  return solveFresh(assumptions, nullptr, 0);
}

std::string SmtSolver::verdictMismatch(
    const std::vector<TermRef>& assumptions, const char* source,
    CheckResult r, CheckResult fresh) const {
  std::vector<TermRef> all = permanentAsserts_;
  all.insert(all.end(), assumptions.begin(), assumptions.end());
  return std::string(source) + "=" + checkResultName(r) +
         " fresh=" + checkResultName(fresh) + "\n" + toSmtLib(all);
}

void SmtSolver::crossCheck(const std::vector<TermRef>& assumptions,
                           CheckResult r, const char* source) {
  const CheckResult fresh = checkFresh(assumptions);
  if (fresh != CheckResult::Unknown && fresh != r) {
    throw Error("paranoid check: " +
                verdictMismatch(assumptions, source, r, fresh));
  }
}

void SmtSolver::keepCore(const std::vector<TermRef>& assumptions,
                         const std::vector<Lit>& lits) {
  const std::vector<Lit>& failed = sat_.failedAssumptions();
  if (failed.empty()) {  // the permanent assertions alone are Unsat
    // Fresh mode keeps each query in its bucket; the warm core refutes
    // every later query at once anyway.
    if (!freshMode_) permanentlyUnsat_ = true;
    return;
  }
  std::vector<TermId> core;
  size_t i = 0;
  for (const TermRef t : assumptions) {
    if (t.isTrue()) continue;
    const Lit l = lits[i++];
    if (std::find(failed.begin(), failed.end(), l) != failed.end()) {
      core.push_back(t.id());
    }
  }
  std::sort(core.begin(), core.end());
  core.erase(std::unique(core.begin(), core.end()), core.end());
  coreWatch_[core.back()].push_back(static_cast<uint32_t>(cores_.size()));
  cores_.push_back(std::move(core));
  ++stats_.coresKept;
  if (coresKeptCtr_) coresKeptCtr_->add();
}

bool SmtSolver::refutedByCore(const std::vector<TermRef>& assumptions) const {
  if (cores_.empty()) return false;
  auto inQuery = [&](TermId id) {
    return std::any_of(assumptions.begin(), assumptions.end(),
                       [id](TermRef t) { return t.id() == id; });
  };
  // Newest first: the branch condition, issued last, is most often the
  // watched id of the core that refutes the query.
  for (auto t = assumptions.rbegin(); t != assumptions.rend(); ++t) {
    const auto it = coreWatch_.find(t->id());
    if (it == coreWatch_.end()) continue;
    for (const uint32_t c : it->second) {
      const std::vector<TermId>& core = cores_[c];
      // The watched (last) id is *t itself.
      if (std::all_of(core.begin(), core.end() - 1, inQuery)) return true;
    }
  }
  return false;
}

CheckResult SmtSolver::solveIncremental(const std::vector<TermRef>& assumptions,
                                        telemetry::Clock* clk,
                                        uint64_t deadlineUs, QueryCost& cost) {
  sat_.setDeadline(clk, deadlineUs);
  const uint64_t terms0 = bb_.stats().termsBlasted;
  const uint64_t gates0 = bb_.stats().gates;
  const uint64_t conflicts0 = sat_.stats().conflicts;
  std::vector<Lit> lits;
  lits.reserve(assumptions.size());
  for (const TermRef t : assumptions) {
    if (!t.isTrue()) lits.push_back(bb_.litFor(t));
  }
  const CheckResult r = fromSat(sat_.solve(lits));
  if (paranoid_ && r != CheckResult::Unknown) {
    crossCheck(assumptions, r, freshMode_ ? "warm" : "incremental");
  }
  if (r == CheckResult::Unsat) keepCore(assumptions, lits);
  // Snapshot variable values immediately: any later incremental blast
  // (even for model reads) unwinds the assignment trail. Fresh mode takes
  // its models from the fresh core instead.
  if (r == CheckResult::Sat && !freshMode_) snapshotModel(bb_, sat_);
  cost = {bb_.stats().termsBlasted - terms0, bb_.stats().gates - gates0,
          sat_.stats().conflicts - conflicts0};
  return r;
}

CheckResult SmtSolver::solve(const std::vector<TermRef>& assumptions,
                             telemetry::Clock& clk, uint64_t deadlineUs,
                             bool expired, QueryCost& cost) {
  // The incremental pair decides first: in incremental mode always, in
  // fresh mode (where it is the warm core) for a query without a deadline,
  // as the warm core reads no clock. A query containing a core an earlier
  // Unsat refuted is Unsat at zero cost, even past an expired deadline.
  const bool warm = !freshMode_ || deadlineUs == 0;
  if (!freshMode_ && tel_ != nullptr && coreHitCtr_ == nullptr) {
    coreHitCtr_ = &tel_->metrics().counter("solver.core_hits");
    coresKeptCtr_ = &tel_->metrics().counter("solver.cores_kept");
  }
  if (warm && refutedByCore(assumptions)) {
    ++stats_.coreHits;
    if (coreHitCtr_) coreHitCtr_->add();
    if (freshMode_) ++stats_.warmUnsat;
    if (paranoid_) crossCheck(assumptions, CheckResult::Unsat, "kept core");
    return CheckResult::Unsat;
  }
  if (expired) return CheckResult::Unknown;  // the budget is spent
  if (!freshMode_) {
    return solveIncremental(assumptions, deadlineUs != 0 ? &clk : nullptr,
                            deadlineUs, cost);
  }
  // Fresh mode: a warm Unsat is final at canonical cost 0, and only a Sat
  // or Unknown pays for the canonical fresh solve.
  CheckResult w = CheckResult::Unknown;
  if (warm) {
    ++stats_.warmSolves;
    QueryCost work;  // the warm core's work stays off the canonical books
    w = solveIncremental(assumptions, nullptr, 0, work);
    if (w == CheckResult::Unsat) {
      ++stats_.warmUnsat;
      return w;
    }
  }
  const CheckResult r = solveFresh(assumptions, &clk, deadlineUs);
  if (w == CheckResult::Sat && r == CheckResult::Unsat) {
    throw Error("internal error: " +
                verdictMismatch(assumptions, "warm", w, r));
  }
  FreshCore& fc = *fresh_;
  if (r == CheckResult::Sat) snapshotModel(fc.bb, fc.sat);
  // The core was reset, so its stats are this query's cost.
  cost = {fc.bb.stats().termsBlasted, fc.bb.stats().gates,
          fc.sat.stats().conflicts};
  freshSat_ += fc.sat.stats();
  freshBlast_ += fc.bb.stats();
  freshVars_ += fc.sat.numVars();
  freshClauses_ += fc.sat.numClauses();
  return r;
}

CheckResult SmtSolver::check(const std::vector<TermRef>& assumptions) {
  fault::hit("solver.check");
  ++stats_.queries;
  if (queryCtr_) queryCtr_->add();
  // One clock for both the legacy Stats and the telemetry histogram: the
  // injected clock when telemetry is attached (deterministic tests), the
  // system clock otherwise.
  telemetry::Clock& clk =
      tel_ ? tel_->clock() : telemetry::Clock::system();
  const uint64_t startUs = clk.nowMicros();
  bool cached = false;
  // Canonical cost of this query (QueryCost): measured on a miss, replayed
  // from the cache on a hit, zero on short-circuited and core-refuted
  // checks.
  QueryCost cost;
  auto finish = [&](CheckResult r) {
    const uint64_t us = clk.nowMicros() - startUs;
    stats_.totalMicros += us;
    stats_.maxMicros = std::max(stats_.maxMicros, us);
    tally(r, stats_.sat, stats_.unsat, stats_.unknown);
    stats_.canon += cost;
    if (shapeProfiling_) {
      const auto bucket = static_cast<unsigned>(std::bit_width(cost.terms));
      ShapeRow& row = shapes_[bucket];
      ++row.queries;
      if (cached) ++row.hits;
      tally(r, row.sat, row.unsat, row.unknown);
      row.cost += cost;
    }
    if (queryHist_) queryHist_->record(us);
    if (listener_) listener_->onCheck(permanentAsserts_, assumptions, r, us, cached);
    for (QueryListener* l : extraListeners_) {
      l->onCheck(permanentAsserts_, assumptions, r, us, cached);
    }
    return r;
  };

  // 1. Short-circuits: nothing to key or solve. Constant-false
  // assumptions must stop here, before keying (see canonicalKey).
  if (permanentlyUnsat_) {
    ++stats_.preShortcircuit;
    return finish(CheckResult::Unsat);
  }
  for (const TermRef t : assumptions) {
    adlsym::check(t.width() == 1, "assumption must be width 1");
    if (t.isFalse()) {
      ++stats_.preShortcircuit;
      return finish(CheckResult::Unsat);
    }
  }

  // 2. Shared-cache lookup, when one is attached (canonical key, slot-
  // indexed models).
  QueryCache* const cache = sharedCache_;
  std::string key;
  std::vector<TermRef> slotVars;
  if (cache != nullptr) {
    key = QueryCache::canonicalKey(permanentAsserts_, assumptions, &slotVars);
    const QueryCache::Outcome o = cache->acquire(key);
    if (o.hit) {
      ++cacheHits_;
      cached = true;
      cost = o.cost;
      if (o.result == CheckResult::Sat) loadCachedModel(o.model, slotVars);
      return finish(o.result);
    }
  }

  // A miss: this caller owns the key until it publishes or abandons it.
  CheckResult r = CheckResult::Unknown;
  try {
    // 3. Deadline: the per-query timeout (relative to query start) or the
    // run-wide deadline (absolute, set by the explorer from its remaining
    // maxWallSeconds), whichever is sooner.
    uint64_t deadlineUs =
        queryTimeoutMicros_ ? saturatingAdd(startUs, queryTimeoutMicros_) : 0;
    if (wallDeadlineMicros_ != 0 &&
        (deadlineUs == 0 || wallDeadlineMicros_ < deadlineUs)) {
      deadlineUs = wallDeadlineMicros_;
    }
    const bool expired = deadlineUs != 0 && startUs >= deadlineUs;
    // 4. Solve: kept cores, then the incremental or the fresh core. Past
    // an expired deadline only a kept core answers; the rest short-circuit.
    r = solve(assumptions, clk, deadlineUs, expired, cost);
    ++(expired && r == CheckResult::Unknown ? stats_.preShortcircuit
                                            : stats_.directSolves);
  } catch (...) {
    if (cache != nullptr) cache->abandon(key);
    throw;
  }
  // 5. Publish. Unknown is never cached: a later caller (or a waiter on
  // the shared cache) retries with its own budget.
  if (cache != nullptr) {
    if (r == CheckResult::Unknown) {
      cache->abandon(key);
    } else {
      cache->publish(key, r,
                     r == CheckResult::Sat ? modelForCache(slotVars)
                                           : std::vector<uint64_t>{},
                     cost);
    }
  }
  return finish(r);
}

uint64_t SmtSolver::modelValue(TermRef t) {
  const TermNode& n = tm_.node(t);
  if (n.kind == Kind::Var) {
    return n.aux < model_.size() ? truncTo(model_[n.aux], n.width) : 0;
  }
  return tm_.evalWith(t, [this](uint32_t idx) {
    return idx < model_.size() ? model_[idx] : uint64_t{0};
  });
}

}  // namespace adlsym::smt
