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
  // Canonical (structural) cost totals — schedule-independent, unlike the
  // work counters, which stay out of the document (workLine). v9.
  w.key("canon").beginObject();
  w.kv("terms", canon.terms);
  w.kv("gates", canon.gates);
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
  return formatStr(
      "solver: %llu queries (%llu sat, %llu unsat, %llu unknown), %.1f ms, "
      "%llu cache hits (%.0f%%)\n",
      static_cast<unsigned long long>(queries),
      static_cast<unsigned long long>(sat),
      static_cast<unsigned long long>(unsat),
      static_cast<unsigned long long>(unknown), totalMicros / 1e3,
      static_cast<unsigned long long>(cacheHits), 100.0 * cacheHitRate());
}

std::string SolverTelemetry::workLine() const {
  auto u = [](uint64_t v) { return static_cast<unsigned long long>(v); };
  return formatStr(
      "[solver] conflicts=%llu decisions=%llu propagations=%llu "
      "restarts=%llu learned=%llu deleted_clauses=%llu deadline_aborts=%llu "
      "vars=%llu clauses=%llu gates=%llu gate_cache_hits=%llu "
      "terms_blasted=%llu cores_kept=%llu core_hits=%llu\n",
      u(satCore.conflicts), u(satCore.decisions), u(satCore.propagations),
      u(satCore.restarts), u(satCore.learned), u(satCore.deletedClauses),
      u(satCore.deadlineAborts), u(satVars), u(satClauses), u(blast.gates),
      u(blast.cacheHits), u(blast.termsBlasted), u(coresKept), u(coreHits));
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
  coresKept += o.coresKept;
  coreHits += o.coreHits;
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
  t.satCore = sat_.stats();
  t.blast = bb_.stats();
  t.satVars = sat_.numVars();
  t.satClauses = sat_.numClauses();
  t.coresKept = stats_.coresKept;
  t.coreHits = stats_.coreHits;
  return t;
}

void SmtSolver::setTelemetry(telemetry::Telemetry* t) {
  tel_ = t;
  queryHist_ = t ? &t->metrics().histogram("solver.query_us") : nullptr;
  queryCtr_ = t ? &t->metrics().counter("solver.queries") : nullptr;
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

void SmtSolver::snapshotModel() {
  model_.clear();
  for (const auto& [termId, bits] : bb_.varTerms()) {
    uint64_t v = 0;
    for (size_t i = 0; i < bits.size(); ++i) {
      if (sat_.modelValue(bits[i])) v |= uint64_t{1} << i;
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
  SatSolver sat;
  BitBlaster bb(tm_, sat);
  for (const TermRef t : permanentAsserts_) {
    if (t.isFalse() || !sat.addUnit(bb.litFor(t))) return CheckResult::Unsat;
  }
  std::vector<Lit> lits;
  lits.reserve(assumptions.size());
  for (const TermRef t : assumptions) {
    if (t.isTrue()) continue;
    if (t.isFalse()) return CheckResult::Unsat;
    lits.push_back(bb.litFor(t));
  }
  return fromSat(sat.solve(lits));
}

std::string SmtSolver::querySmtLib(
    const std::vector<TermRef>& assumptions) const {
  std::vector<TermRef> all = permanentAsserts_;
  all.insert(all.end(), assumptions.begin(), assumptions.end());
  return toSmtLib(all);
}

void SmtSolver::crossCheck(const std::vector<TermRef>& assumptions,
                           CheckResult r, const char* source) {
  const CheckResult fresh = checkFresh(assumptions);
  if (fresh != CheckResult::Unknown && fresh != r) {
    throw Error(std::string("paranoid check: ") + source + "=" +
                checkResultName(r) + " fresh=" + checkResultName(fresh) +
                "\n" + querySmtLib(assumptions));
  }
}

void SmtSolver::verifyModel(const std::vector<TermRef>& assumptions) {
  const std::function<uint64_t(uint32_t)> value = [this](uint32_t idx) {
    return idx < model_.size() ? model_[idx] : uint64_t{0};
  };
  auto holds = [&](TermRef t) { return tm_.evalTerm(t, value) != 0; };
  tm_.evalBegin();
  if (std::all_of(permanentAsserts_.begin(), permanentAsserts_.end(),
                  holds) &&
      std::all_of(assumptions.begin(), assumptions.end(), holds)) {
    return;
  }
  throw Error("internal error: a Sat model falsifies the query it answers\n" +
              querySmtLib(assumptions));
}

void SmtSolver::keepCore(const std::vector<TermRef>& assumptions,
                         const std::vector<Lit>& lits) {
  const std::vector<Lit>& failed = sat_.failedAssumptions();
  if (failed.empty()) {  // the permanent assertions alone are Unsat
    permanentlyUnsat_ = true;
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

std::vector<Lit> SmtSolver::preferredLits(
    const std::vector<TermRef>& inputs, const std::vector<uint64_t>& witness) {
  std::vector<Lit> lits;
  for (size_t i = 0; i < inputs.size(); ++i) {
    const uint64_t w = i < witness.size() ? witness[i] : 0;
    const std::vector<Lit>& bits = bb_.bitsFor(inputs[i]);
    for (size_t b = bits.size(); b-- > 0;) {
      lits.push_back(((w >> b) & 1) != 0 ? bits[b] : ~bits[b]);
    }
  }
  return lits;
}

QueryCost SmtSolver::coneCost(const std::vector<TermRef>& assumptions) {
  if (++coneEpoch_ == 0) {
    std::fill(coneStamps_.begin(), coneStamps_.end(), 0);
    coneEpoch_ = 1;
  }
  if (coneStamps_.size() < tm_.numTerms()) {
    coneStamps_.resize(tm_.numTerms(), 0);
  }
  QueryCost cost;
  std::vector<TermId> stack;
  auto visit = [&](TermId id) {
    if (id == kInvalidTerm || coneStamps_[id] == coneEpoch_) return;
    coneStamps_[id] = coneEpoch_;
    stack.push_back(id);
  };
  for (const TermRef t : permanentAsserts_) visit(t.id());
  for (const TermRef t : assumptions) {
    if (!t.isTrue()) visit(t.id());
  }
  while (!stack.empty()) {
    const TermId id = stack.back();
    stack.pop_back();
    ++cost.terms;
    cost.gates += bb_.gatesOf(id);
    const TermNode& n = tm_.node(id);
    visit(n.a);
    visit(n.b);
    visit(n.c);
  }
  return cost;
}

CheckResult SmtSolver::solve(const std::vector<TermRef>& assumptions,
                             const std::vector<TermRef>& inputs,
                             const std::vector<uint64_t>& witness,
                             telemetry::Clock& clk, uint64_t deadlineUs,
                             bool expired, QueryCost& cost) {
  // A query containing a core an earlier Unsat refuted is Unsat at zero
  // cost, even past an expired deadline.
  if (refutedByCore(assumptions)) {
    ++stats_.coreHits;
    if (paranoid_) crossCheck(assumptions, CheckResult::Unsat, "kept core");
    return CheckResult::Unsat;
  }
  if (expired) return CheckResult::Unknown;  // the budget is spent
  sat_.setDeadline(deadlineUs != 0 ? &clk : nullptr, deadlineUs);
  const std::vector<Lit> preferred = preferredLits(inputs, witness);
  std::vector<Lit> lits;
  lits.reserve(assumptions.size());
  for (const TermRef t : assumptions) {
    if (!t.isTrue()) lits.push_back(bb_.litFor(t));
  }
  const CheckResult r = fromSat(sat_.solve(lits, preferred));
  if (paranoid_ && r != CheckResult::Unknown) {
    crossCheck(assumptions, r, "incremental");
  }
  if (r == CheckResult::Unsat) keepCore(assumptions, lits);
  if (r == CheckResult::Sat) {
    // Snapshot variable values immediately: any later incremental blast
    // (even for model reads) unwinds the assignment trail.
    snapshotModel();
    cost = coneCost(assumptions);
  }
  return r;
}

CheckResult SmtSolver::check(const std::vector<TermRef>& assumptions) {
  return check(assumptions, {}, {});
}

CheckResult SmtSolver::check(const std::vector<TermRef>& assumptions,
                             const std::vector<TermRef>& inputs,
                             const std::vector<uint64_t>& witness) {
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
  // Canonical cost of this query (QueryCost): the cone of a Sat, replayed
  // from the cache on a hit, zero otherwise.
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
      if (o.result == CheckResult::Sat) {
        loadCachedModel(o.model, slotVars);
        verifyModel(assumptions);
      }
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
    // 4. Solve: kept cores, then the incremental core. Past an expired
    // deadline only a kept core answers; the rest short-circuit.
    r = solve(assumptions, inputs, witness, clk, deadlineUs, expired, cost);
    ++(expired && r == CheckResult::Unknown ? stats_.preShortcircuit
                                            : stats_.directSolves);
    if (r == CheckResult::Sat) verifyModel(assumptions);
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
