#include "smt/sat.h"

#include <algorithm>
#include <cmath>

namespace adlsym::smt {

namespace {
/// Luby sequence for restart scheduling (Knuth's formulation).
uint64_t luby(uint64_t i) {
  uint64_t k = 1;
  while ((uint64_t{1} << k) - 1 < i + 1) ++k;
  while ((uint64_t{1} << k) - 1 != i + 1) {
    i -= (uint64_t{1} << (k - 1)) - 1;
    k = 1;
    while ((uint64_t{1} << k) - 1 < i + 1) ++k;
  }
  return uint64_t{1} << (k - 1);
}
}  // namespace

SatSolver::SatSolver() = default;

uint32_t SatSolver::newVar() {
  const uint32_t v = static_cast<uint32_t>(assigns_.size());
  assigns_.push_back(kUndef);
  savedPhase_.push_back(kFalse);
  reason_.push_back(-1);
  level_.push_back(0);
  activity_.push_back(0.0);
  seen_.push_back(0);
  heapPos_.push_back(-1);
  if (watches_.size() < 2 * size_t{v} + 2) watches_.resize(2 * size_t{v} + 2);
  heapInsert(v);
  return v;
}

void SatSolver::heapInsert(uint32_t v) {
  heapPos_[v] = static_cast<int32_t>(heap_.size());
  heap_.push_back(v);
  heapSiftUp(static_cast<uint32_t>(heap_.size() - 1));
}

void SatSolver::heapSiftUp(uint32_t i) {
  const uint32_t v = heap_[i];
  while (i > 0) {
    const uint32_t parent = (i - 1) / 2;
    if (!heapBelow(heap_[parent], v)) break;
    heap_[i] = heap_[parent];
    heapPos_[heap_[i]] = static_cast<int32_t>(i);
    i = parent;
  }
  heap_[i] = v;
  heapPos_[v] = static_cast<int32_t>(i);
}

void SatSolver::heapSiftDown(uint32_t i) {
  const uint32_t v = heap_[i];
  const size_t n = heap_.size();
  while (true) {
    size_t child = 2 * size_t{i} + 1;
    if (child >= n) break;
    if (child + 1 < n && heapBelow(heap_[child], heap_[child + 1])) ++child;
    if (!heapBelow(v, heap_[child])) break;
    heap_[i] = heap_[child];
    heapPos_[heap_[i]] = static_cast<int32_t>(i);
    i = static_cast<uint32_t>(child);
  }
  heap_[i] = v;
  heapPos_[v] = static_cast<int32_t>(i);
}

bool SatSolver::addClause(const Lit* lits, size_t n) {
  if (unsatisfiable_) return false;
  // After a Sat result the trail still holds the model; new clauses (e.g.
  // from incremental bit-blasting) first unwind to the root level.
  backtrack(0);
  // Normalize in place: drop duplicate and false literals; detect
  // tautologies and already-satisfied clauses at level 0.
  addBuf_.assign(lits, lits + n);
  std::sort(addBuf_.begin(), addBuf_.end(),
            [](Lit a, Lit b) { return a.x < b.x; });
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    const Lit l = addBuf_[i];
    if (i + 1 < n && addBuf_[i + 1] == ~l) return true;  // tautology
    if (kept != 0 && addBuf_[kept - 1] == l) continue;
    check(l.var() < numVars(), "clause literal references unknown variable");
    const LBool v = litValue(l);
    if (v == kTrue) return true;  // satisfied at level 0
    if (v == kFalse) continue;    // falsified at level 0: drop
    addBuf_[kept++] = l;
  }
  if (kept == 0) {
    unsatisfiable_ = true;
    return false;
  }
  if (kept == 1) {
    enqueue(addBuf_[0], -1);
    if (propagate() != -1) {
      unsatisfiable_ = true;
      return false;
    }
    return true;
  }
  storeClause(addBuf_.data(), kept, /*learned=*/false);
  return true;
}

uint32_t SatSolver::storeClause(const Lit* lits, size_t n, bool learned) {
  check(arena_.size() + n <= UINT32_MAX, "clause arena overflow");
  const uint32_t idx = static_cast<uint32_t>(clauses_.size());
  clauses_.push_back(Clause{static_cast<uint32_t>(arena_.size()),
                            static_cast<uint32_t>(n), 0.0, learned, false});
  arena_.insert(arena_.end(), lits, lits + n);
  watches_[(~lits[0]).x].push_back({idx, lits[1]});
  watches_[(~lits[1]).x].push_back({idx, lits[0]});
  return idx;
}

void SatSolver::enqueue(Lit l, int32_t reasonClause) {
  assigns_[l.var()] = l.sign() ? kFalse : kTrue;
  savedPhase_[l.var()] = assigns_[l.var()];
  reason_[l.var()] = reasonClause;
  level_[l.var()] = static_cast<uint32_t>(trailLims_.size());
  trail_.push_back(l);
}

int32_t SatSolver::propagate() {
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++stats_.propagations;
    std::vector<Watcher>& ws = watches_[p.x];
    size_t keep = 0;
    for (size_t i = 0; i < ws.size(); ++i) {
      const Watcher w = ws[i];
      if (litValue(w.blocker) == kTrue) {
        ws[keep++] = w;
        continue;
      }
      const Clause& c = clauses_[w.clauseIdx];
      if (c.removed) continue;  // lazily detach deleted clauses
      Lit* lits = litsOf(c);
      // Ensure the false literal ~p is at position 1.
      if (lits[0] == ~p) std::swap(lits[0], lits[1]);
      if (litValue(lits[0]) == kTrue) {
        ws[keep++] = {w.clauseIdx, lits[0]};
        continue;
      }
      // Look for a new literal to watch.
      bool moved = false;
      for (uint32_t k = 2; k < c.size; ++k) {
        if (litValue(lits[k]) != kFalse) {
          std::swap(lits[1], lits[k]);
          watches_[(~lits[1]).x].push_back({w.clauseIdx, lits[0]});
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Clause is unit or conflicting.
      ws[keep++] = w;
      if (litValue(lits[0]) == kFalse) {
        // Conflict: keep remaining watchers, then report.
        for (size_t k = i + 1; k < ws.size(); ++k) ws[keep++] = ws[k];
        ws.resize(keep);
        qhead_ = trail_.size();
        return static_cast<int32_t>(w.clauseIdx);
      }
      enqueue(lits[0], static_cast<int32_t>(w.clauseIdx));
    }
    ws.resize(keep);
  }
  return -1;
}

void SatSolver::bumpVar(uint32_t v) {
  activity_[v] += varInc_;
  if (activity_[v] > 1e100) {
    rescaleVarActivity();
  } else if (heapPos_[v] >= 0) {
    heapSiftUp(static_cast<uint32_t>(heapPos_[v]));
  }
}

void SatSolver::rescaleVarActivity() {
  for (double& a : activity_) a *= 1e-100;
  varInc_ *= 1e-100;
  // Scaling can merge distinct activities, which reorders ties by index:
  // rebuild the heap order from scratch.
  for (uint32_t i = static_cast<uint32_t>(heap_.size() / 2); i-- > 0;) {
    heapSiftDown(i);
  }
}

void SatSolver::bumpClause(Clause& c) {
  c.activity += clauseInc_;
  if (c.activity > 1e20) {
    for (Clause& cl : clauses_) cl.activity *= 1e-20;
    clauseInc_ *= 1e-20;
  }
}

unsigned SatSolver::analyze(int32_t conflictIdx) {
  std::vector<Lit>& learnt = learnt_;
  learnt.clear();
  learnt.push_back(Lit());  // slot for the asserting literal
  const unsigned curLevel = static_cast<unsigned>(trailLims_.size());
  unsigned counter = 0;
  Lit p;
  int32_t confl = conflictIdx;
  size_t trailIdx = trail_.size();

  do {
    check(confl != -1, "analyze: missing reason clause");
    Clause& c = clauses_[static_cast<uint32_t>(confl)];
    if (c.learned) bumpClause(c);
    const Lit* lits = litsOf(c);
    const uint32_t start = p.valid() ? 1 : 0;  // skip asserting lit of reason
    for (uint32_t i = start; i < c.size; ++i) {
      const Lit q = lits[i];
      if (seen_[q.var()] || level_[q.var()] == 0) continue;
      seen_[q.var()] = 1;
      bumpVar(q.var());
      if (level_[q.var()] >= curLevel) {
        ++counter;
      } else {
        learnt.push_back(q);
      }
    }
    // Pick the next seen literal from the trail.
    while (trailIdx > 0 && !seen_[trail_[trailIdx - 1].var()]) --trailIdx;
    check(trailIdx > 0, "analyze: trail exhausted");
    p = trail_[--trailIdx];
    seen_[p.var()] = 0;
    confl = reason_[p.var()];
    --counter;
  } while (counter > 0);
  learnt[0] = ~p;

  // Clause minimization (cheap local form): drop literals implied by the
  // rest of the clause through their reason clauses.
  std::vector<Lit>& minimized = minimized_;
  minimized.clear();
  minimized.push_back(learnt[0]);
  for (size_t i = 1; i < learnt.size(); ++i) {
    const Lit q = learnt[i];
    const int32_t r = reason_[q.var()];
    bool redundant = false;
    if (r != -1) {
      redundant = true;
      const Clause& rc = clauses_[static_cast<uint32_t>(r)];
      const Lit* rlits = litsOf(rc);
      for (uint32_t k = 0; k < rc.size; ++k) {
        const Lit x = rlits[k];
        if (x == ~q) continue;
        if (level_[x.var()] == 0) continue;
        if (!seen_[x.var()]) {
          redundant = false;
          break;
        }
      }
    }
    if (!redundant) minimized.push_back(q);
  }
  for (size_t i = 1; i < learnt.size(); ++i) seen_[learnt[i].var()] = 0;
  learnt.swap(minimized);

  // Backtrack level = max level among learnt[1..].
  unsigned btLevel = 0;
  size_t maxIdx = 1;
  for (size_t i = 1; i < learnt.size(); ++i) {
    if (level_[learnt[i].var()] > btLevel) {
      btLevel = level_[learnt[i].var()];
      maxIdx = i;
    }
  }
  if (learnt.size() > 1) std::swap(learnt[1], learnt[maxIdx]);
  return btLevel;
}

void SatSolver::analyzeFinal(const Lit* lits, size_t n) {
  if (trailLims_.empty()) return;  // level 0: the clauses alone refute
  for (size_t i = 0; i < n; ++i) {
    if (level_[lits[i].var()] > 0) seen_[lits[i].var()] = 1;
  }
  // Walk the trail back over every level above 0. All of them are
  // assumption levels, so every decision met is an assumption; every
  // implied literal hands its mark on to its reason's other literals.
  for (size_t i = trail_.size(); i-- > trailLims_[0];) {
    const uint32_t v = trail_[i].var();
    if (!seen_[v]) continue;
    seen_[v] = 0;
    const int32_t r = reason_[v];
    if (r == -1) {
      failed_.push_back(trail_[i]);
      continue;
    }
    const Clause& c = clauses_[static_cast<uint32_t>(r)];
    const Lit* rlits = litsOf(c);
    for (uint32_t k = 0; k < c.size; ++k) {
      const uint32_t u = rlits[k].var();
      if (u != v && level_[u] > 0) seen_[u] = 1;
    }
  }
}

void SatSolver::backtrack(unsigned targetLevel) {
  if (trailLims_.size() <= targetLevel) return;
  const uint32_t lim = trailLims_[targetLevel];
  for (size_t i = trail_.size(); i > lim; --i) {
    const uint32_t v = trail_[i - 1].var();
    assigns_[v] = kUndef;
    reason_[v] = -1;
    if (heapPos_[v] < 0) heapInsert(v);
  }
  trail_.resize(lim);
  trailLims_.resize(targetLevel);
  qhead_ = std::min(qhead_, trail_.size());
}

uint32_t SatSolver::pickBranchVar() {
  // Only called with an unassigned variable left, which the heap holds.
  while (true) {
    check(!heap_.empty(), "decision heap lost an unassigned variable");
    const uint32_t v = heap_[0];
    const uint32_t last = heap_.back();
    heap_.pop_back();
    heapPos_[v] = -1;
    if (!heap_.empty()) {
      heap_[0] = last;
      heapPos_[last] = 0;
      heapSiftDown(0);
    }
    if (assigns_[v] == kUndef) return v;
  }
}

void SatSolver::reduceDB() {
  // Keep the most active half of the learned clauses.
  std::vector<uint32_t> learned;
  for (uint32_t i = 0; i < clauses_.size(); ++i) {
    if (clauses_[i].learned && !clauses_[i].removed && clauses_[i].size > 2)
      learned.push_back(i);
  }
  if (learned.size() < learnedLimit_) return;
  std::sort(learned.begin(), learned.end(), [this](uint32_t a, uint32_t b) {
    return clauses_[a].activity < clauses_[b].activity;
  });
  // A clause that is the reason for a current assignment must stay.
  std::vector<uint8_t> locked(clauses_.size(), 0);
  for (const Lit l : trail_) {
    const int32_t r = reason_[l.var()];
    if (r != -1) locked[static_cast<uint32_t>(r)] = 1;
  }
  const size_t toRemove = learned.size() / 2;
  for (size_t i = 0; i < toRemove; ++i) {
    if (locked[learned[i]]) continue;
    clauses_[learned[i]].removed = true;
    clauses_[learned[i]].size = 0;
    ++stats_.deletedClauses;
  }
  // Compact the arena over the deleted clauses' literals; clause indices,
  // and with them reasons and watchers, stay as they are.
  uint32_t out = 0;
  for (Clause& c : clauses_) {
    if (c.start != out) {
      std::copy(arena_.begin() + c.start, arena_.begin() + c.start + c.size,
                arena_.begin() + out);
      c.start = out;
    }
    out += c.size;
  }
  arena_.resize(out);
  learnedLimit_ = learnedLimit_ + learnedLimit_ / 2;
}

SatResult SatSolver::solve(const std::vector<Lit>& assumptions,
                           const std::vector<Lit>& preferred) {
  failed_.clear();
  if (unsatisfiable_) return SatResult::Unsat;
  if (deadlineClock_ != nullptr &&
      deadlineClock_->nowMicros() >= deadlineMicros_) {
    ++stats_.deadlineAborts;
    return SatResult::Unknown;
  }
  backtrack(0);
  if (propagate() != -1) {
    unsatisfiable_ = true;
    return SatResult::Unsat;
  }

  uint64_t conflictsThisSolve = 0;
  uint64_t restartBase = 64;
  uint64_t restartCeiling = restartBase * luby(stats_.restarts);
  uint64_t conflictsSinceRestart = 0;
  // preferred[0, nextPreferred) are all assigned. Only a conflict's
  // backtrack unassigns literals, so each conflict rewinds the cursor.
  size_t nextPreferred = 0;

  while (true) {
    const int32_t confl = propagate();
    if (confl != -1) {
      nextPreferred = 0;
      ++stats_.conflicts;
      ++conflictsThisSolve;
      ++conflictsSinceRestart;
      if (trailLims_.size() <= assumptions.size()) {
        // Conflict under assumptions only: formula is Unsat under them.
        const Clause& c = clauses_[static_cast<uint32_t>(confl)];
        analyzeFinal(litsOf(c), c.size);
        backtrack(0);
        return SatResult::Unsat;
      }
      backtrack(analyze(confl));
      if (learnt_.size() == 1) {
        // A unit is only safe at level 0: restart there first.
        backtrack(0);
        enqueue(learnt_[0], -1);
      } else {
        const uint32_t idx =
            storeClause(learnt_.data(), learnt_.size(), /*learned=*/true);
        bumpClause(clauses_[idx]);
        enqueue(learnt_[0], static_cast<int32_t>(idx));
        ++stats_.learned;
      }
      decayVarActivity();
      clauseInc_ *= 1.001;
      if (conflictBudget_ != 0 && conflictsThisSolve > conflictBudget_) {
        backtrack(0);
        return SatResult::Unknown;
      }
      // The deadline shares the conflict boundary with the budget above:
      // conflicts are where CDCL time actually goes, so this bounds the
      // overshoot to one conflict's propagation+analysis.
      if (deadlineClock_ != nullptr &&
          deadlineClock_->nowMicros() >= deadlineMicros_) {
        ++stats_.deadlineAborts;
        backtrack(0);
        return SatResult::Unknown;
      }
      if (conflictsSinceRestart > restartCeiling) {
        ++stats_.restarts;
        conflictsSinceRestart = 0;
        restartCeiling = restartBase * luby(stats_.restarts);
        backtrack(0);
        reduceDB();
      }
      continue;
    }

    // Re-establish assumptions that a backtrack may have popped, one
    // decision level per assumption.
    if (trailLims_.size() < assumptions.size()) {
      const Lit a = assumptions[trailLims_.size()];
      const LBool v = litValue(a);
      if (v == kFalse) {
        // The clauses and the earlier assumptions imply ~a.
        failed_.push_back(a);
        analyzeFinal(&a, 1);
        backtrack(0);
        return SatResult::Unsat;
      }
      trailLims_.push_back(static_cast<uint32_t>(trail_.size()));
      if (v == kUndef) enqueue(a, -1);
      continue;
    }

    if (trail_.size() == numVars()) return SatResult::Sat;  // all assigned
    while (nextPreferred < preferred.size() &&
           litValue(preferred[nextPreferred]) != kUndef) {
      ++nextPreferred;
    }
    ++stats_.decisions;
    trailLims_.push_back(static_cast<uint32_t>(trail_.size()));
    if (nextPreferred < preferred.size()) {
      enqueue(preferred[nextPreferred], -1);
    } else {
      const uint32_t v = pickBranchVar();
      enqueue(Lit(v, savedPhase_[v] == kFalse), -1);
    }
  }
}

bool SatSolver::modelValue(uint32_t var) const {
  check(var < numVars(), "modelValue: unknown variable");
  return assigns_[var] == kTrue;
}

}  // namespace adlsym::smt
