// The shared SMT query cache (docs/parallelism.md): verdicts, models and
// solve costs by query key, shared by the solvers an API caller attaches
// it to (SmtSolver::setSharedCache), such as parallel workers, whose
// TermIds are not comparable across pools. The key (canonicalKey) is a
// *canonical serialization* of the whole constraint set: constraints
// de-duplicated, ordered by their name-blind structural hash
// (TermNode::blind; constraints whose blind hashes tie, such as x<y and
// y<z, by their named serialization), then written structurally
// (DAG-shared, smt/termio's descriptor grammar) with variables α-renamed
// to dense slots in first-occurrence order. Sets structurally equal up to
// an order-preserving renaming share a key; false positives are
// impossible because the key encodes the full structure. Sat models are
// stored slot-indexed and each client maps slots back to its own
// variables (canonicalKey's slotVars). Every distinct key is solved
// exactly once (single-flight), and every later caller replays the model
// its owner found: the one nearest the owner's witness, which need not be
// the one nearest its own (SmtSolver::check).
//
// Concurrency: one mutex + condvar. acquire() is single-flight — the
// first caller of a key becomes its *owner* and must publish() (verdict +
// model) or abandon() (Unknown / exception) it; concurrent callers of the
// same key block until the owner resolves it. Eviction is FIFO over
// completed entries and only occurs when a capacity is set.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "smt/term.h"

namespace adlsym::smt {

enum class CheckResult;  // smt/solver.h

/// Canonical cost of one query: the structural size of its cone, so it
/// depends only on the query, never on which worker or step solved it or
/// what that solver had blasted before. A Sat query costs the distinct
/// terms of its cone (the permanent assertions and the assumptions) and
/// the gates those terms request (BitBlaster::gatesOf); Unsat, Unknown
/// and short-circuited queries cost 0. A shared-cache hit replays the
/// cost its key published. This is what lets the profiler attribute
/// solver cost per branch site byte-identically across -j1/-jN
/// (docs/observability.md).
struct QueryCost {
  uint64_t terms = 0;
  uint64_t gates = 0;

  QueryCost& operator+=(const QueryCost& o) {
    terms += o.terms;
    gates += o.gates;
    return *this;
  }
  bool operator==(const QueryCost&) const = default;
};

class QueryCache {
 public:
  /// `capacity` bounds completed entries (FIFO eviction); 0 = unbounded.
  /// Note: with a binding capacity, *which* entries survive depends on
  /// completion order, so hit/miss counts are only deterministic across
  /// -jN when the capacity does not bind (docs/parallelism.md).
  explicit QueryCache(size_t capacity = 0) : capacity_(capacity) {}
  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  struct Stats {
    uint64_t hits = 0;        // completed verdict served (incl. waited)
    uint64_t misses = 0;      // caller became the owner and solved
    uint64_t evictions = 0;   // completed entries dropped by capacity
    /// Lookups that blocked on another thread's in-flight solve. Resolves
    /// as a hit; excluded from the stats JSON because it is inherently
    /// scheduling-dependent (the counts above are not).
    uint64_t inflightWaits = 0;
    size_t entries = 0;       // completed entries resident now
    size_t capacity = 0;      // 0 = unbounded

    double hitRate() const {
      const uint64_t total = hits + misses;
      return total ? double(hits) / double(total) : 0.0;
    }
  };
  Stats stats() const;

  struct Outcome {
    bool hit = false;   // result/model valid; otherwise caller owns
    CheckResult result;
    /// Sat model, indexed by the key's α-slots (canonicalKey).
    std::vector<uint64_t> model;
    QueryCost cost;  // canonical solve cost, replayed
  };

  /// Single-flight lookup: a hit returns the completed verdict (+model);
  /// otherwise the caller is now the key's owner and *must* call
  /// publish() or abandon() exactly once. Blocks while another thread
  /// owns the key.
  Outcome acquire(const std::string& key);

  /// Owner: complete the key with a verdict (never Unknown — abandon
  /// those), for Sat the model (see Outcome), and the canonical solve cost
  /// (replayed verbatim to every later hit).
  void publish(const std::string& key, CheckResult result,
               std::vector<uint64_t> model, QueryCost cost = {});

  /// Owner: give the key up without a verdict (Unknown result, or an
  /// exception unwound through the solve). Waiters retry and one becomes
  /// the next owner.
  void abandon(const std::string& key);

  /// Canonical serialization of permanent ∪ assumptions (see file
  /// comment). `slotVars`, when non-null, receives the caller-pool Var
  /// term for each α-slot, in slot order — the model translation table.
  /// True assumptions are skipped; callers must short-circuit constant-
  /// false assumptions *before* keying (they never reach the solver).
  static std::string canonicalKey(const std::vector<TermRef>& permanent,
                                  const std::vector<TermRef>& assumptions,
                                  std::vector<TermRef>* slotVars);

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  // Every key acquired and neither abandoned nor evicted; `hit` marks a
  // completed entry, the rest are in flight.
  std::unordered_map<std::string, Outcome> map_;
  // Completed keys in publish order. They point into map_'s nodes, which
  // never move, so no key is stored twice.
  std::deque<const std::string*> fifo_;
  size_t capacity_;
  Stats stats_;
};

}  // namespace adlsym::smt
