// Concolic execution driver (SAGE-style seed search): an alternative
// exploration mode built on the same retargetable executor and the same
// feasibility rule (DESIGN.md §6.8). Each iteration runs ONE path, driven
// by a concrete input seed installed as the root's carried witness: the
// seed's side of every decision is then free, and every other feasible
// side comes back carrying the model of the one query that found it
// feasible. Those models are the next seeds, so the driver itself makes
// no solver call: the engine solves exactly the untaken sides, the
// queries that negating each branch condition would issue.
//
// Each seed carries SAGE's generational bound: the path-condition index
// of the decision it was made to flip. Its ancestors already flipped every
// decision before that index, so its run emits next seeds only for
// decisions past it, and every feasible path runs once. Below the bound
// the run makes no query for the sides the seed does not take
// (EngineServices::witnessOnly): the search decides each side once, as
// symbolic exploration does, instead of re-solving its ancestors' sides.
//
// Compared to full symbolic exploration (core::Explorer), memory stays
// bounded to one path, at the cost of re-executing shared prefixes — the
// trade the dynamic-symbolic-execution literature makes. Experiment E8
// (bench_concolic) quantifies it on this engine.
#pragma once

#include <set>
#include <vector>

#include "core/executor.h"
#include "core/state.h"

namespace adlsym::core {

struct ConcolicConfig {
  uint64_t maxRuns = 512;          // executed seeds
  uint64_t maxStepsPerRun = 100000;
};

struct ConcolicResult {
  /// One entry per executed seed, in execution order. The witness in each
  /// PathResult is the seed itself. `forks` leaves out the branches below
  /// the seed's bound, whose other side the run did not decide.
  std::vector<PathResult> paths;
  uint64_t totalSteps = 0;
  uint64_t seedsGenerated = 0;  // includes duplicates that were skipped
  uint64_t seedsExecuted = 0;
  std::set<uint64_t> coveredSet;
  double wallSeconds = 0.0;

  unsigned numDefects() const {
    unsigned n = 0;
    for (const auto& p : paths) n += p.defect.has_value() ? 1 : 0;
    return n;
  }
};

class ConcolicDriver {
 public:
  ConcolicDriver(Executor& exec, EngineServices& services,
                 ConcolicConfig config = {})
      : exec_(exec), svc_(services), config_(config) {}

  /// Run the search starting from the all-zeroes seed.
  ConcolicResult run();

 private:
  struct Seed {
    std::vector<uint64_t> values;  // by input position, like a witness
    /// Path-condition length from which this seed's run emits next seeds.
    size_t bound = 0;
  };

  /// Execute one seed to completion and return the final state, whose
  /// witness is the seed's values. Appends to `next` the witness of every
  /// side past the seed's bound that the seed did not take and that added
  /// a constraint: the seeds that drive those sides.
  MachineState executeSeed(const Seed& seed, std::vector<Seed>& next,
                           uint64_t& steps, std::set<uint64_t>& covered);

  Executor& exec_;
  EngineServices& svc_;
  ConcolicConfig config_;
};

}  // namespace adlsym::core
