// Traced re-run of one explore job, for the per-layer ledger. It rebuilds
// the job from the same public pieces driver::cli::dispatch uses (ISA
// load, image parse, executor construction, explorer or parallel
// explorer, src/obs collectors) and times the layers from outside, through
// the three interfaces both engines accept: a core::Executor decorator, an
// smt::QueryListener and a core::ExploreObserver decorator. No library
// code is modified.
//
// Spans are kept in memory (SpanLog) and written out at the end. Per-step
// and per-query spans are folded into one aggregate span per job and
// parent (count + summed duration), so a traced pass over thousands of
// steps stays small; coarse spans are kept one by one. Self times are
// derived from the span tree: a span's duration minus its children's.
// In the parallel engine worker-side aggregates are thread sums; they are
// divided by the worker count, so every layer is in wall-equivalent
// seconds and the layers still sum to the job time.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "jobs.h"

namespace perfbench {

struct Span {
  uint64_t job = 0;
  std::string name;
  int parent = -1;      // index into SpanLog::spans(), -1 = root
  double startS = 0.0;  // relative to the log's epoch
  double endS = 0.0;
  double durS = 0.0;    // == endS - startS except for aggregate spans
  uint64_t count = 1;   // > 1 for aggregate spans
};

class SpanLog {
 public:
  SpanLog();
  /// Open a span now; returns its index.
  int open(uint64_t job, const std::string& name, int parent);
  void close(int index);
  /// Record a folded span (summed duration of `count` intervals).
  int aggregate(uint64_t job, const std::string& name, int parent,
                double startS, double endS, double durS, uint64_t count);
  double now() const;
  const std::vector<Span>& spans() const { return spans_; }
  /// Duration minus the durations of direct children.
  double selfSeconds(int index) const;
  /// One JSON object per line.
  void writeJsonl(std::ostream& os) const;

 private:
  double epoch_ = 0.0;
  std::vector<Span> spans_;
};

/// Per-job layer numbers from one traced run. Times are seconds.
struct LayerSample {
  double adlLoad = 0, imageParse = 0, engineBuild = 0;
  double stepSelf = 0, smtInStep = 0, witness = 0, exploreSelf = 0;
  double observerSelf = 0, artifactWrite = 0, traceCapture = 0;
  double tracedJob = 0;  // the traced job span, capture included
  uint64_t stepCalls = 0, insns = 0, forks = 0, frontierPeak = 0, paths = 0;
  uint64_t queries = 0, cachedQueries = 0, terms = 0;
  uint64_t preConsulted = 0, preDecided = 0;
  uint64_t blasted = 0, blastGates = 0, satVars = 0, satConflicts = 0,
           satDecisions = 0;
  uint64_t steals = 0, workerStepsMin = 0, workerStepsMax = 0;
  double stealWait = 0;
  uint64_t qcacheHits = 0, qcacheLookups = 0;
  uint64_t artifactBytes = 0;
  // Solver sub-layer replay over a sample of the job's distinct queries.
  uint64_t replayed = 0, replayMismatches = 0;
  double replayJudge = 0, replayKey = 0, replayBlastSat = 0;

  /// The layers that make up the job time, in ledger order.
  double layerSum() const {
    return adlLoad + imageParse + engineBuild + stepSelf + smtInStep +
           witness + exploreSelf + observerSelf + artifactWrite;
  }
};

struct TracedJobResult {
  LayerSample sample;
  std::string failure;  // "" when the traced run passed the oracle
};

/// Re-run `job` (image at `imagePath`) traced; spans go to `log` under job
/// id `jobSeq`. Observed workloads write their artifacts under
/// `artifactPrefix`, as the untraced run does.
TracedJobResult runTracedJob(const Job& job, const Workload& wl,
                             const std::string& imagePath,
                             const std::string& artifactPrefix,
                             uint64_t jobSeq, SpanLog& log);

/// The explore flags the untraced run of `job` uses after the ISA and
/// image arguments: --jobs for parallel workloads, the artifact flags for
/// observed ones.
std::vector<std::string> exploreFlags(const Job& job, const Workload& wl,
                                      const std::string& artifactPrefix);

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// One traced pass: the untraced job time of every job in the pass and the
/// sums of their traced layer samples.
struct PassLedger {
  double untraced = 0;  // Σ untraced job seconds
  LayerSample sum;
  double spreadSum = 0;  // Σ per-job worker step spread (parallel jobs)
  uint64_t parallelJobs = 0;

  void add(const LayerSample& s);
  void merge(const PassLedger& p);
  /// Untraced job time the traced layers do not account for: CLI
  /// rendering, unspanned glue and the difference tracing makes.
  double unattributed() const { return untraced - sum.layerSum(); }
};

/// The per-layer metrics (BENCHMARK.json "per_layer"), as means per pass.
/// `adlSetupS`/`asmSetupS` are the set-up's ISA-load and assembly times.
std::vector<Metric> layerMetrics(const std::vector<PassLedger>& passes,
                                 double adlSetupS, double asmSetupS);

/// Human-readable ledger: each layer's share of the untraced job time.
void printLedger(std::ostream& os, const std::string& workload,
                 const std::vector<PassLedger>& passes, size_t jobsPerPass);

}  // namespace perfbench
