// Seeded job lists for the end-to-end explore benchmark. A workload is an
// ordered list of `adlsym explore` jobs; every job is one portable program
// (workloads::PProgram) lowered to one shipped ISA, plus what the oracle
// expects of it. The seed picks program parameters, table contents,
// comparator-network wirings and the job order; the amount of work per
// list stays fixed, so seeds differ in inputs, not in size.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/state.h"
#include "workloads/pgen.h"

namespace perfbench {

struct Job {
  std::string id;       // unique within the list, e.g. "bitcount8@m16"
  std::string isa;
  /// Same program on another ISA shares the key; path counts must agree
  /// across the key's jobs.
  std::string programKey;
  adlsym::workloads::PProgram program;
  /// Expected `dispatch` exit code (0 clean, 1 defects found).
  int expectedExit = 0;
  /// Closed-form path count, when the program has one.
  std::optional<uint64_t> expectedPaths;
  /// Defect-suite cases: the expected verdict (nullopt = the guarded
  /// twin, which must report no defect).
  bool defectCase = false;
  std::optional<adlsym::core::DefectKind> expectedDefect;
};

struct Workload {
  std::string name;
  std::vector<Job> jobs;
  /// Write --stats-json/--events/--path-forest/--profile per job.
  bool observed = false;
  /// Worker threads of the parallel engine (--jobs); 0 = sequential engine.
  unsigned explorerJobs = 0;
};

/// The job id with the characters that are unsafe in file names ('@',
/// ':') replaced, for the job's image and artifact files.
std::string fileStem(const Job& job);

/// Names of every workload, in BENCHMARK.json order.
std::vector<std::string> workloadNames();

/// Build the named workload's job list from `seed`. Throws
/// std::invalid_argument for an unknown name.
Workload makeWorkload(const std::string& name, uint64_t seed);

/// A seeded comparator network over `n` symbolic bytes: a known sorting
/// network whose wires are relabelled by a seeded permutation, followed by
/// a sortedness assertion in the relabelled order.
adlsym::workloads::PProgram progNetwork(unsigned n, uint64_t seed);

/// Concrete loop: x = x*a + b (mod 256) for `iters` rounds, then one
/// symbolic input compared against x (2 paths).
adlsym::workloads::PProgram progLcg(uint8_t a, uint8_t b, unsigned iters);

}  // namespace perfbench
