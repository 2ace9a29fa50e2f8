// Correctness oracle behind the benchmark's `failed` count. It parses the
// path table `adlsym explore` prints and judges one job on four rules:
//   1. the dispatch exit code is the expected one;
//   2. every witness replays on the reference interpreter (refinterp.h) to
//      the same exit code and outputs, or to the same defect kind;
//   3. the path count equals the program's closed form, where it has one;
//   4. defect-suite cases report exactly the expected verdict.
// The fifth rule, equal path counts across the four ISAs, spans jobs and
// lives in crossIsaMismatches().
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "jobs.h"

namespace perfbench {

struct PathRow {
  std::string status;  // "exited", "defect", ...
  std::optional<uint64_t> exitCode;
  std::string defectKind;  // core::defectKindName, "" when none
  std::vector<uint64_t> outputs;
  std::vector<uint64_t> inputs;  // witness values, in stream order
};

struct ExploreReport {
  bool parsed = false;  // the header line was found
  uint64_t paths = 0;   // the header's paths= count
  std::vector<PathRow> rows;
};

/// Parse the stdout of `adlsym explore` (core::formatSummary + solver lines).
ExploreReport parseExploreOutput(const std::string& text);

/// Judge one job; returns "" when it passes, else the first failure.
std::string judgeJob(const Job& job, int exitCode, const ExploreReport& report);

/// Ids of jobs whose path count differs from another ISA's run of the same
/// program. `paths` maps job id to its reported path count.
std::vector<std::string> crossIsaMismatches(
    const std::vector<Job>& jobs, const std::map<std::string, uint64_t>& paths);

}  // namespace perfbench
