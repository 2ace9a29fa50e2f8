// E3 — "Path exploration scaling" (reconstructed Figure 2).
//
// Two series per ISA:
//   (a) progEarlyExit(bound): paths grow linearly (bound+1);
//   (b) progBitcount(bits):   paths grow exponentially (2^bits).
// The expectation is that all three ISAs trace the same curve — the
// exploration cost is a property of the program, not of the architecture —
// while absolute time varies with instruction count per IR operation.
// Every wall-ms cell is the fastest of benchutil::kRowRuns runs.
#include <filesystem>

#include "bench/bench_util.h"
#include "core/evaluator.h"
#include "core/pexplorer.h"
#include "core/testgen.h"
#include "driver/session.h"
#include "isa/registry.h"
#include "smt/qcache.h"
#include "workloads/programs.h"

using namespace adlsym;

namespace {

void series(const char* title, const char* label,
            const std::vector<unsigned>& xs,
            workloads::PProgram (*make)(unsigned)) {
  std::printf("%s\n\n", title);
  benchutil::Table table({"param", "isa", "paths", "insns", "solver-q",
                          "wall-ms"},
                         label);
  for (const unsigned x : xs) {
    for (const std::string& isaName : isa::allIsaNames()) {
      std::unique_ptr<driver::Session> session;
      core::ExploreSummary summary;
      const double ms = benchutil::fastestRunMs([&] {
        session = driver::Session::forPortable(make(x), isaName);
        benchutil::Timer t;
        summary = session->explore();
        return t.millis();
      });
      table.addRow({benchutil::num(x), isaName,
                    benchutil::num(summary.paths.size()),
                    benchutil::num(summary.totalSteps),
                    benchutil::num(session->solver().stats().queries),
                    benchutil::fmt("%.2f", ms)});
    }
  }
  table.print();
  std::printf("\n");
}

}  // namespace

void mergingSeries() {
  std::printf("(c) state-merging ablation on the exponential series\n\n");
  benchutil::Table table({"bits", "merging", "paths", "merges", "insns",
                          "wall-ms"},
                         "merging");
  for (const unsigned bits : {4u, 6u, 8u}) {
    for (const bool merge : {false, true}) {
      driver::SessionOptions opt;
      opt.explorer.mergeStates = merge;
      // Merging requires reconverging states to coexist on the frontier:
      // breadth-first scheduling maximizes that.
      opt.explorer.strategy = core::SearchStrategy::BFS;
      core::ExploreSummary summary;
      const double ms = benchutil::fastestRunMs([&] {
        auto session = driver::Session::forPortable(
            workloads::progBitcount(bits), "rv32e", opt);
        benchutil::Timer t;
        summary = session->explore();
        return t.millis();
      });
      table.addRow({benchutil::num(bits), merge ? "on" : "off",
                    benchutil::num(summary.paths.size()),
                    benchutil::num(summary.statesMerged),
                    benchutil::num(summary.totalSteps),
                    benchutil::fmt("%.2f", ms)});
    }
  }
  table.print();
  std::printf("\n");
}

void governedSeries() {
  std::printf(
      "(d) resource governor on the exponential series (capped vs\n"
      "    uncapped frontier, docs/robustness.md)\n\n");
  benchutil::Table table({"bits", "max-frontier", "paths", "truncated",
                          "frontier-peak", "insns", "wall-ms"},
                         "governed");
  for (const unsigned bits : {6u, 8u}) {
    for (const uint64_t cap : {uint64_t{0}, uint64_t{8}}) {
      core::ExploreSummary summary;
      uint64_t peak = 0;
      const double ms = benchutil::fastestRunMs([&] {
        telemetry::ManualClock clk;
        telemetry::Telemetry tel(clk);
        driver::SessionOptions opt;
        opt.telemetry = &tel;
        opt.explorer.maxFrontier = cap;
        // BFS is the worst case for frontier growth on the diamond chain
        // (peak 2^(bits-1) states); the cap is what makes it affordable.
        opt.explorer.strategy = core::SearchStrategy::BFS;
        auto session = driver::Session::forPortable(
            workloads::progBitcount(bits), "rv32e", opt);
        benchutil::Timer t;
        summary = session->explore();
        const double runMs = t.millis();
        peak = static_cast<uint64_t>(
            tel.metrics().gauge("explore.frontier_peak").value);
        return runMs;
      });
      table.addRow(
          {benchutil::num(bits), cap ? benchutil::num(cap) : "off",
           benchutil::num(summary.paths.size()),
           benchutil::num(summary.statesTruncated), benchutil::num(peak),
           benchutil::num(summary.totalSteps), benchutil::fmt("%.2f", ms)});
    }
  }
  table.print();
  std::printf("\n");
}

void parallelSeries() {
  std::printf(
      "(e) parallel engine scaling on the exponential series\n"
      "    (--jobs, docs/parallelism.md; path counts jobs-invariant by\n"
      "    the determinism contract, wall time bounded by core count)\n\n");
  benchutil::Table table({"bits", "jobs", "paths", "insns", "qcache-hit",
                          "wall-ms"},
                         "parallel");
  for (const unsigned bits : {6u, 8u}) {
    for (const unsigned jobs : {1u, 2u, 4u}) {
      core::ExploreSummary summary;
      double hitRate = 0;
      const double ms = benchutil::fastestRunMs([&] {
        auto session = driver::Session::forPortable(
            workloads::progBitcount(bits), "rv32e");
        const adl::ArchModel& m = session->model();
        smt::QueryCache qcache;
        core::ParallelConfig pcfg;
        pcfg.jobs = jobs;
        pcfg.qcache = &qcache;
        pcfg.solverConflictBudget = session->options().solverConflictBudget;
        core::ParallelExplorer pex(
            session->image(), session->options().engine, pcfg,
            [&m](core::EngineServices& svc) -> std::unique_ptr<core::Executor> {
              return std::make_unique<core::AdlExecutor>(m, svc);
            });
        benchutil::Timer t;
        core::ParallelResult res = pex.run();
        const double runMs = t.millis();
        summary = std::move(res.summary);
        hitRate = qcache.stats().hitRate();
        return runMs;
      });
      table.addRow({benchutil::num(bits), benchutil::num(jobs),
                    benchutil::num(summary.paths.size()),
                    benchutil::num(summary.totalSteps),
                    benchutil::fmt("%.0f%%", 100.0 * hitRate),
                    benchutil::fmt("%.2f", ms)});
    }
  }
  table.print();
  std::printf("\n");
}

void checkpointSeries() {
  std::printf(
      "(g) checkpoint overhead on the exponential series\n"
      "    (--checkpoint-every, docs/robustness.md; level-barrier\n"
      "    checkpoints, path counts invariant, ckpts = files written)\n\n");
  benchutil::Table table({"bits", "ckpt-every", "paths", "insns", "ckpts",
                          "ckpt-kb", "wall-ms"},
                         "checkpoint");
  const std::string ckptPath =
      (std::filesystem::temp_directory_path() / "adlsym_bench_paths.ckpt")
          .string();
  for (const unsigned bits : {6u, 8u}) {
    for (const uint64_t every : {uint64_t{0}, uint64_t{4}, uint64_t{1}}) {
      core::ExploreSummary summary;
      uint64_t writes = 0;
      uint64_t bytes = 0;
      const double ms = benchutil::fastestRunMs([&] {
        auto session = driver::Session::forPortable(
            workloads::progBitcount(bits), "rv32e");
        const adl::ArchModel& m = session->model();
        smt::QueryCache qcache;
        core::ParallelConfig pcfg;
        pcfg.jobs = 2;
        pcfg.qcache = &qcache;
        pcfg.manualClockStepUs = 1;  // the clock model checkpoints rely on
        pcfg.solverConflictBudget = session->options().solverConflictBudget;
        writes = 0;
        if (every != 0) {
          pcfg.checkpointEverySteps = every;
          pcfg.checkpointPath = ckptPath;
          pcfg.ckptIsa = "rv32e";
          pcfg.ckptStrategy = "dfs";
          pcfg.ckptImageSha = "bench";
          pcfg.ckptExtras = [&writes](json::Writer&,
                                      const core::ParallelConfig::CkptInfo&) {
            ++writes;
          };
        }
        core::ParallelExplorer pex(
            session->image(), session->options().engine, pcfg,
            [&m](core::EngineServices& svc) -> std::unique_ptr<core::Executor> {
              return std::make_unique<core::AdlExecutor>(m, svc);
            });
        benchutil::Timer t;
        core::ParallelResult res = pex.run();
        const double runMs = t.millis();
        summary = std::move(res.summary);
        if (every != 0) bytes = std::filesystem::file_size(ckptPath);
        return runMs;
      });
      table.addRow({benchutil::num(bits),
                    every ? benchutil::num(every) : "off",
                    benchutil::num(summary.paths.size()),
                    benchutil::num(summary.totalSteps),
                    benchutil::num(writes),
                    benchutil::fmt("%.1f", double(bytes) / 1024.0),
                    benchutil::fmt("%.2f", ms)});
    }
  }
  std::filesystem::remove(ckptPath);
  table.print();
  std::printf("\n");
}

int main() {
  std::printf("E3: path exploration scaling (same curve on every ISA)\n\n");
  series("(a) linear series: early-exit loop, paths = bound + 1", "linear",
         {2, 4, 8, 16, 32}, workloads::progEarlyExit);
  series("(b) exponential series: bitcount, paths = 2^bits", "exponential",
         {2, 4, 6, 8}, workloads::progBitcount);
  mergingSeries();
  governedSeries();
  parallelSeries();
  checkpointSeries();
  std::printf(
      "shape check: path counts are ISA-invariant; wall time grows with\n"
      "paths (linearly in (a), exponentially in (b)); state merging\n"
      "collapses the diamond chain of (b) to linearly many paths; the\n"
      "frontier cap bounds peak memory while accounting for every evicted\n"
      "state as a truncated path; the parallel series reports identical\n"
      "path/insn counts at every jobs value (speedup needs >1 core);\n"
      "level-barrier checkpoints add bounded overhead at identical path\n"
      "counts.\n");
  benchutil::writeJsonReport("paths");
  return 0;
}
