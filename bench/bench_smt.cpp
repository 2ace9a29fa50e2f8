// E4 — "SMT solver cost" (reconstructed Figure 3) + rewriter ablation.
//
//   (a) Solver share of exploration time vs constraint-chain depth
//       (progChecksum(n): one xor chain of n symbolic bytes feeding a final
//       equality — deep terms, two paths).
//   (b) Ablation: the term rewriter on vs off — same results, different
//       term/solver work (DESIGN.md §6 decision 2).
//   (d) The shared query cache under the parallel engine.
//
// There is no (c) or (e) any more: they ablated the solver's own query
// cache and the abstract prefilter, both removed from the solver
// (EXPERIMENTS.md E4).
//
// Every timed cell is the fastest of benchutil::kRowRuns runs. Registers
// google-benchmark timings for isolated solver queries as well.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/evaluator.h"
#include "core/pexplorer.h"
#include "driver/session.h"
#include "smt/qcache.h"
#include "workloads/programs.h"

using namespace adlsym;

namespace {

void depthTable() {
  std::printf("(a) solver cost vs constraint depth (progChecksum)\n\n");
  benchutil::Table table({"n", "paths", "queries", "sat", "unsat",
                          "solve-ms", "total-ms", "solver-share"},
                         "depth");
  for (const unsigned n : {2u, 4u, 8u, 16u, 24u, 32u}) {
    // The fastest run's solver time too, so the share compares one run.
    std::unique_ptr<driver::Session> session;
    core::ExploreSummary summary;
    double totalMs = 1e300;
    double solveMs = 0;
    for (int i = 0; i < benchutil::kRowRuns; ++i) {
      session =
          driver::Session::forPortable(workloads::progChecksum(n), "rv32e");
      benchutil::Timer t;
      summary = session->explore();
      const double runMs = t.millis();
      if (runMs < totalMs) {
        totalMs = runMs;
        solveMs = session->solver().stats().totalMicros / 1e3;
      }
    }
    const auto& st = session->solver().stats();
    table.addRow({benchutil::num(n), benchutil::num(summary.paths.size()),
                  benchutil::num(st.queries), benchutil::num(st.sat),
                  benchutil::num(st.unsat), benchutil::fmt("%.2f", solveMs),
                  benchutil::fmt("%.2f", totalMs),
                  benchutil::fmt("%.0f%%", 100.0 * solveMs / totalMs)});
  }
  table.print();
  std::printf("\n");
}

void ablationTable() {
  std::printf("(b) term-rewriter ablation (same program, rewrites on/off)\n\n");
  benchutil::Table table({"workload", "rewriter", "terms", "rewrite-hits",
                          "gates", "sat-conflicts", "wall-ms"},
                         "rewriter-ablation");
  struct Case {
    const char* name;
    workloads::PProgram prog;
  };
  std::vector<Case> cases;
  cases.push_back({"checksum16", workloads::progChecksum(16)});
  cases.push_back({"bitcount8", workloads::progBitcount(8)});
  cases.push_back({"sort4", workloads::progSort(4)});
  for (const Case& c : cases) {
    for (const bool rewrite : {true, false}) {
      driver::SessionOptions opt;
      opt.rewriting = rewrite;
      std::unique_ptr<driver::Session> session;
      const double ms = benchutil::fastestRunMs([&] {
        session = driver::Session::forPortable(c.prog, "rv32e", opt);
        benchutil::Timer t;
        (void)session->explore();
        return t.millis();
      });
      table.addRow({c.name, rewrite ? "on" : "off",
                    benchutil::num(session->termManager().numTerms()),
                    benchutil::num(session->termManager().rewriteHits()),
                    benchutil::num(session->solver().blastStats().gates),
                    benchutil::num(session->solver().satStats().conflicts),
                    benchutil::fmt("%.2f", ms)});
    }
  }
  table.print();
  std::printf("\nshape check: solver share grows with depth; disabling the\n"
              "rewriter inflates term count and gate count for identical\n"
              "exploration results.\n\n");
}

void sharedCacheTable() {
  std::printf(
      "(d) shared query cache under the parallel engine\n"
      "    (ParallelConfig::qcache, which the CLI leaves unset;\n"
      "    docs/parallelism.md; hit/miss counts are jobs-invariant)\n\n");
  benchutil::Table table({"jobs", "qcache", "queries", "hits", "misses",
                          "hit-rate", "wall-ms"},
                         "shared-cache");
  for (const unsigned jobs : {1u, 2u, 4u}) {
    for (const bool cache : {true, false}) {
      uint64_t queries = 0;
      smt::QueryCache::Stats qs;
      const double ms = benchutil::fastestRunMs([&] {
        auto session = driver::Session::forPortable(
            workloads::progBitcount(6), "rv32e");
        const adl::ArchModel& m = session->model();
        smt::QueryCache qcache;
        core::ParallelConfig pcfg;
        pcfg.jobs = jobs;
        pcfg.qcache = cache ? &qcache : nullptr;
        pcfg.solverConflictBudget = session->options().solverConflictBudget;
        core::ParallelExplorer pex(
            session->image(), session->options().engine, pcfg,
            [&m](core::EngineServices& svc) -> std::unique_ptr<core::Executor> {
              return std::make_unique<core::AdlExecutor>(m, svc);
            });
        benchutil::Timer t;
        (void)pex.run();
        const double runMs = t.millis();
        queries = pex.solverTelemetry().queries;
        qs = qcache.stats();
        return runMs;
      });
      table.addRow({benchutil::num(jobs), cache ? "on" : "off",
                    benchutil::num(queries), benchutil::num(qs.hits),
                    benchutil::num(qs.misses),
                    benchutil::fmt("%.2f", qs.hitRate()),
                    benchutil::fmt("%.2f", ms)});
    }
  }
  table.print();
  std::printf("\n");
}

void BM_SolverQueryShallow(benchmark::State& state) {
  smt::TermManager tm;
  smt::SmtSolver solver(tm);
  auto x = tm.mkVar(32, "x");
  auto y = tm.mkVar(32, "y");
  uint64_t k = 1;
  for (auto _ : state) {
    auto c = tm.mkEq(tm.mkAdd(x, tm.mkConst(32, k++)), y);
    benchmark::DoNotOptimize(solver.check({c, tm.mkUlt(x, y)}));
  }
}

void BM_SolverQueryMul(benchmark::State& state) {
  smt::TermManager tm;
  smt::SmtSolver solver(tm);
  auto x = tm.mkVar(32, "x");
  auto y = tm.mkVar(32, "y");
  uint64_t k = 3;
  for (auto _ : state) {
    auto c = tm.mkEq(tm.mkMul(x, y), tm.mkConst(32, k));
    k = k * 6364136223846793005ull + 1442695040888963407ull;
    benchmark::DoNotOptimize(solver.check({c, tm.mkUgt(x, tm.mkConst(32, 1)),
                                           tm.mkUgt(y, tm.mkConst(32, 1))}));
  }
}

BENCHMARK(BM_SolverQueryShallow)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SolverQueryMul)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::printf("E4: SMT solver cost breakdown\n\n");
  depthTable();
  ablationTable();
  sharedCacheTable();
  benchutil::writeJsonReport("smt");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
