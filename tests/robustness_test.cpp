// Resource governor + deterministic fault injection (docs/robustness.md):
// fault-site registry semantics, solver deadlines, frontier/memory
// governance with exact state accounting, Unknown-verdict degradation on
// every shipped ISA, and the CLI's exit-code contract under injected
// faults and exhausted budgets.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/testgen.h"
#include "driver/cli.h"
#include "driver/session.h"
#include "smt/solver.h"
#include "support/fault.h"
#include "support/telemetry.h"
#include "workloads/programs.h"

namespace adlsym {
namespace {

using core::PathStatus;
using core::TruncReason;
using driver::Session;
using driver::SessionOptions;

// ---- fault-site registry -------------------------------------------------

TEST(Fault, FiresOnNthHitThenStaysQuiet) {
  ASSERT_FALSE(fault::armed());
  fault::arm("solver.check:3");
  EXPECT_TRUE(fault::armed());
  fault::hit("solver.check");  // 1
  fault::hit("solver.check");  // 2
  try {
    fault::hit("solver.check");  // 3 -> fires
    FAIL() << "expected InjectedFault";
  } catch (const fault::InjectedFault& e) {
    EXPECT_EQ(e.site(), "solver.check");
    EXPECT_EQ(e.hit(), 3u);
    EXPECT_NE(std::string(e.what()).find("solver.check"), std::string::npos);
  }
  // A site fires once per schedule; later hits pass.
  fault::hit("solver.check");
  // Unarmed sites never fire.
  fault::hit("image.read");
  fault::disarm();
  EXPECT_FALSE(fault::armed());
  fault::hit("solver.check");
}

TEST(Fault, DisarmedHitsAreFree) {
  ASSERT_FALSE(fault::armed());
  for (int i = 0; i < 1000; ++i) fault::hit("obs.write");
}

TEST(Fault, MultiSiteSchedule) {
  fault::ScopedArm arm("image.read:1,obs.write:2");
  EXPECT_THROW(fault::hit("image.read"), fault::InjectedFault);
  fault::hit("obs.write");
  EXPECT_THROW(fault::hit("obs.write"), fault::InjectedFault);
}

TEST(Fault, AllocSiteThrowsBadAlloc) {
  // The alloc site simulates memory exhaustion, so it must surface as the
  // same exception real exhaustion would.
  fault::ScopedArm arm("alloc:1");
  EXPECT_THROW(fault::hit("alloc"), std::bad_alloc);
}

TEST(Fault, BadSpecsAreInputErrors) {
  EXPECT_THROW(fault::arm("warp.core:1"), InputError);
  EXPECT_FALSE(fault::armed());
  EXPECT_THROW(fault::arm("solver.check"), InputError);    // missing :nth
  EXPECT_THROW(fault::arm("solver.check:0"), InputError);  // nth >= 1
  EXPECT_THROW(fault::arm("solver.check:soon"), InputError);
  try {
    fault::arm("nope:1");
  } catch (const InputError& e) {
    // The diagnostic teaches the valid sites.
    EXPECT_NE(std::string(e.what()).find("solver.check"), std::string::npos);
  }
}

TEST(Fault, ScopedArmUnwindsOnThrow) {
  try {
    fault::ScopedArm arm("solver.check:1");
    fault::hit("solver.check");
    FAIL() << "expected InjectedFault";
  } catch (const fault::InjectedFault&) {
  }
  EXPECT_FALSE(fault::armed());
  fault::ScopedArm noop("");  // empty spec = no-op
  EXPECT_FALSE(fault::armed());
}

// ---- solver deadlines ----------------------------------------------------

TEST(SolverDeadline, QueryTimeoutReturnsUnknown) {
  // The manual clock advances a full second per read, so any nonzero
  // per-query timeout expires before the SAT core runs a single conflict.
  telemetry::ManualClock clk(1000000);
  telemetry::Telemetry tel(clk);
  smt::TermManager tm;
  smt::SmtSolver s(tm);
  s.setTelemetry(&tel);
  s.setQueryTimeoutMicros(1000);
  smt::TermRef x = tm.mkVar(16, "x");
  smt::TermRef y = tm.mkVar(16, "y");
  const auto r = s.check({tm.mkEq(tm.mkMul(x, y), tm.mkConst(16, 91)),
                          tm.mkUgt(x, tm.mkConst(16, 1)),
                          tm.mkUgt(y, tm.mkConst(16, 1))});
  EXPECT_EQ(r, smt::CheckResult::Unknown);
  EXPECT_EQ(s.stats().unknown, 1u);
  EXPECT_GE(s.satStats().deadlineAborts, 1u);
}

TEST(SolverDeadline, WallDeadlineShortCircuitsQueries) {
  telemetry::ManualClock clk(1000000);
  telemetry::Telemetry tel(clk);
  smt::TermManager tm;
  smt::SmtSolver s(tm);
  s.setTelemetry(&tel);
  s.setWallDeadlineMicros(1);  // effectively already expired
  smt::TermRef x = tm.mkVar(8, "x");
  EXPECT_EQ(s.check({tm.mkUgt(x, tm.mkConst(8, 4))}),
            smt::CheckResult::Unknown);
  // Clearing the deadline restores normal solving.
  s.setWallDeadlineMicros(0);
  EXPECT_EQ(s.check({tm.mkUgt(x, tm.mkConst(8, 4))}), smt::CheckResult::Sat);
}

TEST(SolverDeadline, ConflictBudgetStillBounds) {
  // The deadline layers on the existing conflict budget; a hard factoring
  // query dies on whichever limit trips first.
  smt::TermManager tm;
  smt::SmtSolver s(tm);
  s.setConflictBudget(1);
  smt::TermRef x = tm.mkVar(16, "x");
  smt::TermRef y = tm.mkVar(16, "y");
  const auto r = s.check({tm.mkEq(tm.mkMul(x, y), tm.mkConst(16, 7 * 13)),
                          tm.mkUgt(x, tm.mkConst(16, 1)),
                          tm.mkUgt(y, tm.mkConst(16, 1)),
                          tm.mkUlt(x, tm.mkConst(16, 50)),
                          tm.mkUlt(y, tm.mkConst(16, 50))});
  EXPECT_EQ(r, smt::CheckResult::Unknown);
}

// ---- frontier / memory governance ---------------------------------------

// Every forked state must end up somewhere the summary can name.
void expectAccounted(const core::ExploreSummary& s) {
  EXPECT_EQ(1 + s.totalForks,
            s.paths.size() + s.statesDropped + s.statesMerged)
      << "forks=" << s.totalForks << " paths=" << s.paths.size()
      << " dropped=" << s.statesDropped << " merged=" << s.statesMerged;
}

TEST(Governor, FrontierCapEvictsAsTruncated) {
  SessionOptions opt;
  opt.explorer.maxFrontier = 2;
  auto s = Session::forPortable(workloads::progBitcount(5), "rv32e", opt);
  const auto summary = s->explore();
  uint64_t evicted = 0;
  for (const auto& p : summary.paths) {
    if (p.status == PathStatus::Truncated) {
      ++evicted;
      EXPECT_EQ(p.truncReason, TruncReason::Frontier);
    }
  }
  EXPECT_GT(evicted, 0u);
  EXPECT_EQ(summary.statesTruncated, evicted);
  EXPECT_EQ(summary.truncatedByReason[size_t(TruncReason::Frontier)], evicted);
  // Eviction is not a run-stopping condition: the run completes normally.
  EXPECT_EQ(summary.stopReason, "");
  expectAccounted(summary);
}

TEST(Governor, MemBudgetStopsRun) {
  SessionOptions opt;
  opt.explorer.memBudgetBytes = 1;  // nothing fits: drain immediately
  auto s = Session::forPortable(workloads::progBitcount(4), "rv32e", opt);
  const auto summary = s->explore();
  EXPECT_EQ(summary.stopReason, "mem-budget");
  EXPECT_GT(summary.statesTruncated, 0u);
  EXPECT_GT(summary.truncatedByReason[size_t(TruncReason::Memory)], 0u);
  EXPECT_TRUE(summary.budgetExhausted());
  expectAccounted(summary);
}

TEST(Governor, TightBudgetsAccountOnEveryIsa) {
  for (const char* isa : {"rv32e", "m16", "acc8", "stk16"}) {
    SessionOptions opt;
    opt.explorer.maxTotalSteps = 40;
    auto s = Session::forPortable(workloads::progBitcount(6), isa, opt);
    const auto summary = s->explore();
    EXPECT_EQ(summary.stopReason, "max-steps") << isa;
    EXPECT_GT(summary.statesTruncated, 0u) << isa;
    EXPECT_TRUE(summary.budgetExhausted()) << isa;
    expectAccounted(summary);
    // Truncated paths carry no witness work: reported, not solved.
    for (const auto& p : summary.paths) {
      if (p.status == PathStatus::Truncated) {
        EXPECT_EQ(p.truncReason, TruncReason::Steps) << isa;
        EXPECT_TRUE(p.test.inputs.empty()) << isa;
      }
    }
  }
}

TEST(Governor, EvictionIsDeterministic) {
  auto run = [] {
    SessionOptions opt;
    opt.explorer.maxFrontier = 3;
    opt.explorer.strategy = core::SearchStrategy::Random;
    opt.explorer.rngSeed = 11;
    auto s = Session::forPortable(workloads::progBitcount(5), "rv32e", opt);
    std::string log;
    for (const auto& p : s->explore().paths) log += core::formatPath(p) + "\n";
    return log;
  };
  EXPECT_EQ(run(), run());
}

// ---- Unknown-verdict degradation -----------------------------------------

// A symbolic input squared, then a branch on the square: the feasibility
// query is hard enough that a one-conflict budget abandons it. Its model
// nearest the witness x = 0 is x = 15, which the SAT core reaches only
// through conflicts, as each smaller x squares to too little. (A product
// of two inputs would not do: x = 1 gives y = the product with no
// conflict at all.)
workloads::PProgram progFactorGate() {
  workloads::PProgram p;
  p.in(0);
  p.mul(2, 0, 0);
  p.li(3, 225);
  p.beq(2, 3, "hit");
  p.out(2);
  p.halt(0);
  p.label("hit");
  p.halt(1);
  return p;
}

TEST(Governor, UnknownVerdictsDegradeGracefullyOnEveryIsa) {
  for (const char* isa : {"rv32e", "m16", "acc8", "stk16"}) {
    auto run = [&] {
      SessionOptions opt;
      opt.solverConflictBudget = 1;
      auto s = Session::forPortable(progFactorGate(), isa, opt);
      return s->explore();
    };
    const auto a = run();
    const auto b = run();
    // Unknowns happened, were counted, and nothing crashed or hung.
    EXPECT_GT(a.solverUnknowns, 0u) << isa;
    expectAccounted(a);
    // Unknown = not-taken is deterministic: identical reruns agree path
    // for path.
    ASSERT_EQ(a.paths.size(), b.paths.size()) << isa;
    for (size_t i = 0; i < a.paths.size(); ++i) {
      EXPECT_EQ(core::formatPath(a.paths[i]), core::formatPath(b.paths[i]))
          << isa;
    }
    EXPECT_EQ(a.solverUnknowns, b.solverUnknowns) << isa;
    // The formatted summary reports the degradation.
    EXPECT_NE(core::formatSummary(a).find("unknown="), std::string::npos)
        << isa << ": " << core::formatSummary(a);
  }
}

// ---- CLI error boundary + exit codes -------------------------------------

std::string slurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class CliRobustness : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto img = driver::cli::cmdAsm("rv32e", R"(
_start:
  in8 x5
  beq x5, x0, zero
  out x5
  halti 1
zero:
  halti 2
)");
    ASSERT_EQ(img.exitCode, 0) << img.output;
    imgPath = testing::TempDir() + "robust_cli.img";
    std::ofstream(imgPath, std::ios::binary) << img.output;
  }
  std::string imgPath;
};

TEST_F(CliRobustness, InjectedFaultsExitFourWithDiagnostic) {
  using driver::cli::dispatch;
  struct {
    const char* spec;
    const char* needle;
  } cases[] = {
      {"--inject=solver.check:1", "injected fault"},
      {"--inject=image.read:1", "injected fault"},
      {"--inject=alloc:1", "out of memory"},
  };
  for (const auto& c : cases) {
    const auto r = dispatch({"explore", "rv32e", imgPath, c.spec});
    EXPECT_EQ(r.exitCode, 4) << c.spec << ": " << r.output;
    EXPECT_NE(r.output.find("error: "), std::string::npos) << c.spec;
    EXPECT_NE(r.output.find(c.needle), std::string::npos)
        << c.spec << ": " << r.output;
  }
  // obs.write only fires when an observability sink is actually written.
  const std::string stats = testing::TempDir() + "robust_faulted_stats.json";
  const auto r = dispatch(
      {"explore", "rv32e", imgPath, "--inject=obs.write:1",
       "--stats-json=" + stats});
  EXPECT_EQ(r.exitCode, 4) << r.output;
}

TEST_F(CliRobustness, UnknownFaultSiteIsBadInput) {
  const auto r = driver::cli::dispatch(
      {"explore", "rv32e", imgPath, "--inject=warp.core:1"});
  EXPECT_EQ(r.exitCode, 2) << r.output;
  EXPECT_NE(r.output.find("warp.core"), std::string::npos) << r.output;
  // The schedule is disarmed again after the failed command.
  EXPECT_FALSE(fault::armed());
}

TEST_F(CliRobustness, EnvVarArmsAnyCommand) {
  ::setenv("ADLSYM_FAULTS", "image.read:1", 1);
  const auto r = driver::cli::dispatch({"explore", "rv32e", imgPath});
  ::unsetenv("ADLSYM_FAULTS");
  EXPECT_EQ(r.exitCode, 4) << r.output;
  EXPECT_NE(r.output.find("injected fault"), std::string::npos) << r.output;
  EXPECT_FALSE(fault::armed());
}

TEST_F(CliRobustness, ExhaustedBudgetExitsThreeWithTruncationStats) {
  const std::string stats = testing::TempDir() + "robust_budget_stats.json";
  const auto r = driver::cli::dispatch(
      {"explore", "rv32e", imgPath, "--max-steps", "2",
       "--stats-json=" + stats});
  EXPECT_EQ(r.exitCode, 3) << r.output;
  const std::string doc = slurpFile(stats);
  EXPECT_NE(doc.find("\"schema\":\"adlsym-stats-v9\""), std::string::npos);
  EXPECT_NE(doc.find("\"stop_reason\":\"max-steps\""), std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"truncated_by_reason\":{\"steps\":"), std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"states_truncated\":"), std::string::npos) << doc;
}

TEST_F(CliRobustness, GovernorFlagsParseAndCompleteRunsExitZero) {
  // Generous budgets never trip on a two-path program: exit 0.
  const auto r = driver::cli::dispatch(
      {"explore", "rv32e", imgPath, "--max-frontier", "64", "--mem-budget-mb",
       "512", "--solver-timeout-ms", "10000", "--max-wall-ms", "600000"});
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("paths=2"), std::string::npos);
  // Zero caps are rejected as bad input (0 means "unbounded" only via
  // flag omission).
  EXPECT_EQ(driver::cli::dispatch(
                {"explore", "rv32e", imgPath, "--max-frontier", "0"})
                .exitCode,
            2);
  EXPECT_EQ(driver::cli::dispatch(
                {"explore", "rv32e", imgPath, "--mem-budget-mb", "0"})
                .exitCode,
            2);
}

TEST_F(CliRobustness, ManualClockMakesArtifactsByteIdentical) {
  auto runOnce = [&](const std::string& tag) {
    const std::string stats = testing::TempDir() + "robust_det_" + tag + ".json";
    const std::string forest =
        testing::TempDir() + "robust_det_" + tag + "_forest.json";
    // A never-firing schedule must not perturb determinism either.
    const auto r = driver::cli::dispatch(
        {"explore", "rv32e", imgPath, "--clock=manual:100",
         "--inject=solver.check:999999", "--stats-json=" + stats,
         "--path-forest=" + forest});
    EXPECT_EQ(r.exitCode, 0) << r.output;
    return slurpFile(stats) + "\x1f" + slurpFile(forest);
  };
  const std::string a = runOnce("a");
  const std::string b = runOnce("b");
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_FALSE(fault::armed());
}

// ---- robustness contract under the parallel engine (--jobs) --------------
// The governor and the error boundary are engine-independent: exit codes,
// stop_reason and truncation accounting under --jobs=N must match the
// single-threaded contract above (docs/parallelism.md).

uint64_t jsonUint(const std::string& doc, const std::string& key) {
  const size_t at = doc.find("\"" + key + "\":");
  EXPECT_NE(at, std::string::npos) << key << " missing in: " << doc;
  if (at == std::string::npos) return 0;
  return std::strtoull(doc.c_str() + at + key.size() + 3, nullptr, 10);
}

TEST_F(CliRobustness, ParallelInjectedFaultsExitFourWithDiagnostic) {
  using driver::cli::dispatch;
  struct {
    const char* spec;
    const char* needle;
  } cases[] = {
      {"--inject=solver.check:1", "injected fault"},
      {"--inject=alloc:1", "out of memory"},
  };
  for (const auto& c : cases) {
    // A worker thread hits the fault; the coordinator must surface it
    // through the same process-level error boundary as -j1.
    const auto r =
        dispatch({"explore", "rv32e", imgPath, "--jobs", "4", c.spec});
    EXPECT_EQ(r.exitCode, 4) << c.spec << ": " << r.output;
    EXPECT_NE(r.output.find("error: "), std::string::npos) << c.spec;
    EXPECT_NE(r.output.find(c.needle), std::string::npos)
        << c.spec << ": " << r.output;
    EXPECT_FALSE(fault::armed()) << c.spec;
  }
}

TEST_F(CliRobustness, ParallelBudgetExhaustionMatchesContract) {
  const std::string stats = testing::TempDir() + "robust_par_budget.json";
  const auto r = driver::cli::dispatch(
      {"explore", "rv32e", imgPath, "--jobs", "4", "--max-steps", "2",
       "--clock=manual", "--stats-json=" + stats});
  EXPECT_EQ(r.exitCode, 3) << r.output;
  const std::string doc = slurpFile(stats);
  EXPECT_NE(doc.find("\"schema\":\"adlsym-stats-v9\""), std::string::npos);
  EXPECT_NE(doc.find("\"stop_reason\":\"max-steps\""), std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"truncated_by_reason\":{\"steps\":"), std::string::npos)
      << doc;
}

TEST_F(CliRobustness, ParallelFrontierEvictionIsAccounted) {
  const std::string stats = testing::TempDir() + "robust_par_frontier.json";
  const auto r = driver::cli::dispatch(
      {"explore", "rv32e", imgPath, "--jobs", "4", "--max-frontier", "1",
       "--clock=manual", "--stats-json=" + stats});
  EXPECT_EQ(r.exitCode, 3) << r.output;
  const std::string doc = slurpFile(stats);
  EXPECT_NE(doc.find("\"truncated_by_reason\":{\"frontier\":"),
            std::string::npos)
      << doc;
  // The state-conservation invariant holds globally under concurrency:
  // every forked state is eventually a path, a drop or a merge.
  EXPECT_EQ(1 + jsonUint(doc, "total_forks"),
            jsonUint(doc, "paths") + jsonUint(doc, "states_dropped") +
                jsonUint(doc, "states_merged"))
      << doc;
}

TEST_F(CliRobustness, ParallelRejectsIncompatibleModes) {
  using driver::cli::dispatch;
  const auto merge =
      dispatch({"explore", "rv32e", imgPath, "--jobs", "2", "--merge"});
  EXPECT_EQ(merge.exitCode, 2) << merge.output;
  EXPECT_NE(merge.output.find("--merge"), std::string::npos) << merge.output;
  const auto qlog = dispatch({"explore", "rv32e", imgPath, "--jobs", "2",
                              "--query-log=" + testing::TempDir() + "ql"});
  EXPECT_EQ(qlog.exitCode, 2) << qlog.output;
  EXPECT_NE(qlog.output.find("--query-log"), std::string::npos)
      << qlog.output;
  EXPECT_EQ(
      dispatch({"explore", "rv32e", imgPath, "--jobs", "0"}).exitCode, 2);
  EXPECT_EQ(
      dispatch({"explore", "rv32e", imgPath, "--jobs", "65"}).exitCode, 2);
  // The shared query cache has no flag: --qcache is an unknown option.
  EXPECT_EQ(
      dispatch({"explore", "rv32e", imgPath, "--qcache=on"}).exitCode, 2);
  // Neither has the abstract prefilter, which no exploration attaches.
  for (const char* flag : {"--prefilter=on", "--prefilter=off"}) {
    const auto r = dispatch({"explore", "rv32e", imgPath, flag});
    EXPECT_EQ(r.exitCode, 2) << flag << ": " << r.output;
    EXPECT_NE(r.output.find(flag), std::string::npos) << r.output;
  }
}

TEST_F(CliRobustness, MalformedImageReportsLineContext) {
  const std::string bad = testing::TempDir() + "robust_bad.img";
  std::ofstream(bad, std::ios::binary)
      << "image v1\nentry zero\nsection text 0 ro 4\n";
  const auto r = driver::cli::dispatch({"explore", "rv32e", bad});
  EXPECT_EQ(r.exitCode, 2) << r.output;
  EXPECT_NE(r.output.find("image:2"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("entry"), std::string::npos) << r.output;
}

}  // namespace
}  // namespace adlsym
