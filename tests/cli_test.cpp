#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "driver/cli.h"
#include "driver/session.h"
#include "workloads/programs.h"

namespace adlsym::driver::cli {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(Cli, UsageAndUnknown) {
  EXPECT_EQ(dispatch({}).exitCode, 2);
  EXPECT_NE(dispatch({}).output.find("usage:"), std::string::npos);
  EXPECT_EQ(dispatch({"help"}).exitCode, 0);
  const auto r = dispatch({"frobnicate"});
  EXPECT_EQ(r.exitCode, 2);
  EXPECT_NE(r.output.find("unknown command"), std::string::npos);
}

TEST(Cli, Isas) {
  const auto r = cmdIsas();
  EXPECT_EQ(r.exitCode, 0);
  EXPECT_NE(r.output.find("rv32e"), std::string::npos);
  EXPECT_NE(r.output.find("m16"), std::string::npos);
  EXPECT_NE(r.output.find("acc8"), std::string::npos);
  EXPECT_NE(r.output.find("big"), std::string::npos);  // m16 endianness
}

TEST(Cli, ModelDump) {
  const auto r = cmdModel("acc8");
  EXPECT_EQ(r.exitCode, 0);
  EXPECT_NE(r.output.find("arch acc8"), std::string::npos);
  EXPECT_NE(r.output.find("(pc)"), std::string::npos);
  EXPECT_NE(r.output.find("(flag)"), std::string::npos);
  EXPECT_NE(r.output.find("lda_i"), std::string::npos);
  EXPECT_NE(r.output.find("mask="), std::string::npos);
  EXPECT_EQ(dispatch({"model", "z80"}).exitCode, 2);
}

constexpr char kProgram[] = R"(
_start:
  in8 x5
  beq x5, x0, zero
  out x5
  halti 1
zero:
  halti 2
)";

TEST(Cli, AsmRunExploreRoundTrip) {
  const auto asmResult = cmdAsm("rv32e", kProgram);
  ASSERT_EQ(asmResult.exitCode, 0) << asmResult.output;
  EXPECT_NE(asmResult.output.find("image v1"), std::string::npos);

  // Disassemble the produced image.
  const auto dis = cmdDisasm("rv32e", asmResult.output);
  ASSERT_EQ(dis.exitCode, 0);
  EXPECT_NE(dis.output.find("in8 x5"), std::string::npos);
  EXPECT_NE(dis.output.find("halti 2"), std::string::npos);

  // Concrete run with a nonzero input.
  const auto run = cmdRun("rv32e", asmResult.output, {7});
  EXPECT_EQ(run.exitCode, 0);
  EXPECT_NE(run.output.find("exited (code 1)"), std::string::npos);
  EXPECT_NE(run.output.find("outputs: 7"), std::string::npos);

  // Concrete run hitting the zero branch.
  const auto run0 = cmdRun("rv32e", asmResult.output, {0});
  EXPECT_NE(run0.output.find("exited (code 2)"), std::string::npos);

  // Symbolic exploration finds both paths.
  ExploreOptions opt;
  const auto exp = cmdExplore("rv32e", asmResult.output, opt);
  EXPECT_EQ(exp.exitCode, 0) << exp.output;
  EXPECT_NE(exp.output.find("paths=2"), std::string::npos);
  EXPECT_NE(exp.output.find("solver:"), std::string::npos);
}

TEST(Cli, ExploreStrategiesAndErrors) {
  const auto img = cmdAsm("rv32e", kProgram);
  ASSERT_EQ(img.exitCode, 0);
  for (const char* strat : {"dfs", "bfs", "random", "coverage"}) {
    ExploreOptions opt;
    opt.strategy = strat;
    const auto r = cmdExplore("rv32e", img.output, opt);
    EXPECT_EQ(r.exitCode, 0) << strat;
    EXPECT_NE(r.output.find("paths=2"), std::string::npos) << strat;
  }
  ExploreOptions bad;
  bad.strategy = "dancing-links";
  EXPECT_EQ(cmdExplore("rv32e", img.output, bad).exitCode, 2);
}

TEST(Cli, ExploreCoverageAndMerge) {
  const auto img = cmdAsm("rv32e", kProgram);
  ASSERT_EQ(img.exitCode, 0);
  ExploreOptions opt;
  opt.coverageReport = true;
  opt.mergeStates = true;
  opt.strategy = "bfs";
  const auto r = cmdExplore("rv32e", img.output, opt);
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("coverage of section text"), std::string::npos);
  EXPECT_NE(r.output.find("covered"), std::string::npos);
  EXPECT_NE(r.output.find(" * "), std::string::npos);
}

TEST(Cli, ExploreStatsJson) {
  const auto img = cmdAsm("rv32e", kProgram);
  ASSERT_EQ(img.exitCode, 0);
  ExploreOptions opt;
  opt.statsJsonPath = testing::TempDir() + "cli_stats.json";
  const auto r = cmdExplore("rv32e", img.output, opt);
  ASSERT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("paths=2"), std::string::npos);

  const std::string stats = slurp(opt.statsJsonPath);
  EXPECT_NE(stats.find("\"schema\":\"adlsym-stats-v9\""), std::string::npos);
  EXPECT_NE(stats.find("\"command\":\"explore\""), std::string::npos);
  EXPECT_NE(stats.find("\"isa\":\"rv32e\""), std::string::npos);
  EXPECT_NE(stats.find("\"paths\":2"), std::string::npos);
  EXPECT_NE(stats.find("\"solver\""), std::string::npos);
  EXPECT_NE(stats.find("\"solver.query_us\""), std::string::npos);
  EXPECT_NE(stats.find("\"metrics\""), std::string::npos);
  EXPECT_NE(stats.find("\"explore.paths\":2"), std::string::npos);

  // v2 additions: per-opcode execution counts and the branch-site table.
  EXPECT_NE(stats.find("\"opcodes\":{"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"beq\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"halti\":2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"branch_sites\":[{\"pc\":4,\"hits\":1,\"forks\":1,"
                       "\"infeasible\":0}]"),
            std::string::npos)
      << stats;
}

TEST(Cli, RunStatsJson) {
  const auto img = cmdAsm("rv32e", kProgram);
  ASSERT_EQ(img.exitCode, 0);
  RunOptions ropt;
  ropt.statsJsonPath = testing::TempDir() + "cli_run_stats.json";
  const auto r = cmdRun("rv32e", img.output, {7}, ropt);
  EXPECT_EQ(r.exitCode, 0);
  const std::string stats = slurp(ropt.statsJsonPath);
  EXPECT_NE(stats.find("\"command\":\"run\""), std::string::npos);
  EXPECT_NE(stats.find("\"status\":\"exited\""), std::string::npos);
  EXPECT_NE(stats.find("\"exit_code\":1"), std::string::npos);
}

TEST(Cli, TraceFlagIsGone) {
  // The JSONL trace stream was folded into --events; the old flag is
  // rejected as bad input rather than silently ignored.
  const auto img = cmdAsm("rv32e", kProgram);
  ASSERT_EQ(img.exitCode, 0);
  const std::string imgPath = testing::TempDir() + "cli_trace_flag.img";
  std::ofstream(imgPath, std::ios::binary) << img.output;
  const std::string trace = testing::TempDir() + "cli_trace_flag.jsonl";
  const auto e = dispatch({"explore", "rv32e", imgPath, "--trace=" + trace});
  EXPECT_EQ(e.exitCode, 2) << e.output;
  const auto r = dispatch({"run", "rv32e", imgPath, "7", "--trace=" + trace});
  EXPECT_EQ(r.exitCode, 2) << r.output;
}

TEST(Cli, DispatchParsesObservabilityFlags) {
  const auto img = cmdAsm("rv32e", kProgram);
  ASSERT_EQ(img.exitCode, 0);
  const std::string imgPath = testing::TempDir() + "cli_flags.img";
  std::ofstream(imgPath, std::ios::binary) << img.output;
  const std::string statsPath = testing::TempDir() + "cli_flags_stats.json";
  const auto r = dispatch(
      {"explore", "rv32e", imgPath, "--stats-json=" + statsPath});
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(slurp(statsPath).find("\"adlsym-stats-v9\""), std::string::npos);
}

TEST(Cli, PathForestFlagsAreDeterministic) {
  const auto img = cmdAsm("rv32e", kProgram);
  ASSERT_EQ(img.exitCode, 0);
  const std::string imgPath = testing::TempDir() + "cli_forest.img";
  std::ofstream(imgPath, std::ios::binary) << img.output;

  const std::string j1 = testing::TempDir() + "cli_forest1.json";
  const std::string d1 = testing::TempDir() + "cli_forest1.dot";
  const std::string j2 = testing::TempDir() + "cli_forest2.json";
  const std::string d2 = testing::TempDir() + "cli_forest2.dot";
  ASSERT_EQ(dispatch({"explore", "rv32e", imgPath, "--path-forest=" + j1,
                      "--path-dot=" + d1})
                .exitCode,
            0);
  ASSERT_EQ(dispatch({"explore", "rv32e", imgPath, "--path-forest=" + j2,
                      "--path-dot=" + d2})
                .exitCode,
            0);
  const std::string forest = slurp(j1);
  // Two identical runs produce byte-identical documents (the acceptance
  // bar for diffable path-forest records).
  EXPECT_EQ(forest, slurp(j2));
  EXPECT_EQ(slurp(d1), slurp(d2));
  EXPECT_NE(forest.find("\"schema\":\"adlsym-pathforest-v1\""),
            std::string::npos);
  EXPECT_NE(forest.find("\"verdict\":\"sat\""), std::string::npos) << forest;
  EXPECT_NE(forest.find("\"status\":\"exited\""), std::string::npos);
  // Timing stays out of the default document (nondeterministic).
  EXPECT_EQ(forest.find("solver_micros"), std::string::npos);
  const std::string dot = slurp(d1);
  EXPECT_NE(dot.find("digraph pathforest"), std::string::npos);
  EXPECT_NE(dot.find("palegreen"), std::string::npos);  // exited nodes
}

TEST(Cli, QueryLogCaptureAndReplay) {
  const auto img = cmdAsm("rv32e", kProgram);
  ASSERT_EQ(img.exitCode, 0);
  const std::string imgPath = testing::TempDir() + "cli_qlog.img";
  std::ofstream(imgPath, std::ios::binary) << img.output;
  const std::string dir = testing::TempDir() + "cli_qlog_corpus";

  ASSERT_EQ(dispatch({"explore", "rv32e", imgPath, "--query-log=" + dir})
                .exitCode,
            0);
  const auto replay = dispatch({"replay", dir});
  EXPECT_EQ(replay.exitCode, 0) << replay.output;
  EXPECT_NE(replay.output.find("0 mismatched, 0 errors"), std::string::npos)
      << replay.output;

  // Corrupt one recorded verdict: replay must flag it and fail.
  const std::string sidecarPath = dir + "/q000000.json";
  std::string sidecar = slurp(sidecarPath);
  const size_t at = sidecar.find("\"verdict\":\"sat\"");
  ASSERT_NE(at, std::string::npos) << sidecar;
  sidecar.replace(at, 15, "\"verdict\":\"unsat\"");
  std::ofstream(sidecarPath, std::ios::binary | std::ios::trunc) << sidecar;
  const auto bad = dispatch({"replay", dir});
  EXPECT_EQ(bad.exitCode, 1);
  EXPECT_NE(bad.output.find("MISMATCH"), std::string::npos) << bad.output;

  // Empty/missing corpus is a bad-input error, not a silent pass.
  EXPECT_EQ(dispatch({"replay", testing::TempDir() + "no_such_corpus"})
                .exitCode,
            2);
  EXPECT_EQ(dispatch({"replay"}).exitCode, 2);
}

TEST(Cli, ProgressFlagParsing) {
  const auto img = cmdAsm("rv32e", kProgram);
  ASSERT_EQ(img.exitCode, 0);
  const std::string imgPath = testing::TempDir() + "cli_progress.img";
  std::ofstream(imgPath, std::ios::binary) << img.output;
  // A huge interval never fires on a run this short, but the flag must
  // parse and the run succeed. Bad intervals are rejected.
  EXPECT_EQ(dispatch({"explore", "rv32e", imgPath, "--progress"}).exitCode, 0);
  EXPECT_EQ(
      dispatch({"explore", "rv32e", imgPath, "--progress=3600"}).exitCode, 0);
  EXPECT_EQ(dispatch({"explore", "rv32e", imgPath, "--progress=0"}).exitCode,
            2);
  EXPECT_EQ(
      dispatch({"explore", "rv32e", imgPath, "--progress=soon"}).exitCode, 2);
  for (const std::string v : {"inf", "nan", "-inf"}) {
    const auto r = dispatch({"explore", "rv32e", imgPath, "--progress=" + v});
    EXPECT_EQ(r.exitCode, 2) << v;
    EXPECT_EQ(r.output, "bad --progress interval '" + v + "'\n");
  }
}

TEST(Cli, HugeBudgetsDoNotBind) {
  // A budget too large to represent does not bind: with each flag at such
  // a value, sort4 explores as the unbudgeted run does, sequentially and
  // at --jobs 2. They used to wrap or cast out of range into tiny budgets
  // (1 path and 15 Unknown queries, or a --jobs run stopped before its
  // first step), a 1 MiB memory budget and a heartbeat on every step.
  const std::string imgPath = testing::TempDir() + "cli_huge_sort4.img";
  std::ofstream(imgPath, std::ios::binary)
      << Session::forPortable(workloads::progSort(4), "rv32e")
             ->image()
             .serialize();
  const std::string u64max = "18446744073709551615";
  const std::string events = testing::TempDir() + "cli_huge.events.jsonl";
  const std::vector<std::vector<std::string>> budgets = {
      {"--max-wall-ms", u64max},
      {"--solver-timeout-ms", u64max},
      {"--solver-timeout-ms", "18446744073709552"},  // x1000 wrapped
      {"--mem-budget-mb", "17592186044417", "--events=" + events},  // 2^44+1
      {"--progress=1e300"},
  };
  for (const std::string jobs : {"", "2"}) {
    std::vector<std::string> base = {"explore", "rv32e", imgPath};
    if (!jobs.empty()) base.insert(base.end(), {"--jobs", jobs});
    const auto want = dispatch(base);
    ASSERT_EQ(want.exitCode, 0) << want.output;
    ASSERT_NE(want.output.find("paths=75 "), std::string::npos) << want.output;
    ASSERT_NE(want.output.find(", 0 unknown)"), std::string::npos);
    for (const auto& budget : budgets) {
      std::vector<std::string> args = base;
      args.insert(args.end(), budget.begin(), budget.end());
      const std::string where = budget[0] + " -j" + jobs;
      testing::internal::CaptureStderr();
      const auto r = dispatch(args);
      EXPECT_EQ(testing::internal::GetCapturedStderr(), "") << where;
      EXPECT_EQ(r.exitCode, 0) << where;
      EXPECT_NE(r.output.find("paths=75 "), std::string::npos) << where;
      EXPECT_NE(r.output.find(", 0 unknown)"), std::string::npos) << where;
    }
    EXPECT_NE(slurp(events).find("\"mem_budget_bytes\":" + u64max),
              std::string::npos)
        << "-j" << jobs;
  }
}

TEST(Cli, CountFlagsRejectMalformedValues) {
  const auto img = cmdAsm("rv32e", kProgram);
  ASSERT_EQ(img.exitCode, 0);
  const std::string imgPath = testing::TempDir() + "cli_counts.img";
  std::ofstream(imgPath, std::ios::binary) << img.output;
  for (const std::string flag : {"--max-paths", "--max-steps"}) {
    for (const std::string v :
         {"abc", "-5", "99999999999999999999999", "", "12x"}) {
      const auto r = dispatch({"explore", "rv32e", imgPath, flag, v});
      EXPECT_EQ(r.exitCode, 2) << flag << " " << v;
      EXPECT_EQ(r.output, "bad " + flag + " '" + v + "'\n");
    }
    const auto ok = dispatch({"explore", "rv32e", imgPath, flag, "0x100"});
    EXPECT_EQ(ok.exitCode, 0) << flag;
    EXPECT_NE(ok.output.find("paths=2"), std::string::npos) << flag;
    // 0 is a valid bound: the run stops at once, a budget stop.
    EXPECT_EQ(dispatch({"explore", "rv32e", imgPath, flag, "0"}).exitCode, 3)
        << flag;
  }
  // The other count flags reject a negative value instead of wrapping it
  // to a huge one (a negative solver timeout used to drop a path).
  for (const std::string flag :
       {"--max-frontier", "--mem-budget-mb", "--solver-timeout-ms",
        "--max-wall-ms"}) {
    const auto r = dispatch({"explore", "rv32e", imgPath, flag, "-5"});
    EXPECT_EQ(r.exitCode, 2) << flag;
    EXPECT_EQ(r.output, "bad " + flag + " '-5'\n");
  }
  for (const std::string flag :
       {"--events-snapshot=-5", "--checkpoint-every=-5", "--clock=manual:-5"}) {
    EXPECT_EQ(dispatch({"explore", "rv32e", imgPath, flag}).exitCode, 2)
        << flag;
  }
}

TEST(Cli, AsmErrorsReported) {
  const auto r = cmdAsm("rv32e", "frob x1\n");
  EXPECT_EQ(r.exitCode, 2);
  EXPECT_NE(r.output.find("unknown mnemonic"), std::string::npos);
}

TEST(Cli, DispatchFileErrors) {
  const auto r = dispatch({"asm", "rv32e", "/nonexistent/file.s"});
  EXPECT_EQ(r.exitCode, 2);
  EXPECT_NE(r.output.find("cannot open"), std::string::npos);
}

// ---- flight recorder flags (docs/observability.md) ----------------------

TEST(CliEvents, ExploreEventsAndManifestFlagsEndToEnd) {
  const auto img = cmdAsm("rv32e", kProgram);
  ASSERT_EQ(img.exitCode, 0);
  const std::string imgPath = testing::TempDir() + "cli_events.img";
  std::ofstream(imgPath, std::ios::binary) << img.output;
  const std::string ev = testing::TempDir() + "cli_events.jsonl";
  const std::string stats = testing::TempDir() + "cli_events_stats.json";
  const std::string man = testing::TempDir() + "cli_events_man.json";

  const auto r = dispatch({"explore", "rv32e", imgPath, "--clock=manual",
                           "--events=" + ev, "--events-snapshot=2",
                           "--stats-json=" + stats, "--manifest=" + man});
  ASSERT_EQ(r.exitCode, 0) << r.output;
  const std::string stream = slurp(ev);
  EXPECT_NE(stream.find("\"type\":\"run_begin\""), std::string::npos);
  EXPECT_NE(stream.find("\"schema\":\"adlsym-events-v3\""),
            std::string::npos);
  EXPECT_NE(stream.find("\"snapshot_every_steps\":2"), std::string::npos);
  EXPECT_NE(stream.find("\"type\":\"snapshot\""), std::string::npos);
  EXPECT_NE(stream.find("\"type\":\"run_end\""), std::string::npos);
  EXPECT_NE(slurp(man).find("\"schema\":\"adlsym-run-v1\""),
            std::string::npos);

  // The whole toolchain over the run's artifacts.
  const auto sum = dispatch({"events", "summarize", ev, "--stats=" + stats});
  EXPECT_EQ(sum.exitCode, 0) << sum.output;
  EXPECT_NE(sum.output.find("reconciliation: OK"), std::string::npos)
      << sum.output;
  const auto ver = dispatch({"verify-run", man});
  EXPECT_EQ(ver.exitCode, 0) << ver.output;
  EXPECT_NE(ver.output.find("verify-run: OK"), std::string::npos);
  const auto tail = dispatch({"tail", ev, "--no-follow"});
  EXPECT_EQ(tail.exitCode, 0) << tail.output;
  EXPECT_NE(tail.output.find("done"), std::string::npos) << tail.output;
  EXPECT_NE(tail.output.find("rv32e"), std::string::npos) << tail.output;
}

TEST(CliEvents, EventsToStdoutInterleavesWithPathTable) {
  const auto img = cmdAsm("rv32e", kProgram);
  ASSERT_EQ(img.exitCode, 0);
  ExploreOptions opt;
  opt.eventsPath = "-";
  opt.manualClockStepUs = 1;
  const auto r = cmdExplore("rv32e", img.output, opt);
  EXPECT_EQ(r.exitCode, 0);
}

TEST(CliEvents, VerifyRunFailsOnTamperedArtifact) {
  const auto img = cmdAsm("rv32e", kProgram);
  ASSERT_EQ(img.exitCode, 0);
  const std::string imgPath = testing::TempDir() + "cli_vr.img";
  std::ofstream(imgPath, std::ios::binary) << img.output;
  const std::string stats = testing::TempDir() + "cli_vr_stats.json";
  const std::string man = testing::TempDir() + "cli_vr_man.json";
  const auto r = dispatch({"explore", "rv32e", imgPath, "--clock=manual",
                           "--stats-json=" + stats, "--manifest=" + man});
  ASSERT_EQ(r.exitCode, 0) << r.output;
  std::ofstream(stats, std::ios::binary | std::ios::app) << "\n";
  const auto ver = dispatch({"verify-run", man});
  EXPECT_EQ(ver.exitCode, 1) << ver.output;
  EXPECT_NE(ver.output.find("FAIL"), std::string::npos) << ver.output;
}

TEST(CliEvents, UsageErrors) {
  EXPECT_EQ(dispatch({"tail"}).exitCode, 2);
  for (const std::string v : {"nan", "inf", "0", "-1"}) {
    const auto r = dispatch({"tail", "x.jsonl", "--max-wait=" + v});
    EXPECT_EQ(r.exitCode, 2) << v;
    EXPECT_EQ(r.output, "bad --max-wait '" + v + "'\n");
  }
  EXPECT_EQ(dispatch({"tail", "/nonexistent/events.jsonl", "--no-follow"})
                .exitCode,
            2);
  EXPECT_EQ(dispatch({"events"}).exitCode, 2);
  EXPECT_EQ(dispatch({"events", "frobnicate", "x"}).exitCode, 2);
  EXPECT_EQ(dispatch({"events", "summarize"}).exitCode, 2);
  EXPECT_EQ(dispatch({"verify-run"}).exitCode, 2);
  EXPECT_EQ(dispatch({"verify-run", "/nonexistent/man.json"}).exitCode, 2);
  const auto img = cmdAsm("rv32e", kProgram);
  ASSERT_EQ(img.exitCode, 0);
  const std::string imgPath = testing::TempDir() + "cli_ev_usage.img";
  std::ofstream(imgPath, std::ios::binary) << img.output;
  EXPECT_EQ(dispatch({"explore", "rv32e", imgPath, "--events="}).exitCode, 2);
  EXPECT_EQ(dispatch({"explore", "rv32e", imgPath, "--manifest="}).exitCode,
            2);
  // Usage text documents the new surface.
  const std::string u = usage();
  EXPECT_NE(u.find("--events="), std::string::npos);
  EXPECT_NE(u.find("--manifest="), std::string::npos);
  EXPECT_NE(u.find("tail"), std::string::npos);
  EXPECT_NE(u.find("verify-run"), std::string::npos);
  EXPECT_NE(u.find("events summarize"), std::string::npos);
}

// ---- lint ----------------------------------------------------------------

std::string fixture(const std::string& name) {
  return std::string(ADLSYM_LINT_FIXTURE_DIR) + "/" + name;
}

TEST(CliLint, ShippedIsasAreClean) {
  for (const char* isa : {"rv32e", "m16", "acc8", "stk16"}) {
    const auto r = dispatch({"lint", isa});
    EXPECT_EQ(r.exitCode, 0) << isa << ":\n" << r.output;
    EXPECT_NE(r.output.find("0 error(s), 0 warning(s)"), std::string::npos)
        << isa << ":\n" << r.output;
  }
}

TEST(CliLint, StatsJsonHasPassTimings) {
  const std::string statsPath = testing::TempDir() + "cli_lint_stats.json";
  const auto r = dispatch({"lint", "rv32e", "--stats-json=" + statsPath});
  EXPECT_EQ(r.exitCode, 0) << r.output;
  const std::string stats = slurp(statsPath);
  EXPECT_NE(stats.find("\"schema\":\"adlsym-stats-v9\""), std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"command\":\"lint\""), std::string::npos);
  EXPECT_NE(stats.find("\"lint\":{\"findings\":"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"errors\":0"), std::string::npos);
  // Per-pass timing histograms (docs/observability.md metric names).
  EXPECT_NE(stats.find("\"lint.decode_space_us\""), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"lint.dataflow_us\""), std::string::npos);
  EXPECT_NE(stats.find("\"lint.absdom_us\""), std::string::npos);
}

TEST(CliLint, ErrorFindingFailsExitCode) {
  const auto r = dispatch({"lint", fixture("adl015.adl")});
  EXPECT_EQ(r.exitCode, 1);
  EXPECT_NE(r.output.find("[ADL015]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("error:"), std::string::npos);
}

TEST(CliLint, AmbiguousModelReportsAdl001) {
  // The model fails to load (sema promotes ADL001); lint still reports
  // the finding under its stable code, in both renderings.
  const auto text = dispatch({"lint", fixture("adl001.adl")});
  EXPECT_EQ(text.exitCode, 1);
  EXPECT_NE(text.output.find("[ADL001]"), std::string::npos) << text.output;
  EXPECT_NE(text.output.find("overlapping encodings"), std::string::npos);

  const auto json = dispatch({"lint", fixture("adl001.adl"), "--format=json"});
  EXPECT_EQ(json.exitCode, 1);
  EXPECT_NE(json.output.find("\"code\":\"ADL001\""), std::string::npos)
      << json.output;
}

TEST(CliLint, WarningsGateOnlyUnderWerror) {
  const std::string path = fixture("adl013.adl");
  EXPECT_EQ(dispatch({"lint", path}).exitCode, 0);
  const auto r = dispatch({"lint", path, "--werror"});
  EXPECT_EQ(r.exitCode, 1);
  EXPECT_NE(r.output.find("[ADL013]"), std::string::npos) << r.output;
}

TEST(CliLint, AbsdomWarningsGateUnderWerror) {
  // ADL016/ADL017 come from the abstract-interpretation pass and are
  // warnings: clean exit without --werror, gate with it.
  for (const char* file : {"adl016.adl", "adl017.adl"}) {
    const std::string path = fixture(file);
    EXPECT_EQ(dispatch({"lint", path}).exitCode, 0) << file;
    const auto r = dispatch({"lint", path, "--werror"});
    EXPECT_EQ(r.exitCode, 1) << file << ":\n" << r.output;
  }
}

TEST(CliLint, JsonDocumentShape) {
  const auto r = dispatch({"lint", fixture("adl013.adl"), "--format=json"});
  EXPECT_EQ(r.exitCode, 0);  // warning + note only
  EXPECT_NE(r.output.find("\"schema\":\"adlsym-lint-v1\""), std::string::npos);
  EXPECT_NE(r.output.find("\"code\":\"ADL013\""), std::string::npos);
  EXPECT_NE(r.output.find("\"severity\":\"warning\""), std::string::npos);
  EXPECT_NE(r.output.find("\"insn\":\"low2\""), std::string::npos);
  EXPECT_NE(r.output.find("\"counts\":"), std::string::npos);
  EXPECT_NE(r.output.find("\"clean\":false"), std::string::npos);
}

TEST(CliLint, CleanFixtureIsClean) {
  const auto text = dispatch({"lint", fixture("clean.adl"), "--werror"});
  EXPECT_EQ(text.exitCode, 0) << text.output;
  const auto json = dispatch({"lint", fixture("clean.adl"), "--format=json"});
  EXPECT_NE(json.output.find("\"clean\":true"), std::string::npos)
      << json.output;
  EXPECT_NE(json.output.find("\"findings\":[]"), std::string::npos);
}

TEST(CliLint, EveryDocumentedCodeHasAFiringFixture) {
  const struct {
    const char* file;
    const char* code;
  } cases[] = {
      {"adl001.adl", "ADL001"}, {"adl002.adl", "ADL002"},
      {"adl003.adl", "ADL003"}, {"adl010.adl", "ADL010"},
      {"adl011.adl", "ADL011"}, {"adl012.adl", "ADL012"},
      {"adl013.adl", "ADL013"}, {"adl014.adl", "ADL014"},
      {"adl015.adl", "ADL015"}, {"adl016.adl", "ADL016"},
      {"adl017.adl", "ADL017"},
  };
  for (const auto& c : cases) {
    const auto text = dispatch({"lint", fixture(c.file)});
    EXPECT_NE(text.output.find(std::string("[") + c.code + "]"),
              std::string::npos)
        << c.file << ":\n" << text.output;
    const auto json = dispatch({"lint", fixture(c.file), "--format=json"});
    EXPECT_NE(json.output.find(std::string("\"code\":\"") + c.code + "\""),
              std::string::npos)
        << c.file << ":\n" << json.output;
  }
}

TEST(CliLint, ImagePassesFireOnBrokenProgram) {
  // A program that ends in a non-halting instruction falls off the end of
  // mapped code (IMG002).
  const auto img = cmdAsm("acc8", "start:\n  in\n  out\n");
  ASSERT_EQ(img.exitCode, 0) << img.output;
  const std::string imgPath = testing::TempDir() + "cli_lint_falloff.img";
  std::ofstream(imgPath, std::ios::binary) << img.output;

  const auto text = dispatch({"lint", "acc8", imgPath});
  EXPECT_EQ(text.exitCode, 1);
  EXPECT_NE(text.output.find("[IMG002]"), std::string::npos) << text.output;

  const auto json = dispatch({"lint", "acc8", imgPath, "--format=json"});
  EXPECT_EQ(json.exitCode, 1);
  EXPECT_NE(json.output.find("\"code\":\"IMG002\""), std::string::npos);
  EXPECT_NE(json.output.find("\"addr\":1"), std::string::npos) << json.output;
}

TEST(CliLint, ImagePassesCleanOnGoodProgram) {
  const auto img = cmdAsm("acc8",
                          "start:\n  in\n  bne skip\n  hlt 3\n"
                          "skip:\n  out\n  hlt 0\n");
  ASSERT_EQ(img.exitCode, 0) << img.output;
  const std::string imgPath = testing::TempDir() + "cli_lint_clean.img";
  std::ofstream(imgPath, std::ios::binary) << img.output;
  const auto r = dispatch({"lint", "acc8", imgPath});
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_EQ(r.output.find("[IMG"), std::string::npos) << r.output;
}

TEST(CliLint, BadUsage) {
  EXPECT_EQ(dispatch({"lint"}).exitCode, 2);
  EXPECT_NE(dispatch({"lint"}).output.find("usage:"), std::string::npos);
  const auto r = dispatch({"lint", "acc8", "--format=yaml"});
  EXPECT_EQ(r.exitCode, 2);
  EXPECT_NE(r.output.find("unknown lint option"), std::string::npos);
  EXPECT_EQ(dispatch({"lint", "/nonexistent.adl"}).exitCode, 2);
}

TEST(CliLint, MalformedDescriptionsExitOneWithoutCrashing) {
  // Inputs that would exhaust a recursive front end's stack: a long run
  // of stray characters, deep parentheses and a long else-if chain. Each
  // is one mistake, reported in a few lines (the stray run once).
  const std::string head =
      "arch a { wordsize 8; reg pc : 16; reg A : 8; mem M : byte[16];\n"
      "  enc E = [op:8];\n  insn n \"n\" : E(op=1) {\n";
  std::string chain = "if (A == 0) { A = 1; }";
  for (int i = 0; i < 100000; ++i) chain += " else if (A == 0) { A = 1; }";
  const struct {
    const char* file;
    std::string text;
    const char* message;
  } cases[] = {
      {"cli_stray.adl", std::string(50000, '@'), "unexpected character '@'"},
      {"cli_parens.adl",
       head + "A = " + std::string(10000, '(') + "1" +
           std::string(10000, ')') + ";\n}\n}\n",
       "nesting deeper than 256 levels"},
      {"cli_elseif.adl", head + chain + "\n}\n}\n",
       "nesting deeper than 256 levels"},
  };
  for (const auto& c : cases) {
    const std::string path = testing::TempDir() + c.file;
    std::ofstream(path, std::ios::binary) << c.text;
    const auto r = dispatch({"lint", path});
    EXPECT_EQ(r.exitCode, 1) << c.file;
    EXPECT_NE(r.output.find(c.message), std::string::npos) << c.file;
    EXPECT_LE(std::count(r.output.begin(), r.output.end(), '\n'), 3)
        << c.file;
  }
}

TEST(CliLint, ExploreLintFlagAbortsOnErrors) {
  const auto bad = cmdAsm("acc8", "start:\n  in\n  out\n");
  ASSERT_EQ(bad.exitCode, 0);
  ExploreOptions opt;
  opt.lint = true;
  const auto r = cmdExplore("acc8", bad.output, opt);
  EXPECT_EQ(r.exitCode, 1);
  EXPECT_NE(r.output.find("[IMG002]"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("paths="), std::string::npos);  // never explored

  // A clean program still explores normally under --lint.
  const auto good = cmdAsm("rv32e", kProgram);
  ASSERT_EQ(good.exitCode, 0);
  const auto ok = cmdExplore("rv32e", good.output, opt);
  EXPECT_EQ(ok.exitCode, 0) << ok.output;
  EXPECT_NE(ok.output.find("paths=2"), std::string::npos);
}

TEST(Cli, RunDefectExitCode) {
  const auto img = cmdAsm("rv32e", R"(
    in8 x1
    addi x2, x0, 9
    divu x3, x2, x1
    halti 0
  )");
  ASSERT_EQ(img.exitCode, 0);
  const auto r = cmdRun("rv32e", img.output, {0});
  EXPECT_EQ(r.exitCode, 1);
  EXPECT_NE(r.output.find("division-by-zero"), std::string::npos);
}

}  // namespace
}  // namespace adlsym::driver::cli
