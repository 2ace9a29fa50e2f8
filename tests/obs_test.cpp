// Exploration observatory (src/obs, docs/observability.md): path-forest
// recording, SMT-LIB query capture + replay, the progress heartbeat and
// the per-opcode/branch-site stats collector.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "driver/session.h"
#include "isa/registry.h"
#include "obs/events.h"
#include "obs/pathforest.h"
#include "obs/profile.h"
#include "obs/progress.h"
#include "obs/querylog.h"
#include "obs/replay.h"
#include "obs/smtlib.h"
#include "smt/printer.h"
#include "support/json.h"
#include "workloads/programs.h"

namespace adlsym {
namespace {

namespace fs = std::filesystem;
using driver::Session;
using driver::SessionOptions;

constexpr char kBranchy[] = R"(
_start:
  in8 x5
  beq x5, x0, zero
  out x5
  halti 1
zero:
  halti 2
)";

// Two chained symbolic branches: one solver query each on the path that
// reaches them (the free side of a branch costs none).
constexpr char kTwoBranches[] = R"(
_start:
  in8 x5
  beq x5, x0, zero
  in8 x6
  beq x6, x0, zero
  halti 1
zero:
  halti 2
)";

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string freshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "obs_" + name;
  fs::remove_all(dir);
  return dir;
}

// ---- path forest ---------------------------------------------------------

TEST(PathForest, RecordsForkTreeWithConditionsAndWitnesses) {
  SessionOptions sopt;
  obs::PathForestRecorder forest;
  sopt.explorer.observer = &forest;
  Session session("rv32e", kBranchy, sopt);
  const auto summary = session.explore();
  ASSERT_EQ(summary.paths.size(), 2u);

  const auto& nodes = forest.nodes();
  ASSERT_EQ(nodes.size(), 3u);
  // Root: interior after the beq fork, children carry the branch sides.
  EXPECT_FALSE(nodes[0].parent.has_value());
  EXPECT_EQ(nodes[0].status, "forked");
  ASSERT_EQ(nodes[0].children.size(), 2u);
  for (const uint64_t c : nodes[0].children) {
    const core::PathTreeNode& n = nodes[c];
    EXPECT_EQ(n.parent, 0u);
    EXPECT_EQ(n.forkPc, 4u);  // the beq
    EXPECT_FALSE(n.cond.empty());
    // Eager feasibility checked both sides, so the admitting verdict is
    // recorded with the queries the step issued.
    EXPECT_EQ(n.verdict, "sat");
    EXPECT_GT(n.solverQueries, 0u);
    EXPECT_EQ(n.status, "exited");
    ASSERT_TRUE(n.exitCode.has_value());
    ASSERT_EQ(n.testInputs.size(), 1u);
    EXPECT_EQ(n.testInputs[0].width, 8u);
  }
  // The two sides carry complementary conditions and distinct exits.
  const core::PathTreeNode& a = nodes[nodes[0].children[0]];
  const core::PathTreeNode& b = nodes[nodes[0].children[1]];
  EXPECT_NE(a.cond, b.cond);
  EXPECT_NE(*a.exitCode, *b.exitCode);
}

TEST(PathForest, JsonAndDotAreDeterministicAcrossRuns) {
  auto record = [] {
    SessionOptions sopt;
    auto forest = std::make_unique<obs::PathForestRecorder>();
    sopt.explorer.observer = forest.get();
    Session session("rv32e", kBranchy, sopt);
    session.explore();
    return std::pair{forest->toJson(), forest->toDot()};
  };
  const auto [json1, dot1] = record();
  const auto [json2, dot2] = record();
  EXPECT_EQ(json1, json2);
  EXPECT_EQ(dot1, dot2);

  EXPECT_NE(json1.find("\"schema\":\"adlsym-pathforest-v1\""),
            std::string::npos);
  EXPECT_NE(json1.find("\"nodes\":3"), std::string::npos) << json1;
  EXPECT_NE(json1.find("\"cond\":\""), std::string::npos);
  EXPECT_NE(json1.find("\"test\":[{\"name\":"), std::string::npos);
  // Timing is excluded by default — it is the one nondeterministic field.
  EXPECT_EQ(json1.find("solver_micros"), std::string::npos);

  EXPECT_NE(dot1.find("digraph pathforest"), std::string::npos);
  EXPECT_NE(dot1.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot1.find("fillcolor=\"palegreen\""), std::string::npos);
}

TEST(PathForest, IncludeTimingIsDeterministicUnderManualClock) {
  auto record = [] {
    telemetry::ManualClock clk(25);
    telemetry::Telemetry tel(clk);
    SessionOptions sopt;
    sopt.telemetry = &tel;
    obs::PathForestRecorder::Options fopt;
    fopt.includeTiming = true;
    auto forest = std::make_unique<obs::PathForestRecorder>(fopt);
    sopt.explorer.observer = forest.get();
    Session session("rv32e", kBranchy, sopt);
    session.explore();
    return forest->toJson();
  };
  const std::string json1 = record();
  EXPECT_EQ(json1, record());
  // The solver measures on the injected clock, so micros appear and are
  // reproducible.
  EXPECT_NE(json1.find("\"solver_micros\":"), std::string::npos) << json1;
}

TEST(PathForest, RecordsDropsAsInfeasible) {
  // beq x5, x5 always branches: the fall-through side is infeasible and
  // the explorer drops one side at the fork.
  constexpr char kAlwaysTaken[] = R"(
_start:
  in8 x5
  beq x5, x5, same
  halti 1
same:
  halti 2
)";
  SessionOptions sopt;
  obs::PathForestRecorder forest;
  sopt.explorer.observer = &forest;
  Session session("rv32e", kAlwaysTaken, sopt);
  const auto summary = session.explore();
  EXPECT_EQ(summary.paths.size(), 1u);
  bool sawExit = false;
  for (const core::PathTreeNode& n : forest.nodes()) {
    if (n.status == "exited") {
      sawExit = true;
      EXPECT_EQ(n.exitCode, 2u);
    }
  }
  EXPECT_TRUE(sawExit);
}

// ---- query capture + replay ----------------------------------------------

TEST(QueryReplay, RoundTripsOnEveryIsa) {
  for (const std::string& isa : isa::allIsaNames()) {
    const std::string dir = freshDir("replay_" + isa);
    {
      SessionOptions sopt;
      obs::QueryLogger qlog(dir);
      sopt.explorer.observer = &qlog;
      auto session = Session::forPortable(workloads::progEarlyExit(2), isa, sopt);
      session->solver().setQueryListener(&qlog);
      session->explore();
      EXPECT_GT(qlog.queriesLogged(), 0u) << isa;
    }
    const obs::ReplayReport report = obs::replayCorpus(dir);
    EXPECT_GT(report.total(), 0u) << isa;
    EXPECT_EQ(report.mismatched, 0u) << isa << ":\n" << report.formatText();
    EXPECT_EQ(report.errors, 0u) << isa << ":\n" << report.formatText();
    EXPECT_EQ(report.exitCode(), 0) << isa;
  }
}

TEST(QueryReplay, SidecarsCarryOriginAndVerdict) {
  const std::string dir = freshDir("sidecar");
  SessionOptions sopt;
  obs::QueryLogger qlog(dir);
  sopt.explorer.observer = &qlog;
  Session session("rv32e", kBranchy, sopt);
  session.solver().setQueryListener(&qlog);
  session.explore();

  const std::string meta = slurp(dir + "/q000000.json");
  EXPECT_NE(meta.find("\"schema\":\"adlsym-query-v1\""), std::string::npos)
      << meta;
  EXPECT_NE(meta.find("\"seq\":0"), std::string::npos);
  EXPECT_NE(meta.find("\"file\":\"q000000.smt2\""), std::string::npos);
  // The first query is the eager feasibility check at the beq (pc 4).
  EXPECT_NE(meta.find("\"origin_pc\":4"), std::string::npos) << meta;
  EXPECT_NE(meta.find("\"verdict\":\"sat\""), std::string::npos);
  EXPECT_NE(meta.find("\"micros\":"), std::string::npos);

  const std::string script = slurp(dir + "/q000000.smt2");
  EXPECT_NE(script.find("(set-logic QF_BV)"), std::string::npos) << script;
  EXPECT_NE(script.find("(declare-const"), std::string::npos);
  EXPECT_NE(script.find("(check-sat)"), std::string::npos);
}

TEST(QueryReplay, DetectsCorruptedVerdictAndScript) {
  const std::string dir = freshDir("corrupt");
  {
    SessionOptions sopt;
    obs::QueryLogger qlog(dir);
    sopt.explorer.observer = &qlog;
    Session session("rv32e", kTwoBranches, sopt);
    session.solver().setQueryListener(&qlog);
    session.explore();
    ASSERT_GE(qlog.queriesLogged(), 2u);
  }
  // Flip one recorded verdict.
  const std::string sidecarPath = dir + "/q000000.json";
  std::string sidecar = slurp(sidecarPath);
  const size_t at = sidecar.find("\"verdict\":\"sat\"");
  ASSERT_NE(at, std::string::npos) << sidecar;
  sidecar.replace(at, 15, "\"verdict\":\"unsat\"");
  std::ofstream(sidecarPath, std::ios::binary | std::ios::trunc) << sidecar;
  // Garble one script.
  std::ofstream(dir + "/q000001.smt2", std::ios::binary | std::ios::trunc)
      << "(assert (frobnicate x))\n";

  const obs::ReplayReport report = obs::replayCorpus(dir);
  EXPECT_EQ(report.mismatched, 1u) << report.formatText();
  EXPECT_GE(report.errors, 1u);
  EXPECT_EQ(report.exitCode(), 1);
  const std::string text = report.formatText();
  EXPECT_NE(text.find("MISMATCH"), std::string::npos) << text;
  EXPECT_NE(text.find("ERROR"), std::string::npos);
}

TEST(QueryReplay, EmptyCorpusFails) {
  const std::string dir = freshDir("empty");
  fs::create_directories(dir);
  const obs::ReplayReport report = obs::replayCorpus(dir);
  EXPECT_EQ(report.total(), 0u);
  EXPECT_EQ(report.exitCode(), 1);
  EXPECT_NE(report.formatText().find("no adlsym-query-v1"), std::string::npos);
}

// ---- SMT-LIB reader ------------------------------------------------------

TEST(SmtLibReader, RoundTripsThePrinterSubset) {
  smt::TermManager tm;
  const auto x = tm.mkVar(8, "x");
  const auto y = tm.mkVar(8, "y");
  const auto w = tm.mkVar(3, "w");  // non-multiple-of-4 width: #b constants
  std::vector<smt::TermRef> asserts = {
      tm.mkUlt(tm.mkAdd(x, tm.mkConst(8, 1)), y),
      tm.mkEq(tm.mkExtract(tm.mkConcat(x, y), 11, 4), tm.mkConst(8, 0x5a)),
      tm.mkNe(w, tm.mkConst(3, 5)),
  };
  const std::string script = smt::toSmtLib(asserts);

  smt::TermManager tm2;
  const obs::SmtScript parsed = obs::parseSmtLib(tm2, script);
  EXPECT_TRUE(parsed.sawCheckSat);
  ASSERT_EQ(parsed.asserts.size(), asserts.size());

  // Rebuilt terms go through the simplifying builders, so equality is not
  // guaranteed — equisatisfiability with an identical model is.
  smt::SmtSolver s1(tm);
  smt::SmtSolver s2(tm2);
  ASSERT_EQ(s1.check(asserts), smt::CheckResult::Sat);
  ASSERT_EQ(s2.check(parsed.asserts), smt::CheckResult::Sat);
  EXPECT_EQ(s1.modelValue(x), s2.modelValue(tm2.mkVar(8, "x")));
  EXPECT_EQ(s1.modelValue(y), s2.modelValue(tm2.mkVar(8, "y")));
}

TEST(SmtLibReader, CoversEveryPrintedOperator) {
  // One assert per operator family; the roundtrip must agree with the
  // original solver verdict whatever that verdict is.
  smt::TermManager tm;
  const auto x = tm.mkVar(8, "x");
  const auto y = tm.mkVar(8, "y");
  std::vector<smt::TermRef> asserts = {
      tm.mkEq(tm.mkIte(tm.mkSlt(x, y), tm.mkShl(x, y), tm.mkLShr(x, y)),
              tm.mkXor(x, y)),
      tm.mkUle(tm.mkSub(tm.mkNeg(x), tm.mkNot(y)), tm.mkMul(x, y)),
      tm.mkSle(tm.mkUDiv(x, y), tm.mkOr(tm.mkURem(x, y), tm.mkAnd(x, y))),
      tm.mkEq(tm.mkSDiv(x, y), tm.mkSRem(tm.mkAShr(x, y), tm.mkAdd(x, y))),
  };
  smt::SmtSolver s1(tm);
  const smt::CheckResult expected = s1.check(asserts);

  smt::TermManager tm2;
  const obs::SmtScript parsed =
      obs::parseSmtLib(tm2, smt::toSmtLib(asserts));
  ASSERT_EQ(parsed.asserts.size(), asserts.size());
  smt::SmtSolver s2(tm2);
  EXPECT_EQ(s2.check(parsed.asserts), expected);
}

TEST(SmtLibReader, RoundTripsUnsat) {
  smt::TermManager tm;
  const auto x = tm.mkVar(16, "x");
  std::vector<smt::TermRef> asserts = {
      tm.mkUlt(x, tm.mkConst(16, 10)),
      tm.mkUlt(tm.mkConst(16, 20), x),
  };
  smt::TermManager tm2;
  const obs::SmtScript parsed =
      obs::parseSmtLib(tm2, smt::toSmtLib(asserts));
  smt::SmtSolver s2(tm2);
  EXPECT_EQ(s2.check(parsed.asserts), smt::CheckResult::Unsat);
}

TEST(SmtLibReader, RejectsWhatThePrinterCannotProduce) {
  smt::TermManager tm;
  EXPECT_THROW(obs::parseSmtLib(tm, "(assert (bvfrob x))"), Error);
  EXPECT_THROW(obs::parseSmtLib(tm, "(assert undeclared)"), Error);
  EXPECT_THROW(obs::parseSmtLib(tm, "(assert (bvadd #x01"), Error);
  EXPECT_THROW(obs::parseSmtLib(tm, "(frobnicate)"), Error);
  EXPECT_THROW(obs::parseSmtLib(tm, "(declare-const x (_ BitVec 80))"), Error);
  // Width-1 discipline: a wide bare term cannot be asserted.
  EXPECT_THROW(
      obs::parseSmtLib(
          tm, "(declare-const x (_ BitVec 8))\n(assert x)\n"),
      Error);
  // Comments and whitespace are tolerated.
  const obs::SmtScript ok = obs::parseSmtLib(
      tm, "; header\n(set-logic QF_BV)\n(declare-const b (_ BitVec 1))\n"
          "(assert b)\n(check-sat)\n");
  EXPECT_EQ(ok.asserts.size(), 1u);
  EXPECT_TRUE(ok.sawCheckSat);
}

// ---- progress heartbeat --------------------------------------------------

TEST(Progress, BeatsOnManualClockWithoutSleeping) {
  telemetry::ManualClock clk;
  telemetry::Telemetry tel(clk);
  std::ostringstream events;
  obs::EventBus bus(events, &tel);

  std::ostringstream out;
  obs::ProgressMeter meter(&tel, out, 0.001, &bus);  // beat every 1000 us

  core::ExploreObserver::StepInfo si;
  si.frontierSize = 3;
  si.pathsDone = 1;
  si.coveredPcs = 4;
  for (uint64_t step = 1; step <= 10; ++step) {
    si.totalSteps = step;
    si.runSolverMicros = 100 * step;
    meter.onStepEnd(si);
    clk.advance(500);  // two steps per interval
  }
  // First call arms the meter; beats then fire every 2 steps = 4 beats
  // over the remaining 9 calls (at 1000, 2000, 3000, 4000 us elapsed).
  EXPECT_EQ(meter.beats(), 4u);
  const std::string text = out.str();
  EXPECT_NE(text.find("[progress] t="), std::string::npos) << text;
  EXPECT_NE(text.find("frontier=3"), std::string::npos);
  EXPECT_NE(text.find("steps/s="), std::string::npos);
  EXPECT_EQ(text.find("qcache"), std::string::npos) << text;

  // Each beat also lands on the attached event stream as a heartbeat.
  bus.flush();
  size_t heartbeats = 0;
  std::istringstream lines(events.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"type\":\"heartbeat\"") != std::string::npos) {
      ++heartbeats;
      EXPECT_EQ(line.find("qcache"), std::string::npos) << line;
    }
  }
  EXPECT_EQ(heartbeats, 4u) << events.str();
  EXPECT_EQ(bus.counts().heartbeat, 4u);
}

TEST(Progress, FiresDuringExplorationUnderManualClock) {
  telemetry::ManualClock clk(400);  // every clock read advances 400 us
  telemetry::Telemetry tel(clk);
  SessionOptions sopt;
  sopt.telemetry = &tel;
  std::ostringstream out;
  obs::ProgressMeter meter(&tel, out, 0.001);
  sopt.explorer.observer = &meter;
  auto session = Session::forPortable(workloads::progEarlyExit(3), "rv32e", sopt);
  session->explore();
  EXPECT_GT(meter.beats(), 0u);
  EXPECT_NE(out.str().find("[progress]"), std::string::npos) << out.str();
}

TEST(Progress, NoBeatBeforeIntervalElapses) {
  std::ostringstream out;
  obs::ProgressMeter meter(nullptr, out, 3600.0);
  core::ExploreObserver::StepInfo si;
  for (int i = 0; i < 5; ++i) meter.onStepEnd(si);
  EXPECT_EQ(meter.beats(), 0u);
  EXPECT_TRUE(out.str().empty());
}

// ---- site stats ----------------------------------------------------------

TEST(SiteStats, CountsOpcodesAndBranchEvents) {
  Session session("rv32e", kBranchy);
  obs::ProfileCollector sites(session.model(), session.image());

  core::ExploreObserver::StepInfo si;
  si.pc = 0;  // in8
  si.numSuccessors = 1;
  sites.onStepEnd(si);
  si.pc = 4;  // beq: forks once, and once every side was infeasible
  si.numSuccessors = 2;
  sites.onStepEnd(si);
  si.numSuccessors = 0;
  sites.onStepEnd(si);
  sites.onDrop(7, 4);
  si.pc = 0xdead;  // unmapped: counted as <illegal>, not a crash
  si.numSuccessors = 0;
  sites.onStepEnd(si);

  EXPECT_EQ(sites.sites().at(0).opcode, "in8");
  EXPECT_EQ(sites.sites().at(0xdead).opcode, "<illegal>");
  const auto& beq = sites.sites().at(4);
  EXPECT_EQ(beq.opcode, "beq");
  EXPECT_EQ(beq.steps, 2u);
  EXPECT_EQ(beq.forks, 1u);
  EXPECT_EQ(beq.infeasible, 1u);

  std::ostringstream os;
  json::Writer w(os);
  w.beginObject();
  sites.writeJson(w);
  w.endObject();
  const std::string j = os.str();
  EXPECT_NE(j.find("\"opcodes\":{\"<illegal>\":1,\"beq\":2,\"in8\":1}"),
            std::string::npos)
      << j;
  // Only sites with fork/infeasible events make the table: pc 0 (plain
  // in8) stays out, pc 4 is reported with all three counters.
  EXPECT_EQ(j.find("\"pc\":0,"), std::string::npos) << j;
  EXPECT_NE(
      j.find("{\"pc\":4,\"hits\":2,\"forks\":1,\"infeasible\":1}"),
      std::string::npos)
      << j;
}

// ---- observer mux --------------------------------------------------------

class CountingObserver final : public core::ExploreObserver {
 public:
  int roots = 0, steps = 0, children = 0, drops = 0, merges = 0, done = 0;
  void onRoot(uint64_t, const core::MachineState&) override { ++roots; }
  void onStepEnd(const StepInfo&) override { ++steps; }
  void onChild(uint64_t, uint64_t, const core::MachineState&,
               size_t) override {
    ++children;
  }
  void onDrop(uint64_t, uint64_t) override { ++drops; }
  void onMerge(uint64_t, uint64_t, uint64_t) override { ++merges; }
  void onPathDone(uint64_t, const core::PathResult&) override { ++done; }
};

TEST(ObserverMux, ForwardsToEveryObserverInOrder) {
  core::ObserverMux mux;
  EXPECT_TRUE(mux.empty());
  CountingObserver a, b;
  mux.add(&a);
  mux.add(&b);
  mux.add(nullptr);  // ignored
  EXPECT_FALSE(mux.empty());

  SessionOptions sopt;
  sopt.explorer.observer = &mux;
  Session session("rv32e", kBranchy, sopt);
  const auto summary = session.explore();

  EXPECT_EQ(a.roots, 1);
  EXPECT_EQ(a.done, static_cast<int>(summary.paths.size()));
  EXPECT_EQ(static_cast<uint64_t>(a.steps), summary.totalSteps);
  EXPECT_EQ(a.children, 2);  // one fork, two sides
  // Both observers see the identical stream.
  EXPECT_EQ(a.roots, b.roots);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.children, b.children);
  EXPECT_EQ(a.done, b.done);
}

TEST(ObserverMux, MergeEventsReachObservers) {
  core::ObserverMux mux;
  CountingObserver c;
  mux.add(&c);
  SessionOptions sopt;
  sopt.explorer.observer = &mux;
  sopt.explorer.mergeStates = true;
  sopt.explorer.strategy = core::SearchStrategy::BFS;
  auto session = Session::forPortable(workloads::progMax(3), "rv32e", sopt);
  const auto summary = session->explore();
  EXPECT_EQ(static_cast<uint64_t>(c.merges), summary.statesMerged);
  EXPECT_GT(c.merges, 0);
}

}  // namespace
}  // namespace adlsym
