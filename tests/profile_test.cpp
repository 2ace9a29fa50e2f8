// Deterministic profiler + bench comparator (docs/observability.md):
// the adlsym-profile-v5 artifacts (obs/profile.h) must be byte-identical
// across --jobs values and reconcile per-site sums against the engine and
// solver aggregates; support/benchcmp.h must catch injected regressions
// (the bench_diff acceptance fixture); the JSON reader must reject
// truncated documents; and the thread-safe observer plumbing
// (LockedObserverMux, ProfileCollector) must hold up under raw
// concurrent callers.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/explorer.h"
#include "core/observer.h"
#include "core/rtlprofile.h"
#include "driver/cli.h"
#include "driver/session.h"
#include "obs/profile.h"
#include "support/benchcmp.h"
#include "support/error.h"
#include "support/json.h"
#include "workloads/programs.h"

namespace adlsym {
namespace {

using driver::Session;
using driver::cli::dispatch;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ---------------------------------------------------------------------
// JSON reader (support/json.h): the foundation under bench_diff and the
// profile self-checks below.
// ---------------------------------------------------------------------

TEST(JsonReader, WriterOutputRoundTrips) {
  std::ostringstream os;
  json::Writer w(os);
  w.beginObject();
  w.kv("schema", "adlsym-stats-v9");
  w.kv("count", uint64_t{42});
  w.kv("rate", 0.5);
  w.kv("ok", true);
  w.key("rows").beginArray();
  w.beginObject().kv("ms", 1.25).endObject();
  w.endArray();
  w.endObject();

  const json::Value doc = json::parse(os.str());
  ASSERT_TRUE(doc.isObject());
  ASSERT_NE(doc.find("schema"), nullptr);
  EXPECT_EQ(doc.find("schema")->str, "adlsym-stats-v9");
  EXPECT_DOUBLE_EQ(doc.find("count")->number, 42.0);
  EXPECT_DOUBLE_EQ(doc.find("rate")->number, 0.5);
  EXPECT_TRUE(doc.find("ok")->boolean);
  const json::Value* rows = doc.find("rows");
  ASSERT_TRUE(rows != nullptr && rows->isArray());
  ASSERT_EQ(rows->array.size(), 1u);
  EXPECT_DOUBLE_EQ(rows->array[0].find("ms")->number, 1.25);
  // Object members keep document order.
  EXPECT_EQ(doc.object.front().first, "schema");
}

TEST(JsonReader, TruncatedDocumentsThrowInsteadOfParsingPartially) {
  const std::string full = "{\"a\":[1,2,3],\"b\":\"text\"}";
  EXPECT_NO_THROW(json::parse(full));
  // Every strict prefix is malformed — a half-written stats file must
  // never parse (bench_to_json.sh gates installation on this).
  for (size_t n = 1; n < full.size(); ++n) {
    EXPECT_THROW(json::parse(full.substr(0, n)), InputError) << n;
  }
  EXPECT_THROW(json::parse(""), InputError);
  EXPECT_THROW(json::parse(full + "extra"), InputError);  // trailing garbage
  EXPECT_THROW(json::parse("{\"a\":01}"), InputError);
}

TEST(JsonReader, EscapesAndFind) {
  const json::Value v =
      json::parse("{\"s\":\"a\\n\\\"b\\\"\\u0041\",\"n\":null}");
  ASSERT_NE(v.find("s"), nullptr);
  EXPECT_EQ(v.find("s")->str, "a\n\"b\"A");
  ASSERT_NE(v.find("n"), nullptr);
  EXPECT_TRUE(v.find("n")->isNull());
  EXPECT_EQ(v.find("absent"), nullptr);
  EXPECT_EQ(v.find("s")->find("anything"), nullptr);  // non-object
}

// ---------------------------------------------------------------------
// Bench comparator (support/benchcmp.h): classification, validation and
// the injected-regression acceptance fixture behind tools/bench_diff.
// ---------------------------------------------------------------------

json::Value benchDoc(const std::string& tablesJson) {
  return json::parse("{\"schema\":\"adlsym-stats-v9\",\"command\":\"bench\","
                     "\"bench\":\"fixture\",\"tables\":" +
                     tablesJson + "}");
}

TEST(BenchCmp, MetricClassification) {
  using benchcmp::MetricClass;
  const json::Value num = json::parse("1.5");
  const json::Value pct = json::parse("\"61%\"");
  const json::Value ratio = json::parse("\"3.1x\"");
  const json::Value word = json::parse("\"rv32e\"");
  EXPECT_EQ(benchcmp::classifyMetric("wall-ms", num), MetricClass::Time);
  EXPECT_EQ(benchcmp::classifyMetric("ms(total)", num), MetricClass::Time);
  EXPECT_EQ(benchcmp::classifyMetric("adl-kips", num), MetricClass::Rate);
  EXPECT_EQ(benchcmp::classifyMetric("paths", num), MetricClass::Exact);
  EXPECT_EQ(benchcmp::classifyMetric("solver-share", pct),
            MetricClass::Percent);
  EXPECT_EQ(benchcmp::classifyMetric("overhead", ratio), MetricClass::Ratio);
  EXPECT_EQ(benchcmp::classifyMetric("isa", word), MetricClass::Text);
}

TEST(BenchCmp, ValidateAcceptsRealShapeRejectsMalformed) {
  EXPECT_EQ(benchcmp::validate(benchDoc(
                "[{\"label\":\"t\",\"rows\":[{\"isa\":\"rv32e\"}]}]")),
            "");
  EXPECT_NE(benchcmp::validate(json::parse("{\"command\":\"explore\"}")), "");
  EXPECT_NE(benchcmp::validate(json::parse("{\"command\":\"bench\"}")), "");
  EXPECT_NE(benchcmp::validate(benchDoc("[{\"rows\":[]}]")), "");
  EXPECT_NE(benchcmp::validate(benchDoc("[{\"label\":\"t\",\"rows\":3}]")),
            "");
  EXPECT_NE(benchcmp::validate(json::parse("[1,2,3]")), "");
}

TEST(BenchCmp, SelfCompareIsCleanAndSchemaBumpIsIgnored) {
  const json::Value base = benchDoc(
      "[{\"label\":\"t\",\"rows\":[{\"isa\":\"rv32e\",\"paths\":8,"
      "\"wall-ms\":10.0,\"adl-kips\":50.0,\"solver-share\":\"61%\","
      "\"overhead\":\"3.1x\"}]}]");
  // Same payload under an older schema tag: committed baselines must stay
  // comparable across stats-schema bumps.
  json::Value fresh = base;
  fresh.object[0].second.str = "adlsym-stats-v4";
  const benchcmp::Report r = benchcmp::compare(base, fresh, {});
  EXPECT_FALSE(r.failed()) << r.formatText("fixture");
  EXPECT_TRUE(r.issues.empty());
  EXPECT_EQ(r.comparedMetrics, 6u);
}

TEST(BenchCmp, InjectedTenPercentRegressionFailsTheDiff) {
  // The acceptance fixture: a >=10% time regression must be detected and
  // must fail the report when the tolerance is 10%.
  const json::Value base = benchDoc(
      "[{\"label\":\"depth\",\"rows\":[{\"solve-ms\":40.0,\"paths\":8}]}]");
  const json::Value fresh = benchDoc(
      "[{\"label\":\"depth\",\"rows\":[{\"solve-ms\":46.0,\"paths\":8}]}]");
  benchcmp::Options opt;
  opt.timeTolPct = 10.0;
  const benchcmp::Report bad = benchcmp::compare(base, fresh, opt);
  EXPECT_TRUE(bad.failed());
  ASSERT_EQ(bad.issues.size(), 1u);
  EXPECT_EQ(bad.issues[0].kind, benchcmp::Issue::Kind::Regression);
  EXPECT_EQ(bad.issues[0].metric, "solve-ms");
  // The same drift inside the default 25% band passes...
  EXPECT_FALSE(benchcmp::compare(base, fresh, {}).failed());
  // ...and a *faster* fresh run is informational, never a failure.
  const benchcmp::Report good = benchcmp::compare(fresh, base, opt);
  EXPECT_FALSE(good.failed());
  ASSERT_EQ(good.issues.size(), 1u);
  EXPECT_EQ(good.issues[0].kind, benchcmp::Issue::Kind::Improvement);
}

TEST(BenchCmp, RateRegressionIsLowerThanBaseline) {
  const json::Value base =
      benchDoc("[{\"label\":\"t\",\"rows\":[{\"adl-kips\":100.0}]}]");
  const json::Value fresh =
      benchDoc("[{\"label\":\"t\",\"rows\":[{\"adl-kips\":80.0}]}]");
  benchcmp::Options opt;
  opt.rateTolPct = 10.0;
  EXPECT_TRUE(benchcmp::compare(base, fresh, opt).failed());
  EXPECT_FALSE(benchcmp::compare(fresh, base, opt).failed());
}

TEST(BenchCmp, ExactCountDriftFailsEvenWhenTiny) {
  // Deterministic counts have no tolerance: a one-path drift is a real
  // behavior change, not noise.
  const json::Value base =
      benchDoc("[{\"label\":\"t\",\"rows\":[{\"paths\":8,\"wall-ms\":1.0}]}]");
  const json::Value fresh =
      benchDoc("[{\"label\":\"t\",\"rows\":[{\"paths\":9,\"wall-ms\":1.0}]}]");
  const benchcmp::Report r = benchcmp::compare(base, fresh, {});
  EXPECT_TRUE(r.failed());
  ASSERT_EQ(r.issues.size(), 1u);
  EXPECT_EQ(r.issues[0].kind, benchcmp::Issue::Kind::Drift);
}

TEST(BenchCmp, MissingTableRowOrMetricIsStructural) {
  const json::Value base = benchDoc(
      "[{\"label\":\"t\",\"rows\":[{\"paths\":8},{\"paths\":9}]}]");
  const json::Value fewerRows =
      benchDoc("[{\"label\":\"t\",\"rows\":[{\"paths\":8}]}]");
  const json::Value noTable = benchDoc("[]");
  const json::Value noMetric =
      benchDoc("[{\"label\":\"t\",\"rows\":[{\"other\":8},{\"paths\":9}]}]");
  for (const json::Value* fresh : {&fewerRows, &noTable, &noMetric}) {
    const benchcmp::Report r = benchcmp::compare(base, *fresh, {});
    EXPECT_TRUE(r.failed());
    ASSERT_FALSE(r.issues.empty());
    EXPECT_EQ(r.issues[0].kind, benchcmp::Issue::Kind::Structure);
  }
}

TEST(BenchCmp, PerMetricToleranceOverride) {
  const json::Value base =
      benchDoc("[{\"label\":\"t\",\"rows\":[{\"wall-ms\":10.0}]}]");
  const json::Value fresh =
      benchDoc("[{\"label\":\"t\",\"rows\":[{\"wall-ms\":14.0}]}]");
  benchcmp::Options opt;
  opt.timeTolPct = 10.0;
  EXPECT_TRUE(benchcmp::compare(base, fresh, opt).failed());
  opt.metricTolPct["wall-ms"] = 50.0;
  EXPECT_FALSE(benchcmp::compare(base, fresh, opt).failed());
}

// ---------------------------------------------------------------------
// RtlProfile (core/rtlprofile.h): stable statement indexing + counts.
// ---------------------------------------------------------------------

TEST(RtlProfileTable, IndexesEveryStatementStably) {
  auto s = Session::forPortable(workloads::progBitcount(3), "rv32e");
  core::RtlProfile a(s->model());
  core::RtlProfile b(s->model());
  ASSERT_GT(a.size(), 0u);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_STREQ(a.sites()[i].insn, b.sites()[i].insn) << i;
    EXPECT_EQ(a.sites()[i].stmtIdx, b.sites()[i].stmtIdx) << i;
    EXPECT_NE(core::stmtOpName(a.sites()[i].op), nullptr) << i;
  }
  // Two local count vectors folded in from "workers" sum exactly.
  std::vector<uint64_t> local1(a.size(), 0), local2(a.size(), 0);
  local1[0] = 3;
  local2[0] = 4;
  local2[a.size() - 1] = 7;
  a.addCounts(local1);
  a.addCounts(local2);
  EXPECT_EQ(a.counts()[0], 7u);
  EXPECT_EQ(a.counts()[a.size() - 1], 7u);
  EXPECT_EQ(a.total(), 14u);
  EXPECT_EQ(b.total(), 0u);
}

// ---------------------------------------------------------------------
// ProfileCollector unit behavior: per-site charging and totals.
// ---------------------------------------------------------------------

TEST(ProfileCollectorUnit, ChargesStepCostPerSite) {
  auto s = Session::forPortable(workloads::progBitcount(3), "rv32e");
  obs::ProfileCollector prof(s->model(), s->image());
  const uint64_t entry = s->image().entry();

  core::ExploreObserver::StepInfo info;
  info.pc = entry;
  info.numSuccessors = 1;
  info.stepRtlTicks = 4;
  info.stepSolverQueries = 0;
  prof.onStepEnd(info);
  info.numSuccessors = 2;  // a fork with one query charged to it
  info.stepRtlTicks = 6;
  info.stepSolverQueries = 1;
  info.stepCanonGates = 11;
  prof.onStepEnd(info);
  prof.onDrop(0, 0xdeadbeef);  // undecodable site

  EXPECT_EQ(prof.totalSteps(), 2u);
  EXPECT_EQ(prof.totalRtlTicks(), 10u);
  EXPECT_EQ(prof.totalQueries(), 1u);

  ASSERT_EQ(prof.sites().count(entry), 1u);
  const auto& site = prof.sites().at(entry);
  EXPECT_FALSE(site.opcode.empty());
  EXPECT_NE(site.opcode, "<illegal>");
  EXPECT_EQ(site.steps, 2u);
  EXPECT_EQ(site.rtlTicks, 10u);
  EXPECT_EQ(site.forks, 1u);
  EXPECT_EQ(site.queries, 1u);
  EXPECT_EQ(site.canon.gates, 11u);
  ASSERT_EQ(prof.sites().count(0xdeadbeef), 1u);
  EXPECT_EQ(prof.sites().at(0xdeadbeef).opcode, "<illegal>");
}

/// The stats-document tables ("opcodes" + "branch_sites") of `prof`.
std::string statsTables(const obs::ProfileCollector& prof) {
  std::ostringstream os;
  json::Writer w(os);
  w.beginObject();
  prof.writeJson(w);
  w.endObject();
  return os.str();
}

TEST(ProfileCollectorUnit, DropFillsInfeasible) {
  auto s = Session::forPortable(workloads::progBitcount(3), "rv32e");
  obs::ProfileCollector prof(s->model(), s->image());
  const uint64_t entry = s->image().entry();
  core::ExploreObserver::StepInfo info;
  info.pc = entry;
  info.numSuccessors = 0;  // an infeasible step is reported twice
  prof.onDrop(0, entry);
  prof.onStepEnd(info);
  prof.onDrop(0, entry);
  prof.onStepEnd(info);
  const auto& site = prof.sites().at(entry);
  EXPECT_EQ(site.infeasible, 2u);
  EXPECT_EQ(site.steps, 2u);
  EXPECT_EQ(site.forks, 0u);
  EXPECT_NE(statsTables(prof).find("\"hits\":2,\"forks\":0,\"infeasible\":2"),
            std::string::npos)
      << statsTables(prof);
}

// ---------------------------------------------------------------------
// Thread-safety of the observer plumbing under raw concurrent callers
// (what the parallel engine's workers are).
// ---------------------------------------------------------------------

// Records callbacks into plain (unsynchronized) counters; any two
// observers behind a correctly locked mux must see each other's state in
// lock-step.
struct SeqObserver final : core::ExploreObserver {
  uint64_t* shared;  // one counter both observers watch
  bool bump;         // first observer bumps, second checks
  uint64_t steps = 0;
  uint64_t begins = 0;
  uint64_t drops = 0;
  uint64_t tears = 0;

  void onStepBegin(uint64_t, const core::MachineState&) override {
    ++begins;
  }
  void onStepEnd(const StepInfo&) override {
    ++steps;
    if (bump) {
      ++*shared;
    } else if (*shared != steps) {
      // The whole fan-out runs under one lock: by the time the second
      // observer fires, the first one's bump for *this* callback — and
      // no concurrent callback's — must be visible.
      ++tears;
    }
  }
  void onDrop(uint64_t, uint64_t) override { ++drops; }
};

TEST(ThreadSafeObservers, LockedMuxKeepsEachFanOutAtomic) {
  uint64_t shared = 0;
  SeqObserver first;
  SeqObserver second;
  first.shared = second.shared = &shared;
  first.bump = true;
  second.bump = false;
  core::LockedObserverMux mux;
  mux.add(&first);
  mux.add(&second);

  constexpr int kThreads = 4;
  constexpr int kStepsPerThread = 500;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&mux] {
      core::ExploreObserver::StepInfo info;
      info.pc = 4;
      info.numSuccessors = 1;
      for (int i = 0; i < kStepsPerThread; ++i) {
        mux.onStepEnd(info);
        if (i % 7 == 0) mux.onDrop(0, 4);
      }
    });
  }
  for (auto& th : pool) th.join();

  const uint64_t kSteps = uint64_t{kThreads} * kStepsPerThread;
  EXPECT_EQ(first.steps, kSteps);
  EXPECT_EQ(second.steps, kSteps);
  EXPECT_EQ(shared, kSteps);       // no lost bump on the plain counter
  EXPECT_EQ(second.tears, 0u);     // no interleaving inside a fan-out
  EXPECT_EQ(first.drops, second.drops);
}

TEST(ThreadSafeObservers, SiteStatsMergeIsOrderIndependent) {
  auto s = Session::forPortable(workloads::progBitcount(3), "rv32e");
  obs::ProfileCollector stats(s->model(), s->image());
  const uint64_t entry = s->image().entry();
  const std::vector<uint64_t> pcs = {entry, entry + 4, entry + 8};

  constexpr int kThreads = 4;
  constexpr int kRounds = 300;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&stats, &pcs, t] {
      core::ExploreObserver::StepInfo info;
      for (int i = 0; i < kRounds; ++i) {
        info.pc = pcs[(t + i) % pcs.size()];
        info.numSuccessors = i % 3 == 0 ? 2 : 1;  // every 3rd step forks
        stats.onStepEnd(info);
        if (i % 5 == 0) stats.onDrop(0, info.pc);
      }
    });
  }
  for (auto& th : pool) th.join();

  const uint64_t kSteps = uint64_t{kThreads} * kRounds;
  uint64_t hits = 0, forks = 0, infeasible = 0;
  for (const auto& [pc, site] : stats.sites()) {
    hits += site.steps;
    forks += site.forks;
    infeasible += site.infeasible;
    EXPECT_FALSE(site.opcode.empty());  // every step decoded to *some* bucket
  }
  EXPECT_EQ(hits, kSteps);
  EXPECT_EQ(forks, uint64_t{kThreads} * 100);  // i % 3 == 0: 100 per thread
  EXPECT_EQ(infeasible, uint64_t{kThreads} * 60);  // i % 5 == 0
  EXPECT_EQ(stats.totalSteps(), kSteps);
}

TEST(ThreadSafeObservers, ProfileCollectorMergesConcurrentWorkers) {
  auto s = Session::forPortable(workloads::progBitcount(3), "rv32e");
  obs::ProfileCollector prof(s->model(), s->image());
  const uint64_t entry = s->image().entry();

  constexpr int kThreads = 4;
  constexpr int kRounds = 300;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&prof, entry] {
      core::ExploreObserver::StepInfo info;
      info.pc = entry;
      info.numSuccessors = 1;
      info.stepRtlTicks = 2;
      info.stepSolverQueries = 1;
      info.stepCanonGates = 3;
      for (int i = 0; i < kRounds; ++i) prof.onStepEnd(info);
    });
  }
  for (auto& th : pool) th.join();

  const uint64_t kSteps = uint64_t{kThreads} * kRounds;
  EXPECT_EQ(prof.totalSteps(), kSteps);
  EXPECT_EQ(prof.totalRtlTicks(), kSteps * 2);
  EXPECT_EQ(prof.totalQueries(), kSteps);
  ASSERT_EQ(prof.sites().size(), 1u);
  EXPECT_EQ(prof.sites().at(entry).canon.gates, kSteps * 3);
}

// ---------------------------------------------------------------------
// End-to-end: `adlsym profile` artifacts are byte-identical across -j1 /
// -j2 / -j8 under --clock=manual on every ISA, and the emitted document
// reconciles per-site sums against the engine and solver aggregates.
// ---------------------------------------------------------------------

struct ProfileArtifacts {
  int exitCode = 0;
  std::string stdoutText;
  std::string profileJson;
  std::string foldedText;
  std::string statsJson;
};

class ProfileDeterminism : public ::testing::Test {
 protected:
  static std::string imageFor(const std::string& isa) {
    auto s = Session::forPortable(workloads::progBitcount(3), isa);
    const std::string path = testing::TempDir() + "profile_" + isa + ".img";
    std::ofstream(path) << s->image().serialize();
    return path;
  }

  // jobs == 0: sequential engine (no --jobs flag).
  static ProfileArtifacts run(const std::string& isa,
                              const std::string& imgPath, unsigned jobs) {
    const std::string tag = "profile_" + isa + "_j" + std::to_string(jobs);
    const std::string profPath = testing::TempDir() + tag + ".prof.json";
    const std::string foldPath = testing::TempDir() + tag + ".folded";
    const std::string statsPath = testing::TempDir() + tag + ".stats.json";
    std::vector<std::string> args = {"profile",
                                     isa,
                                     imgPath,
                                     "--clock=manual",
                                     "--profile=" + profPath,
                                     "--profile-folded=" + foldPath,
                                     "--stats-json=" + statsPath};
    if (jobs > 0) {
      args.push_back("--jobs");
      args.push_back(std::to_string(jobs));
    }
    const auto r = dispatch(args);
    return {r.exitCode, r.output, slurp(profPath), slurp(foldPath),
            slurp(statsPath)};
  }

  // Parse the profile document and check the reconciliation identities
  // the schema promises: per-site tick/query sums equal the engine and
  // solver aggregates, and the shape rows partition the query count.
  static void expectReconciles(const ProfileArtifacts& a,
                               const std::string& where) {
    ASSERT_FALSE(a.profileJson.empty()) << where;
    const json::Value doc = json::parse(a.profileJson);
    ASSERT_NE(doc.find("schema"), nullptr) << where;
    EXPECT_EQ(doc.find("schema")->str, "adlsym-profile-v5") << where;

    const json::Value* engine = doc.find("engine");
    const json::Value* solver = doc.find("solver");
    const json::Value* sites = doc.find("sites");
    const json::Value* reconcile = doc.find("reconcile");
    ASSERT_TRUE(engine && solver && sites && reconcile) << where;

    double siteTicks = 0, siteQueries = 0;
    for (const json::Value& site : sites->array) {
      siteTicks += site.find("rtl_ticks")->number;
      siteQueries += site.find("queries")->number;
    }
    EXPECT_EQ(siteTicks, engine->find("rtl_ticks")->number) << where;
    EXPECT_EQ(siteQueries, solver->find("queries")->number) << where;
    EXPECT_TRUE(reconcile->find("rtl_ticks_ok")->boolean) << where;
    EXPECT_TRUE(reconcile->find("queries_ok")->boolean) << where;

    const json::Value* shapes = solver->find("shapes");
    ASSERT_TRUE(shapes != nullptr && shapes->isArray()) << where;
    double shapeQueries = 0;
    for (const json::Value& row : shapes->array) {
      shapeQueries += row.find("queries")->number;
    }
    EXPECT_EQ(shapeQueries, solver->find("queries")->number) << where;

    // Per-statement rows sum to the engine tick total as well.
    const json::Value* rtl = doc.find("rtl");
    ASSERT_TRUE(rtl != nullptr && rtl->isArray()) << where;
    double rtlTicks = 0;
    for (const json::Value& row : rtl->array) {
      rtlTicks += row.find("count")->number;
    }
    EXPECT_EQ(rtlTicks, engine->find("rtl_ticks")->number) << where;

    // The stats document carries the v5 profile summary block.
    EXPECT_NE(a.statsJson.find("\"schema\":\"adlsym-stats-v9\""),
              std::string::npos)
        << where;
    EXPECT_NE(a.statsJson.find("\"profile\":{\"schema\":\"adlsym-profile-v5\""),
              std::string::npos)
        << where;
    EXPECT_NE(a.statsJson.find("\"reconciled\":true"), std::string::npos)
        << where;

    // Folded stacks exist for both cost domains and stdout carries the
    // human tables.
    EXPECT_NE(a.foldedText.find("exec_ticks;"), std::string::npos) << where;
    EXPECT_NE(a.stdoutText.find("reconcile"), std::string::npos) << where;
  }

  static void expectIdenticalAcrossJobs(const std::string& isa) {
    const std::string img = imageFor(isa);
    const ProfileArtifacts base = run(isa, img, 1);
    expectReconciles(base, isa + "/-j1");
    for (const unsigned jobs : {2u, 8u}) {
      const ProfileArtifacts r = run(isa, img, jobs);
      const std::string where = isa + " -j1 vs -j" + std::to_string(jobs);
      EXPECT_EQ(base.exitCode, r.exitCode) << where;
      EXPECT_EQ(base.stdoutText, r.stdoutText) << where;
      EXPECT_EQ(base.profileJson, r.profileJson) << where;
      EXPECT_EQ(base.foldedText, r.foldedText) << where;
      EXPECT_EQ(base.statsJson, r.statsJson) << where;
    }
  }
};

TEST_F(ProfileDeterminism, Rv32eByteIdenticalAcrossJobs) {
  expectIdenticalAcrossJobs("rv32e");
}

TEST_F(ProfileDeterminism, M16ByteIdenticalAcrossJobs) {
  expectIdenticalAcrossJobs("m16");
}

TEST_F(ProfileDeterminism, Acc8ByteIdenticalAcrossJobs) {
  expectIdenticalAcrossJobs("acc8");
}

TEST_F(ProfileDeterminism, Stk16ByteIdenticalAcrossJobs) {
  expectIdenticalAcrossJobs("stk16");
}

TEST_F(ProfileDeterminism, SequentialEngineReconcilesToo) {
  const std::string img = imageFor("rv32e");
  const ProfileArtifacts seq = run("rv32e", img, 0);
  EXPECT_EQ(seq.exitCode, 0);
  expectReconciles(seq, "rv32e/sequential");
}

TEST_F(ProfileDeterminism, ExploreWithProfileFlagMatchesProfileCommand) {
  // `adlsym profile` is `explore` + stdout tables; the JSON artifacts are
  // the same document either way.
  const std::string img = imageFor("rv32e");
  const std::string profA = testing::TempDir() + "viaprofile.prof.json";
  const std::string profB = testing::TempDir() + "viaexplore.prof.json";
  const auto a = dispatch({"profile", "rv32e", img, "--clock=manual",
                           "--jobs", "2", "--profile=" + profA});
  const auto b = dispatch({"explore", "rv32e", img, "--clock=manual",
                           "--jobs", "2", "--profile=" + profB});
  EXPECT_EQ(a.exitCode, b.exitCode);
  EXPECT_EQ(slurp(profA), slurp(profB));
  EXPECT_NE(a.output.find("reconcile"), std::string::npos);
  // explore stays quiet on stdout about the profiler tables.
  EXPECT_EQ(b.output.find("reconcile"), std::string::npos);
}

}  // namespace
}  // namespace adlsym
