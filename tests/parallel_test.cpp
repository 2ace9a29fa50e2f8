// Parallel exploration engine (core::ParallelExplorer, docs/
// parallelism.md): the -j1 == -jN determinism contract across every ISA
// and search strategy, plus unit coverage for the shared SMT query cache
// (smt/qcache.h) and cross-pool term import that make it possible.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/observer.h"
#include "core/pexplorer.h"
#include "core/rtlc.h"
#include "driver/cli.h"
#include "driver/session.h"
#include "obs/progress.h"
#include "smt/printer.h"
#include "smt/qcache.h"
#include "smt/solver.h"
#include "smt/term.h"
#include "support/json.h"
#include "support/telemetry.h"
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
// Query-cache key canonicalization
// ---------------------------------------------------------------------

TEST(QueryCacheKey, AlphaEquivalentConstraintSetsShareAKey) {
  // Same structure built in two *different* pools under different
  // variable names: the α-renaming to dense slots must erase both.
  smt::TermManager tm1;
  smt::TermManager tm2;
  const auto c1 =
      tm1.mkEq(tm1.mkAdd(tm1.mkVar(8, "x"), tm1.mkConst(8, 3)),
               tm1.mkConst(8, 5));
  const auto c2 =
      tm2.mkEq(tm2.mkAdd(tm2.mkVar(8, "batman"), tm2.mkConst(8, 3)),
               tm2.mkConst(8, 5));
  std::vector<smt::TermRef> slots1, slots2;
  const std::string k1 = smt::QueryCache::canonicalKey({}, {c1}, &slots1);
  const std::string k2 = smt::QueryCache::canonicalKey({}, {c2}, &slots2);
  EXPECT_EQ(k1, k2);
  // The slot table maps back into the *caller's* pool.
  ASSERT_EQ(slots1.size(), 1u);
  ASSERT_EQ(slots2.size(), 1u);
  EXPECT_EQ(smt::toString(slots1[0]), "x");
  EXPECT_EQ(smt::toString(slots2[0]), "batman");
}

TEST(QueryCacheKey, DistinctStructuresGetDistinctKeys) {
  smt::TermManager tm;
  const auto x = tm.mkVar(8, "x");
  const auto eq5 = tm.mkEq(x, tm.mkConst(8, 5));
  const auto eq6 = tm.mkEq(x, tm.mkConst(8, 6));
  const auto lt5 = tm.mkUlt(x, tm.mkConst(8, 5));
  const auto wide = tm.mkEq(tm.mkVar(16, "w"), tm.mkConst(16, 5));
  const std::string kEq5 = smt::QueryCache::canonicalKey({}, {eq5}, nullptr);
  const std::string kEq6 = smt::QueryCache::canonicalKey({}, {eq6}, nullptr);
  const std::string kLt5 = smt::QueryCache::canonicalKey({}, {lt5}, nullptr);
  const std::string kWide = smt::QueryCache::canonicalKey({}, {wide}, nullptr);
  EXPECT_NE(kEq5, kEq6);   // different constant
  EXPECT_NE(kEq5, kLt5);   // different operator
  EXPECT_NE(kEq5, kWide);  // different variable width
  EXPECT_NE(kEq6, kLt5);
}

TEST(QueryCacheKey, SetSemanticsOrderAndDuplicatesDoNotMatter) {
  smt::TermManager tm;
  const auto x = tm.mkVar(8, "x");
  const auto a = tm.mkEq(x, tm.mkConst(8, 1));
  const auto b = tm.mkUlt(x, tm.mkConst(8, 9));
  EXPECT_EQ(smt::QueryCache::canonicalKey({}, {a, b}, nullptr),
            smt::QueryCache::canonicalKey({}, {b, a}, nullptr));
  EXPECT_EQ(smt::QueryCache::canonicalKey({}, {a, a, b}, nullptr),
            smt::QueryCache::canonicalKey({}, {a, b}, nullptr));
  // Permanent vs assumption placement is invisible: the key covers the
  // union.
  EXPECT_EQ(smt::QueryCache::canonicalKey({a}, {b}, nullptr),
            smt::QueryCache::canonicalKey({}, {a, b}, nullptr));
}

TEST(QueryCacheKey, PoolCreationOrderDoesNotMatter) {
  // After a steal, the thief pool has created the same variables in
  // another order than the victim's. {x = y, x <u 5} must still get one
  // key: with operands ordered by pool-local id, x = y would become y = x
  // in one pool and α-rename differently against x <u 5.
  smt::TermManager tm1;
  smt::TermManager tm2;
  const auto x1 = tm1.mkVar(8, "x");
  const auto y1 = tm1.mkVar(8, "y");
  const auto y2 = tm2.mkVar(8, "y");
  const auto x2 = tm2.mkVar(8, "x");
  const auto set = [](smt::TermManager& tm, smt::TermRef x, smt::TermRef y) {
    return std::vector<smt::TermRef>{tm.mkEq(x, y),
                                     tm.mkUlt(x, tm.mkConst(8, 5))};
  };
  EXPECT_EQ(smt::QueryCache::canonicalKey({}, set(tm1, x1, y1), nullptr),
            smt::QueryCache::canonicalKey({}, set(tm2, x2, y2), nullptr));
}

TEST(QueryCacheKey, ConstantTrueAssumptionsAreSkipped) {
  smt::TermManager tm;
  const auto c = tm.mkEq(tm.mkVar(8, "x"), tm.mkConst(8, 7));
  EXPECT_EQ(smt::QueryCache::canonicalKey({}, {tm.mkTrue(), c}, nullptr),
            smt::QueryCache::canonicalKey({}, {c}, nullptr));
}

// ---------------------------------------------------------------------
// Query-cache single-flight protocol + accounting
// ---------------------------------------------------------------------

TEST(QueryCacheFlight, MissThenPublishThenHit) {
  smt::QueryCache qc;
  const std::string k = "k0";
  auto first = qc.acquire(k);
  EXPECT_FALSE(first.hit);  // we are now the owner
  qc.publish(k, smt::CheckResult::Sat, {7, 9});
  auto second = qc.acquire(k);
  ASSERT_TRUE(second.hit);
  EXPECT_EQ(second.result, smt::CheckResult::Sat);
  EXPECT_EQ(second.model, (std::vector<uint64_t>{7, 9}));
  const auto st = qc.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.evictions, 0u);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_DOUBLE_EQ(st.hitRate(), 0.5);
}

TEST(QueryCacheFlight, AbandonMakesTheNextCallerTheOwner) {
  smt::QueryCache qc;
  const std::string k = "unknowable";
  EXPECT_FALSE(qc.acquire(k).hit);
  qc.abandon(k);  // Unknown verdict: nothing cached
  EXPECT_FALSE(qc.acquire(k).hit);  // a fresh miss, not a hit
  qc.publish(k, smt::CheckResult::Unsat, {});
  auto out = qc.acquire(k);
  ASSERT_TRUE(out.hit);
  EXPECT_EQ(out.result, smt::CheckResult::Unsat);
  EXPECT_TRUE(out.model.empty());
  const auto st = qc.stats();
  EXPECT_EQ(st.misses, 2u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.entries, 1u);
}

TEST(QueryCacheFlight, CapacityEvictsCompletedEntriesFifo) {
  smt::QueryCache qc(/*capacity=*/2);
  for (const char* k : {"a", "b", "c"}) {
    EXPECT_FALSE(qc.acquire(k).hit);
    qc.publish(k, smt::CheckResult::Unsat, {});
  }
  auto st = qc.stats();
  EXPECT_EQ(st.capacity, 2u);
  EXPECT_EQ(st.entries, 2u);
  EXPECT_EQ(st.evictions, 1u);  // "a" fell off the FIFO
  EXPECT_FALSE(qc.acquire("a").hit);  // evicted: caller owns it again
  qc.abandon("a");
  ASSERT_TRUE(qc.acquire("b").hit);  // survivors still served
  ASSERT_TRUE(qc.acquire("c").hit);
  st = qc.stats();
  EXPECT_EQ(st.misses, 4u);
  EXPECT_EQ(st.hits, 2u);
}

TEST(QueryCacheFlight, ConcurrentWaiterBlocksThenGetsTheOwnersModel) {
  smt::QueryCache qc;
  const std::string k = "shared";
  std::promise<void> owned;
  std::thread owner([&] {
    auto o = qc.acquire(k);
    ASSERT_FALSE(o.hit);
    owned.set_value();  // waiter may now race us to the key
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    qc.publish(k, smt::CheckResult::Sat, {42});
  });
  owned.get_future().wait();
  auto waited = qc.acquire(k);  // blocks until the owner publishes
  owner.join();
  ASSERT_TRUE(waited.hit);
  EXPECT_EQ(waited.result, smt::CheckResult::Sat);
  EXPECT_EQ(waited.model, (std::vector<uint64_t>{42}));
  const auto st = qc.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.inflightWaits, 1u);
}

// ---------------------------------------------------------------------
// Cross-pool term migration (work stealing moves states between pools)
// ---------------------------------------------------------------------

TEST(TermImport, PreservesStructureAcrossPools) {
  smt::TermManager src;
  smt::TermManager dst;
  const auto x = src.mkVar(8, "x");
  const auto y = src.mkVar(8, "y");
  const auto t = src.mkEq(src.mkAdd(x, src.mkConst(8, 3)), src.mkMul(y, x));
  std::unordered_map<smt::TermId, smt::TermId> memo;
  const auto imported = dst.import(t, memo);
  EXPECT_EQ(smt::toString(imported), smt::toString(t));
  EXPECT_EQ(imported.width(), t.width());
  // The memo makes re-imports free and identity-preserving: the shared
  // subterm x must land on the same destination node both times.
  const auto again = dst.import(t, memo);
  EXPECT_EQ(again.id(), imported.id());
  const auto xDst = dst.import(x, memo);
  EXPECT_EQ(smt::toString(xDst), "x");
  // And the canonical key is pool-independent.
  EXPECT_EQ(smt::QueryCache::canonicalKey({}, {t}, nullptr),
            smt::QueryCache::canonicalKey({}, {imported}, nullptr));
}

// ---------------------------------------------------------------------
// Live observers fired from worker threads
// ---------------------------------------------------------------------

TEST(ThreadSafeObservers, ProgressMeterCountsEveryBeatUnderContention) {
  // Manual clock advancing one full interval per read: with the meter's
  // internal lock serializing clock reads, the first onStepEnd starts
  // the meter and every later one beats — an exact, schedule-independent
  // count. A race would tear it (and TSan would flag the access).
  telemetry::ManualClock clk(1000000);  // +1 simulated second per read
  telemetry::Telemetry tel(clk);
  std::ostringstream sink;
  obs::ProgressMeter meter(&tel, sink, /*intervalSeconds=*/1.0);
  core::LockedObserverMux mux;
  mux.add(&meter);
  constexpr int kThreads = 4;
  constexpr int kStepsPerThread = 250;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&mux] {
      core::ExploreObserver::StepInfo info;
      info.pc = 4;
      info.numSuccessors = 1;
      for (int i = 0; i < kStepsPerThread; ++i) {
        info.totalSteps = static_cast<uint64_t>(i);
        mux.onStepEnd(info);
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(meter.beats(),
            static_cast<uint64_t>(kThreads * kStepsPerThread - 1));
  EXPECT_NE(sink.str().find("[progress]"), std::string::npos);
}

// ---------------------------------------------------------------------
// End-to-end determinism: -j1 == -j2 == -j8 per ISA x strategy
// ---------------------------------------------------------------------

struct RunArtifacts {
  int exitCode = 0;
  std::string stdoutText;
  std::string statsJson;
  std::string forestJson;
};

class ParallelDeterminism : public ::testing::Test {
 protected:
  // One image per ISA, lowered from the same portable workload: three
  // symbolic input bits -> 8 paths, enough forks for stealing.
  static std::string imageFor(const std::string& isa) {
    return imageOf(workloads::progBitcount(3), "bitcount3", isa);
  }

  static std::string imageOf(const workloads::PProgram& prog,
                             const std::string& name, const std::string& isa) {
    auto s = Session::forPortable(prog, isa);
    const std::string path =
        testing::TempDir() + "parallel_" + name + "_" + isa + ".img";
    std::ofstream(path) << s->image().serialize();
    return path;
  }

  static RunArtifacts explore(const std::string& isa,
                              const std::string& imgPath,
                              const std::string& strategy, unsigned jobs,
                              const std::vector<std::string>& extra = {}) {
    const std::string tag = isa + "_" + strategy + "_j" +
                            std::to_string(jobs) + "_" +
                            std::to_string(extra.size());
    const std::string statsPath = testing::TempDir() + tag + ".stats.json";
    const std::string forestPath = testing::TempDir() + tag + ".forest.json";
    std::vector<std::string> args = {"explore",
                                     isa,
                                     imgPath,
                                     "--strategy",
                                     strategy,
                                     "--jobs",
                                     std::to_string(jobs),
                                     "--clock=manual",
                                     "--stats-json=" + statsPath,
                                     "--path-forest=" + forestPath};
    args.insert(args.end(), extra.begin(), extra.end());
    const auto r = dispatch(args);
    return {r.exitCode, r.output, slurp(statsPath), slurp(forestPath)};
  }

  // The whole contract in one assertion block: exit code, the printed
  // path table (witness values included), the stats document and the
  // path forest (per-path generated test inputs included) must be
  // byte-identical for every jobs value.
  static void expectIdenticalAcrossJobs(const std::string& isa,
                                        const std::string& strategy) {
    const std::string img = imageFor(isa);
    const RunArtifacts base = explore(isa, img, strategy, 1);
    ASSERT_FALSE(base.statsJson.empty()) << isa << "/" << strategy;
    ASSERT_FALSE(base.forestJson.empty()) << isa << "/" << strategy;
    EXPECT_NE(base.statsJson.find("\"schema\":\"adlsym-stats-v9\""),
              std::string::npos);
    EXPECT_NE(base.statsJson.find("\"qcache\":{\"enabled\":false}"),
              std::string::npos);
    EXPECT_NE(base.forestJson.find("\"schema\":\"adlsym-pathforest-v1\""),
              std::string::npos);
    for (const unsigned jobs : {2u, 8u}) {
      const RunArtifacts r = explore(isa, img, strategy, jobs);
      const std::string where =
          isa + "/" + strategy + " -j1 vs -j" + std::to_string(jobs);
      EXPECT_EQ(base.exitCode, r.exitCode) << where;
      EXPECT_EQ(base.stdoutText, r.stdoutText) << where;
      EXPECT_EQ(base.statsJson, r.statsJson) << where;
      EXPECT_EQ(base.forestJson, r.forestJson) << where;
    }
  }
};

TEST_F(ParallelDeterminism, Acc8AllStrategies) {
  for (const char* s : {"dfs", "bfs", "random", "coverage"}) {
    expectIdenticalAcrossJobs("acc8", s);
  }
}

TEST_F(ParallelDeterminism, M16AllStrategies) {
  for (const char* s : {"dfs", "bfs", "random", "coverage"}) {
    expectIdenticalAcrossJobs("m16", s);
  }
}

TEST_F(ParallelDeterminism, Rv32eAllStrategies) {
  for (const char* s : {"dfs", "bfs", "random", "coverage"}) {
    expectIdenticalAcrossJobs("rv32e", s);
  }
}

TEST_F(ParallelDeterminism, Stk16AllStrategies) {
  for (const char* s : {"dfs", "bfs", "random", "coverage"}) {
    expectIdenticalAcrossJobs("stk16", s);
  }
}

TEST_F(ParallelDeterminism, Sort4AllIsasRepeated) {
  // sort4's branches compare inputs with each other and need the SAT
  // core, so a steal makes the thief build constraints over variables its
  // pool created in another order, and its incremental core holds what it
  // solved before. Repeated runs give different steals.
  for (const char* isa : {"acc8", "m16", "rv32e", "stk16"}) {
    const std::string img = imageOf(workloads::progSort(4), "sort4", isa);
    const RunArtifacts base = explore(isa, img, "dfs", 1);
    ASSERT_FALSE(base.forestJson.empty()) << isa;
    for (const unsigned jobs : {2u, 4u}) {
      for (int run = 1; run <= 3; ++run) {
        const RunArtifacts r = explore(isa, img, "dfs", jobs);
        const std::string where = std::string(isa) + " sort4 -j1 vs -j" +
                                  std::to_string(jobs) + " run " +
                                  std::to_string(run);
        EXPECT_EQ(base.exitCode, r.exitCode) << where;
        EXPECT_EQ(base.stdoutText, r.stdoutText) << where;
        EXPECT_EQ(base.statsJson, r.statsJson) << where;
        EXPECT_EQ(base.forestJson, r.forestJson) << where;
      }
    }
  }
}

TEST_F(ParallelDeterminism, NoPathEndQueriesAndBucketsReconcile) {
  // Path ends read their witnesses off the carried assignment, so every
  // query is a branch decision: the profile charges queries only to the
  // sites that fork (bitcount3's branches all do), never to the halts
  // that end the 8 paths. No shared cache or prefilter is attached, so
  // every query is a short-circuit or a direct solve.
  const std::string img = imageFor("rv32e");
  const std::string prof = testing::TempDir() + "buckets_rv32e.profile.json";
  const RunArtifacts r = explore("rv32e", img, "dfs", 2, {"--profile=" + prof});
  ASSERT_EQ(r.exitCode, 0) << r.stdoutText;
  const json::Value p = json::parse(slurp(prof));
  const json::Value* sites = p.find("sites");
  ASSERT_NE(sites, nullptr);
  uint64_t queries = 0;
  for (const json::Value& site : sites->array) {
    const uint64_t q = site.find("queries")->asU64();
    queries += q;
    if (site.find("forks")->asU64() == 0) {
      EXPECT_EQ(q, 0u) << "pc " << site.find("pc")->asU64() << " "
                       << site.find("opcode")->str;
    }
  }
  const json::Value st = json::parse(r.statsJson);
  const json::Value& solver = *st.find("solver");
  const json::Value& pre = *st.find("prefilter");
  EXPECT_EQ(queries, solver.find("queries")->asU64());
  EXPECT_GT(queries, 0u);
  EXPECT_EQ(solver.find("cache_hits")->asU64(), 0u);
  EXPECT_EQ(pre.find("shortcircuit")->asU64() +
                pre.find("consulted")->asU64() + pre.find("direct")->asU64(),
            queries);
}

TEST_F(ParallelDeterminism, NoRunConsultsThePrefilter) {
  // bitcount3's Sat sides are ones the abstract prefilter decides when
  // attached. Neither engine attaches it: every query is a cache hit, a
  // short-circuit or a direct solve, and no artifact carries
  // per-issuance prefilter counts.
  const std::string img = imageFor("rv32e");
  for (const unsigned jobs : {0u, 2u}) {
    const std::string where = jobs == 0 ? "sequential" : "--jobs 2";
    const std::string stem =
        testing::TempDir() + "noprefilter_j" + std::to_string(jobs);
    std::vector<std::string> args = {"explore",
                                     "rv32e",
                                     img,
                                     "--clock=manual",
                                     "--stats-json=" + stem + ".stats.json",
                                     "--profile=" + stem + ".profile.json",
                                     "--events=" + stem + ".events.jsonl"};
    if (jobs != 0) {
      args.push_back("--jobs");
      args.push_back(std::to_string(jobs));
    }
    const auto r = dispatch(args);
    ASSERT_EQ(r.exitCode, 0) << where << ": " << r.output;

    const json::Value st = json::parse(slurp(stem + ".stats.json"));
    const json::Value& solver = *st.find("solver");
    const json::Value& pre = *st.find("prefilter");
    EXPECT_FALSE(pre.find("enabled")->boolean) << where;
    EXPECT_EQ(pre.find("consulted")->asU64(), 0u) << where;
    EXPECT_TRUE(pre.find("reconciled")->boolean) << where;
    const uint64_t queries = solver.find("queries")->asU64();
    EXPECT_GT(queries, 0u) << where;
    EXPECT_EQ(solver.find("cache_hits")->asU64() +
                  pre.find("shortcircuit")->asU64() +
                  pre.find("direct")->asU64(),
              queries)
        << where;

    const json::Value prof = json::parse(slurp(stem + ".profile.json"));
    for (const json::Value& site : prof.find("sites")->array) {
      for (const auto& [key, value] : site.object) {
        EXPECT_NE(key.rfind("prefilter", 0), 0u) << where << ": " << key;
      }
    }
    std::istringstream events(slurp(stem + ".events.jsonl"));
    uint64_t steps = 0;
    for (std::string line; std::getline(events, line);) {
      const json::Value ev = json::parse(line);
      if (ev.find("type")->str != "step") continue;
      ++steps;
      for (const auto& [key, value] : ev.object) {
        EXPECT_NE(key.rfind("pre_", 0), 0u) << where << ": " << key;
      }
    }
    EXPECT_EQ(steps, st.find("summary")->find("total_steps")->asU64())
        << where;
  }
}

// The solver work counters, summed over the workers' solvers. With no
// deadline or shared cache, every Unsat is either a kept-core hit or a
// SAT solve that keeps a core, however the schedule splits them.
TEST(WarmPoolStats, SumOverWorkersMatchesTheSolverTelemetry) {
  for (const char* isa : {"m16", "rv32e"}) {
    auto s = Session::forPortable(workloads::progSort(4), isa);
    const adl::ArchModel& model = s->model();
    for (const unsigned jobs : {1u, 4u}) {
      core::ParallelConfig pcfg;
      pcfg.base = s->options().explorer;
      pcfg.jobs = jobs;
      pcfg.solverConflictBudget = s->options().solverConflictBudget;
      core::ParallelExplorer pex(
          s->image(), s->options().engine, pcfg,
          [&](core::EngineServices& svc) -> std::unique_ptr<core::Executor> {
            return std::make_unique<core::BytecodeExecutor>(model, svc);
          });
      pex.run();
      const core::ParallelExplorer::PoolStats& ps = pex.poolStats();
      const smt::SolverTelemetry& tel = pex.solverTelemetry();
      const std::string where = std::string(isa) + " -j" + std::to_string(jobs);
      ASSERT_EQ(tel.unknown, 0u) << where;
      EXPECT_EQ(ps.jobs, jobs) << where;
      EXPECT_EQ(tel.coresKept + tel.coreHits, tel.unsat) << where;
      EXPECT_GT(tel.coresKept, 0u) << where;
      EXPECT_GT(tel.coreHits, 0u) << where;
      EXPECT_GT(tel.satCore.conflicts, 0u) << where;
    }
  }
}

TEST_F(ParallelDeterminism, ParallelAgreesWithSequentialOnPathCounts) {
  // The path census is engine-independent: same paths, steps, forks,
  // statuses, and query buckets (OneSetOfTestInputs checks the witnesses).
  const std::string img = imageFor("rv32e");
  const std::string seqStats = testing::TempDir() + "seq_rv32e.stats.json";
  const auto seq = dispatch({"explore", "rv32e", img, "--clock=manual",
                             "--stats-json=" + seqStats});
  const RunArtifacts par = explore("rv32e", img, "dfs", 4);
  EXPECT_EQ(seq.exitCode, par.exitCode);
  const std::string seqJson = slurp(seqStats);
  for (const char* field :
       {"\"paths\":", "\"exited\":", "\"defects\":", "\"total_steps\":",
        "\"total_forks\":", "\"states_dropped\":", "\"covered_pcs\":"}) {
    const auto cut = [&](const std::string& doc) {
      const size_t at = doc.find(field);
      EXPECT_NE(at, std::string::npos) << field;
      return doc.substr(at, doc.find(',', at) - at);
    };
    EXPECT_EQ(cut(seqJson), cut(par.statsJson)) << field;
  }

  // The two engines also put every query in the same bucket. sort4's
  // Unsat sides are mostly kept-core answers, which count as direct
  // solves, never as cache hits, in both engines.
  for (const char* isa : {"acc8", "m16", "rv32e", "stk16"}) {
    const std::string sort4 = imageOf(workloads::progSort(4), "sort4", isa);
    const std::string stats =
        testing::TempDir() + "seq_sort4_" + isa + ".stats.json";
    const auto s = dispatch({"explore", isa, sort4, "--clock=manual",
                             "--stats-json=" + stats});
    ASSERT_EQ(s.exitCode, 0) << isa << ": " << s.output;
    const std::string seqDoc = slurp(stats);
    const json::Value seqSolver = *json::parse(seqDoc).find("solver");
    const auto prefilter = [](const std::string& doc) {
      const size_t at = doc.find("\"prefilter\":{");
      EXPECT_NE(at, std::string::npos);
      return doc.substr(at, doc.find('}', at) + 1 - at);
    };
    for (const unsigned jobs : {1u, 2u}) {
      const RunArtifacts par = explore(isa, sort4, "dfs", jobs);
      const std::string where =
          std::string(isa) + " sort4 sequential vs -j" + std::to_string(jobs);
      ASSERT_EQ(par.exitCode, 0) << where;
      const json::Value parSolver = *json::parse(par.statsJson).find("solver");
      for (const char* key : {"queries", "cache_hits"}) {
        EXPECT_EQ(seqSolver.find(key)->asU64(), parSolver.find(key)->asU64())
            << where << ": solver." << key;
      }
      EXPECT_EQ(prefilter(seqDoc), prefilter(par.statsJson)) << where;
    }
  }
}

// Every Sat side's model is the one nearest its parent's witness, which
// depends only on the query: so the sequential engine under every
// strategy and the parallel one at every jobs count give each path the
// same test inputs, on every ISA. A path line without its ISA-dependent
// step count (status, forks, exit code, outputs, test inputs) is the
// same everywhere; sorted, the path table takes one value per program.
TEST_F(ParallelDeterminism, OneSetOfTestInputsPerProgram) {
  auto pathLines = [](const std::string& out) {
    std::vector<std::string> lines;
    std::istringstream in(out);
    for (std::string line; std::getline(in, line);) {
      if (line.rfind("  ", 0) != 0) continue;
      const size_t at = line.find(" steps=");
      if (at != std::string::npos) {
        line.erase(at, line.find(' ', at + 1) - at);
      }
      lines.push_back(line);
    }
    std::sort(lines.begin(), lines.end());
    return lines;
  };
  const struct {
    const char* name;
    workloads::PProgram prog;
  } programs[] = {{"sort4", workloads::progSort(4)},
                  {"max3", workloads::progMax(3)},
                  {"checksum2", workloads::progChecksum(2)},
                  {"parse2", workloads::progParse(2)}};
  for (const auto& p : programs) {
    std::vector<std::string> base;
    for (const char* isa : {"acc8", "m16", "rv32e", "stk16"}) {
      const std::string img = imageOf(p.prog, p.name, isa);
      std::vector<std::vector<std::string>> runs;
      for (const char* strategy : {"dfs", "bfs", "random", "coverage"}) {
        runs.push_back({"explore", isa, img, "--strategy", strategy});
      }
      for (const char* jobs : {"1", "2", "4"}) {
        runs.push_back({"explore", isa, img, "--jobs", jobs});
      }
      for (const std::vector<std::string>& args : runs) {
        const auto r = dispatch(args);
        std::string where = p.name;
        for (size_t i = 1; i < args.size(); ++i) {
          if (i != 2) where += " " + args[i];
        }
        ASSERT_EQ(r.exitCode, 0) << where << ": " << r.output;
        const std::vector<std::string> lines = pathLines(r.output);
        ASSERT_FALSE(lines.empty()) << where;
        if (base.empty()) base = lines;
        EXPECT_EQ(lines, base) << where;
      }
    }
  }
}

}  // namespace
}  // namespace adlsym
