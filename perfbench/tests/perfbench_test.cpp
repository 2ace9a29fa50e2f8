// Self-tests of the end-to-end benchmark: seeded job lists, the reference
// interpreter, the oracle (including injected failures) and the traced
// ledger's accounting identity.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>

#include "driver/cli.h"
#include "driver/session.h"
#include "jobs.h"
#include "ledger.h"
#include "oracle.h"
#include "refinterp.h"
#include "stats.h"
#include "workloads/defects.h"
#include "workloads/programs.h"

namespace {

using namespace perfbench;
using adlsym::core::DefectKind;
using adlsym::workloads::emitAssembly;

Job makeJob(const std::string& key, const std::string& isa,
            adlsym::workloads::PProgram p, std::optional<uint64_t> paths) {
  Job j;
  j.id = key + "@" + isa;
  j.isa = isa;
  j.programKey = key;
  j.program = std::move(p);
  j.expectedPaths = paths;
  return j;
}

/// Assemble `job` and write its image under the test's temp dir.
std::string writeImage(const Job& job) {
  const auto s = adlsym::driver::Session::forPortable(job.program, job.isa);
  const std::string path = testing::TempDir() + "perfbench_" + fileStem(job) + ".img";
  std::ofstream(path, std::ios::binary) << s->image().serialize();
  return path;
}

struct Explored {
  int exitCode;
  std::string output;
  double seconds;
};

Explored explore(const Job& job, const std::string& image,
                 const std::vector<std::string>& flags = {}) {
  std::vector<std::string> argv = {"explore", job.isa, image};
  argv.insert(argv.end(), flags.begin(), flags.end());
  const double t0 = nowSeconds();
  const auto r = adlsym::driver::cli::dispatch(argv);
  return {r.exitCode, r.output, nowSeconds() - t0};
}

// ---------------------------------------------------------------- jobs --

TEST(Jobs, SameSeedGivesSameJobList) {
  for (const std::string& name : workloadNames()) {
    const Workload a = makeWorkload(name, 42);
    const Workload b = makeWorkload(name, 42);
    ASSERT_EQ(a.jobs.size(), b.jobs.size()) << name;
    for (size_t k = 0; k < a.jobs.size(); ++k) {
      EXPECT_EQ(a.jobs[k].id, b.jobs[k].id);
      EXPECT_EQ(exploreFlags(a.jobs[k], a, "p"), exploreFlags(b.jobs[k], b, "p"));
      EXPECT_EQ(emitAssembly(a.jobs[k].program, a.jobs[k].isa),
                emitAssembly(b.jobs[k].program, b.jobs[k].isa));
    }
  }
}

TEST(Jobs, SeedChangesInputsButNotSize) {
  for (const char* name : {"solve", "branchy"}) {
    const Workload a = makeWorkload(name, 1);
    const Workload b = makeWorkload(name, 2);
    EXPECT_EQ(a.jobs.size(), b.jobs.size());
    std::set<std::string> asmA, asmB;
    for (const Job& j : a.jobs) asmA.insert(emitAssembly(j.program, j.isa));
    for (const Job& j : b.jobs) asmB.insert(emitAssembly(j.program, j.isa));
    EXPECT_NE(asmA, asmB) << name;
  }
}

TEST(Jobs, ObservedVariantRunsTheSameList) {
  const Workload plain = makeWorkload("branchy", 9);
  const Workload observed = makeWorkload("branchy-observed", 9);
  EXPECT_FALSE(plain.observed);
  EXPECT_TRUE(observed.observed);
  ASSERT_EQ(plain.jobs.size(), observed.jobs.size());
  for (size_t k = 0; k < plain.jobs.size(); ++k) {
    EXPECT_EQ(plain.jobs[k].id, observed.jobs[k].id);
  }
  EXPECT_THROW(makeWorkload("nope", 1), std::invalid_argument);
}

// ----------------------------------------------------------- refinterp --

TEST(RefInterp, NetworksSortEveryZeroOneInput) {
  // 0-1 principle: a comparator network sorts every input iff it sorts
  // every 0/1 input.
  for (const unsigned n : {5u, 6u}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      const auto p = progNetwork(n, seed);
      for (unsigned mask = 0; mask < (1u << n); ++mask) {
        std::vector<uint64_t> in;
        for (unsigned b = 0; b < n; ++b) in.push_back((mask >> b) & 1 ? 200 : 3);
        const RefResult r = runReference(p, in);
        ASSERT_EQ(r.end, RefResult::End::Exited) << n << " " << mask;
        ASSERT_TRUE(std::is_sorted(r.outputs.begin(), r.outputs.end()));
      }
    }
  }
}

TEST(RefInterp, ProgramSemantics) {
  const RefResult bc = runReference(adlsym::workloads::progBitcount(8), {0xb5});
  EXPECT_EQ(bc.end, RefResult::End::Exited);
  EXPECT_EQ(bc.outputs, std::vector<uint64_t>{5});
  const RefResult lcg = runReference(progLcg(5, 7, 3), {0});
  // x: 1 -> 12 -> 67 -> 86; the input 0 mismatches.
  EXPECT_EQ(lcg.exitCode, 1u);
  const RefResult hit = runReference(progLcg(5, 7, 3), {86});
  EXPECT_EQ(hit.exitCode, 0u);
  EXPECT_EQ(hit.outputs, std::vector<uint64_t>{86});
  EXPECT_EQ(runReference(adlsym::workloads::progSum(3), {1}).end,
            RefResult::End::InputExhausted);
}

TEST(RefInterp, DefectSuiteBadCasesFault) {
  std::map<std::string, std::vector<uint64_t>> trigger = {
      {"div-by-zero-bad", {0}},         {"oob-read-bad", {200}},
      {"oob-write-bad", {9, 1}},        {"signed-overflow-bad", {100, 100}},
      {"assert-reach-bad", {42}},       {"off-by-one-bad", {7}},
      {"masked-div-zero-bad", {5, 1}},
  };
  for (const auto& c : adlsym::workloads::defectSuite()) {
    if (!c.expected) continue;
    const RefResult r = runReference(c.program, trigger.at(c.name));
    EXPECT_EQ(r.end, RefResult::End::Defect) << c.name;
    EXPECT_EQ(r.defect, c.expected) << c.name;
  }
}

// -------------------------------------------------------------- oracle --

class OracleTest : public testing::Test {
 protected:
  void SetUp() override {
    job_ = makeJob("bitcount4", "m16", adlsym::workloads::progBitcount(4), 16);
    const Explored e = explore(job_, writeImage(job_));
    exit_ = e.exitCode;
    output_ = e.output;
  }
  Job job_;
  int exit_ = -1;
  std::string output_;
};

TEST_F(OracleTest, AcceptsARealRun) {
  const ExploreReport rep = parseExploreOutput(output_);
  ASSERT_TRUE(rep.parsed);
  EXPECT_EQ(rep.paths, 16u);
  EXPECT_EQ(rep.rows.size(), 16u);
  EXPECT_EQ(judgeJob(job_, exit_, rep), "");
}

TEST_F(OracleTest, FlagsACorruptedWitness) {
  // Flip the low bit of the first witness in the printed text: the replay
  // then takes another path and the popcount output no longer matches.
  const std::regex first("in0_w8=0x([0-9a-f]+)");
  std::smatch m;
  ASSERT_TRUE(std::regex_search(output_, m, first));
  const uint64_t v = std::stoull(m[1].str(), nullptr, 16) ^ 1;
  std::ostringstream repl;
  repl << "in0_w8=0x" << std::hex << v;
  const std::string corrupted =
      output_.substr(0, m.position(0)) + repl.str() +
      output_.substr(m.position(0) + m.length(0));
  const std::string err = judgeJob(job_, exit_, parseExploreOutput(corrupted));
  EXPECT_NE(err.find("path 0"), std::string::npos) << err;
}

TEST_F(OracleTest, FlagsAWrongPathCount) {
  // Drop the last path row and fix up the header, so the table is
  // self-consistent but one path short of the closed form.
  ExploreReport rep = parseExploreOutput(output_);
  rep.rows.pop_back();
  --rep.paths;
  EXPECT_NE(judgeJob(job_, exit_, rep).find("closed form"), std::string::npos);
  // Without a closed form, the cross-ISA rule catches it.
  std::vector<Job> jobs;
  std::map<std::string, uint64_t> paths;
  for (const char* isa : {"rv32e", "m16", "acc8", "stk16"}) {
    jobs.push_back(makeJob("max4", isa, adlsym::workloads::progMax(4), std::nullopt));
    paths[jobs.back().id] = 8;
  }
  EXPECT_TRUE(crossIsaMismatches(jobs, paths).empty());
  paths["max4@acc8"] = 7;
  EXPECT_EQ(crossIsaMismatches(jobs, paths), std::vector<std::string>{"max4@acc8"});
}

TEST_F(OracleTest, FlagsAWrongExitCodeAndDefectVerdict) {
  EXPECT_NE(judgeJob(job_, 1, parseExploreOutput(output_)), "");
  EXPECT_NE(judgeJob(job_, exit_, parseExploreOutput("garbage\n")), "");
  // A guarded twin must not report a defect; relabel a bad case as good.
  for (const auto& c : adlsym::workloads::defectSuite()) {
    if (c.name != "div-by-zero-bad") continue;
    Job j = makeJob("div", "rv32e", c.program, std::nullopt);
    j.defectCase = true;
    j.expectedDefect = c.expected;
    j.expectedExit = 1;
    const Explored e = explore(j, writeImage(j));
    const ExploreReport rep = parseExploreOutput(e.output);
    EXPECT_EQ(judgeJob(j, e.exitCode, rep), "");
    j.expectedDefect = std::nullopt;
    EXPECT_NE(judgeJob(j, e.exitCode, rep), "");
    j.expectedDefect = DefectKind::OobRead;
    EXPECT_NE(judgeJob(j, e.exitCode, rep), "");
  }
}

// -------------------------------------------------------------- ledger --

TracedJobResult traced(const Job& job, const Workload& wl, SpanLog& log,
                       PassLedger& pass) {
  const std::string image = writeImage(job);
  const std::string prefix = testing::TempDir() + "perfbench_art_";
  const Explored e = explore(job, image, exploreFlags(job, wl, prefix));
  EXPECT_EQ(judgeJob(job, e.exitCode, parseExploreOutput(e.output)), "");
  const TracedJobResult r = runTracedJob(job, wl, image, prefix, 0, log);
  pass.untraced += e.seconds;
  pass.add(r.sample);
  return r;
}

double metric(const std::vector<Metric>& ms, const std::string& name) {
  for (const Metric& m : ms) {
    if (m.name == name) return m.value;
  }
  ADD_FAILURE() << "no metric " << name;
  return 0;
}

TEST(Ledger, LayersPlusUnattributedEqualUntracedJobTime) {
  Workload wl;
  wl.name = "t";
  const Job job = makeJob("bitcount6", "rv32e", adlsym::workloads::progBitcount(6), 64);
  SpanLog log;
  PassLedger pass;
  const TracedJobResult r = traced(job, wl, log, pass);
  EXPECT_EQ(r.failure, "");
  EXPECT_EQ(r.sample.paths, 64u);
  EXPECT_GT(r.sample.stepCalls, 0u);
  EXPECT_GE(r.sample.insns, r.sample.stepCalls);
  EXPECT_GT(r.sample.replayed, 0u);
  EXPECT_EQ(r.sample.replayMismatches, 0u);
  const std::vector<Metric> ms = layerMetrics({pass}, 0, 0);
  const double unattributed = metric(ms, "driver.unattributed_ms") / 1e3;
  EXPECT_NEAR(pass.sum.layerSum() + unattributed, pass.untraced, 1e-12);
  // Self times derive from the span tree and never exceed their span.
  for (size_t k = 0; k < log.spans().size(); ++k) {
    EXPECT_LE(log.selfSeconds(static_cast<int>(k)), log.spans()[k].durS + 1e-12);
  }
  std::ostringstream os;
  log.writeJsonl(os);
  EXPECT_NE(os.str().find("\"name\":\"core.step\""), std::string::npos);
}

TEST(Ledger, ObservedRunChargesObserversAndArtifacts) {
  Workload wl;
  wl.name = "t";
  wl.observed = true;
  const Job job = makeJob("parse2", "acc8", adlsym::workloads::progParse(2), 7);
  SpanLog log;
  PassLedger pass;
  const TracedJobResult r = traced(job, wl, log, pass);
  EXPECT_EQ(r.failure, "");
  EXPECT_GT(r.sample.observerSelf, 0.0);
  EXPECT_GT(r.sample.artifactWrite, 0.0);
  EXPECT_GT(r.sample.artifactBytes, 0u);
  EXPECT_EQ(r.sample.insns, r.sample.stepCalls);  // no fusion when observed
}

TEST(Ledger, ParallelRunMatchesSequentialPaths) {
  Workload seq;
  seq.name = "seq";
  Workload par;
  par.name = "par";
  par.explorerJobs = 2;
  Job job = makeJob("network5", "m16", progNetwork(5, 3), std::nullopt);
  SpanLog log;
  PassLedger a, b;
  const TracedJobResult rs = traced(job, seq, log, a);
  const TracedJobResult rp = traced(job, par, log, b);
  EXPECT_EQ(rs.failure, "");
  EXPECT_EQ(rp.failure, "");
  EXPECT_EQ(rs.sample.paths, rp.sample.paths);
  EXPECT_GT(rp.sample.qcacheLookups, 0u);
  EXPECT_GE(rp.sample.exploreSelf, 0.0);
  const std::vector<Metric> ms = layerMetrics({b}, 0, 0);
  EXPECT_NEAR(b.sum.layerSum() + metric(ms, "driver.unattributed_ms") / 1e3,
              b.untraced, 1e-12);
}

// --------------------------------------------------------------- stats --

TEST(Stats, MedianPercentileAndTail) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
  EXPECT_EQ(median({}), 0);
  EXPECT_EQ(minimum({3, 1, 2}), 1);
  EXPECT_EQ(minimum({}), 0);
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(percentile(v, 90), 90);
  EXPECT_EQ(tailPercentileFor(1000), 99);
  EXPECT_EQ(tailPercentileFor(100), 90);
  EXPECT_EQ(tailPercentileFor(39), 0);
}

}  // namespace
