#include "ledger.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <cstdio>
#include <sstream>

#include "core/explorer.h"
#include "core/pexplorer.h"
#include "core/rtlc.h"
#include "core/rtlprofile.h"
#include "core/testgen.h"
#include "driver/session.h"
#include "isa/registry.h"
#include "obs/events.h"
#include "obs/pathforest.h"
#include "obs/profile.h"
#include "obs/sitestats.h"
#include "oracle.h"
#include "smt/presolver.h"
#include "smt/qcache.h"
#include "smt/termio.h"
#include "stats.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/telemetry.h"

namespace perfbench {

namespace ad = adlsym;
namespace core = adlsym::core;
namespace smt = adlsym::smt;

// ------------------------------------------------------------- SpanLog --

SpanLog::SpanLog() : epoch_(nowSeconds()) {}

double SpanLog::now() const { return nowSeconds() - epoch_; }

int SpanLog::open(uint64_t job, const std::string& name, int parent) {
  Span s;
  s.job = job;
  s.name = name;
  s.parent = parent;
  s.startS = now();
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int index) {
  Span& s = spans_[index];
  s.endS = now();
  s.durS = s.endS - s.startS;
}

int SpanLog::aggregate(uint64_t job, const std::string& name, int parent,
                       double startS, double endS, double durS,
                       uint64_t count) {
  Span s;
  s.job = job;
  s.name = name;
  s.parent = parent;
  s.startS = startS;
  s.endS = endS;
  s.durS = durS;
  s.count = count;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::selfSeconds(int index) const {
  double self = spans_[index].durS;
  // Children always follow their parent, and one job's spans are
  // contiguous, so the scan stops at the first span of a later job.
  for (size_t k = index + 1; k < spans_.size(); ++k) {
    if (spans_[k].job != spans_[index].job) break;
    if (spans_[k].parent == index) self -= spans_[k].durS;
  }
  return self;
}

void SpanLog::writeJsonl(std::ostream& os) const {
  for (size_t k = 0; k < spans_.size(); ++k) {
    const Span& s = spans_[k];
    ad::json::Writer w(os);
    w.beginObject();
    w.kv("id", static_cast<uint64_t>(k));
    w.kv("job", s.job);
    w.kv("name", std::string_view(s.name));
    w.kv("parent", static_cast<int64_t>(s.parent));
    w.kv("start_s", s.startS);
    w.kv("end_s", s.endS);
    w.kv("dur_s", s.durS);
    w.kv("count", s.count);
    w.endObject();
    os << '\n';
  }
}

namespace {

// True while this thread is inside an Executor::step/stepMany call, so
// listener and observer time can be charged to the right parent span.
thread_local bool tlInStep = false;

// Distinct queries per job kept for the solver sub-layer replay.
constexpr size_t kReplaySample = 32;

/// Split accumulator: time spent inside step windows vs outside them.
struct SplitTime {
  double inStep = 0, offStep = 0;
  uint64_t inCount = 0, offCount = 0;
  void add(double s) {
    if (tlInStep) {
      inStep += s;
      ++inCount;
    } else {
      offStep += s;
      ++offCount;
    }
  }
};

/// Executor-side totals of one job, merged from every worker.
struct ExecTally {
  std::mutex mu;
  double stepS = 0;
  uint64_t calls = 0, insns = 0, terms = 0;
  double firstStart = -1, lastEnd = 0;
  std::atomic<int64_t> frontier{1};  // the root state
  std::atomic<int64_t> peak{1};
};

/// core::Executor decorator: times step/stepMany and counts retired
/// instructions and frontier growth. One instance per worker; totals are
/// flushed into the shared tally when the worker drops it.
class TimedExecutor final : public core::Executor {
 public:
  TimedExecutor(std::unique_ptr<core::Executor> inner, smt::TermManager& tm,
                ExecTally& tally, const SpanLog& log)
      : inner_(std::move(inner)), tm_(tm), tally_(tally), log_(log) {}
  TimedExecutor(const TimedExecutor&) = delete;
  TimedExecutor& operator=(const TimedExecutor&) = delete;
  ~TimedExecutor() override { flush(); }

  std::string name() const override { return inner_->name(); }
  core::MachineState initialState() override { return inner_->initialState(); }
  void step(const core::MachineState& in, core::StepOut& out) override {
    timed([&] { inner_->step(in, out); }, out);
  }
  void stepMany(const core::MachineState& in, core::StepOut& out,
                uint64_t fuel) override {
    timed([&] { inner_->stepMany(in, out, fuel); }, out);
  }
  void setRtlProfile(core::RtlProfile* p) override { inner_->setRtlProfile(p); }
  void flushRtlProfile() override { inner_->flushRtlProfile(); }

  void flush() {
    std::lock_guard<std::mutex> lk(tally_.mu);
    tally_.stepS += stepS_;
    tally_.calls += calls_;
    tally_.insns += insns_;
    tally_.terms += terms_;
    if (calls_ != 0) {
      if (tally_.firstStart < 0 || first_ < tally_.firstStart) tally_.firstStart = first_;
      tally_.lastEnd = std::max(tally_.lastEnd, last_);
    }
    stepS_ = 0;
    calls_ = insns_ = terms_ = 0;
  }

 private:
  template <typename Fn>
  void timed(Fn&& fn, core::StepOut& out) {
    tlInStep = true;
    const double t0 = log_.now();
    fn();
    const double t1 = log_.now();
    tlInStep = false;
    if (calls_ == 0) first_ = t0;
    last_ = t1;
    stepS_ += t1 - t0;
    ++calls_;
    insns_ += out.retired;
    int64_t running = 0;
    for (const core::MachineState& s : out.successors) {
      running += s.status == core::PathStatus::Running ? 1 : 0;
    }
    const int64_t f = tally_.frontier.fetch_add(running - 1) + running - 1;
    int64_t p = tally_.peak.load();
    while (f > p && !tally_.peak.compare_exchange_weak(p, f)) {
    }
    terms_ = std::max<uint64_t>(terms_, tm_.numTerms());
  }

  std::unique_ptr<core::Executor> inner_;
  smt::TermManager& tm_;
  ExecTally& tally_;
  const SpanLog& log_;
  double stepS_ = 0, first_ = 0, last_ = 0;
  uint64_t calls_ = 0, insns_ = 0, terms_ = 0;
};

/// One distinct query kept for the sub-layer replay, as slots of the
/// job's TermTableWriter (so worker pools may die before the replay).
struct CapturedQuery {
  std::vector<uint32_t> permanent;
  std::vector<uint32_t> assumptions;
  smt::CheckResult verdict;
};

/// smt::QueryListener: per-query latency and cache hits, split by whether
/// the query ran inside a step, plus a reservoir sample of the distinct
/// queries for the replay. Thread-safe (parallel workers call it
/// concurrently). Its own bookkeeping is timed as trace capture.
class QueryRecorder final : public smt::QueryListener {
 public:
  QueryRecorder(size_t cap, uint64_t seed, const SpanLog& log)
      : cap_(cap), rng_(seed), log_(log) {}

  void onCheck(const std::vector<smt::TermRef>& permanent,
               const std::vector<smt::TermRef>& assumptions,
               smt::CheckResult result, uint64_t micros,
               bool cached) override {
    const double t0 = log_.now();
    std::lock_guard<std::mutex> lk(mu_);
    solve_.add(static_cast<double>(micros) / 1e6);
    cached_ += cached ? 1 : 0;
    const bool shortCircuit =
        std::any_of(assumptions.begin(), assumptions.end(),
                    [](const smt::TermRef& t) { return t.isFalse(); });
    if (!shortCircuit && result != smt::CheckResult::Unknown) {
      CapturedQuery q;
      q.verdict = result;
      for (const smt::TermRef& t : permanent) q.permanent.push_back(writer_.slot(t));
      for (const smt::TermRef& t : assumptions) {
        if (!t.isTrue()) q.assumptions.push_back(writer_.slot(t));
      }
      std::vector<uint32_t> key = q.permanent;
      key.push_back(UINT32_MAX);
      key.insert(key.end(), q.assumptions.begin(), q.assumptions.end());
      if (distinct_.insert(std::move(key)).second) {
        ++seen_;
        if (sample_.size() < cap_) {
          sample_.push_back(std::move(q));
        } else if (const uint64_t j = rng_.below(seen_); j < cap_) {
          sample_[j] = std::move(q);
        }
      }
    }
    capture_.add(log_.now() - t0);
  }

  const SplitTime& solve() const { return solve_; }
  const SplitTime& capture() const { return capture_; }
  uint64_t cachedQueries() const { return cached_; }
  const std::vector<CapturedQuery>& sample() const { return sample_; }
  const smt::TermTableWriter& writer() const { return writer_; }

 private:
  std::mutex mu_;
  size_t cap_;
  ad::Rng rng_;
  const SpanLog& log_;
  SplitTime solve_, capture_;
  uint64_t cached_ = 0, seen_ = 0;
  smt::TermTableWriter writer_;
  std::set<std::vector<uint32_t>> distinct_;
  std::vector<CapturedQuery> sample_;
};

/// core::ExploreObserver decorator timing every callback into the wrapped
/// collectors (the same src/obs observers the CLI attaches).
class TimedObserver final : public core::ExploreObserver {
 public:
  TimedObserver(core::ExploreObserver& inner, const SpanLog& log)
      : inner_(inner), log_(log) {}

  bool wantsPathKeys() const override { return inner_.wantsPathKeys(); }
  void onRoot(uint64_t node, const core::MachineState& st) override {
    timed([&] { inner_.onRoot(node, st); });
  }
  void onStepBegin(uint64_t node, const core::MachineState& st) override {
    timed([&] { inner_.onStepBegin(node, st); });
  }
  void onStepEnd(const StepInfo& info) override {
    timed([&] { inner_.onStepEnd(info); });
  }
  void onOffStepSolve(uint64_t pc, uint64_t queries, uint64_t canonTerms,
                      uint64_t canonGates, uint64_t canonConflicts,
                      uint64_t preHits, uint64_t preMisses) override {
    timed([&] {
      inner_.onOffStepSolve(pc, queries, canonTerms, canonGates,
                            canonConflicts, preHits, preMisses);
    });
  }
  void onChild(uint64_t parent, uint64_t child, const core::MachineState& st,
               size_t condSizeBefore) override {
    timed([&] { inner_.onChild(parent, child, st, condSizeBefore); });
  }
  void onDrop(uint64_t node, uint64_t pc) override {
    timed([&] { inner_.onDrop(node, pc); });
  }
  void onMerge(uint64_t host, uint64_t incoming, uint64_t pc) override {
    timed([&] { inner_.onMerge(host, incoming, pc); });
  }
  void onPathDone(uint64_t node, const core::PathResult& result) override {
    timed([&] { inner_.onPathDone(node, result); });
  }

  template <typename Fn>
  void timed(Fn&& fn) {
    const double t0 = log_.now();
    fn();
    time_.add(log_.now() - t0);
  }
  const SplitTime& time() const { return time_; }

 private:
  core::ExploreObserver& inner_;
  const SpanLog& log_;
  SplitTime time_;
};

/// The flight recorder's query-listener half, timed like TimedObserver.
class TimedListener final : public smt::QueryListener {
 public:
  TimedListener(smt::QueryListener& inner, TimedObserver& clock)
      : inner_(inner), clock_(clock) {}
  void onCheck(const std::vector<smt::TermRef>& permanent,
               const std::vector<smt::TermRef>& assumptions,
               smt::CheckResult result, uint64_t micros, bool cached) override {
    clock_.timed(
        [&] { inner_.onCheck(permanent, assumptions, result, micros, cached); });
  }

 private:
  smt::QueryListener& inner_;
  TimedObserver& clock_;
};

std::string artifactStem(const Job& job, const std::string& prefix) {
  return prefix + fileStem(job);
}

uint64_t fileBytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(n);
}

core::ExplorerConfig cliExplorerConfig() {
  // driver::cli::ExploreOptions defaults.
  core::ExplorerConfig cfg;
  cfg.strategy = core::SearchStrategy::DFS;
  cfg.maxPaths = 10000;
  cfg.maxTotalSteps = 1000000;
  return cfg;
}

int cliExitCode(const core::ExploreSummary& s) {
  if (s.numDefects() > 0) return 1;
  if (s.budgetExhausted() ||
      (!s.stopReason.empty() && s.stopReason != "first-defect")) {
    return 3;
  }
  return 0;
}

void fillSolver(LayerSample& ls, const smt::SolverTelemetry& t) {
  ls.queries = t.queries;
  ls.preConsulted = t.preConsulted;
  ls.preDecided = t.preSat + t.preUnsat;
  ls.blasted = t.blast.termsBlasted;
  ls.blastGates = t.blast.gates;
  ls.satVars = t.satVars;
  ls.satConflicts = t.satCore.conflicts;
  ls.satDecisions = t.satCore.decisions;
}

/// Replay the sampled distinct queries on a fresh pool: time the prefilter
/// judge, the qcache canonical key and a prefilter-off fresh solve, and
/// count verdicts that disagree with the recorded ones. Returns the first
/// disagreement ("" when none).
std::string replayQueries(const QueryRecorder& rec, uint64_t jobSeq,
                          SpanLog& log, LayerSample& ls) {
  std::string first;
  if (rec.sample().empty()) return first;
  const int root = log.open(jobSeq, "smt.replay", -1);
  smt::TermManager tm;
  const std::vector<smt::TermRef> slots =
      smt::TermTableReader::read(rec.writer().table(), tm);
  smt::PreSolver pre(tm);
  double judgeS = 0, keyS = 0, solveS = 0;
  const double start = log.now();
  for (const CapturedQuery& q : rec.sample()) {
    std::vector<smt::TermRef> perm, assume;
    for (const uint32_t s : q.permanent) perm.push_back(slots[s]);
    for (const uint32_t s : q.assumptions) assume.push_back(slots[s]);
    const double t0 = log.now();
    smt::QueryCache::canonicalKey(perm, assume, nullptr);
    const double t1 = log.now();
    const smt::PreVerdict pv = pre.judge(perm, assume);
    const double t2 = log.now();
    smt::SmtSolver solver(tm);
    solver.setQueryCacheEnabled(false);
    for (const smt::TermRef& p : perm) solver.assertAlways(p);
    const smt::CheckResult r = solver.check(assume);
    const double t3 = log.now();
    keyS += t1 - t0;
    judgeS += t2 - t1;
    solveS += t3 - t2;
    ++ls.replayed;
    const bool solveDisagrees = r != smt::CheckResult::Unknown && r != q.verdict;
    const bool preDisagrees =
        pv.result != smt::CheckResult::Unknown && pv.result != q.verdict;
    if (solveDisagrees || preDisagrees) {
      ++ls.replayMismatches;
      if (first.empty()) {
        first = std::string("replayed query recorded ") +
                smt::checkResultName(q.verdict) + ", fresh solve " +
                smt::checkResultName(r) + ", prefilter " +
                smt::checkResultName(pv.result);
      }
    }
  }
  const double end = log.now();
  const uint64_t n = rec.sample().size();
  log.aggregate(jobSeq, "smt.replay.key", root, start, end, keyS, n);
  log.aggregate(jobSeq, "smt.replay.judge", root, start, end, judgeS, n);
  log.aggregate(jobSeq, "smt.replay.blast_sat", root, start, end, solveS, n);
  log.close(root);
  ls.replayKey = keyS;
  ls.replayJudge = judgeS;
  ls.replayBlastSat = solveS;
  return first;
}

}  // namespace

std::vector<std::string> exploreFlags(const Job& job, const Workload& wl,
                                      const std::string& artifactPrefix) {
  std::vector<std::string> flags;
  if (wl.explorerJobs != 0) flags.push_back("--jobs=" + std::to_string(wl.explorerJobs));
  if (wl.observed) {
    const std::string stem = artifactStem(job, artifactPrefix);
    flags.push_back("--stats-json=" + stem + ".stats.json");
    flags.push_back("--events=" + stem + ".events.jsonl");
    flags.push_back("--path-forest=" + stem + ".forest.json");
    flags.push_back("--profile=" + stem + ".profile.json");
  }
  return flags;
}

TracedJobResult runTracedJob(const Job& job, const Workload& wl,
                             const std::string& imagePath,
                             const std::string& artifactPrefix,
                             uint64_t jobSeq, SpanLog& log) {
  TracedJobResult res;
  LayerSample& ls = res.sample;
  const int jobSpan = log.open(jobSeq, "job:" + job.id, -1);

  int sp = log.open(jobSeq, "adl.load", jobSpan);
  const std::unique_ptr<ad::adl::ArchModel> model = ad::isa::loadIsa(job.isa);
  log.close(sp);
  ls.adlLoad = log.spans()[sp].durS;

  sp = log.open(jobSeq, "loader.image_parse", jobSpan);
  std::string text;
  {
    std::ifstream in(imagePath, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    text = os.str();
  }
  const ad::loader::Image image = ad::loader::Image::deserialize(text);
  log.close(sp);
  ls.imageParse = log.spans()[sp].durS;

  const ad::driver::SessionOptions sopt;
  core::ExplorerConfig ecfg = cliExplorerConfig();
  ExecTally tally;
  QueryRecorder rec(kReplaySample, jobSeq + 1, log);
  core::ExploreSummary summary;
  int exploreSpan = -1;
  double workers = 1.0;
  double engineBuildInExplore = 0;
  double observerIn = 0, observerOff = 0;

  if (wl.explorerJobs == 0) {
    // driver::cli::cmdExplore's sequential engine, with the observers
    // --stats-json --events --path-forest --profile attach when observed.
    const std::string stem = artifactStem(job, artifactPrefix);
    std::unique_ptr<ad::telemetry::Telemetry> tel;
    if (wl.observed) tel = std::make_unique<ad::telemetry::Telemetry>();
    smt::TermManager tm;
    smt::SmtSolver solver(tm);
    solver.setConflictBudget(sopt.solverConflictBudget);
    smt::PreSolver presolver(tm);
    solver.setPreSolver(&presolver);
    solver.setQueryListener(&rec);

    core::ObserverMux mux;
    std::ofstream eventsFile;
    std::unique_ptr<ad::obs::EventBus> bus;
    std::unique_ptr<ad::obs::PathForestRecorder> forest;
    std::unique_ptr<ad::obs::SiteStatsCollector> sites;
    std::unique_ptr<core::RtlProfile> rtl;
    std::unique_ptr<ad::obs::ProfileCollector> prof;
    if (wl.observed) {
      eventsFile.open(stem + ".events.jsonl", std::ios::binary | std::ios::trunc);
      bus = std::make_unique<ad::obs::EventBus>(eventsFile, tel.get());
      mux.add(bus.get());
      forest = std::make_unique<ad::obs::PathForestRecorder>();
      mux.add(forest.get());
      sites = std::make_unique<ad::obs::SiteStatsCollector>(*model, image);
      mux.add(sites.get());
      rtl = std::make_unique<core::RtlProfile>(*model);
      prof = std::make_unique<ad::obs::ProfileCollector>(*model, image);
      mux.add(prof.get());
      solver.setShapeProfiling(true);
    }
    TimedObserver timedObs(mux, log);
    std::unique_ptr<TimedListener> timedBus;
    if (wl.observed) {
      timedBus = std::make_unique<TimedListener>(*bus, timedObs);
      solver.addQueryListener(timedBus.get());
      ecfg.observer = &timedObs;
    }

    sp = log.open(jobSeq, "core.engine_build", jobSpan);
    core::EngineServices services(tm, solver, image, sopt.engine, tel.get());
    auto exec = std::make_unique<core::BytecodeExecutor>(*model, services);
    if (rtl) exec->setRtlProfile(rtl.get());
    TimedExecutor timed(std::move(exec), tm, tally, log);
    log.close(sp);
    ls.engineBuild = log.spans()[sp].durS;

    exploreSpan = log.open(jobSeq, "core.explore", jobSpan);
    core::Explorer explorer(timed, services, ecfg);
    if (bus) {
      timedObs.timed([&] {
        bus->runBegin({"explore", job.isa, "dfs", imagePath});
      });
    }
    summary = explorer.run();
    timed.flushRtlProfile();
    if (bus) {
      timedObs.timed([&] {
        bus->runEnd(summary, solver.telemetrySnapshot(), rtl ? rtl->total() : 0);
      });
    }
    timed.flush();
    log.close(exploreSpan);
    fillSolver(ls, solver.telemetrySnapshot());
    observerIn = timedObs.time().inStep;
    observerOff = timedObs.time().offStep;

    if (wl.observed) {
      sp = log.open(jobSeq, "obs.artifact_write", jobSpan);
      {
        std::ofstream out(stem + ".forest.json", std::ios::binary | std::ios::trunc);
        forest->writeJson(out);
      }
      ad::obs::ProfileReport rep;
      rep.isa = job.isa;
      rep.program = imagePath;
      rep.prof = prof.get();
      rep.rtl = rtl.get();
      rep.engineSteps = summary.totalSteps;
      rep.engineRtlTicks = rtl->total();
      rep.solver = solver.telemetrySnapshot();
      rep.shapes = &solver.queryShapes();
      {
        std::ofstream out(stem + ".stats.json", std::ios::binary | std::ios::trunc);
        ad::json::Writer w(out);
        w.beginObject();
        w.kv("schema", "adlsym-stats-v8");
        w.kv("command", "explore");
        w.kv("isa", std::string_view(job.isa));
        w.kv("strategy", "dfs");
        w.key("engine").beginObject();
        w.kv("name", "bytecode");
        w.endObject();
        w.key("summary");
        core::writeSummaryJson(w, summary);
        w.key("solver");
        solver.telemetrySnapshot().writeJson(w);
        w.key("prefilter");
        solver.telemetrySnapshot().writePrefilterJson(w);
        sites->writeJson(w);
        rep.writeSummary(w);
        w.key("events");
        bus->writeStatsJson(w);
        w.key("metrics");
        tel->metrics().writeJson(w);
        w.endObject();
        out << '\n';
      }
      {
        std::ofstream out(stem + ".profile.json", std::ios::binary | std::ios::trunc);
        rep.writeJson(out);
      }
      bus->flush();
      eventsFile.close();
      log.close(sp);
      ls.artifactWrite = log.spans()[sp].durS;
      for (const char* ext : {".forest.json", ".stats.json", ".profile.json",
                              ".events.jsonl"}) {
        ls.artifactBytes += fileBytes(stem + ext);
      }
    }
  } else {
    // driver::cli::cmdExplore's parallel engine (--jobs N): shared query
    // cache, per-worker prefilter, executors built by the factory.
    workers = wl.explorerJobs;
    smt::QueryCache qcache(0);
    core::ParallelConfig pcfg;
    pcfg.base = ecfg;
    pcfg.jobs = wl.explorerJobs;
    pcfg.qcache = &qcache;
    pcfg.prefilter = true;
    pcfg.solverConflictBudget = sopt.solverConflictBudget;
    pcfg.queryListener = &rec;
    std::mutex buildMu;
    double buildS = 0;
    const ad::adl::ArchModel& m = *model;
    exploreSpan = log.open(jobSeq, "core.explore", jobSpan);
    core::ParallelExplorer pex(
        image, sopt.engine, pcfg,
        [&](core::EngineServices& svc) -> std::unique_ptr<core::Executor> {
          const double t0 = log.now();
          auto ex = std::make_unique<core::BytecodeExecutor>(m, svc);
          const double t1 = log.now();
          {
            std::lock_guard<std::mutex> lk(buildMu);
            buildS += t1 - t0;
          }
          return std::make_unique<TimedExecutor>(std::move(ex), svc.tm, tally, log);
        });
    core::ParallelResult pres = pex.run();
    log.close(exploreSpan);
    summary = std::move(pres.summary);
    engineBuildInExplore = buildS;
    fillSolver(ls, pex.solverTelemetry());
    const core::ParallelExplorer::PoolStats& ps = pex.poolStats();
    ls.steals = ps.steals;
    ls.stealWait = static_cast<double>(ps.stealWaitMicros) / 1e6;
    ls.workerStepsMin = ps.minWorkerSteps;
    ls.workerStepsMax = ps.maxWorkerSteps;
    const smt::QueryCache::Stats qs = qcache.stats();
    ls.qcacheHits = qs.hits;
    ls.qcacheLookups = qs.hits + qs.misses;
  }

  // Worker-side aggregates, in wall-equivalent seconds.
  const SplitTime& solve = rec.solve();
  const SplitTime& cap = rec.capture();
  const double stepS = tally.stepS / workers;
  const double smtIn = solve.inStep / workers;
  const double smtOff = solve.offStep / workers;
  const double capIn = cap.inStep / workers;
  const double capOff = cap.offStep / workers;
  // Copies: aggregate() appends to the span vector.
  const double exStart = log.spans()[exploreSpan].startS;
  const double exEnd = log.spans()[exploreSpan].endS;
  const int stepSpan = log.aggregate(jobSeq, "core.step", exploreSpan,
                                     tally.firstStart, tally.lastEnd, stepS,
                                     tally.calls);
  log.aggregate(jobSeq, "smt.query", stepSpan, exStart, exEnd, smtIn,
                solve.inCount);
  log.aggregate(jobSeq, "trace.capture", stepSpan, exStart, exEnd, capIn,
                cap.inCount);
  log.aggregate(jobSeq, "obs.observer", stepSpan, exStart, exEnd, observerIn, 1);
  log.aggregate(jobSeq, "smt.query", exploreSpan, exStart, exEnd, smtOff,
                solve.offCount);
  log.aggregate(jobSeq, "trace.capture", exploreSpan, exStart, exEnd,
                capOff, cap.offCount);
  log.aggregate(jobSeq, "obs.observer", exploreSpan, exStart, exEnd,
                observerOff, 1);
  if (wl.explorerJobs != 0) {
    const int b = log.aggregate(jobSeq, "core.engine_build", exploreSpan,
                                exStart, exEnd, engineBuildInExplore,
                                wl.explorerJobs);
    ls.engineBuild = log.spans()[b].durS;
  }
  log.close(jobSpan);

  // Step self time excludes the solver, the observers and trace capture
  // that ran inside the step window.
  ls.stepSelf = log.selfSeconds(stepSpan);
  ls.smtInStep = smtIn;
  ls.witness = smtOff;
  ls.exploreSelf = log.selfSeconds(exploreSpan);
  ls.observerSelf = observerIn + observerOff;
  ls.traceCapture = capIn + capOff;
  ls.tracedJob = log.spans()[jobSpan].durS;
  ls.stepCalls = tally.calls;
  ls.insns = tally.insns;
  ls.forks = summary.totalForks;
  ls.frontierPeak = static_cast<uint64_t>(std::max<int64_t>(tally.peak.load(), 0));
  ls.paths = summary.paths.size();
  ls.cachedQueries = rec.cachedQueries();
  ls.terms = tally.terms;

  // The traced run must agree with the oracle too.
  const ExploreReport report = parseExploreOutput(core::formatSummary(summary));
  res.failure = judgeJob(job, cliExitCode(summary), report);

  std::string replayErr = replayQueries(rec, jobSeq, log, ls);
  if (res.failure.empty()) res.failure = std::move(replayErr);
  return res;
}

void PassLedger::add(const LayerSample& s) {
  LayerSample& a = sum;
  a.adlLoad += s.adlLoad;
  a.imageParse += s.imageParse;
  a.engineBuild += s.engineBuild;
  a.stepSelf += s.stepSelf;
  a.smtInStep += s.smtInStep;
  a.witness += s.witness;
  a.exploreSelf += s.exploreSelf;
  a.observerSelf += s.observerSelf;
  a.artifactWrite += s.artifactWrite;
  a.traceCapture += s.traceCapture;
  a.tracedJob += s.tracedJob;
  a.stepCalls += s.stepCalls;
  a.insns += s.insns;
  a.forks += s.forks;
  a.frontierPeak = std::max(a.frontierPeak, s.frontierPeak);
  a.paths += s.paths;
  a.queries += s.queries;
  a.cachedQueries += s.cachedQueries;
  a.terms = std::max(a.terms, s.terms);
  a.preConsulted += s.preConsulted;
  a.preDecided += s.preDecided;
  a.blasted += s.blasted;
  a.blastGates += s.blastGates;
  a.satVars += s.satVars;
  a.satConflicts += s.satConflicts;
  a.satDecisions += s.satDecisions;
  a.steals += s.steals;
  a.stealWait += s.stealWait;
  a.qcacheHits += s.qcacheHits;
  a.qcacheLookups += s.qcacheLookups;
  a.artifactBytes += s.artifactBytes;
  a.replayed += s.replayed;
  a.replayMismatches += s.replayMismatches;
  a.replayJudge += s.replayJudge;
  a.replayKey += s.replayKey;
  a.replayBlastSat += s.replayBlastSat;
  if (s.workerStepsMax != 0) {
    spreadSum += double(s.workerStepsMax - s.workerStepsMin) /
                 double(s.workerStepsMax);
    ++parallelJobs;
  }
}

void PassLedger::merge(const PassLedger& p) {
  untraced += p.untraced;
  add(p.sum);  // pass sums carry no worker spread of their own
  spreadSum += p.spreadSum;
  parallelJobs += p.parallelJobs;
}

namespace {

double ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

PassLedger mergeAll(const std::vector<PassLedger>& passes) {
  PassLedger m;
  for (const PassLedger& p : passes) m.merge(p);
  return m;
}

}  // namespace

std::vector<Metric> layerMetrics(const std::vector<PassLedger>& passes,
                                 double adlSetupS, double asmSetupS) {
  const PassLedger m = mergeAll(passes);
  const LayerSample& s = m.sum;
  const double per = passes.empty() ? 0.0 : 1.0 / double(passes.size());
  return {
      {"adl.load_ms", adlSetupS * 1e3, "ms"},
      {"asmgen.assemble_ms", asmSetupS * 1e3, "ms"},
      {"loader.image_parse_ms", s.imageParse * per * 1e3, "ms"},
      {"core.engine_build_ms", s.engineBuild * per * 1e3, "ms"},
      {"core.step_calls", double(s.stepCalls) * per, "count"},
      {"core.insns", double(s.insns) * per, "count"},
      {"core.fuse_ratio", ratio(double(s.insns), double(s.stepCalls)), "ratio"},
      {"core.step_self_s", s.stepSelf * per, "s"},
      {"core.explore_self_s", s.exploreSelf * per, "s"},
      {"core.witness_s", s.witness * per, "s"},
      {"core.forks", double(s.forks) * per, "count"},
      {"core.frontier_peak", double(s.frontierPeak), "count"},
      {"smt.queries", double(s.queries) * per, "count"},
      {"smt.query_s", (s.smtInStep + s.witness) * per, "s"},
      {"smt.cache_hit_ratio", ratio(double(s.cachedQueries), double(s.queries)), "ratio"},
      {"smt.terms", double(s.terms), "count"},
      {"smt.pre_consulted", double(s.preConsulted) * per, "count"},
      {"smt.pre_decided_ratio", ratio(double(s.preDecided), double(s.preConsulted)), "ratio"},
      {"smt.pre_judge_us", ratio(s.replayJudge, double(s.replayed)) * 1e6, "us"},
      {"smt.qcache_key_us", ratio(s.replayKey, double(s.replayed)) * 1e6, "us"},
      {"smt.blasted", double(s.blasted) * per, "count"},
      {"smt.blast_gates", double(s.blastGates) * per, "count"},
      {"smt.sat_vars", double(s.satVars) * per, "count"},
      {"smt.sat_conflicts", double(s.satConflicts) * per, "count"},
      {"smt.sat_decisions", double(s.satDecisions) * per, "count"},
      {"smt.blast_sat_us", ratio(s.replayBlastSat, double(s.replayed)) * 1e6, "us"},
      {"pexplorer.steals", double(s.steals) * per, "count"},
      {"pexplorer.worker_steps_spread", ratio(m.spreadSum, double(m.parallelJobs)), "ratio"},
      {"pexplorer.qcache_hit_ratio", ratio(double(s.qcacheHits), double(s.qcacheLookups)), "ratio"},
      {"obs.artifact_bytes", double(s.artifactBytes) * per, "B"},
      {"driver.unattributed_ms", m.unattributed() * per * 1e3, "ms"},
      {"driver.trace_overhead_ratio", ratio(s.tracedJob, m.untraced), "ratio"},
  };
}

void printLedger(std::ostream& os, const std::string& workload,
                 const std::vector<PassLedger>& passes, size_t jobsPerPass) {
  const PassLedger m = mergeAll(passes);
  const LayerSample& s = m.sum;
  const double n = passes.empty() ? 1.0 : double(passes.size());
  const double total = m.untraced / n;
  char line[160];
  std::snprintf(line, sizeof line,
                "ledger %s: %zu traced passes x %zu jobs; ms per pass (share "
                "of untraced job time)\n",
                workload.c_str(), passes.size(), jobsPerPass);
  os << line;
  auto row = [&](const char* name, double sec) {
    std::snprintf(line, sizeof line, "  %-22s %10.3f  %6.1f%%\n", name,
                  sec * 1e3, total == 0 ? 0.0 : 100.0 * sec / total);
    os << line;
  };
  row("adl.load", s.adlLoad / n);
  row("loader.image_parse", s.imageParse / n);
  row("core.engine_build", s.engineBuild / n);
  row("core.step_self", s.stepSelf / n);
  row("smt.query_in_step", s.smtInStep / n);
  row("core.witness", s.witness / n);
  row("core.explore_self", s.exploreSelf / n);
  row("obs.observer_self", s.observerSelf / n);
  row("obs.artifact_write", s.artifactWrite / n);
  row("driver.unattributed", m.unattributed() / n);
  row("= untraced job time", total);
  std::snprintf(line, sizeof line,
                "  traced job time %.3f ms (tracing overhead %.1f%%, trace "
                "capture %.3f ms); pexplorer.steal_wait %.3f ms\n",
                s.tracedJob / n * 1e3,
                total == 0 ? 0.0 : 100.0 * (s.tracedJob / n - total) / total,
                s.traceCapture / n * 1e3, s.stealWait / n * 1e3);
  os << line;
}

}  // namespace perfbench
