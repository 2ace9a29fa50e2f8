// Carried witnesses (DESIGN.md §6.8): every state keeps a concrete input
// assignment that satisfies its path condition, so the side of a branch
// that assignment satisfies, and every path-end witness, cost no solver
// query.
//   * the invariant: at every fork child and on every state an executor
//     creates (path ends included), the carried witness satisfies every
//     constraint of the state's path condition, on all four ISAs, both
//     ADL engines (and the rv32e baseline), sequentially and on the
//     parallel engine;
//   * the saving: the two-path CI program issues exactly one query in
//     the whole run, and none at its path ends;
//   * concolic search runs on the same rule: each seed is the root's
//     witness, every state a run creates carries a witness, and every
//     query is issued inside an executor step (the driver solves nothing).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "baseline/rv32_engine.h"
#include "core/concolic.h"
#include "core/evaluator.h"
#include "core/explorer.h"
#include "core/pexplorer.h"
#include "core/rtlc.h"
#include "driver/session.h"
#include "workloads/defects.h"
#include "workloads/programs.h"

namespace adlsym {
namespace {

using driver::Session;
using driver::SessionOptions;

/// Empty when every constraint of st's path condition evaluates to 1
/// under its carried witness; else what failed. Evaluates with its own
/// variable environment, independent of the engine's binding.
std::string witnessViolation(const core::MachineState& st) {
  if (st.pathCond.empty()) return "";
  smt::TermManager& tm = *st.pathCond.front().manager();
  std::unordered_map<uint32_t, uint64_t> env;
  for (size_t i = 0; i < st.inputs.size(); ++i) {
    env[tm.varIndex(st.inputs[i].term.id())] =
        i < st.witness.size() ? st.witness[i] : 0;
  }
  const auto value = [&](uint32_t idx) {
    const auto it = env.find(idx);
    return it == env.end() ? uint64_t{0} : it->second;
  };
  for (size_t i = 0; i < st.pathCond.size(); ++i) {
    if (tm.evalWith(st.pathCond[i], value) != 1) {
      return "constraint " + std::to_string(i) + " of " +
             std::to_string(st.pathCond.size()) + " is false at pc " +
             std::to_string(st.pc);
    }
  }
  return "";
}

/// Tallies checks and keeps the first violation; thread-safe, because the
/// parallel engine calls in from every worker.
class Tally {
 public:
  void check(const core::MachineState& st, const char* where) {
    checks_.fetch_add(1, std::memory_order_relaxed);
    const std::string why = witnessViolation(st);
    if (why.empty()) return;
    std::lock_guard<std::mutex> lk(mu_);
    if (first_.empty()) first_ = std::string(where) + ": " + why;
  }
  uint64_t checks() const { return checks_.load(); }
  std::string first() const {
    std::lock_guard<std::mutex> lk(mu_);
    return first_;
  }

 private:
  std::atomic<uint64_t> checks_{0};
  mutable std::mutex mu_;
  std::string first_;
};

/// Checks every fork child the explorer reports.
class WitnessObserver final : public core::ExploreObserver {
 public:
  explicit WitnessObserver(Tally& t) : tally_(t) {}
  void onChild(uint64_t, uint64_t, const core::MachineState& st,
               size_t) override {
    tally_.check(st, "fork child");
  }

 private:
  Tally& tally_;
};

/// Checks every successor of every step: each state the engine creates,
/// so every path end too (a budget-cut or truncated path ends with the
/// witness it had when it was created). Given the solver the inner
/// executor queries, it also counts the queries issued inside its steps.
class CheckingExecutor final : public core::Executor {
 public:
  CheckingExecutor(core::Executor& inner, Tally& t,
                   const smt::SmtSolver* solver = nullptr)
      : inner_(inner), tally_(t), solver_(solver) {}
  std::string name() const override { return inner_.name(); }
  core::MachineState initialState() override {
    core::MachineState st = inner_.initialState();
    tally_.check(st, "root");
    return st;
  }
  void step(const core::MachineState& in, core::StepOut& out) override {
    const uint64_t before = queries();
    inner_.step(in, out);
    stepQueries_ += queries() - before;
    checkAll(out);
  }
  void stepMany(const core::MachineState& in, core::StepOut& out,
                uint64_t fuel) override {
    const uint64_t before = queries();
    inner_.stepMany(in, out, fuel);
    stepQueries_ += queries() - before;
    checkAll(out);
  }
  uint64_t stepQueries() const { return stepQueries_; }

 private:
  uint64_t queries() const {
    return solver_ != nullptr ? solver_->stats().queries : 0;
  }
  void checkAll(const core::StepOut& out) {
    for (const core::MachineState& s : out.successors) {
      tally_.check(s, s.status == core::PathStatus::Running ? "successor"
                                                            : "path end");
    }
  }
  core::Executor& inner_;
  Tally& tally_;
  const smt::SmtSolver* solver_;
  uint64_t stepQueries_ = 0;
};

struct Workload {
  std::string name;
  workloads::PProgram program;
  bool merge = false;
};

std::vector<Workload> invariantWorkloads() {
  std::vector<Workload> w;
  w.push_back({"bitcount3", workloads::progBitcount(3)});
  w.push_back({"earlyexit4", workloads::progEarlyExit(4)});
  w.push_back({"parse2", workloads::progParse(2)});
  w.push_back({"sort4", workloads::progSort(4)});
  for (const workloads::DefectCase& c : workloads::defectSuite()) {
    w.push_back({"defect:" + c.name, c.program});
  }
  w.push_back({"bitcount3-merge", workloads::progBitcount(3), true});
  return w;
}

/// The three executors: both ADL engines, and the rv32e baseline, which
/// routes its branches and guards through the same services.
enum class Engine { Bytecode, Interp, Baseline };

const char* engineName(Engine e) {
  switch (e) {
    case Engine::Bytecode: return "bytecode";
    case Engine::Interp: return "interp";
    case Engine::Baseline: return "baseline";
  }
  return "?";
}

SessionOptions optionsFor(Engine e, bool merge) {
  SessionOptions opt;
  opt.engineKind = e == Engine::Interp ? core::AdlEngineKind::Interp
                                       : core::AdlEngineKind::Bytecode;
  opt.useBaselineEngine = e == Engine::Baseline;
  opt.explorer.mergeStates = merge;
  if (merge) opt.explorer.strategy = core::SearchStrategy::BFS;
  return opt;
}

/// Sequential engine: the session's executor under the checker.
uint64_t checkSequential(const Workload& w, const std::string& isa, Engine e,
                         Tally& tally) {
  auto s = Session::forPortable(w.program, isa, optionsFor(e, w.merge));
  CheckingExecutor exec(s->executor(), tally);
  WitnessObserver ob(tally);
  core::ExplorerConfig cfg = s->options().explorer;
  cfg.observer = &ob;
  core::Explorer explorer(exec, s->services(), cfg);
  return explorer.run().paths.size();
}

/// Parallel engine at --jobs 2 with the prefilter and no shared cache, as
/// the CLI builds it: one checked executor per worker.
uint64_t checkParallel(const Workload& w, const std::string& isa, Engine e,
                       Tally& tally) {
  auto s = Session::forPortable(w.program, isa, optionsFor(e, false));
  const adl::ArchModel& model = s->model();
  WitnessObserver ob(tally);
  core::ParallelConfig pcfg;
  pcfg.base = s->options().explorer;
  pcfg.base.observer = &ob;
  pcfg.jobs = 2;
  // The factory runs on the coordinator thread; the inner executors
  // outlive the workers, which run() destroys.
  std::vector<std::unique_ptr<core::Executor>> inners;
  core::ParallelExplorer pex(
      s->image(), s->options().engine, pcfg,
      [&](core::EngineServices& svc) -> std::unique_ptr<core::Executor> {
        switch (e) {
          case Engine::Bytecode:
            inners.push_back(
                std::make_unique<core::BytecodeExecutor>(model, svc));
            break;
          case Engine::Interp:
            inners.push_back(std::make_unique<core::AdlExecutor>(model, svc));
            break;
          case Engine::Baseline:
            inners.push_back(std::make_unique<baseline::Rv32Engine>(svc));
            break;
        }
        return std::make_unique<CheckingExecutor>(*inners.back(), tally);
      });
  return pex.run().summary.paths.size();
}

TEST(CarriedWitness, SatisfiesThePathConditionAtEveryForkAndPathEnd) {
  const std::vector<Workload> wls = invariantWorkloads();
  for (const char* isa : {"acc8", "m16", "rv32e", "stk16"}) {
    std::vector<Engine> engines = {Engine::Bytecode, Engine::Interp};
    if (std::string(isa) == "rv32e") engines.push_back(Engine::Baseline);
    for (const Engine e : engines) {
      for (const Workload& w : wls) {
        const std::string where =
            std::string(isa) + " " + engineName(e) + " " + w.name;
        Tally seq;
        const uint64_t seqPaths = checkSequential(w, isa, e, seq);
        EXPECT_GT(seqPaths, 0u) << where;
        EXPECT_GT(seq.checks(), seqPaths) << where;
        EXPECT_EQ(seq.first(), "") << where << " (sequential)";
        if (w.merge) continue;  // --merge is sequential-only
        Tally par;
        const uint64_t parPaths = checkParallel(w, isa, e, par);
        EXPECT_EQ(parPaths, seqPaths) << where;
        EXPECT_EQ(par.first(), "") << where << " (--jobs 2)";
      }
    }
  }
}

// Concolic search: the seed is the root's witness, so the side of every
// decision it takes is free and the engine solves each other side once,
// inside the step, where that side's model becomes its witness and the
// next seed. Every state a run creates carries a satisfying witness, and
// the solver's query total is exactly the queries issued inside steps.
TEST(CarriedWitness, ConcolicRunsCarryWitnessesAndSolveOnlyInSteps) {
  std::vector<Workload> wls;
  wls.push_back({"bitcount3", workloads::progBitcount(3)});
  wls.push_back({"parse2", workloads::progParse(2)});
  for (const workloads::DefectCase& c : workloads::defectSuite()) {
    wls.push_back({"defect:" + c.name, c.program});
  }
  for (const char* isa : {"acc8", "m16", "rv32e", "stk16"}) {
    for (const Workload& w : wls) {
      const std::string where = std::string(isa) + " " + w.name;
      auto s = Session::forPortable(w.program, isa);
      Tally tally;
      CheckingExecutor exec(s->executor(), tally, &s->solver());
      const uint64_t base = s->solver().stats().queries;
      core::ConcolicDriver driver(exec, s->services());
      const core::ConcolicResult r = driver.run();
      EXPECT_GT(r.seedsExecuted, 0u) << where;
      EXPECT_GT(tally.checks(), r.seedsExecuted) << where;
      EXPECT_EQ(tally.first(), "") << where;
      EXPECT_EQ(s->solver().stats().queries - base, exec.stepQueries())
          << where;
    }
  }
}

// The CI two-path program: the branch's free side (the empty root
// witness reads x5 = 0, so beq is taken) costs nothing, its other side
// one query whose model is that path's witness, and neither path end
// solves.
constexpr char kTwoPaths[] = R"(_start:
  in8 x5
  beq x5, x0, zero
  out x5
  halti 1
zero:
  halti 2
)";

/// Solver queries per stepped pc. A path end is filed inside the window
/// of the step that ended it, so a path-end query would show at a halt.
class QueriesByPc final : public core::ExploreObserver {
 public:
  void onStepEnd(const StepInfo& info) override {
    std::lock_guard<std::mutex> lk(mu_);
    byPc_[info.pc] += info.stepSolverQueries;
  }
  std::map<uint64_t, uint64_t> byPc() const {
    std::lock_guard<std::mutex> lk(mu_);
    return byPc_;
  }

 private:
  mutable std::mutex mu_;
  std::map<uint64_t, uint64_t> byPc_;
};

void expectOneQueryAtTheBranch(const core::ExploreSummary& sum,
                               uint64_t queries, const QueriesByPc& ob,
                               const char* where) {
  ASSERT_EQ(sum.paths.size(), 2u) << where;
  EXPECT_EQ(queries, 1u) << where;
  // rv32e: in8 at pc 0, beq at pc 4; every other step issued nothing.
  for (const auto& [pc, q] : ob.byPc()) {
    EXPECT_EQ(q, pc == 4 ? 1u : 0u) << where << " pc " << pc;
  }
  for (const core::PathResult& p : sum.paths) {
    ASSERT_EQ(p.test.inputs.size(), 1u) << where;
    ASSERT_TRUE(p.exitCode.has_value()) << where;
    EXPECT_EQ(*p.exitCode, p.test.inputs[0].value == 0 ? 2u : 1u) << where;
  }
}

TEST(CarriedWitness, TwoPathProgramIssuesOneQuery) {
  {
    Session s("rv32e", kTwoPaths);
    QueriesByPc ob;
    core::ExplorerConfig cfg = s.options().explorer;
    cfg.observer = &ob;
    core::Explorer explorer(s.executor(), s.services(), cfg);
    const core::ExploreSummary sum = explorer.run();
    expectOneQueryAtTheBranch(sum, s.solver().stats().queries, ob,
                              "sequential");
  }
  {
    Session s("rv32e", kTwoPaths);
    const adl::ArchModel& model = s.model();
    QueriesByPc ob;
    core::ParallelConfig pcfg;
    pcfg.base = s.options().explorer;
    pcfg.base.observer = &ob;
    pcfg.jobs = 2;
    core::ParallelExplorer pex(
        s.image(), s.options().engine, pcfg,
        [&](core::EngineServices& svc) -> std::unique_ptr<core::Executor> {
          return std::make_unique<core::BytecodeExecutor>(model, svc);
        });
    const core::ExploreSummary sum = pex.run().summary;
    expectOneQueryAtTheBranch(sum, pex.solverTelemetry().queries, ob,
                              "--jobs 2");
  }
}

}  // namespace
}  // namespace adlsym
