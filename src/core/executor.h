// Executor interface + shared engine services. The explorer drives any
// Executor: the two ADL-driven executors (core/adlexec.h, the paper's
// contribution: the tree-walking evaluator and the rtlc bytecode VM) and
// the hand-written rv32e baseline (baseline/rv32_engine.h, the E2
// comparison).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/state.h"
#include "loader/image.h"
#include "smt/solver.h"
#include "support/telemetry.h"

namespace adlsym::core {

struct EngineConfig {
  /// Enable the engine-internal checkers.
  bool checkOob = true;
  bool checkDivZero = true;
};

struct StepOut;

/// One side of a split: the constraint it adds to a state and the witness
/// that successor carries (EngineServices::side).
struct Side {
  Side() = default;
  /// The side adding `c`, as constructed feasible and free: the state's
  /// carried witness satisfies `c` and stays.
  explicit Side(smt::TermRef c) : cond(c) {}

  smt::TermRef cond;  // the constraint the side adds; invalid = none
  bool feasible = true;
  /// Unset for a free side, whose successor keeps the state's witness.
  /// Otherwise the model of the query that found the side feasible, by
  /// input position, which the successor carries instead.
  std::optional<std::vector<uint64_t>> model;
};

/// Everything an executor needs from its environment. One instance is
/// shared across all states of an exploration run.
class EngineServices {
 public:
  EngineServices(smt::TermManager& tm, smt::SmtSolver& solver,
                 const loader::Image& image, const EngineConfig& config,
                 telemetry::Telemetry* telemetry = nullptr)
      : tm(tm), solver(solver), image(image), config(config),
        telemetry(telemetry) {
    solver.setTelemetry(telemetry);
  }

  smt::TermManager& tm;
  smt::SmtSolver& solver;
  const loader::Image& image;
  const EngineConfig& config;
  /// Optional observability bundle shared by every layer of this run; null
  /// = telemetry disabled (zero cost: call sites branch on the pointer).
  telemetry::Telemetry* telemetry = nullptr;
  /// Only the carried witness's side exists: decide() reports every side
  /// the witness does not take infeasible without a query, and
  /// forkJumpTargets() stops after the witness's target. feasible() probes
  /// still query, as they shape terms rather than choose a side. A
  /// concolic run sets this for the steps below its seed's generational
  /// bound, whose other sides its ancestors already ran (core/concolic.h).
  bool witnessOnly = false;

  /// The one feasibility decision (DESIGN.md §6.8): is pathCond(st) /\ c
  /// satisfiable? When st's carried witness satisfies `c`, yes: no query,
  /// and the side keeps the witness. Otherwise one check() decides, and
  /// its model, the one nearest st's witness, becomes the side's witness.
  /// Unknown counts as infeasible (documented limitation; counted in
  /// solver stats).
  Side side(const MachineState& st, smt::TermRef c);

  /// Both arms of a branch on the width-1 `cond`: {cond, not cond}. The
  /// rule of side() with `cond` evaluated once: the arm the witness
  /// satisfies is free and only the other one is decided.
  std::pair<Side, Side> branch(const MachineState& st, smt::TermRef cond);

  /// A probe, for sides never entered: side()'s rule, with no witness
  /// taken.
  bool feasible(const MachineState& st, smt::TermRef c);

  /// Enter a feasible side: add its constraint to `st` and take its
  /// witness.
  static void enter(MachineState& st, Side&& s);

  /// Symbolic jump: one successor per feasible concrete value of `target`
  /// (at most kMaxJumpTargets), constrained to that value; if values
  /// remain beyond the bound, `st` itself ends as a Budget path.
  /// The first value is the carried witness's; each later one comes from
  /// the query that excluded the values before it, and its successor
  /// carries that query's model, the one nearest st's witness.
  void forkJumpTargets(MachineState&& st, smt::TermRef target, StepOut& out);

  /// The next symbolic input of `width` bits on st's input stream: a fresh
  /// variable named in<n>_w<width> by its stream position, recorded in
  /// st.inputs. Every executor's input operations mint it here.
  smt::TermRef newInput(MachineState& st, unsigned width);

 private:
  /// side() for a `c` the carried witness does not satisfy: one check(),
  /// or none under witnessOnly.
  Side decide(const MachineState& st, smt::TermRef c);
  /// The last Sat model's values of st's inputs, by input position: the
  /// witness a successor takes from the query that found it feasible.
  std::vector<uint64_t> modelWitness(const MachineState& st);
};

/// One instruction executed on one state produces 0..N successor states
/// (0 = path infeasible; >1 = symbolic branch / defect fork).
struct StepOut {
  std::vector<MachineState> successors;
  /// RTL statements evaluated by this step (all forked arms included).
  /// Schedule-independent — the profiler's "evaluator ticks" unit; engines
  /// without RTL semantics (the rv32e baseline) leave it 0.
  uint64_t rtlTicks = 0;
  /// Instructions retired by this call: 1 for a plain step; 1+k when the
  /// executor fused k additional straight-line instructions (stepMany).
  uint64_t retired = 1;
  /// pcs of the fused instructions after the first one (empty for plain
  /// steps). The explorer folds these into its covered set so coverage
  /// accounting is identical whether or not a stretch was fused.
  std::vector<uint64_t> fusedPcs;

  /// Reset for the next step, keeping the vectors' capacity: the explorers
  /// reuse one StepOut for every step of a run.
  void clear() {
    successors.clear();
    rtlTicks = 0;
    retired = 1;
    fusedPcs.clear();
  }
};

class RtlProfile;  // core/rtlprofile.h

/// Which ADL-driven engine implementation executes instruction semantics:
/// the load-time bytecode compiler (core/rtlc.h, the default) or the
/// tree-walking reference interpreter (core/evaluator.h). The two are
/// observationally equivalent by contract (docs/bytecode.md).
enum class AdlEngineKind { Bytecode, Interp };

class Executor {
 public:
  virtual ~Executor() = default;
  virtual std::string name() const = 0;
  /// Fresh state at the image entry point: registers zeroed, memory backed
  /// by the image.
  virtual MachineState initialState() = 0;
  /// The consuming entry: execute up to `fuel` instructions starting at
  /// in.pc and append the successors to `out`; fuel 1 is one plain step.
  /// A fused run (fuel > 1) stops early at anything that needs
  /// per-instruction handling (symbolic data, forks, checker activity);
  /// engines without a fused fast path run one step. out.retired reports
  /// how many instructions actually retired.
  ///
  /// The executor takes `in` over: it updates that state in place and
  /// moves it into its last successor, and copies it only where the step
  /// has several successors (a fork, a checker's defect side, a symbolic
  /// jump's targets). `in` is left moved-from, so a caller reads what it
  /// needs of it before the call. Every engine overrides this entry; the
  /// default forwards to the copying entries below, which is all an
  /// executor decorator needs to override to see every step.
  virtual void stepMany(MachineState&& in, StepOut& out, uint64_t fuel) {
    if (fuel <= 1) {
      step(in, out);
    } else {
      stepMany(static_cast<const MachineState&>(in), out, fuel);
    }
  }
  /// Copying adapters of the consuming entry, for callers that read their
  /// state after the step (the concolic driver, the differential tests):
  /// `in` is left unchanged.
  virtual void step(const MachineState& in, StepOut& out) {
    stepMany(MachineState(in), out, 1);
  }
  virtual void stepMany(const MachineState& in, StepOut& out, uint64_t fuel) {
    stepMany(MachineState(in), out, fuel);
  }
  /// Per-RTL-statement profiling hookup (no-op for engines without RTL
  /// semantics). See AdlExecutorBase::setRtlProfile for the flush contract.
  virtual void setRtlProfile(RtlProfile* p) { (void)p; }
  virtual void flushRtlProfile() {}
};

}  // namespace adlsym::core
