// Session: the library's top-level convenience API. One Session owns the
// whole pipeline for one program on one ISA — ADL model, assembled image,
// term manager, SMT solver, engine — and runs exploration / concrete
// replay on it. Examples, tests and benches all start here; see
// examples/quickstart.cpp for the canonical usage.
#pragma once

#include <memory>
#include <string>

#include "adl/model.h"
#include "asmgen/assembler.h"
#include "core/concolic.h"
#include "core/concrete.h"
#include "core/evaluator.h"
#include "core/explorer.h"
#include "loader/image.h"
#include "smt/solver.h"
#include "support/telemetry.h"
#include "workloads/pgen.h"

namespace adlsym::driver {

struct SessionOptions {
  core::EngineConfig engine;
  core::ExplorerConfig explorer;
  /// Use the hand-written baseline engine instead of the ADL evaluator
  /// (rv32e only; the E2 comparison).
  bool useBaselineEngine = false;
  /// ADL execution engine: the load-time bytecode compiler (core/rtlc.h,
  /// the default) or the tree-walking reference interpreter. Ignored when
  /// useBaselineEngine is set. See docs/bytecode.md.
  core::AdlEngineKind engineKind = core::AdlEngineKind::Bytecode;
  /// Disable the term rewriter (E4 ablation).
  bool rewriting = true;
  /// SAT conflict budget per solver query (0 = unlimited).
  uint64_t solverConflictBudget = 500000;
  /// Wall deadline per solver query in microseconds (0 = unlimited),
  /// measured on the telemetry clock when one is attached. Layered on the
  /// conflict budget; an expired query returns Unknown (docs/robustness.md).
  uint64_t solverTimeoutMicros = 0;
  /// Observability bundle (metrics registry + clock), attached to every
  /// layer of the session. Not owned; null = telemetry disabled at zero
  /// cost (docs/observability.md).
  telemetry::Telemetry* telemetry = nullptr;
};

class Session {
 public:
  /// Assemble `asmSource` for the shipped ISA `isa` and prepare an engine.
  /// Throws adlsym::Error on assembly or model errors (message includes
  /// the assembler diagnostics).
  Session(const std::string& isa, const std::string& asmSource,
          SessionOptions opt = {});

  /// Lower a portable program for `isa` first, then assemble it.
  static std::unique_ptr<Session> forPortable(const workloads::PProgram& p,
                                              const std::string& isa,
                                              SessionOptions opt = {});

  /// Run symbolic exploration from the entry point.
  core::ExploreSummary explore();

  /// Run concolic search instead (one concrete path per seed, from the
  /// all-zeroes seed). Uses the same executor and feasibility rule: each
  /// seed is the root's carried witness, so the engine solves only the
  /// sides it does not take, and their witnesses are the next seeds.
  core::ConcolicResult concolic(core::ConcolicConfig cfg = {});

  /// Replay a witness concretely with the same semantics.
  core::ConcreteResult replay(const core::TestCase& tc,
                              uint64_t maxSteps = 100000);

  const adl::ArchModel& model() const { return *model_; }
  const loader::Image& image() const { return image_; }
  smt::TermManager& termManager() { return tm_; }
  smt::SmtSolver& solver() { return *solver_; }
  core::Executor& executor() { return *exec_; }
  /// The engine-services bundle the executor runs against; lets callers
  /// build their own Explorer over this session (e.g. to attach an
  /// ExploreObserver, which ExplorerConfig carries by pointer).
  core::EngineServices& services() { return *svc_; }
  const SessionOptions& options() const { return opt_; }
  /// The telemetry bundle this session records into (null when detached).
  telemetry::Telemetry* telemetry() const { return opt_.telemetry; }

 private:
  SessionOptions opt_;
  std::unique_ptr<adl::ArchModel> model_;
  loader::Image image_;
  smt::TermManager tm_;
  std::unique_ptr<smt::SmtSolver> solver_;
  std::unique_ptr<core::EngineServices> svc_;
  std::unique_ptr<core::Executor> exec_;
};

}  // namespace adlsym::driver
