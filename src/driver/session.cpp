#include "driver/session.h"

#include "baseline/rv32_engine.h"
#include "core/rtlc.h"
#include "isa/registry.h"

namespace adlsym::driver {

Session::Session(const std::string& isa, const std::string& asmSource,
                 SessionOptions opt)
    : opt_(opt) {
  model_ = isa::loadIsa(isa);

  DiagEngine diags(isa + ".s");
  asmgen::Assembler assembler(*model_);
  auto image = assembler.assemble(asmSource, diags);
  if (!image) {
    throw Error("assembly failed:\n" + diags.str());
  }
  image_ = std::move(*image);

  tm_.setRewritingEnabled(opt_.rewriting);
  solver_ = std::make_unique<smt::SmtSolver>(tm_);
  solver_->setConflictBudget(opt_.solverConflictBudget);
  solver_->setQueryTimeoutMicros(opt_.solverTimeoutMicros);
  svc_ = std::make_unique<core::EngineServices>(tm_, *solver_, image_,
                                                opt_.engine, opt_.telemetry);
  if (opt_.useBaselineEngine) {
    check(isa == "rv32e", "baseline engine only exists for rv32e");
    exec_ = std::make_unique<baseline::Rv32Engine>(*svc_);
  } else if (opt_.engineKind == core::AdlEngineKind::Interp) {
    exec_ = std::make_unique<core::AdlExecutor>(*model_, *svc_);
  } else {
    exec_ = std::make_unique<core::BytecodeExecutor>(*model_, *svc_);
  }
}

std::unique_ptr<Session> Session::forPortable(const workloads::PProgram& p,
                                              const std::string& isa,
                                              SessionOptions opt) {
  return std::make_unique<Session>(isa, workloads::emitAssembly(p, isa), opt);
}

core::ExploreSummary Session::explore() {
  core::Explorer explorer(*exec_, *svc_, opt_.explorer);
  return explorer.run();
}

core::ConcolicResult Session::concolic(core::ConcolicConfig cfg) {
  core::ConcolicDriver driver(*exec_, *svc_, cfg);
  return driver.run();
}

core::ConcreteResult Session::replay(const core::TestCase& tc,
                                     uint64_t maxSteps) {
  core::ConcreteRunner runner(*model_, image_, opt_.telemetry);
  return runner.run(tc, maxSteps);
}

}  // namespace adlsym::driver
