// Hand-written, non-retargetable symbolic executor for the rv32e ISA
// (DESIGN.md S9). This is the engine the ADL approach replaces: a switch-
// based decoder plus one hand-coded symbolic transfer function per
// instruction. It shares the SMT layer, machine state, memory model and
// checkers with the ADL engine so that experiment E2 isolates exactly the
// cost of interpreting ADL semantics instead of running compiled C++.
//
// Equivalence with the ADL rv32e model is enforced by differential tests
// (tests/baseline_test.cpp): both engines must produce identical path sets.
#pragma once

#include "core/executor.h"
#include "loader/image.h"

namespace adlsym::baseline {

class Rv32Engine : public core::Executor {
 public:
  explicit Rv32Engine(core::EngineServices& services) : svc_(services) {}

  std::string name() const override { return "baseline:rv32e"; }
  core::MachineState initialState() override;
  using core::Executor::stepMany;
  /// One step on `st`, in place, whatever the fuel (no fused fast path).
  void stepMany(core::MachineState&& st, core::StepOut& out,
                uint64_t fuel) override;

 private:
  /// Fork on a symbolic branch condition: taken -> target, not-taken ->
  /// fall-through. Applies the same eager feasibility policy as the ADL
  /// engine.
  void branch(core::MachineState&& st, smt::TermRef cond, uint64_t target,
              uint64_t fallThrough, core::StepOut& out);
  void finish(core::MachineState&& st, uint64_t nextPc, core::StepOut& out);
  void finishSymbolic(core::MachineState&& st, smt::TermRef nextPc,
                      core::StepOut& out);

  core::EngineServices& svc_;
};

}  // namespace adlsym::baseline
