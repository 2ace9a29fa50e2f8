// The retargetable symbolic execution engine (DESIGN.md S7): a single,
// architecture-independent interpreter of ADL instruction semantics over
// SMT terms. Retargeting = loading a different ArchModel; nothing here is
// ISA-specific. This is the paper's primary contribution.
#pragma once

#include "core/adlexec.h"

namespace adlsym::core {

/// The tree-walking reference interpreter (`--engine=interp`): the
/// executable specification the rtlc bytecode VM (core/rtlc.h) is checked
/// against. Decoding, the next-pc rule and the hookups are the shared
/// harness's (core/adlexec.h); this class walks the RTL.
class AdlExecutor : public AdlExecutorBase {
 public:
  AdlExecutor(const adl::ArchModel& model, EngineServices& services)
      : AdlExecutorBase(model, services) {}

  std::string name() const override { return "adl:" + model_.name; }

 private:
  struct Frame : InsnFrame {
    std::vector<smt::TermRef> lets;
  };

  void execInsn(MachineState&& st, InsnFrame f, StepOut& out) override;

  /// Execute the remaining statement worklist on `st`, in place; may fork
  /// (copying the state for the else arm of a symbolic if and recursing on
  /// it first) and appends finished successors to out.
  void execStmts(MachineState&& st, Frame frame,
                 std::vector<const adl::rtl::Stmt*> work, StepOut& out);

  /// Evaluate an RTL expression. Sets `dead` (and possibly appends defect
  /// successors) when a checker kills the path; the returned term is then
  /// invalid.
  smt::TermRef evalExpr(const adl::rtl::Expr& e, MachineState& st, Frame& f,
                        StepOut& out, bool& dead);

  smt::TermRef readRegFile(MachineState& st, uint64_t index);
  void writeRegFile(MachineState& st, uint64_t index, smt::TermRef v);
};

}  // namespace adlsym::core
