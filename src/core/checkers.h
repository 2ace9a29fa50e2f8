// Engine-internal defect checkers and checked memory access (DESIGN.md S7).
// These are shared by the ADL evaluator and the hand-written baseline so
// that E2 measures semantics interpretation only.
//
// Symbolic addresses are handled without forking: reads become ite-chains
// over the bytes of each feasible section, writes update every feasible
// byte conditionally (DESIGN.md §6.3). Out-of-bounds reachability is one
// more feasibility decision (EngineServices::side): a feasible OOB side
// becomes a Defect successor that carries that side's witness.
#pragma once

#include <string>

#include "core/executor.h"
#include "core/state.h"

namespace adlsym::core {

/// Context of the instruction being checked (for defect reports).
struct CheckSite {
  uint64_t pc = 0;
  std::string mnemonic;
};

/// Report a defect on `st`, entering `side` (its condition and witness;
/// the default adds neither), and append it to `out`. The defect's test
/// inputs are read off that witness when the path ends. Callers pass a
/// copy when the path goes on beside the defect and move the state in
/// when the defect ends it.
///
/// The checkers below update `st` in place. When one returns false (or an
/// invalid term) the path is over, and `st` may have been moved into its
/// defect successor.
void emitDefect(MachineState st, StepOut& out, DefectKind kind,
                const CheckSite& site, std::string message, Side side = {},
                uint64_t trapClass = 0);

/// Checked division guard: reports DivByZero if the divisor can be zero,
/// then constrains it nonzero on `st`. Returns false if the path dies
/// (divisor is definitely zero or the nonzero case is infeasible).
bool guardDivisor(EngineServices& svc, MachineState& st, StepOut& out,
                  smt::TermRef divisor, const CheckSite& site);

/// Checked `size`-byte load at a possibly-symbolic address. On success
/// returns the value (width = 8*size, assembled per `bigEndian`); on path
/// death returns an invalid TermRef. OOB reachability produces a Defect
/// successor; the continuing path is constrained in-bounds.
smt::TermRef checkedLoad(EngineServices& svc, MachineState& st, StepOut& out,
                         smt::TermRef addr, unsigned size, bool bigEndian,
                         const CheckSite& site);

/// Checked store; returns false if the path dies.
bool checkedStore(EngineServices& svc, MachineState& st, StepOut& out,
                  smt::TermRef addr, smt::TermRef value, unsigned size,
                  bool bigEndian, const CheckSite& site);

/// asserteq handling: reports AssertFail if a != b is reachable, then
/// constrains a == b. Returns false if the path dies.
bool guardAssertEq(EngineServices& svc, MachineState& st, StepOut& out,
                   smt::TermRef a, smt::TermRef b, const CheckSite& site);

}  // namespace adlsym::core
