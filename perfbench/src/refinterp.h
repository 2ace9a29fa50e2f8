// Reference interpreter for the pgen IR (workloads/pgen.h), independent of
// the ADL engine: it executes a PProgram directly under the IR's 8-bit
// semantics contract. The oracle replays every witness the explorer prints
// through it and compares the exit code, the outputs and the defect kind.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/state.h"
#include "workloads/pgen.h"

namespace perfbench {

struct RefResult {
  enum class End : uint8_t {
    Exited,          // Halt executed
    Defect,          // a checked operation failed; see `defect`
    InputExhausted,  // In with no witness value left
    StepLimit,       // ran past maxSteps
  };
  End end = End::StepLimit;
  uint64_t exitCode = 0;
  std::vector<uint64_t> outputs;
  std::optional<adlsym::core::DefectKind> defect;
  size_t inputsConsumed = 0;
};

/// Run `p` on `inputs` (each truncated to 8 bits). Defects follow the IR
/// contract: DivU by zero, AddV signed 8-bit overflow (trap), array index
/// past the array (out-of-bounds read/write) and AssertEqR on unequal
/// values.
RefResult runReference(const adlsym::workloads::PProgram& p,
                       const std::vector<uint64_t>& inputs,
                       uint64_t maxSteps = 1000000);

}  // namespace perfbench
