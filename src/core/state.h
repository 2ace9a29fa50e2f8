// Symbolic machine state and path-level result types (DESIGN.md S7).
// MachineState is architecture-agnostic: a vector of scalar registers, an
// optional register file, layered symbolic memory, the (always concrete)
// program counter, the path condition, and the input/output traces. Both
// the ADL-driven evaluator and the hand-written baseline engine operate on
// this same representation, so experiment E2 compares only the semantics
// interpretation, not the state machinery.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/memory.h"
#include "smt/term.h"

namespace adlsym::core {

/// One symbolic input created by input8/16/32, in stream order.
struct InputRecord {
  std::string name;
  unsigned width = 0;
  smt::TermRef term;
};

/// One output(v) event, in emission order.
struct OutputRecord {
  smt::TermRef term;
  uint64_t pc = 0;  // instruction that emitted it
};

enum class PathStatus : uint8_t {
  Running,    // still on the frontier
  Exited,     // halt(code) executed
  Defect,     // terminated by a checker (see Defect)
  Budget,     // per-path step budget (maxStepsPerPath) exhausted
  Illegal,    // undecodable instruction or unmapped fetch
  Infeasible, // dropped: path condition unsatisfiable
  Truncated,  // closed by the resource governor; see TruncReason
};

/// Why the governor closed a Truncated path (docs/robustness.md). Every
/// state the explorer gives up on carries one of these, so truncated +
/// completed paths account for every forked state — nothing vanishes
/// silently.
enum class TruncReason : uint8_t {
  None,      // path is not truncated
  Frontier,  // evicted: frontier exceeded maxFrontier
  Memory,    // evicted: state/term bytes exceeded memBudgetBytes
  Wall,      // run stopped: maxWallSeconds exhausted
  Steps,     // run stopped: maxTotalSteps exhausted
  Paths,     // run stopped: maxPaths completed paths reached
  EarlyStop, // run stopped: stopAtFirstDefect fired
  Signal,    // run stopped: graceful SIGINT/SIGTERM drain (support/stop)
};

const char* truncReasonName(TruncReason r);

enum class DefectKind : uint8_t {
  DivByZero,
  OobRead,
  OobWrite,
  AssertFail,
  Trap,         // trap(n) in semantics (e.g. checked signed overflow)
  IllegalInsn,
};

const char* defectKindName(DefectKind k);

/// A concrete witness assignment for the inputs of a path.
struct TestCase {
  struct Value {
    std::string name;
    unsigned width = 0;
    uint64_t value = 0;
  };
  std::vector<Value> inputs;
};

struct Defect {
  DefectKind kind = DefectKind::Trap;
  uint64_t pc = 0;
  std::string mnemonic;
  std::string message;
  uint64_t trapClass = 0;     // for DefectKind::Trap
  TestCase witness;           // inputs reaching the defect
};

class MachineState {
 public:
  // ---- storage -------------------------------------------------------
  std::vector<smt::TermRef> regs;     // scalar regs, flags (pc excluded)
  std::vector<smt::TermRef> regfile;  // empty if the arch has none
  SymMemory memory;
  uint64_t pc = 0;                    // always concrete (see DESIGN.md §6)

  // ---- path metadata --------------------------------------------------
  std::vector<smt::TermRef> pathCond;
  std::vector<InputRecord> inputs;
  std::vector<OutputRecord> outputs;
  unsigned inputCounter = 0;
  uint64_t steps = 0;
  unsigned forks = 0;  // symbolic branches taken on this path

  PathStatus status = PathStatus::Running;
  TruncReason truncReason = TruncReason::None;  // set when Truncated
  smt::TermRef exitCode;              // valid when status == Exited
  std::optional<Defect> defect;       // valid when status == Defect

  // ---- carried witness (DESIGN.md §6.8) -------------------------------
  /// A concrete input assignment that satisfies pathCond, which every
  /// state carries: witness[i] is the value of inputs[i]. An entry past
  /// the state's current inputs is the value an input not yet read will
  /// take (a concolic seed's), and a position past the end reads 0; both
  /// are sound because such an input is not yet in pathCond. The
  /// explorers' root witness is empty; a concolic run's root carries its
  /// seed (core/concolic.h).
  std::vector<uint64_t> witness;

  void addConstraint(smt::TermRef c) {
    if (!c.isTrue()) pathCond.push_back(c);
  }

  /// Rough resident size of this state: the governor's accounting unit
  /// for --mem-budget-mb. Counts the contents of the vectors and the
  /// distinct bytes written to memory (the per-state storage), never
  /// capacities or overlay nodes, so it is a function of what the state
  /// holds, not of how it was forked, moved or rebuilt; hash-consed terms
  /// live in the shared TermManager and are charged there.
  size_t approxBytes() const {
    return sizeof(MachineState) +
           (regs.size() + regfile.size() + pathCond.size()) *
               sizeof(smt::TermRef) +
           inputs.size() * sizeof(InputRecord) +
           outputs.size() * sizeof(OutputRecord) +
           witness.size() * sizeof(uint64_t) +
           memory.overlayBytes() * 16;  // map node + key + TermRef, approx
  }
};

/// Make `values` tm's current evaluation (smt::TermManager::evalBegin):
/// inputs[i] reads values[i], and an input past the end of `values` reads
/// 0. A carried witness and a concolic seed are both such assignments by
/// input position.
inline void bindInputs(smt::TermManager& tm,
                       const std::vector<InputRecord>& inputs,
                       const std::vector<uint64_t>& values) {
  tm.evalBegin();
  const size_t n = std::min(inputs.size(), values.size());
  for (size_t i = 0; i < n; ++i) tm.evalBind(inputs[i].term, values[i]);
}

/// Final record of one completed path (explorer output).
struct PathResult {
  PathStatus status = PathStatus::Running;
  TruncReason truncReason = TruncReason::None;  // set when Truncated
  uint64_t finalPc = 0;
  uint64_t steps = 0;
  unsigned forks = 0;
  std::optional<uint64_t> exitCode;       // concrete (from model) if Exited
  std::vector<uint64_t> outputs;          // concrete output values (model)
  std::optional<Defect> defect;
  TestCase test;                          // generated inputs for this path
  /// Structural path key (docs/parallelism.md), filled only when an
  /// attached observer returns wantsPathKeys() — see ExploreObserver.
  std::string pathKey;
};

}  // namespace adlsym::core
