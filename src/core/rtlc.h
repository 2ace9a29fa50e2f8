// RTL compiler (rtlc): lowers each instruction's ADL semantics into a flat
// register-slot-resolved bytecode at load time and executes it with a tight
// dispatch loop, replacing the tree-walking evaluator (core/evaluator.h) on
// the hot path. Two-level compilation:
//
//   1. Load time: one generic Program per InsnInfo. Every RTL expression
//      node becomes exactly one op in post-order, so op execution order is
//      identical to the walker's evaluation order. Decode-dependent leaves
//      (operand fields, pc reads, regfile indices) stay symbolic here; the
//      generic form is never executed.
//   2. First execution at a pc: the generic program is specialized against
//      the decoded instruction — fields and pc reads become constants,
//      regfile indices resolve to fixed slots, and a constant-folding pass
//      collapses everything decode-computable (matching the term builders'
//      fold semantics bit for bit). Folded const ops that no surviving op
//      reads are deleted; branch targets are remapped; rtlprofile statement
//      markers migrate to the statement's first surviving op so tick
//      accounting is unchanged.
//
// On top of the bytecode VM, stepMany() fuses straight-line concrete-only
// instruction runs (the superblock cache): while every register is concrete
// it executes on plain uint64 arrays and commits the net effect as one
// materialized successor. Any need for the symbolic machinery — a symbolic
// memory byte, a checker that could fire (OOB, div-by-zero, assert, trap),
// an input op, an undecodable pc — bails out: the pending instruction's
// effects are discarded and it re-executes through the full symbolic VM,
// which reproduces the walker's behavior exactly. Fusing never engages when
// telemetry or profiling is attached (the drivers additionally gate it on
// observers, fault injection and governor budgets), so every observable
// artifact contract reduces to per-step VM equivalence — enforced by
// rtlc_diff_test and insn_fuzz_test. See docs/bytecode.md.
#pragma once

#include <unordered_map>
#include <vector>

#include "adl/model.h"
#include "core/adlexec.h"
#include "decode/decoder.h"

namespace adlsym::core {

namespace rtlc {

enum class OpCode : uint8_t {
  // ---- value producers (write slot `dst`) -----------------------------
  Const,         // imm = value (masked to width)
  RegRead,       // imm = scalar register index
  PcRead,        // generic only; specialized to Const(insnAddr)
  Field,         // generic only; imm = operand field index
  RegFileRead,   // generic: idx expr; specialized: imm = resolved index
  Load,          // a = address slot; imm = size in bytes; width = 8*size
  Input,         // fresh symbolic input of `width`
  Not, Neg,      // a
  Add, Sub, Mul, And, Or, Xor, Shl, LShr, AShr,  // a, b
  UDiv, URem, SDiv, SRem,                        // a, b (guarded)
  // Comparisons: result width is always 1; `width` holds the OPERAND
  // width (what evalOp and the fold pass need).
  Eq, Ne, Ult, Ule, Ugt, Uge, Slt, Sle, Sgt, Sge,
  ZExt,          // a; width = target width
  SExt,          // a; width = target width; imm = source width
  Trunc,         // a; width = target width
  Concat,        // a = high, b = low; width = result; imm = low width
  Extract,       // a; imm = (hi<<8)|lo
  Copy,          // let assignment: slots[dst] = slots[a] (dst is a let slot)
  CheckLet,      // a = let slot; dies if read before assignment
  // ---- statement terminals / control ----------------------------------
  AssignReg,     // a = value slot; imm = scalar register index
  AssignPc,      // a = value slot (pc assignment; successor pc)
  AssignRegFile, // a = value slot; generic: idx expr; spec: imm = index
  RegIndexDefect,// spec only: encodable-but-invalid regfile index (imm)
  Store,         // a = addr slot, b = value slot; imm = size in bytes
  Output,        // a = value slot; width = value width
  Halt,          // a = exit code slot; width = code width
  AssertEq,      // a, b
  Trap,          // imm = trap class
  BrFalse,       // a = cond slot; jump to t when false, fall through when true
  Jmp,           // unconditional jump to t
  Nop,           // placeholder keeping a statement marker alive
};

struct Op {
  OpCode code = OpCode::Nop;
  uint8_t width = 0;       // see OpCode comments
  uint16_t a = 0, b = 0;   // operand slots
  uint16_t dst = 0;        // result slot (producers)
  uint32_t t = 0;          // BrFalse/Jmp target (op index; ops.size() = end)
  uint64_t imm = 0;        // opcode-specific immediate payload
  /// Generic form only: decode-concrete regfile index expression
  /// (RegFileRead / AssignRegFile); resolved away by specialization.
  const adl::rtl::Expr* idx = nullptr;
  /// Tick marker: non-null on the first op of each RTL statement. The VM
  /// counts a tick (and a profile hit) when it reaches a marked op —
  /// before evaluating anything of that statement, exactly like the
  /// walker's statement loop.
  const adl::rtl::Stmt* stmt = nullptr;
};

/// A lowered instruction body. Slots [0, numLetSlots) are the let slots;
/// temps follow. Generic and specialized programs share this shape.
struct Program {
  std::vector<Op> ops;
  uint16_t numSlots = 0;
  uint16_t numLetSlots = 0;
  /// Static concrete-ineligibility: the program mints symbolic inputs.
  bool hasInput = false;
};

/// Lower one instruction's semantics to generic bytecode (load time).
Program compile(const adl::InsnInfo& insn, const adl::ArchModel& model);

/// Specialize a generic program for one decoded occurrence: bind fields /
/// pc / regfile indices, fold constants, drop dead ops, remap branches.
Program specialize(const Program& generic, const decode::DecodedInsn& d,
                   uint64_t insnAddr, const adl::ArchModel& model);

}  // namespace rtlc

/// The ADL engine executing compiled bytecode. Selected by
/// `--engine=bytecode` (the default); the tree-walker (core/evaluator.h)
/// stays available as the reference engine behind `--engine=interp`.
/// Decoding, the next-pc rule and the hookups are the shared harness's
/// (core/adlexec.h).
class BytecodeExecutor final : public AdlExecutorBase {
 public:
  BytecodeExecutor(const adl::ArchModel& model, EngineServices& services);

  std::string name() const override { return "rtlc:" + model_.name; }
  using AdlExecutorBase::stepMany;
  void stepMany(MachineState&& in, StepOut& out, uint64_t fuel) override;

  /// Superblock-cache introspection (tests/bench; not part of the stats
  /// byte-identity surface — fusing never runs under observers/telemetry).
  struct FusionStats {
    uint64_t superblocks = 0;  // fused runs entered (>= 1 insn retired)
    uint64_t fusedSteps = 0;   // instructions retired inside fused runs
    uint64_t bails = 0;        // fused runs ended by a symbolic/checker bail
  };
  const FusionStats& fusionStats() const { return fstats_; }

 private:
  struct SymFrame : InsnFrame {
    const rtlc::Program* prog = nullptr;
    std::vector<smt::TermRef> slots;  // lets first, then temps
  };

  /// The superblock runner's per-call scratch, owned by the executor so a
  /// warm fused run allocates nothing.
  struct FuseScratch {
    struct COut {
      uint64_t v;
      uint8_t w;
      uint64_t pc;
    };
    struct RegUndo {
      bool file;
      uint16_t idx;
      uint64_t old;
    };
    // Concrete register images.
    std::vector<uint64_t> regs, regfile;
    // Committed effects of retired instructions: the writes in write
    // order, their coalesced view, and the outputs.
    std::vector<std::pair<uint64_t, uint8_t>> writeLog;
    std::unordered_map<uint64_t, uint8_t> memView;
    std::vector<COut> outputs;
    // The current instruction's pending stores and outputs, value slots,
    // let-assigned flags and register undo log.
    std::vector<std::pair<uint64_t, uint8_t>> pend;
    std::vector<COut> pendOut;
    std::vector<uint64_t> slots;
    std::vector<uint8_t> letOk;
    std::vector<RegUndo> regUndo;
  };

  void execInsn(MachineState&& st, InsnFrame f, StepOut& out) override;
  const rtlc::Program& programFor(uint64_t pc, const decode::DecodedInsn* d);
  /// Symbolic dispatch loop from op index `ip` on `st`, in place; forks
  /// copy the state and frame for the else target and recurse on it first,
  /// exactly like the walker's If handling.
  void exec(MachineState&& st, SymFrame& fr, size_t ip, StepOut& out);
  /// Concrete superblock run; only called when every register is concrete.
  void runSuperblock(MachineState&& in, StepOut& out, uint64_t fuel);

  std::vector<rtlc::Program> generic_;        // per InsnInfo, model order
  std::unordered_map<uint64_t, rtlc::Program> spec_;  // per pc
  FusionStats fstats_;
  std::vector<smt::TermRef> slots_;  // execInsn's frame slots, reused
  FuseScratch fuse_;
};

}  // namespace adlsym::core
