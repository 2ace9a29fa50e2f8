// The harness of the two ADL-driven executors: the tree-walking evaluator
// (core/evaluator.h), which is the executable specification, and the rtlc
// bytecode VM (core/rtlc.h), which is checked against it step by step
// (rtlc_diff_test, insn_fuzz_test). Everything around instruction
// semantics is written once here: telemetry and RTL-profile hookup, the
// reset state, decoding with the undecodable-pc successor, the next-pc
// rule and the decode-time constant evaluator. Each executor supplies only
// execInsn(), its way of running one decoded instruction's RTL. The
// concrete replayer (core/concrete.h) keeps its own decode and next-pc
// code as an independent check of these rules.
#pragma once

#include <cstdint>
#include <vector>

#include "adl/model.h"
#include "core/checkers.h"
#include "core/executor.h"
#include "core/rtlprofile.h"
#include "decode/decoder.h"
#include "support/bits.h"

namespace adlsym::core {

/// Evaluate a decode-concrete RTL expression (sema-verified) to a value.
/// LogicalNot is the boolean 0/1 flavor, distinct from the bitwise Not
/// used by term folding.
uint64_t evalConcrete(const adl::rtl::Expr& e, const decode::DecodedInsn& d);

class AdlExecutorBase : public Executor {
 public:
  AdlExecutorBase(const AdlExecutorBase&) = delete;
  AdlExecutorBase& operator=(const AdlExecutorBase&) = delete;
  ~AdlExecutorBase() override { flushRtlProfile(); }

  MachineState initialState() override;
  using Executor::stepMany;
  /// One plain step (stepOne) whatever the fuel; the bytecode engine
  /// overrides it to fuse.
  void stepMany(MachineState&& in, StepOut& out, uint64_t fuel) override;

  /// Enable per-RTL-statement counting into `p` (profiler runs only).
  /// Counts accumulate executor-locally and reach `p` on flush — which the
  /// destructor guarantees, so parallel workers flush before
  /// ParallelExplorer::run() returns.
  void setRtlProfile(RtlProfile* p) override;
  void flushRtlProfile() override;

  const adl::ArchModel& model() const { return model_; }
  decode::Decoder& decoder() { return decoder_; }

 protected:
  AdlExecutorBase(const adl::ArchModel& model, EngineServices& services);

  /// Per-instruction evaluation context; each executor's frame extends it.
  struct InsnFrame {
    const decode::DecodedInsn* d = nullptr;
    uint64_t insnAddr = 0;
    smt::TermRef newPc;  // set by `pc = ...`; invalid => fall-through
    CheckSite site;
  };

  /// Decode the instruction at st.pc and run it (execInsn) on `st` in
  /// place; a pc that does not decode ends the path as Illegal.
  void stepOne(MachineState&& st, StepOut& out);

  /// Run the semantics of the instruction decoded in `f` on `st`, in place,
  /// and append its successors to `out`.
  virtual void execInsn(MachineState&& st, InsnFrame f, StepOut& out) = 0;

  /// Count one evaluated RTL statement: a tick, and a profile hit when
  /// profiling.
  void tick(const adl::rtl::Stmt* s, StepOut& out) {
    ++out.rtlTicks;
    if (rtlProf_ != nullptr) ++rtlLocal_[rtlProf_->indexOf(s)];
  }

  /// The pc after the instruction `d` at `insnAddr` when it assigns none.
  uint64_t fallThrough(uint64_t insnAddr, const decode::DecodedInsn& d) const {
    return truncTo(insnAddr + d.lengthBytes, model_.regs[model_.pcIndex].width);
  }

  /// Finish an instruction: resolve the next pc (fall through, take a
  /// constant target, or enumerate a symbolic one) and emit `st` as the
  /// successor(s).
  void finishInsn(MachineState&& st, const InsnFrame& f, StepOut& out);

  const adl::ArchModel& model_;
  EngineServices& svc_;
  decode::Decoder decoder_;
  // Profiler hookup (null when not profiling): shared site table +
  // executor-local counts, folded in by flushRtlProfile().
  RtlProfile* rtlProf_ = nullptr;

 private:
  std::vector<uint64_t> rtlLocal_;

  // Telemetry handles, resolved once at construction (null when disabled).
  telemetry::Counter* stepsCtr_ = nullptr;
  telemetry::Counter* ticksCtr_ = nullptr;
  telemetry::Histogram* decodeHist_ = nullptr;
  telemetry::Histogram* evalHist_ = nullptr;
};

}  // namespace adlsym::core
