// Differential testing for the rtlc bytecode engine (docs/bytecode.md):
// the load-time compiler + superblock cache (core/rtlc.h) must be
// observationally indistinguishable from the tree-walking reference
// evaluator (core/evaluator.h). Four angles:
//   * whole-corpus exploration: every workload program and a batch of
//     random pgen programs, on every shipped ISA, produce the same path
//     set IN THE SAME ORDER with the same witnesses, steps and coverage;
//   * lockstep stepping: per-step successor states (registers, path
//     condition, outputs, rtl ticks) are term-for-term identical;
//   * superblock-cache invalidation: symbolic reads, input minting and
//     armed fault sites either bail mid-run or gate fusing entirely,
//     with step/tick/coverage accounting identical to per-step runs;
//   * profiler attachment: rtlprofile statement counts are identical
//     across engines (fusing is disabled while profiling, so every tick
//     lands on the same statement id).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/explorer.h"
#include "core/rtlc.h"
#include "core/rtlprofile.h"
#include "core/testgen.h"
#include "driver/cli.h"
#include "driver/session.h"
#include "isa/registry.h"
#include "smt/printer.h"
#include "support/fault.h"
#include "support/rng.h"
#include "workloads/pgen.h"
#include "workloads/programs.h"

namespace adlsym {
namespace {

using core::AdlEngineKind;
using core::BytecodeExecutor;
using core::ExploreSummary;
using driver::Session;
using driver::SessionOptions;

SessionOptions engineOptions(AdlEngineKind kind) {
  SessionOptions opt;
  opt.engineKind = kind;
  opt.explorer.maxPaths = 4000;
  opt.explorer.maxTotalSteps = 200000;
  return opt;
}

/// Order-sensitive fingerprint of a whole exploration: one formatted line
/// per path (status, steps, exit/defect, witness inputs) plus the summary
/// counters. Any engine divergence — path order, fork structure, witness
/// values, coverage — shows up as a string diff.
std::string fingerprint(const ExploreSummary& s) {
  std::ostringstream os;
  for (const core::PathResult& p : s.paths) os << core::formatPath(p) << '\n';
  os << "totalSteps=" << s.totalSteps << " totalForks=" << s.totalForks
     << " dropped=" << s.statesDropped << " stop=" << s.stopReason
     << " unknowns=" << s.solverUnknowns << " covered=";
  for (uint64_t pc : s.coveredSet) os << pc << ',';
  return os.str();
}

void expectEngineAgreement(const workloads::PProgram& prog,
                           const std::string& isa, const std::string& what) {
  auto si = Session::forPortable(prog, isa, engineOptions(AdlEngineKind::Interp));
  auto sb =
      Session::forPortable(prog, isa, engineOptions(AdlEngineKind::Bytecode));
  const auto sumI = si->explore();
  const auto sumB = sb->explore();
  EXPECT_EQ(fingerprint(sumI), fingerprint(sumB)) << what << " on " << isa;
}

// ---------------------------------------------------------------------
// Whole-corpus differential exploration.
// ---------------------------------------------------------------------

struct NamedWorkload {
  const char* name;
  workloads::PProgram prog;
};

std::vector<NamedWorkload> workloadCorpus() {
  std::vector<NamedWorkload> out;
  out.push_back({"sum3", workloads::progSum(3)});
  out.push_back({"max3", workloads::progMax(3)});
  out.push_back({"earlyexit3", workloads::progEarlyExit(3)});
  out.push_back({"bitcount3", workloads::progBitcount(3)});
  out.push_back({"fib64", workloads::progFib(64)});
  out.push_back({"sort3", workloads::progSort(3)});
  out.push_back({"find", workloads::progFind({3, 1, 4, 1, 5, 9})});
  out.push_back({"checksum4", workloads::progChecksum(4)});
  out.push_back({"parse2", workloads::progParse(2)});
  return out;
}

class RtlcDiff : public ::testing::TestWithParam<std::string> {};

TEST_P(RtlcDiff, WorkloadCorpusIdenticalAcrossEngines) {
  const std::string isa = GetParam();
  for (const NamedWorkload& w : workloadCorpus()) {
    expectEngineAgreement(w.prog, isa, w.name);
  }
}

/// Same random-program recipe as fuzz_test.cpp: forward-branching (always
/// terminating), with inputs, array traffic (sometimes unmasked — OOB
/// defect paths are valid outcomes to diff) and unguarded division.
workloads::PProgram randomProgram(Rng& rng) {
  workloads::PProgram p;
  std::vector<uint8_t> arr(8);
  for (auto& b : arr) b = static_cast<uint8_t>(rng.below(256));
  p.array("a", arr);
  const unsigned numSegs = 3 + static_cast<unsigned>(rng.below(4));
  unsigned inputsLeft = 4;
  auto reg = [&] { return static_cast<int>(rng.below(5)); };
  for (unsigned seg = 0; seg < numSegs; ++seg) {
    p.label("seg" + std::to_string(seg));
    const unsigned ops = 2 + static_cast<unsigned>(rng.below(5));
    for (unsigned i = 0; i < ops; ++i) {
      switch (rng.below(14)) {
        case 0: p.li(reg(), static_cast<uint8_t>(rng.below(256))); break;
        case 1: p.mov(reg(), reg()); break;
        case 2: p.add(reg(), reg(), reg()); break;
        case 3: p.sub(reg(), reg(), reg()); break;
        case 4: p.andr(reg(), reg(), reg()); break;
        case 5: p.orr(reg(), reg(), reg()); break;
        case 6: p.xorr(reg(), reg(), reg()); break;
        case 7: p.mul(reg(), reg(), reg()); break;
        case 8:
          p.shli(reg(), reg(), static_cast<unsigned>(rng.below(8)));
          break;
        case 9:
          p.shri(reg(), reg(), static_cast<unsigned>(rng.below(8)));
          break;
        case 10:
          if (inputsLeft > 0) {
            --inputsLeft;
            p.in(reg());
          } else {
            p.out(reg());
          }
          break;
        case 11: p.out(reg()); break;
        case 12: {
          const int idx = reg();
          if (rng.below(2) == 0) {
            p.li(4, 7);
            p.andr(idx, idx, 4);
          }
          if (rng.below(2) == 0) {
            p.loadArr(reg(), "a", idx);
          } else {
            p.storeArr("a", idx, reg());
          }
          break;
        }
        case 13: p.divu(reg(), reg(), reg()); break;
      }
    }
    if (seg + 1 < numSegs) {
      const unsigned target =
          seg + 1 + static_cast<unsigned>(rng.below(numSegs - seg - 1));
      const std::string label = "seg" + std::to_string(target);
      switch (rng.below(4)) {
        case 0: p.beq(reg(), reg(), label); break;
        case 1: p.bne(reg(), reg(), label); break;
        case 2: p.bltu(reg(), reg(), label); break;
        case 3: p.bgeu(reg(), reg(), label); break;
      }
    }
  }
  p.out(0);
  p.halt(static_cast<uint8_t>(rng.below(256)));
  return p;
}

TEST_P(RtlcDiff, RandomProgramsIdenticalAcrossEngines) {
  const std::string isa = GetParam();
  for (int seed = 0; seed < 8; ++seed) {
    Rng rng(0xf00d0000ull + static_cast<uint64_t>(seed));
    const workloads::PProgram prog = randomProgram(rng);
    expectEngineAgreement(prog, isa, "pgen seed " + std::to_string(seed));
  }
}

// ---------------------------------------------------------------------
// Lockstep stepping: term-for-term state equivalence per step.
// ---------------------------------------------------------------------

std::string stateKey(const core::MachineState& s) {
  std::string o = "pc=" + std::to_string(s.pc) +
                  " steps=" + std::to_string(s.steps) +
                  " st=" + std::to_string(static_cast<int>(s.status));
  o += " regs:";
  for (const auto& r : s.regs) o += " " + smt::toString(r);
  o += " rf:";
  for (const auto& r : s.regfile) o += " " + smt::toString(r);
  o += " pcond:";
  for (const auto& c : s.pathCond) o += " " + smt::toString(c);
  o += " outs:";
  for (const auto& r : s.outputs) o += " " + smt::toString(r.term);
  return o;
}

TEST_P(RtlcDiff, LockstepSuccessorsAndTicksIdentical) {
  const std::string isa = GetParam();
  for (const char* wname : {"parse2", "checksum3"}) {
    const workloads::PProgram prog = std::string(wname) == "parse2"
                                         ? workloads::progParse(2)
                                         : workloads::progChecksum(3);
    auto si =
        Session::forPortable(prog, isa, engineOptions(AdlEngineKind::Interp));
    auto sb =
        Session::forPortable(prog, isa, engineOptions(AdlEngineKind::Bytecode));
    core::Executor& ei = si->executor();
    core::Executor& eb = sb->executor();

    std::vector<core::MachineState> fi, fb;
    fi.push_back(ei.initialState());
    fb.push_back(eb.initialState());
    int steps = 0;
    while (!fi.empty() && steps < 3000) {
      ASSERT_EQ(fi.empty(), fb.empty());
      core::MachineState ci = std::move(fi.back());
      fi.pop_back();
      core::MachineState cb = std::move(fb.back());
      fb.pop_back();
      ASSERT_EQ(stateKey(ci), stateKey(cb)) << wname << " on " << isa;
      core::StepOut oi, ob;
      ei.step(ci, oi);
      eb.step(cb, ob);
      EXPECT_EQ(oi.rtlTicks, ob.rtlTicks) << wname << " on " << isa;
      ASSERT_EQ(oi.successors.size(), ob.successors.size())
          << wname << " on " << isa << " after " << stateKey(ci);
      for (size_t k = 0; k < oi.successors.size(); ++k) {
        ASSERT_EQ(stateKey(oi.successors[k]), stateKey(ob.successors[k]))
            << wname << " on " << isa << " successor " << k;
        if (oi.successors[k].status == core::PathStatus::Running) {
          fi.push_back(std::move(oi.successors[k]));
          fb.push_back(std::move(ob.successors[k]));
        }
      }
      ++steps;
    }
    EXPECT_TRUE(fi.empty()) << "lockstep walk did not terminate";
  }
}

INSTANTIATE_TEST_SUITE_P(AllIsas, RtlcDiff,
                         ::testing::ValuesIn(isa::allIsaNames()),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------
// Superblock cache: fusing and its invalidation points.
// ---------------------------------------------------------------------

BytecodeExecutor& bytecodeOf(Session& s) {
  auto* be = dynamic_cast<BytecodeExecutor*>(&s.executor());
  EXPECT_NE(be, nullptr);
  return *be;
}

TEST(SuperblockCache, FusesStraightLineConcreteRuns) {
  // fib(64) is one long concrete loop: under the sequential explorer with
  // no observers attached nearly every instruction should retire inside a
  // fused run, and the result must match the reference engine exactly.
  const workloads::PProgram prog = workloads::progFib(64);
  auto sb = Session::forPortable(prog, "rv32e",
                                 engineOptions(AdlEngineKind::Bytecode));
  auto si = Session::forPortable(prog, "rv32e",
                                 engineOptions(AdlEngineKind::Interp));
  const auto sumB = sb->explore();
  const auto sumI = si->explore();
  EXPECT_EQ(fingerprint(sumI), fingerprint(sumB));

  const auto& fs = bytecodeOf(*sb).fusionStats();
  EXPECT_GE(fs.superblocks, 1u);
  // The concrete loop dominates: most retired instructions were fused.
  EXPECT_GT(fs.fusedSteps, sumB.totalSteps / 2);
}

TEST(SuperblockCache, InputMintBailsMidRun) {
  // A concrete prelude fuses; the `in` instruction mints a symbolic input
  // and must bail out of the fused run (Program::hasInput), re-executing
  // through the symbolic VM with identical observable results.
  workloads::PProgram p;
  p.li(0, 1);
  p.li(1, 2);
  for (int i = 0; i < 12; ++i) p.add(0, 0, 1);
  p.in(2);
  p.beq(2, 0, "done");
  p.out(0);
  p.label("done");
  p.out(2);
  p.halt(7);
  auto sb =
      Session::forPortable(p, "rv32e", engineOptions(AdlEngineKind::Bytecode));
  auto si =
      Session::forPortable(p, "rv32e", engineOptions(AdlEngineKind::Interp));
  EXPECT_EQ(fingerprint(si->explore()), fingerprint(sb->explore()));
  const auto& fs = bytecodeOf(*sb).fusionStats();
  EXPECT_GE(fs.superblocks, 1u);
  EXPECT_GE(fs.bails, 1u);
}

TEST(SuperblockCache, SymbolicStoreInvalidatesCachedRun) {
  // A symbolic byte is planted in memory while registers are later all
  // re-concretized: the superblock runs the concrete stretch, then the
  // load of the symbolic byte bails (memory invalidation — the cached
  // straight-line run cannot see a symbolic operand).
  const std::string src = R"(
.section text 0x0
.entry _start
_start:
  in8 x5
  addi x3, x0, 1536
  sb x5, 0(x3)
  addi x5, x0, 0
  add x6, x6, x6
  add x7, x7, x7
  add x6, x6, x7
  add x7, x6, x6
  lb x8, 0(x3)
  out x8
  halti 0
.section data 0x600 rw
 .byte 0
)";
  SessionOptions ob = engineOptions(AdlEngineKind::Bytecode);
  SessionOptions oi = engineOptions(AdlEngineKind::Interp);
  Session sb("rv32e", src, ob);
  Session si("rv32e", src, oi);
  EXPECT_EQ(fingerprint(si.explore()), fingerprint(sb.explore()));
  const auto& fs = bytecodeOf(sb).fusionStats();
  EXPECT_GE(fs.superblocks, 1u) << "concrete stretch did not fuse";
  EXPECT_GE(fs.bails, 1u) << "symbolic memory read did not bail";
}

TEST(SuperblockCache, ArmedFaultSiteGatesFusingOff) {
  // Fault injection must see every per-instruction boundary (a
  // solver.check fault inside a fused region would otherwise fire at the
  // wrong site), so the explorer gates fusing off whenever any site is
  // armed — even one that never fires — and accounting stays identical.
  const workloads::PProgram prog = workloads::progFib(32);
  uint64_t unfusedSteps = 0;
  {
    fault::ScopedArm arm("solver.check:1000000");  // armed, never fires
    auto sb = Session::forPortable(prog, "rv32e",
                                   engineOptions(AdlEngineKind::Bytecode));
    const auto sum = sb->explore();
    unfusedSteps = sum.totalSteps;
    EXPECT_EQ(bytecodeOf(*sb).fusionStats().superblocks, 0u);
  }
  auto sb = Session::forPortable(prog, "rv32e",
                                 engineOptions(AdlEngineKind::Bytecode));
  auto si = Session::forPortable(prog, "rv32e",
                                 engineOptions(AdlEngineKind::Interp));
  const auto sumB = sb->explore();
  const auto sumI = si->explore();
  EXPECT_GT(bytecodeOf(*sb).fusionStats().superblocks, 0u);
  // Step accounting identical whether fused, gated-unfused or interp.
  EXPECT_EQ(sumB.totalSteps, unfusedSteps);
  EXPECT_EQ(sumI.totalSteps, unfusedSteps);
}

std::string slurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(SuperblockCache, CheckpointBarrierMidSuperblock) {
  // Level-barrier checkpoints snapshot every live state at a step
  // multiple. fib's single concrete run would fuse straight through the
  // barrier if the parallel explorer didn't cap stepMany fuel at the
  // level limit — so the periodic checkpoint file must be byte-identical
  // between engines (and the rest of the artifacts with it).
  const auto img = driver::cli::cmdAsm(
      "rv32e", workloads::emitAssembly(workloads::progFib(48), "rv32e"));
  ASSERT_EQ(img.exitCode, 0) << img.output;
  const std::string imgPath = testing::TempDir() + "rtlc_ckpt.img";
  std::ofstream(imgPath, std::ios::binary) << img.output;

  std::string ckpt[2], forest[2], out[2];
  int k = 0;
  for (const char* eng : {"interp", "bytecode"}) {
    const std::string base = testing::TempDir() + "rtlc_ckpt_" + eng;
    const auto r = driver::cli::dispatch(
        {"explore", "rv32e", imgPath, "--jobs", "2", "--clock=manual",
         std::string("--engine=") + eng, "--checkpoint-every=2",
         "--checkpoint=" + base + ".ckpt", "--path-forest=" + base + ".json"});
    ASSERT_EQ(r.exitCode, 0) << r.output;
    ckpt[k] = slurpFile(base + ".ckpt");
    forest[k] = slurpFile(base + ".json");
    out[k] = r.output;
    ++k;
  }
  ASSERT_FALSE(ckpt[0].empty());
  EXPECT_EQ(ckpt[0], ckpt[1]);
  EXPECT_EQ(forest[0], forest[1]);
  EXPECT_EQ(out[0], out[1]);
}

// ---------------------------------------------------------------------
// Profiler attachment: statement counts identical across engines.
// ---------------------------------------------------------------------

TEST(RtlcProfile, StatementCountsIdenticalAcrossEngines) {
  // With an RtlProfile attached the bytecode engine never fuses and every
  // tick is attributed to a statement id; the per-site counts — and so
  // the emitted adlsym-profile-v5 rows — must match the walker's exactly.
  for (const std::string& isa : isa::allIsaNames()) {
    const workloads::PProgram prog = workloads::progParse(2);
    auto si =
        Session::forPortable(prog, isa, engineOptions(AdlEngineKind::Interp));
    auto sb =
        Session::forPortable(prog, isa, engineOptions(AdlEngineKind::Bytecode));
    core::RtlProfile profI(si->model());
    core::RtlProfile profB(sb->model());
    si->executor().setRtlProfile(&profI);
    sb->executor().setRtlProfile(&profB);
    const auto sumI = si->explore();
    const auto sumB = sb->explore();
    // Detaching flushes each executor's counts into its profile and stops
    // the executor's destructor from flushing into a profile that, being
    // declared after the session, is destroyed first.
    si->executor().setRtlProfile(nullptr);
    sb->executor().setRtlProfile(nullptr);
    EXPECT_EQ(fingerprint(sumI), fingerprint(sumB)) << isa;
    ASSERT_EQ(profI.size(), profB.size()) << isa;
    EXPECT_EQ(profI.counts(), profB.counts()) << isa;
    EXPECT_EQ(profI.total(), profB.total()) << isa;
    EXPECT_GT(profB.total(), 0u) << isa;
    // Profiling gates fusing (ticks must land per-statement, per-step).
    EXPECT_EQ(bytecodeOf(*sb).fusionStats().superblocks, 0u) << isa;
  }
}

}  // namespace
}  // namespace adlsym
