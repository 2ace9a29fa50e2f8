#include "baseline/rv32_engine.h"

#include "core/checkers.h"
#include "support/bits.h"

namespace adlsym::baseline {

using core::CheckSite;
using core::DefectKind;
using core::MachineState;
using core::StepOut;
using smt::TermRef;

namespace {
// Field accessors for this repo's rv32e encodings (see share/isa/rv32e.adl;
// note these are NOT standard RISC-V layouts). R/I/U/J types follow the
// familiar positions, but S/B types have no rd slot, so their funct3/rs1/
// rs2 sit 5 bits lower: [imm12:12][rs2:5][rs1:5][funct3:3][opcode:7].
unsigned fOpcode(uint32_t w) { return w & 0x7f; }
unsigned fRd(uint32_t w) { return (w >> 7) & 0x1f; }
unsigned fFunct3(uint32_t w) { return (w >> 12) & 0x7; }      // R/I-type
unsigned fRs1(uint32_t w) { return (w >> 15) & 0x1f; }        // R/I-type
unsigned fRs2(uint32_t w) { return (w >> 20) & 0x1f; }        // R-type
unsigned fFunct7(uint32_t w) { return w >> 25; }
unsigned fFunct3SB(uint32_t w) { return (w >> 7) & 0x7; }     // S/B-type
unsigned fRs1SB(uint32_t w) { return (w >> 10) & 0x1f; }      // S/B-type
unsigned fRs2SB(uint32_t w) { return (w >> 15) & 0x1f; }      // S/B-type
uint64_t fImm12(uint32_t w) { return w >> 20; }               // I/S/B-type
uint64_t fImm20(uint32_t w) { return w >> 12; }               // U/J-type
int64_t sImm12(uint32_t w) { return asSigned(fImm12(w), 12); }
int64_t sImm20(uint32_t w) { return asSigned(fImm20(w), 20); }
}  // namespace

MachineState Rv32Engine::initialState() {
  MachineState st;
  st.memory = core::SymMemory(&svc_.image);
  st.pc = svc_.image.entry();
  st.regfile.assign(16, svc_.tm.mkConst(32, 0));
  return st;
}

void Rv32Engine::finish(MachineState&& st, uint64_t nextPc, StepOut& out) {
  ++st.steps;
  st.pc = truncTo(nextPc, 32);
  out.successors.push_back(std::move(st));
}

void Rv32Engine::finishSymbolic(MachineState&& st, TermRef nextPc,
                                StepOut& out) {
  if (nextPc.isConst()) {
    finish(std::move(st), nextPc.constValue(), out);
    return;
  }
  ++st.steps;
  svc_.forkJumpTargets(std::move(st), nextPc, out);
}

void Rv32Engine::branch(MachineState&& st, TermRef cond, uint64_t target,
                        uint64_t fallThrough, StepOut& out) {
  if (cond.isConst()) {
    finish(std::move(st), cond.constValue() ? target : fallThrough, out);
    return;
  }
  auto [taken, fall] = svc_.branch(st, cond);
  if (taken.feasible && fall.feasible) {
    MachineState succ = st;
    core::EngineServices::enter(succ, std::move(taken));
    ++succ.forks;
    finish(std::move(succ), target, out);
    core::EngineServices::enter(st, std::move(fall));
    ++st.forks;
    finish(std::move(st), fallThrough, out);
    return;
  }
  if (taken.feasible) {
    core::EngineServices::enter(st, std::move(taken));
    finish(std::move(st), target, out);
  } else if (fall.feasible) {
    core::EngineServices::enter(st, std::move(fall));
    finish(std::move(st), fallThrough, out);
  }
}

void Rv32Engine::stepMany(MachineState&& st, StepOut& out, uint64_t fuel) {
  (void)fuel;
  smt::TermManager& tm = svc_.tm;
  const loader::Image& image = svc_.image;
  const uint64_t pc = st.pc;

  // Fetch (little endian).
  uint32_t word = 0;
  bool mapped = true;
  for (unsigned i = 0; i < 4; ++i) {
    const auto b = image.byteAt(pc + i);
    if (!b) {
      mapped = false;
      break;
    }
    word |= static_cast<uint32_t>(*b) << (8 * i);
  }

  // Ends the path on the state as it entered: every caller precedes any
  // update of `st`.
  auto illegal = [&](const char* why) {
    st.status = core::PathStatus::Illegal;
    core::Defect def;
    def.kind = DefectKind::IllegalInsn;
    def.pc = pc;
    def.message = why;
    st.defect = std::move(def);
    out.successors.push_back(std::move(st));
  };
  if (!mapped) {
    illegal("unmapped instruction fetch");
    return;
  }

  const uint64_t next = pc + 4;
  const unsigned rd = fRd(word);
  const unsigned rs1 = fRs1(word);
  const unsigned rs2 = fRs2(word);
  CheckSite site{pc, "rv32"};

  // x0 is hardwired to zero.
  auto R = [&](unsigned idx) -> TermRef {
    if (idx >= 16) return TermRef();
    return idx == 0 ? tm.mkConst(32, 0) : st.regfile[idx];
  };
  auto W = [&](unsigned idx, TermRef v) {
    if (idx != 0 && idx < 16) st.regfile[idx] = v;
  };
  auto regsOk = [&](std::initializer_list<unsigned> idxs) {
    for (const unsigned i : idxs) {
      if (i >= 16) return false;
    }
    return true;
  };
  auto imm12s = [&]() { return tm.mkConst(32, static_cast<uint64_t>(sImm12(word))); };

  switch (fOpcode(word)) {
    case 0b0110011: {  // register ALU
      if (!regsOk({rd, rs1, rs2})) return illegal("register index >= 16");
      const TermRef a = R(rs1);
      const TermRef b = R(rs2);
      const unsigned f3 = fFunct3(word);
      const unsigned f7 = fFunct7(word);
      const TermRef sh = tm.mkAnd(b, tm.mkConst(32, 31));
      TermRef v;
      if (f7 == 0) {
        switch (f3) {
          case 0: v = tm.mkAdd(a, b); break;
          case 1: v = tm.mkShl(a, sh); break;
          case 2: v = tm.mkZExt(tm.mkSlt(a, b), 32); break;
          case 3: v = tm.mkZExt(tm.mkUlt(a, b), 32); break;
          case 4: v = tm.mkXor(a, b); break;
          case 5: v = tm.mkLShr(a, sh); break;
          case 6: v = tm.mkOr(a, b); break;
          case 7: v = tm.mkAnd(a, b); break;
        }
      } else if (f7 == 0b0100000) {
        if (f3 == 0) v = tm.mkSub(a, b);
        else if (f3 == 5) v = tm.mkAShr(a, sh);
      } else if (f7 == 1) {  // M extension
        switch (f3) {
          case 0: v = tm.mkMul(a, b); break;
          case 4: case 5: case 6: case 7: {
            if (!core::guardDivisor(svc_, st, out, b, site)) return;
            v = f3 == 4   ? tm.mkSDiv(a, b)
                : f3 == 5 ? tm.mkUDiv(a, b)
                : f3 == 6 ? tm.mkSRem(a, b)
                          : tm.mkURem(a, b);
            break;
          }
        }
      } else if (f7 == 2 && f3 == 0) {  // addv: checked signed add
        const TermRef s = tm.mkAdd(a, b);
        const TermRef zero = tm.mkConst(32, 0);
        const TermRef ovf = tm.mkOr(
            tm.mkAnd(tm.mkAnd(tm.mkSge(a, zero), tm.mkSge(b, zero)),
                     tm.mkSlt(s, zero)),
            tm.mkAnd(tm.mkAnd(tm.mkSlt(a, zero), tm.mkSlt(b, zero)),
                     tm.mkSge(s, zero)));
        if (ovf.isTrue()) {
          core::emitDefect(std::move(st), out, DefectKind::Trap, site,
                           "trap(1) reached", {}, 1);
          return;
        }
        if (!ovf.isFalse()) {
          core::Side trap = svc_.side(st, ovf);
          if (trap.feasible) {
            core::emitDefect(st, out, DefectKind::Trap, site,
                             "trap(1) reached", std::move(trap), 1);
          }
          core::Side noOvf = svc_.side(st, tm.mkNot(ovf));
          if (!noOvf.feasible) return;
          core::EngineServices::enter(st, std::move(noOvf));
        }
        v = s;
      }
      if (!v.valid()) return illegal("unknown ALU function");
      W(rd, v);
      finish(std::move(st), next, out);
      return;
    }

    case 0b0010011: {  // immediate ALU
      if (!regsOk({rd, rs1})) return illegal("register index >= 16");
      const TermRef a = R(rs1);
      const TermRef imm = imm12s();
      TermRef v;
      switch (fFunct3(word)) {
        case 0: v = tm.mkAdd(a, imm); break;
        case 1: v = tm.mkShl(a, tm.mkConst(32, fImm12(word) & 31)); break;
        case 2: v = tm.mkZExt(tm.mkSlt(a, imm), 32); break;
        case 3: v = tm.mkZExt(tm.mkUlt(a, imm), 32); break;
        case 4: v = tm.mkXor(a, imm); break;
        case 5: v = tm.mkLShr(a, tm.mkConst(32, fImm12(word) & 31)); break;
        case 6: v = tm.mkOr(a, imm); break;
        case 7: v = tm.mkAnd(a, imm); break;
      }
      W(rd, v);
      finish(std::move(st), next, out);
      return;
    }

    case 0b0000011: {  // loads
      if (!regsOk({rd, rs1})) return illegal("register index >= 16");
      const TermRef addr = tm.mkAdd(R(rs1), imm12s());
      unsigned size = 0;
      bool sign = false;
      switch (fFunct3(word)) {
        case 0: size = 1; sign = true; break;
        case 1: size = 2; sign = true; break;
        case 2: size = 4; break;
        case 4: size = 1; break;
        case 5: size = 2; break;
        default: return illegal("unknown load width");
      }
      const TermRef raw =
          core::checkedLoad(svc_, st, out, addr, size, /*bigEndian=*/false, site);
      if (!raw.valid()) return;
      W(rd, sign ? tm.mkSExt(raw, 32) : tm.mkZExt(raw, 32));
      finish(std::move(st), next, out);
      return;
    }

    case 0b0100011: {  // stores (S-type field positions)
      const unsigned srs1 = fRs1SB(word);
      const unsigned srs2 = fRs2SB(word);
      if (!regsOk({srs1, srs2})) return illegal("register index >= 16");
      const TermRef addr = tm.mkAdd(R(srs1), imm12s());
      unsigned size = 0;
      switch (fFunct3SB(word)) {
        case 0: size = 1; break;
        case 1: size = 2; break;
        case 2: size = 4; break;
        default: return illegal("unknown store width");
      }
      const TermRef v =
          size == 4 ? R(srs2) : tm.mkExtract(R(srs2), size * 8 - 1, 0);
      if (!core::checkedStore(svc_, st, out, addr, v, size, false, site)) return;
      finish(std::move(st), next, out);
      return;
    }

    case 0b1100011: {  // branches (B-type field positions)
      const unsigned brs1 = fRs1SB(word);
      const unsigned brs2 = fRs2SB(word);
      if (!regsOk({brs1, brs2})) return illegal("register index >= 16");
      const TermRef a = R(brs1);
      const TermRef b = R(brs2);
      TermRef cond;
      switch (fFunct3SB(word)) {
        case 0: cond = tm.mkEq(a, b); break;
        case 1: cond = tm.mkNe(a, b); break;
        case 4: cond = tm.mkSlt(a, b); break;
        case 5: cond = tm.mkSge(a, b); break;
        case 6: cond = tm.mkUlt(a, b); break;
        case 7: cond = tm.mkUge(a, b); break;
        default: return illegal("unknown branch condition");
      }
      // B-type reuses the S-type layout: imm12 is in the top 12 bits.
      const uint64_t target = truncTo(pc + static_cast<uint64_t>(sImm12(word)), 32);
      branch(std::move(st), cond, target, next, out);
      return;
    }

    case 0b0110111: {  // lui
      if (!regsOk({rd})) return illegal("register index >= 16");
      W(rd, tm.mkConst(32, truncTo(fImm20(word) << 12, 32)));
      finish(std::move(st), next, out);
      return;
    }

    case 0b1101111: {  // jal
      if (!regsOk({rd})) return illegal("register index >= 16");
      W(rd, tm.mkConst(32, truncTo(next, 32)));
      finish(std::move(st), truncTo(pc + static_cast<uint64_t>(sImm20(word)), 32), out);
      return;
    }

    case 0b1100111: {  // jalr
      if (!regsOk({rd, rs1})) return illegal("register index >= 16");
      const TermRef t = tm.mkAdd(R(rs1), imm12s());
      W(rd, tm.mkConst(32, truncTo(next, 32)));
      finishSymbolic(std::move(st), t, out);
      return;
    }

    case 0b1110111: {  // environment
      switch (fFunct3(word)) {
        case 0: case 1: {  // in8 / in32
          if (!regsOk({rd})) return illegal("register index >= 16");
          const unsigned w = fFunct3(word) == 0 ? 8 : 32;
          W(rd, tm.mkZExt(svc_.newInput(st, w), 32));
          finish(std::move(st), next, out);
          return;
        }
        case 2: {  // out
          if (!regsOk({rs1})) return illegal("register index >= 16");
          st.outputs.push_back(core::OutputRecord{R(rs1), pc});
          finish(std::move(st), next, out);
          return;
        }
        case 3: {  // halt
          if (!regsOk({rs1})) return illegal("register index >= 16");
          st.status = core::PathStatus::Exited;
          st.exitCode = R(rs1);
          ++st.steps;
          out.successors.push_back(std::move(st));
          return;
        }
        case 4: {  // halti
          st.status = core::PathStatus::Exited;
          st.exitCode = tm.mkConst(32, fImm12(word));
          ++st.steps;
          out.successors.push_back(std::move(st));
          return;
        }
        default:
          return illegal("unknown environment call");
      }
    }

    case 0b1111011: {  // asrt
      if (!regsOk({rs1, rs2})) return illegal("register index >= 16");
      if (!core::guardAssertEq(svc_, st, out, R(rs1), R(rs2), site)) return;
      finish(std::move(st), next, out);
      return;
    }

    default:
      return illegal("unknown opcode");
  }
}

}  // namespace adlsym::baseline
