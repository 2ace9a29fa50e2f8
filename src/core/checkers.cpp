#include "core/checkers.h"

#include "support/bits.h"
#include "support/strings.h"

namespace adlsym::core {

const char* defectKindName(DefectKind k) {
  switch (k) {
    case DefectKind::DivByZero: return "division-by-zero";
    case DefectKind::OobRead: return "out-of-bounds-read";
    case DefectKind::OobWrite: return "out-of-bounds-write";
    case DefectKind::AssertFail: return "assertion-failure";
    case DefectKind::Trap: return "trap";
    case DefectKind::IllegalInsn: return "illegal-instruction";
  }
  return "?";
}

void emitDefect(MachineState st, StepOut& out, DefectKind kind,
                const CheckSite& site, std::string message, Side side,
                uint64_t trapClass) {
  EngineServices::enter(st, std::move(side));
  st.status = PathStatus::Defect;
  Defect d;
  d.kind = kind;
  d.pc = site.pc;
  d.mnemonic = site.mnemonic;
  d.message = std::move(message);
  d.trapClass = trapClass;
  st.defect = std::move(d);
  out.successors.push_back(std::move(st));
}

bool guardDivisor(EngineServices& svc, MachineState& st, StepOut& out,
                  smt::TermRef divisor, const CheckSite& site) {
  if (!svc.config.checkDivZero) return true;
  smt::TermManager& tm = svc.tm;
  const smt::TermRef zero = tm.mkConst(divisor.width(), 0);
  const smt::TermRef isZero = tm.mkEq(divisor, zero);
  if (isZero.isFalse()) return true;  // provably nonzero
  if (isZero.isTrue()) {
    emitDefect(std::move(st), out, DefectKind::DivByZero, site,
               "divisor is always zero here");
    return false;
  }
  Side zeroSide = svc.side(st, isZero);
  if (zeroSide.feasible) {
    emitDefect(st, out, DefectKind::DivByZero, site,
               "divisor can be zero", std::move(zeroSide));
  }
  Side nonZero = svc.side(st, tm.mkNot(isZero));
  if (!nonZero.feasible) return false;  // only the zero case exists
  EngineServices::enter(st, std::move(nonZero));
  return true;
}

namespace {

/// In-bounds predicate over the image's sections (writable ones only when
/// `forWrite`). Address width is addr.width().
smt::TermRef inBoundsPredicate(EngineServices& svc, smt::TermRef addr,
                               unsigned size, bool forWrite) {
  smt::TermManager& tm = svc.tm;
  const unsigned w = addr.width();
  smt::TermRef ok = tm.mkFalse();
  for (const loader::Section& s : svc.image.sections()) {
    if (forWrite && !s.writable) continue;
    if (s.bytes.size() < size) continue;
    // base <= addr && addr <= end - size  (whole access inside section)
    const smt::TermRef lo = tm.mkConst(w, s.base);
    const smt::TermRef hi = tm.mkConst(w, s.end() - size);
    ok = tm.mkOr(ok, tm.mkAnd(tm.mkUge(addr, lo), tm.mkUle(addr, hi)));
  }
  return ok;
}

/// True if a concrete `size`-byte access at `addr` stays inside one section
/// with the required permission.
bool concreteInBounds(EngineServices& svc, uint64_t addr, unsigned size,
                      bool forWrite) {
  const loader::Section* s = svc.image.sectionAt(addr);
  if (s == nullptr || (forWrite && !s->writable)) return false;
  return addr + size <= s->end() && addr + size > addr;
}

/// Assemble `size` bytes starting at concrete address into one value.
smt::TermRef assembleBytes(EngineServices& svc, const MachineState& st,
                           uint64_t addr, unsigned size, bool bigEndian) {
  smt::TermManager& tm = svc.tm;
  smt::TermRef value;
  for (unsigned i = 0; i < size; ++i) {
    const uint64_t a = bigEndian ? addr + size - 1 - i : addr + i;
    smt::TermRef byte = st.memory.readByte(tm, a);
    check(byte.valid(), "assembleBytes: unmapped byte after bounds check");
    value = value.valid() ? tm.mkConcat(byte, value) : byte;
  }
  return value;
}

/// Split a value into `size` bytes (index 0 = lowest address).
std::vector<smt::TermRef> splitBytes(EngineServices& svc, smt::TermRef value,
                                     unsigned size, bool bigEndian) {
  smt::TermManager& tm = svc.tm;
  std::vector<smt::TermRef> bytes(size);
  for (unsigned i = 0; i < size; ++i) {
    const unsigned lo = 8 * (bigEndian ? size - 1 - i : i);
    bytes[i] = tm.mkExtract(value, lo + 7, lo);
  }
  return bytes;
}

/// Handle the OOB reachability check for a symbolic address. Returns false
/// if the path dies (no in-bounds case).
bool boundsCheckSymbolic(EngineServices& svc, MachineState& st, StepOut& out,
                         smt::TermRef addr, unsigned size, bool forWrite,
                         const CheckSite& site) {
  const smt::TermRef ok = inBoundsPredicate(svc, addr, size, forWrite);
  const smt::TermRef bad = svc.tm.mkNot(ok);
  if (!svc.config.checkOob) {
    // Even unchecked, the engine must not read unmapped space: constrain.
    Side in = svc.side(st, ok);
    if (!in.feasible) return false;
    EngineServices::enter(st, std::move(in));
    return true;
  }
  const DefectKind kind = forWrite ? DefectKind::OobWrite : DefectKind::OobRead;
  if (ok.isFalse()) {
    emitDefect(std::move(st), out, kind, site,
               "access is always out of bounds");
    return false;
  }
  // Without a feasible OOB side, every model of the path is in bounds: the
  // carried witness satisfies `ok` and the in-bounds side is free.
  Side in(ok);
  if (!bad.isFalse()) {
    Side oob = svc.side(st, bad);
    if (oob.feasible) {
      emitDefect(st, out, kind, site,
                 formatStr("%u-byte %s can go out of bounds", size,
                           forWrite ? "write" : "read"),
                 std::move(oob));
      in = svc.side(st, ok);
      if (!in.feasible) return false;  // only the OOB case exists
    }
  }
  EngineServices::enter(st, std::move(in));
  return true;
}

}  // namespace

smt::TermRef checkedLoad(EngineServices& svc, MachineState& st, StepOut& out,
                         smt::TermRef addr, unsigned size, bool bigEndian,
                         const CheckSite& site) {
  smt::TermManager& tm = svc.tm;
  if (addr.isConst()) {
    const uint64_t a = addr.constValue();
    if (!concreteInBounds(svc, a, size, /*forWrite=*/false)) {
      if (svc.config.checkOob) {
        emitDefect(std::move(st), out, DefectKind::OobRead, site,
                   formatStr("read of %u bytes at unmapped address 0x%llx",
                             size, static_cast<unsigned long long>(a)));
      }
      return smt::TermRef();
    }
    return assembleBytes(svc, st, a, size, bigEndian);
  }

  if (!boundsCheckSymbolic(svc, st, out, addr, size, /*forWrite=*/false, site))
    return smt::TermRef();

  // Build an ite-chain over every feasible section's bytes.
  smt::TermRef value;
  const unsigned w = addr.width();
  for (const loader::Section& s : svc.image.sections()) {
    if (s.bytes.size() < size) continue;
    const smt::TermRef inSec =
        tm.mkAnd(tm.mkUge(addr, tm.mkConst(w, s.base)),
                 tm.mkUle(addr, tm.mkConst(w, s.end() - size)));
    if (inSec.isFalse() || !svc.feasible(st, inSec)) continue;
    for (uint64_t a = s.base; a + size <= s.end(); ++a) {
      const smt::TermRef here = assembleBytes(svc, st, a, size, bigEndian);
      if (!value.valid()) {
        value = here;
      } else {
        value = tm.mkIte(tm.mkEq(addr, tm.mkConst(w, a)), here, value);
      }
    }
  }
  check(value.valid(), "checkedLoad: no feasible section after bounds check");
  return value;
}

bool checkedStore(EngineServices& svc, MachineState& st, StepOut& out,
                  smt::TermRef addr, smt::TermRef value, unsigned size,
                  bool bigEndian, const CheckSite& site) {
  smt::TermManager& tm = svc.tm;
  const std::vector<smt::TermRef> bytes = splitBytes(svc, value, size, bigEndian);

  if (addr.isConst()) {
    const uint64_t a = addr.constValue();
    if (!concreteInBounds(svc, a, size, /*forWrite=*/true)) {
      if (svc.config.checkOob) {
        emitDefect(std::move(st), out, DefectKind::OobWrite, site,
                   formatStr("write of %u bytes at invalid address 0x%llx",
                             size, static_cast<unsigned long long>(a)));
      }
      return false;
    }
    for (unsigned i = 0; i < size; ++i) st.memory.writeByte(a + i, bytes[i]);
    return true;
  }

  if (!boundsCheckSymbolic(svc, st, out, addr, size, /*forWrite=*/true, site))
    return false;

  // Conditional update of every feasible writable byte.
  const unsigned w = addr.width();
  for (const loader::Section& s : svc.image.sections()) {
    if (!s.writable || s.bytes.size() < size) continue;
    const smt::TermRef inSec =
        tm.mkAnd(tm.mkUge(addr, tm.mkConst(w, s.base)),
                 tm.mkUle(addr, tm.mkConst(w, s.end() - size)));
    if (inSec.isFalse() || !svc.feasible(st, inSec)) continue;
    for (uint64_t a = s.base; a + size <= s.end(); ++a) {
      // Each byte at a+i gets: (addr == a) ? bytes[i] : old
      for (unsigned i = 0; i < size; ++i) {
        const smt::TermRef old = st.memory.readByte(tm, a + i);
        check(old.valid(), "checkedStore: unmapped byte in writable section");
        st.memory.writeByte(
            a + i, tm.mkIte(tm.mkEq(addr, tm.mkConst(w, a)), bytes[i], old));
      }
    }
  }
  return true;
}

bool guardAssertEq(EngineServices& svc, MachineState& st, StepOut& out,
                   smt::TermRef a, smt::TermRef b, const CheckSite& site) {
  smt::TermManager& tm = svc.tm;
  const smt::TermRef eq = tm.mkEq(a, b);
  if (eq.isTrue()) return true;
  const smt::TermRef ne = tm.mkNot(eq);
  if (eq.isFalse()) {
    emitDefect(std::move(st), out, DefectKind::AssertFail, site,
               "assertion always fails here");
    return false;
  }
  // As in the bounds check: when the failing side is infeasible, every
  // model of the path, the carried witness included, satisfies `eq`.
  Side holds(eq);
  Side fails = svc.side(st, ne);
  if (fails.feasible) {
    emitDefect(st, out, DefectKind::AssertFail, site,
               "assertion can fail", std::move(fails));
    holds = svc.side(st, eq);
    if (!holds.feasible) return false;
  }
  EngineServices::enter(st, std::move(holds));
  return true;
}

}  // namespace adlsym::core
