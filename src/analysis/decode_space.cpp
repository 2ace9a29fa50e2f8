// Decode-space analysis (ADL001-ADL003): model every instruction encoding
// as a ternary cube (fixed bits = care/value, operand fields = free) and
// check the full opcode space with exact set algebra. Reachability mirrors
// the decoder: longer encodings are tried first, and within one length the
// first declared match wins.
#include <algorithm>

#include "analysis/lint.h"
#include "analysis/ternary.h"
#include "support/strings.h"

namespace adlsym::analysis {

namespace {

TernaryPattern insnPattern(const adl::InsnInfo& insn) {
  return TernaryPattern{insn.lengthBytes * 8, insn.fixedMask, insn.fixedMatch};
}

/// Re-express a pattern of `fromBytes` as a window of `toBytes` >=
/// fromBytes: the extra trailing bytes are free. Byte i of an instruction
/// lands at bits [8i+7:8i] of a little-endian decode word and at
/// bits [8*(L-1-i)+7:8*(L-1-i)] of a big-endian one, so widening shifts
/// big-endian patterns up.
TernaryPattern widen(const TernaryPattern& p, unsigned fromBytes,
                     unsigned toBytes, bool endianLittle) {
  TernaryPattern r = p;
  r.width = toBytes * 8;
  if (!endianLittle) {
    const unsigned shift = (toBytes - fromBytes) * 8;
    r.care <<= shift;
    r.value <<= shift;
  }
  return r;
}

Finding mkFinding(LintCode code, std::string message, std::string insn = "") {
  Finding f;
  f.code = code;
  f.severity = lintDefaultSeverity(code);
  f.message = std::move(message);
  f.insn = std::move(insn);
  return f;
}

}  // namespace

void appendAmbiguityFindings(const adl::ArchModel& model,
                             std::vector<Finding>& out) {
  // Exact pairwise intersection within one length class. The intersection
  // cube, when nonempty, *is* the set of ambiguous words.
  const auto& insns = model.insns;
  for (size_t i = 0; i < insns.size(); ++i) {
    for (size_t j = i + 1; j < insns.size(); ++j) {
      if (insns[i].lengthBytes != insns[j].lengthBytes) continue;
      const auto common = insnPattern(insns[i]).intersect(insnPattern(insns[j]));
      if (!common) continue;
      out.push_back(mkFinding(
          LintCode::AmbiguousEncodings,
          formatStr("instructions '%s' and '%s' have overlapping encodings: "
                    "%s bit pattern(s) match both (e.g. %s)",
                    insns[i].name.c_str(), insns[j].name.c_str(),
                    formatCount(common->count()).c_str(),
                    common->str().c_str())));
    }
  }
}

namespace {

/// ADL002 and ADL003: the residual and gap sets, which only lint needs.
void appendReachabilityFindings(const adl::ArchModel& model,
                                std::vector<Finding>& out) {
  const auto& insns = model.insns;
  if (insns.empty()) return;

  // ADL002: subtract, from each instruction's windows, every window
  // claimed by a longer encoding or by an earlier declaration of the same
  // length. An empty residual means the instruction can only ever decode
  // where fewer bytes than the longer encodings need are mapped.
  // (Computed from the instruction list, not model.maxInsnBytes, so the
  // pass does not depend on sema's summary fields.)
  unsigned maxBytes = 0;
  for (const auto& insn : insns) maxBytes = std::max(maxBytes, insn.lengthBytes);
  for (size_t i = 0; i < insns.size(); ++i) {
    TernarySet residual(maxBytes * 8);
    residual.addDisjoint(widen(insnPattern(insns[i]), insns[i].lengthBytes,
                               maxBytes, model.endianLittle));
    for (size_t j = 0; j < insns.size(); ++j) {
      const bool longer = insns[j].lengthBytes > insns[i].lengthBytes;
      const bool earlierSameLen =
          j < i && insns[j].lengthBytes == insns[i].lengthBytes;
      if (!longer && !earlierSameLen) continue;
      residual.subtract(widen(insnPattern(insns[j]), insns[j].lengthBytes,
                              maxBytes, model.endianLittle));
      if (residual.empty()) break;
    }
    if (residual.empty()) {
      out.push_back(mkFinding(
          LintCode::UnreachableEncoding,
          formatStr("encoding of '%s' is unreachable: every matching bit "
                    "pattern is claimed by a longer or earlier-declared "
                    "instruction",
                    insns[i].name.c_str()),
          insns[i].name));
    }
  }

  // ADL003: windows of maxInsnBytes that decode as nothing at all.
  TernarySet gaps = TernarySet::universe(maxBytes * 8);
  for (const auto& insn : insns) {
    gaps.subtract(
        widen(insnPattern(insn), insn.lengthBytes, maxBytes, model.endianLittle));
    if (gaps.empty()) break;
  }
  if (!gaps.empty()) {
    const unsigned __int128 total = static_cast<unsigned __int128>(1)
                                    << (maxBytes * 8);
    out.push_back(mkFinding(
        LintCode::DecodeSpaceGap,
        formatStr("decode space has gaps: %s of %s %u-byte windows decode "
                  "as no instruction (e.g. %s)",
                  formatCount(gaps.count()).c_str(),
                  formatCount(total).c_str(), maxBytes,
                  gaps.first()->str().c_str())));
  }
}

}  // namespace

void appendDecodeSpaceFindings(const adl::ArchModel& model,
                               std::vector<Finding>& out) {
  appendAmbiguityFindings(model, out);
  appendReachabilityFindings(model, out);
}

}  // namespace adlsym::analysis
