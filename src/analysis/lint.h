// Structured lint diagnostics over ADL models and loaded images
// (docs/linting.md). Every check has a stable code (ADL0xx = model-level,
// IMG0xx = image-level) and a fixed default severity, so CI can gate on
// the JSON output and sema can reuse the exact finding text for the
// defects it promotes to hard errors.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "adl/model.h"
#include "loader/image.h"
#include "support/diag.h"

namespace adlsym::analysis {

enum class LintCode {
  ModelError,            // ADL000: the ADL description failed to load
  // Decode-space analysis (ternary pattern sets over the opcode space).
  AmbiguousEncodings,    // ADL001: two same-length encodings intersect
  UnreachableEncoding,   // ADL002: every matching pattern is claimed first
  DecodeSpaceGap,        // ADL003: patterns that decode as no instruction
  // Semantics dataflow.
  ReadNeverWritten,      // ADL010: storage read but written by no insn
  DeadLet,               // ADL011: let binding never referenced
  UnreadOperandField,    // ADL012: operand field ignored by semantics
  PartialFieldUse,       // ADL013: only some bits of a field are used
  UnreachableStmt,       // ADL014: statement after halt/trap
  RelWithoutPcWrite,     // ADL015: %rel operand but pc never assigned
  // Abstract interpretation over lowered RTL (analysis/absdom.h).
  ConstantBranchCond,    // ADL016: branch condition is statically constant
  DeadRtlWrite,          // ADL017: register write provably dead
  // Image static analysis (CFG recovery).
  UnreachableBlock,      // IMG001: code not reachable from the entry
  FallThroughOffEnd,     // IMG002: execution can run off mapped code
  JumpOutsideCode,       // IMG003: static target outside executable text
  UndecodableReachable,  // IMG004: reachable pc fails to decode
};

/// Stable code string, e.g. "ADL001".
const char* lintCodeName(LintCode code);
/// Inverse of lintCodeName, for re-parsing "[ADL001]"-prefixed messages.
std::optional<LintCode> lintCodeFromName(const std::string& name);
/// One-line summary used by the docs and the JSON catalogue.
const char* lintCodeSummary(LintCode code);
Severity lintDefaultSeverity(LintCode code);

struct Finding {
  LintCode code;
  Severity severity;
  std::string message;            // text without the [CODE] prefix
  std::string insn;               // mnemonic, when instruction-scoped
  SourceLoc loc;                  // ADL source location, when known
  std::optional<uint64_t> addr;   // image address, for IMG findings
};

/// Ordered collection of findings for one subject (an ISA model or a
/// model+image pair) with the renderings the CLI exposes.
class LintReport {
 public:
  void add(Finding f) { findings_.push_back(std::move(f)); }
  void append(LintReport other);

  const std::vector<Finding>& findings() const { return findings_; }
  unsigned count(Severity s) const;
  bool hasErrors(bool werror = false) const {
    return count(Severity::Error) > 0 ||
           (werror && count(Severity::Warning) > 0);
  }

  /// "subject:line:col: severity: [CODE] message" lines plus a summary
  /// line, matching the DiagEngine rendering style.
  std::string formatText(const std::string& subject) const;
  /// The adlsym-lint-v1 document (docs/linting.md).
  std::string formatJson(const std::string& subject) const;

 private:
  std::vector<Finding> findings_;
};

/// Decode-space findings only (ADL001-ADL003): appendAmbiguityFindings,
/// then the unreachable-encoding (ADL002) and gap (ADL003) set algebra.
void appendDecodeSpaceFindings(const adl::ArchModel& model,
                               std::vector<Finding>& out);

/// The ADL001 half of the decode-space pass: pairwise intersection of
/// same-length encodings. Sema runs only this half and promotes its
/// findings to load errors with identical message text.
void appendAmbiguityFindings(const adl::ArchModel& model,
                             std::vector<Finding>& out);

/// Semantics dataflow findings only (ADL010-ADL015).
void appendDataflowFindings(const adl::ArchModel& model,
                            std::vector<Finding>& out);

/// Abstract-interpretation findings (ADL016-ADL017, abslint.cpp): lowers
/// each instruction's RTL to a throwaway term DAG and runs the absdom
/// evaluator with every input unconstrained, flagging branch conditions
/// that are still constant and register writes that provably have no
/// effect (no-op value, or overwritten before any read).
void appendAbsdomFindings(const adl::ArchModel& model,
                          std::vector<Finding>& out);

/// All model-level passes: decode space + semantics dataflow + absdom.
LintReport lintModel(const adl::ArchModel& model);

/// Image-level passes: static CFG recovery diagnostics (IMG001-IMG004).
LintReport lintImage(const adl::ArchModel& model, const loader::Image& image);

}  // namespace adlsym::analysis
