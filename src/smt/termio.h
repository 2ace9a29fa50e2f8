// The one term descriptor grammar of the SMT layer, and the canonical
// order-preserving term-DAG serialization built on it (adlsym-ckpt-v6,
// docs/robustness.md). appendDescriptor() renders one node:
//
//   C<width>:<value>;          constant (value already truncated to width)
//   V<width>:<text>;           variable: its name here, its α-slot "@<n>"
//                              in a canonical query key (smt/qcache)
//   O<kind>:<width>:<a>,<b>,<c>:<aux>;   operator, '-' = absent operand
//
// A TermTableWriter assigns dense slots to every distinct node reachable
// from the roots it is given, in first-visit post-order, and renders one
// descriptor per slot. Slots only reference earlier slots, so the reader
// can intern a table in one left-to-right pass. Roots may come from
// *different* TermManager pools (parallel workers): the builders order
// operands by structural hash, so an equal constraint has one structure
// in every pool, and the writer collapses structurally equal terms from
// distinct pools to one slot by importing everything into a private
// scratch pool (hash-consing does the rest). That is what makes
// checkpoint bytes identical across -j1/-j2/-j8.
//
// Round-trip contract (ckpt_test): read(table) into a fresh pool, then
// re-serialize the same roots in the same order — byte-identical table.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "smt/term.h"

namespace adlsym::smt {

/// Append the descriptor of node `n` to `out`, with `a`, `b`, `c` as its
/// operand references (kInvalidTerm = absent) and, for a variable,
/// `varText` after "V<width>:".
void appendDescriptor(std::string& out, const TermNode& n, TermId a,
                      TermId b, TermId c, std::string_view varText);

class TermTableWriter {
 public:
  TermTableWriter() = default;

  /// Slot of `t`, assigning slots to (and describing) any nodes not seen
  /// yet. `t` may belong to any pool; repeated and structurally equal
  /// terms share one slot.
  uint32_t slot(TermRef t);

  /// Concatenated descriptors for every slot assigned so far.
  const std::string& table() const { return table_; }

  /// Number of slots assigned so far.
  size_t size() const { return scratch_.numTerms(); }

 private:
  TermManager scratch_;
  // One import memo per source pool; keeps sharing exact across many
  // slot() calls for states owned by the same worker.
  std::unordered_map<const TermManager*, std::unordered_map<TermId, TermId>>
      memos_;
  uint32_t described_ = 0;  // scratch ids [0, described_) already rendered
  std::string table_;
};

class TermTableReader {
 public:
  /// Parse a descriptor table and intern every slot into `tm` (which need
  /// not be empty — nodes hash-cons against what is already there).
  /// Returns the slot -> term mapping. Throws InputError on any malformed
  /// descriptor, with the slot index in the message.
  static std::vector<TermRef> read(std::string_view table, TermManager& tm);
};

}  // namespace adlsym::smt
