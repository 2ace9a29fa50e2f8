// Layered symbolic byte memory (DESIGN.md §6.3/6.4). Reads fall through a
// chain of copy-on-write overlay nodes to the program image's concrete
// bytes. Forking a state is O(1): both children share the parent chain and
// allocate fresh overlay nodes on their first write.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "loader/image.h"
#include "smt/term.h"

namespace adlsym::core {

class SymMemory {
 public:
  SymMemory() = default;
  explicit SymMemory(const loader::Image* image) : image_(image) {}

  /// Byte at a concrete address: overlay writes shadow image bytes.
  /// Returns an invalid TermRef for unmapped addresses (caller reports OOB).
  smt::TermRef readByte(smt::TermManager& tm, uint64_t addr) const;

  /// Store a (possibly symbolic) byte at a concrete address.
  void writeByte(uint64_t addr, smt::TermRef value);

  const loader::Image* image() const { return image_; }

  /// Number of overlay nodes in the chain (test/bench introspection).
  size_t chainDepth() const;
  /// Distinct addresses written on this state: the overlay's contents,
  /// whatever its node layout. Kept as a count on write, so two states
  /// holding the same writes read the same value however they were forked,
  /// moved or rebuilt.
  size_t overlayBytes() const { return written_; }
  /// Distinct addresses written on this state (union over the chain).
  /// Used by state merging to diff two memories.
  std::vector<uint64_t> overlayAddresses() const;

 private:
  struct Node {
    std::unordered_map<uint64_t, smt::TermRef> writes;
    std::shared_ptr<const Node> parent;
  };

  /// Collapse long chains so lookups stay O(1) amortized.
  void flattenIfDeep();

  const loader::Image* image_ = nullptr;
  std::shared_ptr<Node> head_;  // uniquely owned by this state once written
  size_t written_ = 0;          // overlayBytes()
};

}  // namespace adlsym::core
