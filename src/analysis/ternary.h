// Ternary bit-pattern algebra for decode-space analysis (docs/linting.md).
// A TernaryPattern is a cube over {0,1,x}^width — exactly the shape of an
// ADL encoding after fixing some fields (mask/match) and leaving operand
// fields free. Sets of disjoint cubes support exact subtraction and
// counting, which turns "is this encoding reachable?" and "which opcode
// patterns decode as nothing?" into set algebra instead of sampling.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace adlsym::analysis {

/// One cube: bits in `care` are fixed to the corresponding bit of `value`;
/// the remaining bits of the width are free ('x'). Invariant:
/// value ⊆ care ⊆ lowMask(width).
struct TernaryPattern {
  unsigned width = 0;  // bits, 1..64
  uint64_t care = 0;
  uint64_t value = 0;

  /// Number of free ('x') bit positions.
  unsigned freeBits() const;
  /// Number of concrete words matching this cube: 2^freeBits().
  unsigned __int128 count() const;
  bool matches(uint64_t word) const { return (word & care) == value; }
  /// Lexicographically smallest matching word (free bits = 0).
  uint64_t sample() const { return value; }
  /// MSB-first rendering, e.g. "01xx1x0x".
  std::string str() const;

  bool intersects(const TernaryPattern& o) const;
  /// The cube of words matched by both, if any.
  std::optional<TernaryPattern> intersect(const TernaryPattern& o) const;
};

/// a \ b as pairwise-disjoint cubes (empty when a ⊆ b, {a} when disjoint).
std::vector<TernaryPattern> subtract(const TernaryPattern& a,
                                     const TernaryPattern& b);

/// A set of words represented as pairwise-disjoint cubes of one width.
/// Supports the two operations decode-space analysis needs: subtracting a
/// cube and exact counting. Construct empty or as the full universe.
class TernarySet {
 public:
  explicit TernarySet(unsigned width) : width_(width) {}
  static TernarySet universe(unsigned width);

  /// Insert a cube the caller guarantees is disjoint from the set (used
  /// when seeding from subtraction results).
  void addDisjoint(TernaryPattern p) { cubes_.push_back(p); }
  /// Remove every word matching `p`.
  void subtract(const TernaryPattern& p);

  bool empty() const { return cubes_.empty(); }
  unsigned width() const { return width_; }
  unsigned __int128 count() const;
  const std::vector<TernaryPattern>& cubes() const { return cubes_; }
  /// A representative element, if the set is nonempty.
  std::optional<TernaryPattern> first() const;

 private:
  unsigned width_;
  std::vector<TernaryPattern> cubes_;
  std::vector<TernaryPattern> spare_;  // subtract()'s reused output buffer
};

/// Render an exact (possibly > 2^64) cardinality for messages.
std::string formatCount(unsigned __int128 n);

}  // namespace adlsym::analysis
