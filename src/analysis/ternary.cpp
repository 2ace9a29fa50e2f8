#include "analysis/ternary.h"

#include <bit>

#include "support/bits.h"

namespace adlsym::analysis {

unsigned TernaryPattern::freeBits() const {
  return width - static_cast<unsigned>(std::popcount(care & lowMask(width)));
}

unsigned __int128 TernaryPattern::count() const {
  return static_cast<unsigned __int128>(1) << freeBits();
}

std::string TernaryPattern::str() const {
  std::string s;
  s.reserve(width);
  for (unsigned i = width; i-- > 0;) {
    const uint64_t bit = uint64_t{1} << i;
    s.push_back((care & bit) == 0 ? 'x' : (value & bit) != 0 ? '1' : '0');
  }
  return s;
}

bool TernaryPattern::intersects(const TernaryPattern& o) const {
  // Two cubes are disjoint exactly when some bit is fixed by both to
  // opposite values.
  return ((value ^ o.value) & care & o.care) == 0;
}

std::optional<TernaryPattern> TernaryPattern::intersect(
    const TernaryPattern& o) const {
  if (!intersects(o)) return std::nullopt;
  return TernaryPattern{width, care | o.care, value | o.value};
}

namespace {

/// Append a \ b to `out` as pairwise-disjoint cubes.
void appendDifference(const TernaryPattern& a, const TernaryPattern& b,
                      std::vector<TernaryPattern>& out) {
  if (!a.intersects(b)) {
    out.push_back(a);
    return;
  }
  // Bits b fixes but a leaves free. If there are none, a ⊆ b.
  const uint64_t d = b.care & ~a.care & lowMask(a.width);
  // Peel one disagreeing bit at a time: the cube where earlier d-bits
  // agree with b and bit i disagrees is disjoint from all later peels,
  // and their union is exactly a ∧ ¬b.
  uint64_t agreeCare = 0;
  for (uint64_t rest = d; rest != 0; rest &= rest - 1) {
    const uint64_t bit = rest & ~(rest - 1);
    TernaryPattern p = a;
    p.care |= agreeCare | bit;
    p.value |= (b.value & agreeCare) | (~b.value & bit);
    out.push_back(p);
    agreeCare |= bit;
  }
}

}  // namespace

std::vector<TernaryPattern> subtract(const TernaryPattern& a,
                                     const TernaryPattern& b) {
  std::vector<TernaryPattern> out;
  appendDifference(a, b, out);
  return out;
}

TernarySet TernarySet::universe(unsigned width) {
  TernarySet s(width);
  s.cubes_.push_back(TernaryPattern{width, 0, 0});
  return s;
}

void TernarySet::subtract(const TernaryPattern& p) {
  // Rebuild into the spare buffer, keeping the cubes' order (a gap
  // finding names the first cube).
  spare_.clear();
  for (const TernaryPattern& c : cubes_) appendDifference(c, p, spare_);
  cubes_.swap(spare_);
}

unsigned __int128 TernarySet::count() const {
  unsigned __int128 n = 0;
  for (const TernaryPattern& c : cubes_) n += c.count();
  return n;
}

std::optional<TernaryPattern> TernarySet::first() const {
  if (cubes_.empty()) return std::nullopt;
  return cubes_.front();
}

std::string formatCount(unsigned __int128 n) {
  if (n == 0) return "0";
  std::string s;
  while (n != 0) {
    s.insert(s.begin(), static_cast<char>('0' + static_cast<unsigned>(n % 10)));
    n /= 10;
  }
  return s;
}

}  // namespace adlsym::analysis
