// Small bit-manipulation helpers shared by the SMT layer, the decoder
// generator and the assembler (all widths are in [1, 64]), and the
// saturating arithmetic every budget conversion goes through.
#pragma once

#include <cstdint>

#include "support/error.h"

namespace adlsym {

/// Mask with the low `width` bits set. width must be in [1,64].
inline uint64_t lowMask(unsigned width) {
  check(width >= 1 && width <= 64, "lowMask width out of range");
  return width == 64 ? ~uint64_t{0} : ((uint64_t{1} << width) - 1);
}

/// Truncate `v` to `width` bits.
inline uint64_t truncTo(uint64_t v, unsigned width) { return v & lowMask(width); }

/// Sign-extend the low `width` bits of `v` to 64 bits.
inline uint64_t signExtend(uint64_t v, unsigned width) {
  const uint64_t m = uint64_t{1} << (width - 1);
  v = truncTo(v, width);
  return (v ^ m) - m;
}

/// Interpret the low `width` bits of `v` as a signed value.
inline int64_t asSigned(uint64_t v, unsigned width) {
  return static_cast<int64_t>(signExtend(v, width));
}

/// True if the signed value `v` fits in `width` bits (two's complement).
inline bool fitsSigned(int64_t v, unsigned width) {
  if (width >= 64) return true;
  const int64_t lo = -(int64_t{1} << (width - 1));
  const int64_t hi = (int64_t{1} << (width - 1)) - 1;
  return v >= lo && v <= hi;
}

/// True if the unsigned value `v` fits in `width` bits.
inline bool fitsUnsigned(uint64_t v, unsigned width) {
  return width >= 64 || v <= lowMask(width);
}

/// Extract bits [hi:lo] of v (inclusive).
inline uint64_t bitSlice(uint64_t v, unsigned hi, unsigned lo) {
  check(hi >= lo && hi < 64, "bitSlice range");
  return (v >> lo) & lowMask(hi - lo + 1);
}

// Budget arithmetic saturates: a budget too large to represent does not
// bind, so it becomes UINT64_MAX ("never") instead of wrapping to a small
// value or, from a double, casting out of range (undefined behaviour).

inline uint64_t saturatingAdd(uint64_t a, uint64_t b) {
  uint64_t r;
  return __builtin_add_overflow(a, b, &r) ? ~uint64_t{0} : r;
}

inline uint64_t saturatingMul(uint64_t a, uint64_t b) {
  uint64_t r;
  return __builtin_mul_overflow(a, b, &r) ? ~uint64_t{0} : r;
}

/// `v` rounded toward zero; NaN and v <= 0 give 0.
inline uint64_t saturatingCast(double v) {
  if (!(v > 0)) return 0;
  return v >= 0x1p64 ? ~uint64_t{0} : static_cast<uint64_t>(v);
}

}  // namespace adlsym
