#pragma once
/// \file checked.hpp
/// Overflow-checked arithmetic on 64-bit sizes.  Tensor extents like 480^4
/// multiply out quickly; a silent wrap would corrupt every downstream cost
/// and memory computation, so all size products in the library go through
/// these helpers.

#include <cstdint>
#include <limits>

#include "tce/common/assert.hpp"

namespace tce {

/// Multiplies two unsigned sizes, throwing ContractViolation on overflow.
inline std::uint64_t checked_mul(std::uint64_t a, std::uint64_t b) {
  std::uint64_t r = 0;
  if (__builtin_mul_overflow(a, b, &r)) {
    TCE_UNREACHABLE("checked_mul overflow");
  }
  return r;
}

/// Adds two unsigned sizes, throwing ContractViolation on overflow.
inline std::uint64_t checked_add(std::uint64_t a, std::uint64_t b) {
  if (b > std::numeric_limits<std::uint64_t>::max() - a) {
    TCE_UNREACHABLE("checked_add overflow");
  }
  return a + b;
}

/// Multiplies, clamping to the maximum representable value instead of
/// wrapping.  Use for *cost estimates* (flop counts of deliberately bad
/// evaluation orders can exceed 2^64); never for sizes that are actually
/// allocated or compared exactly.
inline std::uint64_t saturating_mul(std::uint64_t a,
                                    std::uint64_t b) noexcept {
  std::uint64_t r = 0;
  if (__builtin_mul_overflow(a, b, &r)) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return r;
}

/// Adds with clamping; see saturating_mul.
inline std::uint64_t saturating_add(std::uint64_t a,
                                    std::uint64_t b) noexcept {
  if (b > std::numeric_limits<std::uint64_t>::max() - a) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return a + b;
}

/// Exact integer square root of a perfect square; throws otherwise.
/// Used to derive the √P×√P logical grid edge from the processor count.
inline std::uint32_t exact_isqrt(std::uint64_t n) {
  std::uint64_t r = 0;
  std::uint64_t bit = std::uint64_t{1} << 62;
  while (bit > n) bit >>= 2;
  std::uint64_t x = n;
  while (bit != 0) {
    if (x >= r + bit) {
      x -= r + bit;
      r = (r >> 1) + bit;
    } else {
      r >>= 1;
    }
    bit >>= 2;
  }
  TCE_EXPECTS_MSG(r * r == n, "processor count must be a perfect square");
  return static_cast<std::uint32_t>(r);
}

/// Ceiling division for positive integers.
inline std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  TCE_EXPECTS(b != 0);
  return (a + b - 1) / b;
}

}  // namespace tce
