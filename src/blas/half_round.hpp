// The one float -> fp16 -> float rounding of the host BLAS.
//
// Real mode emulates the TensorCore input contract by rounding elements
// through IEEE binary16; blas::round_to_half and the fp16 GEMM packs both
// call round_through_half. It returns exactly float(half(x)) for every
// float: tests/common_half_test.cpp checks all 2^32 inputs against the
// rocqr::half class.
//
// It has no data-dependent branch, so loops over it vectorize. On |x|'s
// bits a, with the sign ORed back at the end:
//  - normal halves round to nearest-even on the low 13 mantissa bits, in
//    integer arithmetic; a carry into the exponent is the correct result;
//  - below 2^-14, the float spacing in [0.5, 1) is 2^-24, the half
//    subnormal grid, so (|x| + 0.5f) - 0.5f rounds onto it with the FPU's
//    own nearest-even rule, and the subtraction is exact;
//  - |x| >= 65520 rounds to inf, and NaN to the quiet NaN 0x7fc00000.
//
// Internal linkage: only rocqr_blas sources include this header, and they
// may be built for a wider ISA than the rest of the program, so no other
// translation unit can end up calling a copy built for that ISA.
#pragma once

#include <bit>
#include <cstdint>

namespace rocqr::blas {

static inline float round_through_half(float x) noexcept {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(x);
  const std::uint32_t sign = bits & 0x80000000u;
  const std::uint32_t a = bits ^ sign;
  const std::uint32_t normal = (a + 0xfffu + ((a >> 13) & 1u)) & ~0x1fffu;
  const std::uint32_t subnormal =
      std::bit_cast<std::uint32_t>((std::bit_cast<float>(a) + 0.5f) - 0.5f);
  std::uint32_t r = a < 0x38800000u ? subnormal : normal; // 2^-14
  r = a >= 0x477ff000u ? 0x7f800000u : r;                 // 65520, inf
  r = a > 0x7f800000u ? 0x7fc00000u : r;                  // NaN
  return std::bit_cast<float>(r | sign);
}

} // namespace rocqr::blas
