// Software IEEE-754 binary16 ("half") emulating TensorCore input precision.
//
// TensorCore GEMMs consume fp16 inputs and accumulate in fp32. This type
// reproduces the *input rounding* exactly: float -> half conversion uses
// round-to-nearest-even with correct subnormal and overflow handling, so the
// numerical behaviour of CGS-on-TensorCore (Zhang et al., HPDC'20) is
// observable on a CPU-only host.
//
// Arithmetic on half promotes to float, matching how TensorCore-era code
// treats fp16 as a storage/interchange format rather than a compute format.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

namespace rocqr {

namespace detail {

/// Convert a float to IEEE binary16 bits, round-to-nearest-even.
std::uint16_t float_to_half_bits(float f) noexcept;

/// Convert IEEE binary16 bits to float (exact; every half is a float).
float half_bits_to_float(std::uint16_t h) noexcept;

} // namespace detail

class half {
 public:
  half() = default;

  /// Conversion from float rounds to nearest-even, like cvt.rn.f16.f32.
  explicit half(float f) noexcept : bits_(detail::float_to_half_bits(f)) {}
  /// No double or int conversion: double -> float -> half rounds twice
  /// (1 + 2^-11 + 2^-40 would become 1, not 1 + 2^-10). Convert to float
  /// first, where that is what is meant.
  half(double) = delete;
  half(int) = delete;

  /// Implicit widening to float is safe (exact) and keeps call sites terse.
  operator float() const noexcept { return detail::half_bits_to_float(bits_); }

  static half from_bits(std::uint16_t b) noexcept {
    half h;
    h.bits_ = b;
    return h;
  }
  std::uint16_t bits() const noexcept { return bits_; }

  half& operator+=(half rhs) noexcept {
    *this = half(float(*this) + float(rhs));
    return *this;
  }
  half& operator-=(half rhs) noexcept {
    *this = half(float(*this) - float(rhs));
    return *this;
  }
  half& operator*=(half rhs) noexcept {
    *this = half(float(*this) * float(rhs));
    return *this;
  }
  half& operator/=(half rhs) noexcept {
    *this = half(float(*this) / float(rhs));
    return *this;
  }
  half operator-() const noexcept { return from_bits(bits_ ^ 0x8000u); }

 private:
  std::uint16_t bits_ = 0;
};

static_assert(sizeof(half) == 2, "half must be two bytes");

inline half operator+(half a, half b) noexcept { return half(float(a) + float(b)); }
inline half operator-(half a, half b) noexcept { return half(float(a) - float(b)); }
inline half operator*(half a, half b) noexcept { return half(float(a) * float(b)); }
inline half operator/(half a, half b) noexcept { return half(float(a) / float(b)); }

inline bool operator==(half a, half b) noexcept { return float(a) == float(b); }
inline bool operator!=(half a, half b) noexcept { return float(a) != float(b); }
inline bool operator<(half a, half b) noexcept { return float(a) < float(b); }
inline bool operator>(half a, half b) noexcept { return float(a) > float(b); }
inline bool operator<=(half a, half b) noexcept { return float(a) <= float(b); }
inline bool operator>=(half a, half b) noexcept { return float(a) >= float(b); }

inline bool isnan(half h) noexcept {
  return (h.bits() & 0x7c00u) == 0x7c00u && (h.bits() & 0x03ffu) != 0;
}
inline bool isinf(half h) noexcept { return (h.bits() & 0x7fffu) == 0x7c00u; }
inline bool isfinite(half h) noexcept { return (h.bits() & 0x7c00u) != 0x7c00u; }

} // namespace rocqr

namespace std {

template <>
class numeric_limits<rocqr::half> {
 public:
  static constexpr bool is_specialized = true;
  static constexpr bool is_signed = true;
  static constexpr bool is_integer = false;
  static constexpr bool is_exact = false;
  static constexpr bool has_infinity = true;
  static constexpr bool has_quiet_NaN = true;
  static constexpr int digits = 11;        // implicit bit + 10 mantissa bits
  static constexpr int max_exponent = 16;  // 2^15 < max < 2^16
  static constexpr int min_exponent = -13; // min normal 2^-14

  static rocqr::half min() noexcept { return rocqr::half::from_bits(0x0400); }
  static rocqr::half max() noexcept { return rocqr::half::from_bits(0x7bff); }
  static rocqr::half lowest() noexcept { return rocqr::half::from_bits(0xfbff); }
  static rocqr::half epsilon() noexcept { return rocqr::half::from_bits(0x1400); }
  static rocqr::half denorm_min() noexcept { return rocqr::half::from_bits(0x0001); }
  static rocqr::half infinity() noexcept { return rocqr::half::from_bits(0x7c00); }
  static rocqr::half quiet_NaN() noexcept { return rocqr::half::from_bits(0x7e00); }
};

} // namespace std
