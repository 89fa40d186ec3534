// IEEE binary16 emulation: the rounding behaviour TensorCore applies to
// GEMM inputs must be bit-exact, so these tests pin it down hard.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "blas/transform.hpp"
#include "common/half.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace rocqr {
namespace {

// double -> float -> half would round twice (1 + 2^-11 + 2^-40 would become
// 1, not 1 + 2^-10), so half converts from float only.
static_assert(!std::is_constructible_v<half, double>);
static_assert(!std::is_constructible_v<half, int>);

TEST(Half, ZeroRoundTrips) {
  EXPECT_EQ(half(0.0f).bits(), 0x0000u);
  EXPECT_EQ(half(-0.0f).bits(), 0x8000u);
  EXPECT_EQ(float(half(0.0f)), 0.0f);
  EXPECT_TRUE(std::signbit(float(half(-0.0f))));
}

TEST(Half, ExactSmallIntegers) {
  for (int i = -2048; i <= 2048; ++i) {
    EXPECT_EQ(float(half(static_cast<float>(i))), static_cast<float>(i))
        << "integer " << i;
  }
}

TEST(Half, KnownEncodings) {
  EXPECT_EQ(half(1.0f).bits(), 0x3c00u);
  EXPECT_EQ(half(-1.0f).bits(), 0xbc00u);
  EXPECT_EQ(half(2.0f).bits(), 0x4000u);
  EXPECT_EQ(half(0.5f).bits(), 0x3800u);
  EXPECT_EQ(half(65504.0f).bits(), 0x7bffu); // half max
  EXPECT_EQ(half(1.0f / 16777216.0f).bits(), 0x0001u); // 2^-24 smallest subnormal
}

TEST(Half, MaxAndOverflow) {
  EXPECT_EQ(float(half(65504.0f)), 65504.0f);
  // 65519.99 rounds down to half-max; >= 65520 rounds to infinity.
  EXPECT_EQ(half(65519.0f).bits(), 0x7bffu);
  EXPECT_TRUE(isinf(half(65520.0f)));
  EXPECT_TRUE(isinf(half(1e30f)));
  EXPECT_TRUE(isinf(half(-1e30f)));
  EXPECT_EQ(half(-1e30f).bits(), 0xfc00u);
}

TEST(Half, InfinityAndNaN) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(half(inf).bits(), 0x7c00u);
  EXPECT_EQ(half(-inf).bits(), 0xfc00u);
  EXPECT_TRUE(isinf(half(inf)));
  EXPECT_TRUE(isnan(half(std::numeric_limits<float>::quiet_NaN())));
  EXPECT_TRUE(std::isnan(float(half::from_bits(0x7e00))));
  EXPECT_TRUE(std::isinf(float(half::from_bits(0x7c00))));
  EXPECT_FALSE(isfinite(half(inf)));
  EXPECT_TRUE(isfinite(half(1.0f)));
}

TEST(Half, RoundToNearestEvenTies) {
  // 1 + 2^-11 is exactly between 1.0 (mantissa even) and 1+2^-10:
  // ties-to-even keeps 1.0.
  EXPECT_EQ(half(1.0f + 0x1.0p-11f).bits(), half(1.0f).bits());
  // (1 + 2^-10) + 2^-11 ties between odd 0x3c01 and even 0x3c02: rounds up.
  EXPECT_EQ(half(1.0f + 0x1.0p-10f + 0x1.0p-11f).bits(), 0x3c02u);
  // Just above the tie must round up.
  EXPECT_EQ(half(1.0f + 0x1.0p-11f + 0x1.0p-20f).bits(), 0x3c01u);
}

TEST(Half, SubnormalEncodeDecode) {
  // Largest subnormal: 1023 * 2^-24.
  const float largest_sub = 1023.0f * 0x1.0p-24f;
  EXPECT_EQ(half(largest_sub).bits(), 0x03ffu);
  EXPECT_EQ(float(half::from_bits(0x03ff)), largest_sub);
  // Smallest subnormal and halves round correctly.
  EXPECT_EQ(half(0x1.0p-24f).bits(), 0x0001u);
  EXPECT_EQ(half(0x1.0p-25f).bits(), 0x0000u);       // tie to even (zero)
  EXPECT_EQ(half(1.5f * 0x1.0p-25f).bits(), 0x0001u); // above tie
  EXPECT_EQ(half(0x1.0p-26f).bits(), 0x0000u);
  // Negative subnormal keeps its sign.
  EXPECT_EQ(half(-0x1.0p-24f).bits(), 0x8001u);
}

TEST(Half, SubnormalToNormalRounding) {
  // Largest subnormal + half an ulp rounds into the smallest normal.
  const float just_below_normal = (1023.5f) * 0x1.0p-24f;
  EXPECT_EQ(half(just_below_normal).bits(), 0x0400u);
  EXPECT_EQ(float(half::from_bits(0x0400)), 0x1.0p-14f);
}

TEST(Half, AllFiniteBitPatternsRoundTrip) {
  // Every finite half value converts to float and back to the same bits —
  // the fundamental contract of a correctly rounded conversion pair.
  for (std::uint32_t bits = 0; bits <= 0xffffu; ++bits) {
    const half h = half::from_bits(static_cast<std::uint16_t>(bits));
    if (isnan(h)) continue; // NaN payloads may be canonicalized
    const float f = float(h);
    EXPECT_EQ(half(f).bits(), bits) << "bits " << bits;
  }
}

TEST(Half, RoundingIsMonotonic) {
  Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    const float a = static_cast<float>(rng.uniform(-70000.0, 70000.0));
    const float b = static_cast<float>(rng.uniform(-70000.0, 70000.0));
    const float lo = std::min(a, b);
    const float hi = std::max(a, b);
    EXPECT_LE(float(half(lo)), float(half(hi))) << lo << " vs " << hi;
  }
}

TEST(Half, RoundingErrorWithinHalfUlp) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const float x = static_cast<float>(rng.uniform(-1000.0, 1000.0));
    const float r = float(half(x));
    // Relative error of round-to-nearest is <= 2^-11 for normal halves.
    if (std::fabs(x) >= 0x1.0p-14f) {
      EXPECT_LE(std::fabs(r - x), std::fabs(x) * 0x1.0p-11f) << x;
    }
  }
}

TEST(Half, ArithmeticPromotesToFloat) {
  const half a(1.5f);
  const half b(2.25f);
  EXPECT_EQ(float(a + b), float(half(3.75f)));
  EXPECT_EQ(float(a * b), float(half(1.5f * 2.25f)));
  EXPECT_EQ(float(-a), -1.5f);
  half c(1.0f);
  c += half(1.0f);
  EXPECT_EQ(float(c), 2.0f);
  c *= half(3.0f);
  EXPECT_EQ(float(c), 6.0f);
  c -= half(2.0f);
  EXPECT_EQ(float(c), 4.0f);
  c /= half(4.0f);
  EXPECT_EQ(float(c), 1.0f);
}

TEST(Half, Comparisons) {
  EXPECT_LT(half(1.0f), half(2.0f));
  EXPECT_GT(half(2.0f), half(1.0f));
  EXPECT_EQ(half(1.0f), half(1.0f));
  EXPECT_NE(half(1.0f), half(1.001f));
  EXPECT_LE(half(1.0f), half(1.0f));
  EXPECT_GE(half(1.0f), half(1.0f));
  // -0 == +0 under IEEE comparison semantics.
  EXPECT_EQ(half(-0.0f), half(0.0f));
}

TEST(Half, NumericLimits) {
  using lim = std::numeric_limits<half>;
  EXPECT_EQ(float(lim::max()), 65504.0f);
  EXPECT_EQ(float(lim::min()), 0x1.0p-14f);
  EXPECT_EQ(float(lim::denorm_min()), 0x1.0p-24f);
  EXPECT_EQ(float(lim::epsilon()), 0x1.0p-10f);
  EXPECT_EQ(float(lim::lowest()), -65504.0f);
  EXPECT_TRUE(isinf(lim::infinity()));
  EXPECT_TRUE(isnan(lim::quiet_NaN()));
  EXPECT_EQ(lim::digits, 11);
}

// blas::round_to_half is the rounding every Real-mode path uses: fp16
// device copies and uploads, fp16 GEMM outputs, round_fp16_block. Feed it
// every float bit pattern and require exactly the bits float(half(x))
// gives. That covers NaN payloads, float denormals, ties, the 65504/65520
// overflow edge and half subnormals. The chunks go through the public
// entry point, so the library's own build of the kernel is what runs.
TEST(Half, RoundToHalfMatchesHalfOnEveryFloat) {
  constexpr index_t kChunk = index_t{1} << 20;
  constexpr index_t kChunks = (index_t{1} << 32) / kChunk;
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint32_t> first_bad{0xffffffffu};
  ThreadPool::global().parallel_for(kChunks, [&](index_t c0, index_t c1) {
    std::vector<float> x(static_cast<size_t>(kChunk));
    for (index_t c = c0; c < c1; ++c) {
      const auto base = static_cast<std::uint32_t>(c * kChunk);
      for (index_t i = 0; i < kChunk; ++i) {
        x[static_cast<size_t>(i)] =
            std::bit_cast<float>(base + static_cast<std::uint32_t>(i));
      }
      blas::round_to_half(kChunk, 1, x.data(), kChunk);
      for (index_t i = 0; i < kChunk; ++i) {
        const std::uint32_t in = base + static_cast<std::uint32_t>(i);
        const float want = float(half(std::bit_cast<float>(in)));
        if (std::bit_cast<std::uint32_t>(x[static_cast<size_t>(i)]) !=
            std::bit_cast<std::uint32_t>(want)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
          std::uint32_t seen = first_bad.load(std::memory_order_relaxed);
          while (in < seen && !first_bad.compare_exchange_weak(seen, in)) {
          }
        }
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0u)
      << "lowest mismatching input bits 0x" << std::hex << first_bad.load();
}

TEST(Half, RoundToHalfLeavesRowsOutsideTheViewUntouched) {
  constexpr index_t m = 5;
  constexpr index_t n = 4;
  constexpr index_t ld = 9;
  Rng rng(11);
  std::vector<float> x(static_cast<size_t>(ld * n));
  // 1 + u * 2^-12 for u in (0, 1) is never an fp16 value, so rounding any
  // element outside the view would change its bits.
  for (float& v : x) {
    v = 1.0f + static_cast<float>(rng.uniform(0.1, 0.9)) * 0x1.0p-12f;
  }
  const std::vector<float> before = x;
  blas::round_to_half(m, n, x.data(), ld);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < ld; ++i) {
      const auto at = static_cast<size_t>(i + j * ld);
      const float want = i < m ? float(half(before[at])) : before[at];
      EXPECT_EQ(std::bit_cast<std::uint32_t>(x[at]),
                std::bit_cast<std::uint32_t>(want))
          << "i=" << i << " j=" << j;
    }
  }
}

} // namespace
} // namespace rocqr
