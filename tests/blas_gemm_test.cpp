// GEMM: blocked kernel vs double-precision reference across shapes,
// transposes, precisions, and alpha/beta combinations.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <tuple>
#include <vector>

#include "blas/gemm.hpp"
#include "common/half.hpp"
#include "common/rng.hpp"
#include "la/generate.hpp"
#include "la/matrix.hpp"
#include "la/norms.hpp"

namespace rocqr {
namespace {

using blas::GemmPrecision;
using blas::Op;

la::Matrix make_operand(Op op, index_t rows_op, index_t cols_op,
                        std::uint64_t seed) {
  // Stored shape is the transpose of the op-shape for Op::Trans.
  return op == Op::NoTrans ? la::random_uniform(rows_op, cols_op, seed)
                           : la::random_uniform(cols_op, rows_op, seed);
}

class GemmParamTest
    : public ::testing::TestWithParam<std::tuple<
          std::tuple<index_t, index_t, index_t>, Op, Op, GemmPrecision>> {};

TEST_P(GemmParamTest, MatchesReference) {
  const auto [shape, opa, opb, prec] = GetParam();
  const auto [m, n, k] = shape;
  la::Matrix a = make_operand(opa, m, k, 1);
  la::Matrix b = make_operand(opb, k, n, 2);
  la::Matrix c = la::random_uniform(m, n, 3);
  la::Matrix c_ref = la::materialize(c.view());

  const float alpha = 1.25f;
  const float beta = -0.5f;
  blas::gemm(opa, opb, m, n, k, alpha, a.data(), a.ld(), b.data(), b.ld(),
             beta, c.data(), c.ld(), prec);
  blas::gemm_reference(opa, opb, m, n, k, alpha, a.data(), a.ld(), b.data(),
                       b.ld(), beta, c_ref.data(), c_ref.ld(), prec);

  // fp32 accumulation error vs the double-accumulated reference grows with
  // k; elements are O(1) so an absolute k-scaled bound is appropriate.
  const double tol = 1e-6 * std::sqrt(static_cast<double>(k + 1)) * 16.0;
  EXPECT_LT(la::relative_difference(c.view(), c_ref.view()), tol)
      << "m=" << m << " n=" << n << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmParamTest,
    ::testing::Combine(
        ::testing::Values(std::tuple<index_t, index_t, index_t>{1, 1, 1},
                          std::tuple<index_t, index_t, index_t>{5, 3, 4},
                          std::tuple<index_t, index_t, index_t>{16, 16, 16},
                          std::tuple<index_t, index_t, index_t>{33, 17, 55},
                          std::tuple<index_t, index_t, index_t>{64, 1, 128},
                          std::tuple<index_t, index_t, index_t>{1, 64, 128},
                          std::tuple<index_t, index_t, index_t>{96, 80, 112},
                          // Cross the kMC=128 / kKC=256 cache-block edges
                          // and leave ragged kMR/kNR register tiles.
                          std::tuple<index_t, index_t, index_t>{130, 70, 300},
                          std::tuple<index_t, index_t, index_t>{257, 96, 129}),
        ::testing::Values(Op::NoTrans, Op::Trans),
        ::testing::Values(Op::NoTrans, Op::Trans),
        ::testing::Values(GemmPrecision::FP32, GemmPrecision::FP16_FP32)));

TEST(Gemm, BetaZeroIgnoresGarbageC) {
  const index_t n = 8;
  la::Matrix a = la::random_uniform(n, n, 1);
  la::Matrix b = la::random_uniform(n, n, 2);
  la::Matrix c(n, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      c(i, j) = std::numeric_limits<float>::quiet_NaN();
    }
  }
  blas::gemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0f, a.data(), a.ld(),
             b.data(), b.ld(), 0.0f, c.data(), c.ld());
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) EXPECT_FALSE(std::isnan(c(i, j)));
  }
}

TEST(Gemm, AlphaZeroOnlyScalesC) {
  const index_t n = 6;
  la::Matrix a = la::random_uniform(n, n, 1);
  la::Matrix b = la::random_uniform(n, n, 2);
  la::Matrix c = la::random_uniform(n, n, 3);
  la::Matrix expected = la::materialize(c.view());
  blas::gemm(Op::NoTrans, Op::NoTrans, n, n, n, 0.0f, a.data(), a.ld(),
             b.data(), b.ld(), 2.0f, c.data(), c.ld());
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      EXPECT_FLOAT_EQ(c(i, j), 2.0f * expected(i, j));
    }
  }
}

TEST(Gemm, KZeroActsAsScale) {
  la::Matrix c = la::random_uniform(4, 4, 3);
  la::Matrix expected = la::materialize(c.view());
  blas::gemm(Op::NoTrans, Op::NoTrans, 4, 4, 0, 1.0f, nullptr, 4, nullptr, 1,
             0.5f, c.data(), c.ld());
  for (index_t j = 0; j < 4; ++j) {
    for (index_t i = 0; i < 4; ++i) {
      EXPECT_FLOAT_EQ(c(i, j), 0.5f * expected(i, j));
    }
  }
}

TEST(Gemm, EmptyOutputIsNoop) {
  // m == 0 and n == 0 are valid degenerate calls.
  blas::gemm(Op::NoTrans, Op::NoTrans, 0, 4, 4, 1.0f, nullptr, 1, nullptr, 4,
             0.0f, nullptr, 1);
  blas::gemm(Op::NoTrans, Op::NoTrans, 4, 0, 4, 1.0f, nullptr, 4, nullptr, 4,
             0.0f, nullptr, 4);
}

TEST(Gemm, Fp16PathRoundsInputs) {
  // Pick a value with a long mantissa: fp16 rounding must change the result.
  const index_t n = 1;
  la::Matrix a(1, 1);
  la::Matrix b(1, 1);
  la::Matrix c(1, 1);
  a(0, 0) = 1.0009765625f + 0x1.0p-12f; // not representable in fp16
  b(0, 0) = 1.0f;
  blas::gemm(Op::NoTrans, Op::NoTrans, n, n, 1, 1.0f, a.data(), 1, b.data(), 1,
             0.0f, c.data(), 1, blas::GemmPrecision::FP16_FP32);
  EXPECT_EQ(c(0, 0), float(half(a(0, 0))));
  EXPECT_NE(c(0, 0), a(0, 0));
}

/// A stored operand whose entries stress the fp16 input rounding: long
/// mantissas, half subnormals, exact ties between two adjacent halves
/// (normal and subnormal), and a few entries at the 65504/65520 overflow
/// edge.
la::Matrix fp16_edge_operand(index_t rows, index_t cols, std::uint64_t seed) {
  Rng rng(seed);
  la::Matrix x(rows, cols);
  for (index_t j = 0; j < cols; ++j) {
    for (index_t i = 0; i < rows; ++i) {
      const float odd = 2.0f * static_cast<float>(rng.below(1024)) + 1.0f;
      float v = static_cast<float>(rng.uniform(-2.0, 2.0));
      switch (rng.below(6)) {
      case 0: // half subnormal
        v = static_cast<float>(rng.uniform(-1.0, 1.0)) * 0x1.0p-14f;
        break;
      case 1: // tie between two subnormal halves (or 2^-14)
        v = odd * 0x1.0p-25f;
        break;
      case 2: // tie between two normal halves in (-2, -1)
        v = -(1.0f + odd * 0x1.0p-11f);
        break;
      default:
        break;
      }
      x(i, j) = v;
    }
  }
  x(0, 0) = 65520.0f;                 // tie; nearest-even is +inf
  x(rows - 1, cols - 1) = -70000.0f;  // -inf
  x(rows / 2, cols / 2) = 65519.0f;   // rounds down to 65504
  x(rows / 3, cols - 1) = 65504.0f;   // half max, exact
  return x;
}

la::Matrix rounded_through_half(const la::Matrix& x) {
  la::Matrix r = la::materialize(x.view());
  for (index_t j = 0; j < r.cols(); ++j) {
    for (index_t i = 0; i < r.rows(); ++i) r(i, j) = float(half(r(i, j)));
  }
  return r;
}

// The fp16 contract, bit for bit: FP16_FP32 must give exactly the bytes
// FP32 gives on operands pre-rounded through float(half(x)). MatchesReference
// compares against a tolerance and cannot see a one-ulp rounding slip.
// 130 x 70 x 300 crosses the kMC and kKC cache-block edges.
TEST(Gemm, Fp16PathEqualsFp32OnPreRoundedOperands) {
  const index_t m = 130;
  const index_t n = 70;
  const index_t k = 300;
  for (const Op opa : {Op::NoTrans, Op::Trans}) {
    for (const Op opb : {Op::NoTrans, Op::Trans}) {
      const la::Matrix a = opa == Op::NoTrans ? fp16_edge_operand(m, k, 1)
                                              : fp16_edge_operand(k, m, 1);
      const la::Matrix b = opb == Op::NoTrans ? fp16_edge_operand(k, n, 2)
                                              : fp16_edge_operand(n, k, 2);
      const la::Matrix a16 = rounded_through_half(a);
      const la::Matrix b16 = rounded_through_half(b);
      la::Matrix c_fp16 = la::random_uniform(m, n, 3);
      la::Matrix c_fp32 = la::materialize(c_fp16.view());
      blas::gemm(opa, opb, m, n, k, 1.25f, a.data(), a.ld(), b.data(), b.ld(),
                 -0.5f, c_fp16.data(), c_fp16.ld(), GemmPrecision::FP16_FP32);
      blas::gemm(opa, opb, m, n, k, 1.25f, a16.data(), a16.ld(), b16.data(),
                 b16.ld(), -0.5f, c_fp32.data(), c_fp32.ld(),
                 GemmPrecision::FP32);
      EXPECT_EQ(std::memcmp(c_fp16.data(), c_fp32.data(),
                            sizeof(float) * static_cast<size_t>(m * n)),
                0)
          << "opa=" << static_cast<int>(opa)
          << " opb=" << static_cast<int>(opb);
    }
  }
}

TEST(Gemm, SubviewLeadingDimensions) {
  // Operate on an interior block of a larger matrix.
  la::Matrix big = la::random_uniform(10, 10, 4);
  la::Matrix a = la::random_uniform(3, 4, 1);
  la::Matrix b = la::random_uniform(4, 3, 2);
  la::Matrix expected(3, 3);
  blas::gemm(Op::NoTrans, Op::NoTrans, 3, 3, 4, 1.0f, a.data(), a.ld(),
             b.data(), b.ld(), 0.0f, expected.data(), expected.ld());
  float* cptr = &big(2, 5);
  blas::gemm(Op::NoTrans, Op::NoTrans, 3, 3, 4, 1.0f, a.data(), a.ld(),
             b.data(), b.ld(), 0.0f, cptr, big.ld());
  for (index_t j = 0; j < 3; ++j) {
    for (index_t i = 0; i < 3; ++i) {
      EXPECT_FLOAT_EQ(big(2 + i, 5 + j), expected(i, j));
    }
  }
}

TEST(Gemm, RejectsBadArguments) {
  la::Matrix a = la::random_uniform(4, 4, 1);
  EXPECT_THROW(blas::gemm(Op::NoTrans, Op::NoTrans, -1, 4, 4, 1.0f, a.data(),
                          4, a.data(), 4, 0.0f, a.data(), 4),
               InvalidArgument);
  // lda smaller than the stored row count.
  EXPECT_THROW(blas::gemm(Op::NoTrans, Op::NoTrans, 4, 4, 4, 1.0f, a.data(),
                          2, a.data(), 4, 0.0f, a.data(), 4),
               InvalidArgument);
  // Null pointers with nonzero work.
  EXPECT_THROW(blas::gemm(Op::NoTrans, Op::NoTrans, 4, 4, 4, 1.0f, nullptr, 4,
                          a.data(), 4, 0.0f, a.data(), 4),
               InvalidArgument);
}

TEST(Gemm, SplittingKIsBitwiseInvariant) {
  // The OOC drivers re-slice one multiply into several k-panels and are
  // tested to produce identical bits; the host kernel must honor that. The
  // second case is the panel's inner product (T,N on fp16 inputs, k = 4096,
  // sixteen kKC blocks).
  struct Case {
    Op opa;
    GemmPrecision prec;
    index_t m, n, k, k1; // k1: awkward split, not a block multiple
  };
  for (const Case& t :
       {Case{Op::NoTrans, GemmPrecision::FP32, 96, 41, 300, 113},
        Case{Op::Trans, GemmPrecision::FP16_FP32, 64, 64, 4096, 1000}}) {
    const la::Matrix a = make_operand(t.opa, t.m, t.k, 4);
    const la::Matrix b = la::random_uniform(t.k, t.n, 5);
    // op(A)(:, k1:) starts at column k1 of A, or at row k1 of the stored Aᵀ.
    const float* a_tail = t.opa == Op::NoTrans ? &a(0, t.k1) : &a(t.k1, 0);
    la::Matrix c_whole(t.m, t.n);
    la::Matrix c_split(t.m, t.n);
    blas::gemm(t.opa, Op::NoTrans, t.m, t.n, t.k, 1.0f, a.data(), a.ld(),
               b.data(), b.ld(), 0.0f, c_whole.data(), c_whole.ld(), t.prec);
    blas::gemm(t.opa, Op::NoTrans, t.m, t.n, t.k1, 1.0f, a.data(), a.ld(),
               b.data(), b.ld(), 0.0f, c_split.data(), c_split.ld(), t.prec);
    blas::gemm(t.opa, Op::NoTrans, t.m, t.n, t.k - t.k1, 1.0f, a_tail, a.ld(),
               &b(t.k1, 0), b.ld(), 1.0f, c_split.data(), c_split.ld(),
               t.prec);
    EXPECT_EQ(std::memcmp(c_whole.data(), c_split.data(),
                          sizeof(float) * static_cast<size_t>(t.m * t.n)),
              0)
        << "m=" << t.m << " n=" << t.n << " k=" << t.k;
  }
}

// The pool partitions C into tiles whose shape depends on the pool size;
// no partition may change a bit. Shapes: the panel's inner and outer
// products (64x64x4096 T,N and 4096x64x64 N,N) and a product wider than one
// kNC column block with every op pair, each in both precisions; and the
// real_ooc inner product (128x1024x4096 T,N) in fp16 only, as real_ooc runs
// it, since it alone costs more than the others together.
TEST(Gemm, BitsDoNotDependOnPoolSize) {
  struct Case {
    index_t m, n, k;
    Op opa, opb;
    bool fp32_too;
  };
  std::vector<Case> cases = {{64, 64, 4096, Op::Trans, Op::NoTrans, true},
                             {4096, 64, 64, Op::NoTrans, Op::NoTrans, true},
                             {128, 1024, 4096, Op::Trans, Op::NoTrans, false}};
  for (const Op opa : {Op::NoTrans, Op::Trans}) {
    for (const Op opb : {Op::NoTrans, Op::Trans}) {
      cases.push_back({40, 1600, 300, opa, opb, true});
    }
  }
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (const unsigned threads : {1u, 2u, 3u, 4u, 7u}) {
    pools.push_back(std::make_unique<ThreadPool>(threads));
  }
  for (const Case& t : cases) {
    const la::Matrix a = make_operand(t.opa, t.m, t.k, 11);
    const la::Matrix b = make_operand(t.opb, t.k, t.n, 12);
    const la::Matrix c0 = la::random_uniform(t.m, t.n, 13);
    for (const GemmPrecision prec :
         {GemmPrecision::FP16_FP32, GemmPrecision::FP32}) {
      if (prec == GemmPrecision::FP32 && !t.fp32_too) continue;
      for (const float beta : {0.0f, 0.5f, 1.0f}) {
        la::Matrix expected;
        for (const auto& pool : pools) {
          la::Matrix c = la::materialize(c0.view());
          blas::gemm(t.opa, t.opb, t.m, t.n, t.k, -1.25f, a.data(), a.ld(),
                     b.data(), b.ld(), beta, c.data(), c.ld(), prec,
                     pool.get());
          if (pool->size() == 1) {
            expected = std::move(c);
            continue;
          }
          EXPECT_EQ(std::memcmp(c.data(), expected.data(),
                                sizeof(float) * static_cast<size_t>(t.m * t.n)),
                    0)
              << t.m << "x" << t.n << "x" << t.k
              << " opa=" << static_cast<int>(t.opa)
              << " opb=" << static_cast<int>(t.opb)
              << " prec=" << static_cast<int>(prec) << " beta=" << beta
              << " threads=" << pool->size();
        }
      }
    }
  }
}

// The register tile follows the build's ISA (16 x 12 with AVX-512, else
// 8 x 6); no tile may change a bit. Compares gemm against the 8 x 6 tile
// within this build, which is the same code where AVX-512 is off. Shapes:
// BitsDoNotDependOnPoolSize's, plus the inner and outer products of a
// 128-column panel (128x128x4096 T,N and 4096x128x128 N,N) and a 512-square
// product with k = 128 for both transposes of A; both precisions each.
TEST(Gemm, WideTileMatchesPortableTileBitwise) {
  struct Case {
    index_t m, n, k;
    Op opa, opb;
  };
  std::vector<Case> cases = {{64, 64, 4096, Op::Trans, Op::NoTrans},
                             {4096, 64, 64, Op::NoTrans, Op::NoTrans},
                             {128, 1024, 4096, Op::Trans, Op::NoTrans},
                             {128, 128, 4096, Op::Trans, Op::NoTrans},
                             {4096, 128, 128, Op::NoTrans, Op::NoTrans},
                             {512, 512, 128, Op::Trans, Op::NoTrans},
                             {512, 512, 128, Op::NoTrans, Op::NoTrans}};
  for (const Op opa : {Op::NoTrans, Op::Trans}) {
    for (const Op opb : {Op::NoTrans, Op::Trans}) {
      cases.push_back({40, 1600, 300, opa, opb});
    }
  }
  for (const Case& t : cases) {
    const la::Matrix a = make_operand(t.opa, t.m, t.k, 21);
    const la::Matrix b = make_operand(t.opb, t.k, t.n, 22);
    const la::Matrix c0 = la::random_uniform(t.m, t.n, 23);
    for (const GemmPrecision prec :
         {GemmPrecision::FP16_FP32, GemmPrecision::FP32}) {
      for (const float beta : {0.0f, 0.5f, 1.0f}) {
        la::Matrix wide = la::materialize(c0.view());
        la::Matrix portable = la::materialize(c0.view());
        blas::gemm(t.opa, t.opb, t.m, t.n, t.k, -1.25f, a.data(), a.ld(),
                   b.data(), b.ld(), beta, wide.data(), wide.ld(), prec);
        blas::detail::gemm_portable_tile(
            t.opa, t.opb, t.m, t.n, t.k, -1.25f, a.data(), a.ld(), b.data(),
            b.ld(), beta, portable.data(), portable.ld(), prec);
        EXPECT_EQ(std::memcmp(wide.data(), portable.data(),
                              sizeof(float) * static_cast<size_t>(t.m * t.n)),
                  0)
            << t.m << "x" << t.n << "x" << t.k
            << " opa=" << static_cast<int>(t.opa)
            << " opb=" << static_cast<int>(t.opb)
            << " prec=" << static_cast<int>(prec) << " beta=" << beta;
      }
    }
  }
}

// Regression: calling gemm from inside a parallel_for body used to re-enter
// the global pool's round state and deadlock or corrupt pending_.
TEST(Gemm, CallableFromInsideParallelForBody) {
  const index_t n = 48;
  la::Matrix a = la::random_uniform(n, n, 1);
  la::Matrix b = la::random_uniform(n, n, 2);
  la::Matrix expected(n, n);
  blas::gemm_reference(Op::NoTrans, Op::NoTrans, n, n, n, 1.0f, a.data(),
                       a.ld(), b.data(), b.ld(), 0.0f, expected.data(),
                       expected.ld());
  constexpr index_t kSlots = 8;
  std::vector<la::Matrix> results;
  for (index_t s = 0; s < kSlots; ++s) results.emplace_back(n, n);
  ThreadPool::global().parallel_for(kSlots, [&](index_t s0, index_t s1) {
    for (index_t s = s0; s < s1; ++s) {
      blas::gemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0f, a.data(), a.ld(),
                 b.data(), b.ld(), 0.0f, results[static_cast<size_t>(s)].data(),
                 results[static_cast<size_t>(s)].ld());
    }
  });
  const double tol = 1e-6 * std::sqrt(static_cast<double>(n + 1)) * 16.0;
  for (const auto& r : results) {
    EXPECT_LT(la::relative_difference(r.view(), expected.view()), tol);
  }
}

TEST(Gemm, PackBuffersReusedAcrossCalls) {
  const index_t n = 64;
  la::Matrix a = la::random_uniform(n, n, 1);
  la::Matrix b = la::random_uniform(n, n, 2);
  la::Matrix c(n, n);
  // First call may grow the thread-local pack scratch...
  blas::gemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0f, a.data(), a.ld(),
             b.data(), b.ld(), 0.0f, c.data(), c.ld());
  const std::int64_t warm = blas::gemm_pack_allocations();
  // ...steady state (same or smaller shapes) must not allocate at all.
  for (int round = 0; round < 5; ++round) {
    blas::gemm(Op::NoTrans, Op::Trans, n, n / 2, n, 1.0f, a.data(), a.ld(),
               b.data(), b.ld(), 0.5f, c.data(), c.ld());
  }
  EXPECT_EQ(blas::gemm_pack_allocations(), warm);
}

TEST(Gemm, FlopCountConvention) {
  EXPECT_EQ(blas::gemm_flops(2, 3, 4), 48);
  EXPECT_EQ(blas::gemm_flops(65536, 131072, 65536),
            2LL * 65536 * 131072 * 65536);
}

TEST(Gemm, OpShapeHelpers) {
  EXPECT_EQ(blas::op_rows(Op::NoTrans, 3, 7), 3);
  EXPECT_EQ(blas::op_cols(Op::NoTrans, 3, 7), 7);
  EXPECT_EQ(blas::op_rows(Op::Trans, 3, 7), 7);
  EXPECT_EQ(blas::op_cols(Op::Trans, 3, 7), 3);
}

} // namespace
} // namespace rocqr
