// Level-2 BLAS (gemv/ger) and the condition-number estimator.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/level2.hpp"
#include "common/error.hpp"
#include "la/condition.hpp"
#include "la/generate.hpp"
#include "la/matrix.hpp"
#include "la/norms.hpp"

namespace rocqr {
namespace {

TEST(Gemv, NoTransMatchesGemm) {
  const index_t m = 17;
  const index_t n = 9;
  la::Matrix a = la::random_uniform(m, n, 1);
  la::Matrix x = la::random_uniform(n, 1, 2);
  la::Matrix y = la::random_uniform(m, 1, 3);
  la::Matrix expected = la::materialize(y.view());
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, m, 1, n, 1.5f, a.data(),
             a.ld(), x.data(), x.ld(), -0.5f, expected.data(), expected.ld());
  blas::gemv(blas::Op::NoTrans, m, n, 1.5f, a.data(), a.ld(), x.data(), 1,
             -0.5f, y.data(), 1);
  EXPECT_LT(la::relative_difference(y.view(), expected.view()), 1e-6);
}

TEST(Gemv, TransMatchesGemm) {
  const index_t m = 23;
  const index_t n = 11;
  la::Matrix a = la::random_uniform(m, n, 4);
  la::Matrix x = la::random_uniform(m, 1, 5);
  la::Matrix y = la::random_uniform(n, 1, 6);
  la::Matrix expected = la::materialize(y.view());
  blas::gemm(blas::Op::Trans, blas::Op::NoTrans, n, 1, m, 2.0f, a.data(),
             a.ld(), x.data(), x.ld(), 1.0f, expected.data(), expected.ld());
  blas::gemv(blas::Op::Trans, m, n, 2.0f, a.data(), a.ld(), x.data(), 1, 1.0f,
             y.data(), 1);
  EXPECT_LT(la::relative_difference(y.view(), expected.view()), 1e-6);
}

// gemv(Trans) gives each y_j exactly one sequential double sum over the
// rows, whichever columns it runs beside (four at a time, then the 1-3
// remainder) and whether or not the pool splits the columns (m * n >= 2^15:
// m = 4096 with n >= 8). The first and last products are +-2^40, so every
// partial sum in between is rounded to 2^-12 and any other summation order
// leaves different low bits in the result. alpha = -0.5 scales exactly, so
// an FMA in the epilogue cannot change the bits: the check holds on FMA and
// non-FMA builds.
TEST(Gemv, TransIsOneSequentialDoubleSumPerColumn) {
  const float alpha = -0.5f;
  const float big = 1048576.0f; // 2^20
  for (const index_t m : {1, 37, 4096}) {
    for (index_t n = 1; n <= 9; ++n) {
      for (const index_t incx : {1, 3}) {
        for (const float beta : {0.0f, 1.0f}) {
          la::Matrix a = la::random_normal(m + 2, n, 21); // lda > m
          la::Matrix x = la::random_normal(m * incx, 1, 22);
          const la::Matrix y0 = la::random_normal(n, 1, 23);
          if (m > 1) {
            x(0, 0) = big;
            x((m - 1) * incx, 0) = big;
            for (index_t j = 0; j < n; ++j) {
              a(0, j) = big;
              a(m - 1, j) = -big;
            }
          }
          std::vector<float> want(static_cast<size_t>(n));
          for (index_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (index_t i = 0; i < m; ++i) {
              acc += static_cast<double>(a(i, j)) *
                     static_cast<double>(x(i * incx, 0));
            }
            want[static_cast<size_t>(j)] = (beta == 0.0f ? 0.0f : y0(j, 0)) +
                                           alpha * static_cast<float>(acc);
          }
          la::Matrix y = la::materialize(y0.view());
          blas::gemv(blas::Op::Trans, m, n, alpha, a.data(), a.ld(), x.data(),
                     incx, beta, y.data(), 1);
          EXPECT_EQ(std::memcmp(y.data(), want.data(),
                                sizeof(float) * static_cast<size_t>(n)),
                    0)
              << "m=" << m << " n=" << n << " incx=" << incx
              << " beta=" << beta;
        }
      }
    }
  }
}

TEST(Gemv, StridedVectors) {
  const index_t m = 4;
  const index_t n = 3;
  la::Matrix a = la::random_uniform(m, n, 7);
  float x[6] = {1, -99, 2, -99, 3, -99};          // incx = 2
  float y[8] = {0, 7, 0, 7, 0, 7, 0, 7};          // incy = 2
  blas::gemv(blas::Op::NoTrans, m, n, 1.0f, a.data(), a.ld(), x, 2, 0.0f, y,
             2);
  for (index_t i = 0; i < m; ++i) {
    float want = 0.0f;
    for (index_t j = 0; j < n; ++j) want += a(i, j) * x[2 * j];
    EXPECT_NEAR(y[2 * i], want, 1e-5);
    EXPECT_FLOAT_EQ(y[2 * i + 1], 7.0f); // untouched
  }
}

TEST(Gemv, BetaZeroClearsGarbage) {
  la::Matrix a = la::random_uniform(3, 3, 8);
  float x[3] = {1, 2, 3};
  float y[3];
  y[0] = std::numeric_limits<float>::quiet_NaN();
  y[1] = y[2] = 0.0f;
  blas::gemv(blas::Op::NoTrans, 3, 3, 1.0f, a.data(), a.ld(), x, 1, 0.0f, y,
             1);
  EXPECT_FALSE(std::isnan(y[0]));
  // Degenerate and invalid shapes.
  blas::gemv(blas::Op::NoTrans, 0, 3, 1.0f, a.data(), 1, x, 1, 0.0f, y, 1);
  EXPECT_THROW(blas::gemv(blas::Op::NoTrans, -1, 3, 1.0f, a.data(), 1, x, 1,
                          0.0f, y, 1),
               InvalidArgument);
}

TEST(Ger, MatchesManualRank1) {
  const index_t m = 5;
  const index_t n = 4;
  la::Matrix a = la::random_uniform(m, n, 9);
  la::Matrix original = la::materialize(a.view());
  float x[5] = {1, 2, 3, 4, 5};
  float y[4] = {-1, 0.5f, 2, 0};
  blas::ger(m, n, 0.5f, x, 1, y, 1, a.data(), a.ld());
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      EXPECT_NEAR(a(i, j), original(i, j) + 0.5f * x[i] * y[j], 1e-6);
    }
  }
  // alpha = 0 is a no-op even with null vectors.
  blas::ger(m, n, 0.0f, nullptr, 1, nullptr, 1, a.data(), a.ld());
}

TEST(Condition, LargestSingularValueOfScaledIdentity) {
  la::Matrix a = la::identity(16);
  for (index_t i = 0; i < 16; ++i) a(i, i) = 3.0f;
  EXPECT_NEAR(la::estimate_largest_singular_value(a.view()), 3.0, 1e-3);
}

TEST(Condition, MatchesConstructedConditionNumber) {
  for (const double cond : {1.0, 10.0, 100.0, 1000.0}) {
    la::Matrix a = la::random_with_condition(120, 24, cond, 42);
    const double est = la::estimate_condition(a.view());
    EXPECT_NEAR(est / cond, 1.0, 0.15) << "cond=" << cond;
  }
}

TEST(Condition, SmallestSingularValueFromTriangularFactor) {
  // Diagonal R: singular values are the diagonal entries.
  la::Matrix r(5, 5);
  const float diag[5] = {4.0f, 2.0f, 1.0f, 0.5f, 0.25f};
  for (index_t i = 0; i < 5; ++i) r(i, i) = diag[i];
  EXPECT_NEAR(la::estimate_smallest_singular_value(r.view()), 0.25, 1e-3);
}

TEST(Condition, RejectsBadInputs) {
  la::Matrix wide(3, 5);
  EXPECT_THROW(la::estimate_largest_singular_value(wide.view()),
               InvalidArgument);
  la::Matrix rect(3, 4);
  EXPECT_THROW(la::estimate_smallest_singular_value(rect.view()),
               InvalidArgument);
  la::Matrix ok = la::random_normal(8, 4, 1);
  EXPECT_THROW(la::estimate_largest_singular_value(ok.view(), 0),
               InvalidArgument);
}

} // namespace
} // namespace rocqr
