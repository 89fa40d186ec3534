// In-core Gram-Schmidt family: correctness, stability ordering, precision.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <ostream>
#include <tuple>
#include <vector>

#include "blas/level1.hpp"
#include "blas/level2.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"
#include "qr/incore.hpp"

namespace rocqr::qr {
namespace {

using blas::GemmPrecision;

using Factorizer = QrFactors (*)(la::ConstMatrixView);

QrFactors run_blocked(la::ConstMatrixView a) {
  return blocked_cgs(a, 8);
}
QrFactors run_recursive(la::ConstMatrixView a) {
  return recursive_cgs(a, 4);
}
QrFactors run_tsqr(la::ConstMatrixView a) {
  return tsqr(a, 16); // small leaves force a multi-level tree
}

struct AlgoCase {
  const char* name;
  Factorizer fn;
};

/// gtest prints each parameter into the discovered test name; the default
/// would print the bytes of both pointers, which change with every build.
void PrintTo(const AlgoCase& c, std::ostream* os) { *os << c.name; }

class IncoreQrTest
    : public ::testing::TestWithParam<
          std::tuple<AlgoCase, std::tuple<index_t, index_t>>> {};

TEST_P(IncoreQrTest, FactorsRandomMatrix) {
  const auto [algo, shape] = GetParam();
  const auto [m, n] = shape;
  la::Matrix a = la::random_normal(m, n, 1234);
  const QrFactors f = algo.fn(a.view());

  ASSERT_EQ(f.q.rows(), m);
  ASSERT_EQ(f.q.cols(), n);
  ASSERT_EQ(f.r.rows(), n);
  EXPECT_TRUE(la::is_upper_triangular(f.r.view())) << algo.name;
  EXPECT_LT(la::qr_residual(a.view(), f.q.view(), f.r.view()), 1e-5)
      << algo.name;
  // Gaussian tall matrices are well conditioned: Q should be orthonormal to
  // a few ulps times sqrt(mn).
  EXPECT_LT(la::orthogonality_error(f.q.view()), 1e-4) << algo.name;
  // CGS produces positive diagonal R (norms), making the factorization
  // unique — pin that convention.
  for (index_t j = 0; j < n; ++j) EXPECT_GT(f.r(j, j), 0.0f) << algo.name;
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, IncoreQrTest,
    ::testing::Combine(
        ::testing::Values(AlgoCase{"cgs", cgs}, AlgoCase{"mgs", mgs},
                          AlgoCase{"cgs2", cgs2},
                          AlgoCase{"blocked", run_blocked},
                          AlgoCase{"recursive", run_recursive},
                          AlgoCase{"cholesky_qr", cholesky_qr},
                          AlgoCase{"cholesky_qr2", cholesky_qr2},
                          AlgoCase{"householder", householder},
                          AlgoCase{"givens", givens},
                          AlgoCase{"tsqr", run_tsqr}),
        ::testing::Values(std::tuple<index_t, index_t>{1, 1},
                          std::tuple<index_t, index_t>{7, 5},
                          std::tuple<index_t, index_t>{32, 32},
                          std::tuple<index_t, index_t>{100, 40},
                          std::tuple<index_t, index_t>{65, 33},
                          std::tuple<index_t, index_t>{200, 64})),
    [](const auto& param_info) {
      const auto& shape = std::get<1>(param_info.param);
      return std::string(std::get<0>(param_info.param).name) + "_" +
             std::to_string(std::get<0>(shape)) + "x" +
             std::to_string(std::get<1>(shape));
    });

TEST(IncoreQr, AllVariantsAgreeOnWellConditionedInput) {
  // Same A, unique factorization (positive diagonal) => all variants agree
  // up to rounding.
  la::Matrix a = la::random_normal(60, 24, 7);
  const QrFactors ref = mgs(a.view());
  for (const auto& f :
       {cgs(a.view()), cgs2(a.view()), blocked_cgs(a.view(), 8),
        recursive_cgs(a.view(), 4), cholesky_qr2(a.view()),
        householder(a.view()), givens(a.view())}) {
    EXPECT_LT(la::relative_difference(f.q.view(), ref.q.view()), 1e-3);
    EXPECT_LT(la::relative_difference(f.r.view(), ref.r.view()), 1e-3);
  }
}

TEST(IncoreQr, TsqrMatchesHouseholderAcrossTreeShapes) {
  la::Matrix a = la::random_normal(200, 24, 23);
  const QrFactors ref = householder(a.view());
  // Leaf sizes that exercise: single leaf, even trees, odd (pass-through)
  // trees, and a ragged final leaf.
  for (const index_t rb : {512, 100, 64, 50, 30, 24}) {
    const QrFactors f = tsqr(a.view(), rb);
    EXPECT_LT(la::relative_difference(f.q.view(), ref.q.view()), 1e-4)
        << "rb=" << rb;
    EXPECT_LT(la::relative_difference(f.r.view(), ref.r.view()), 1e-4)
        << "rb=" << rb;
    EXPECT_LT(la::qr_residual(a.view(), f.q.view(), f.r.view()), 1e-5)
        << "rb=" << rb;
  }
}

TEST(IncoreQr, TsqrSingleLeafDegeneratesToHouseholder) {
  // m <= row_block: the tree is one leaf, so tsqr IS a (sign-normalized)
  // Householder QR — the exact degenerate case the OOC fleet driver hits
  // with one device.
  la::Matrix a = la::random_normal(48, 20, 41);
  const QrFactors f = tsqr(a.view(), 64);
  const QrFactors ref = householder(a.view());
  EXPECT_LT(la::relative_difference(f.q.view(), ref.q.view()), 1e-6);
  EXPECT_LT(la::relative_difference(f.r.view(), ref.r.view()), 1e-6);
}

TEST(IncoreQr, TsqrOddLeafCountExercisesPassThrough) {
  // 160 rows at row_block 32 -> 5 leaves: every reduction level carries a
  // lone trailing node whose R (and coefficient) passes through unmerged.
  la::Matrix a = la::random_normal(160, 16, 43);
  const QrFactors f = tsqr(a.view(), 32);
  const QrFactors ref = householder(a.view());
  EXPECT_LT(la::relative_difference(f.q.view(), ref.q.view()), 1e-4);
  EXPECT_LT(la::relative_difference(f.r.view(), ref.r.view()), 1e-4);
  EXPECT_LT(la::qr_residual(a.view(), f.q.view(), f.r.view()), 1e-5);
}

TEST(IncoreQr, TsqrAbsorbsShortTailIntoLastLeaf) {
  // m = 3*row_block + tail with 0 < tail < n: a tail leaf shorter than n
  // would have a rank-deficient stacked R, so it must be absorbed into the
  // previous leaf instead of forming its own.
  const index_t n = 24;
  const index_t rb = 40;
  for (const index_t tail : {1, 10, 23}) {
    la::Matrix a = la::random_normal(3 * rb + tail, n, 47);
    const QrFactors f = tsqr(a.view(), rb);
    const QrFactors ref = householder(a.view());
    EXPECT_LT(la::relative_difference(f.r.view(), ref.r.view()), 1e-4)
        << "tail=" << tail;
    EXPECT_LT(la::qr_residual(a.view(), f.q.view(), f.r.view()), 1e-5)
        << "tail=" << tail;
  }
}

TEST(IncoreQr, TsqrSignConventionMatchesHouseholder) {
  // Both pin diag(R) > 0, which is what lets the OOC fleet driver compare
  // its (CGS-leaf) R against the in-core reference without sign fixes.
  la::Matrix a = la::random_normal(128, 20, 53);
  const QrFactors f = tsqr(a.view(), 32);
  const QrFactors ref = householder(a.view());
  for (index_t j = 0; j < 20; ++j) {
    EXPECT_GT(f.r(j, j), 0.0f) << j;
    EXPECT_GT(ref.r(j, j), 0.0f) << j;
  }
  EXPECT_LT(la::relative_difference(f.r.view(), ref.r.view()), 1e-4);
}

TEST(IncoreQr, TsqrStaysStableWhereCgsFails) {
  // TSQR inherits Householder's unconditional stability — the property the
  // Gram-Schmidt family trades away for GEMM-friendliness.
  la::Matrix a = la::random_with_condition(240, 24, 1e4, 29);
  const double e_tsqr = la::orthogonality_error(tsqr(a.view(), 48).q.view());
  const double e_cgs = la::orthogonality_error(cgs(a.view()).q.view());
  EXPECT_LT(e_tsqr, 1e-4);
  EXPECT_GT(e_cgs, 10 * e_tsqr);
}

TEST(IncoreQr, HouseholderAndGivensAreUnconditionallyStable) {
  // The §3.1 comparison across the three QR families: on a cond=1e4 matrix
  // the orthogonal-transformation methods keep Q orthonormal to fp32
  // roundoff, CGS visibly does not.
  la::Matrix a = la::random_with_condition(160, 32, 1e4, 19);
  const double e_house = la::orthogonality_error(householder(a.view()).q.view());
  const double e_givens = la::orthogonality_error(givens(a.view()).q.view());
  const double e_cgs = la::orthogonality_error(cgs(a.view()).q.view());
  EXPECT_LT(e_house, 1e-4);
  EXPECT_LT(e_givens, 1e-4);
  EXPECT_GT(e_cgs, 10 * e_house);
  // Residuals are all fine — the difference is purely orthogonality.
  const QrFactors h = householder(a.view());
  EXPECT_LT(la::qr_residual(a.view(), h.q.view(), h.r.view()), 1e-5);
}

TEST(IncoreQr, StabilityOrderingOnIllConditionedMatrix) {
  // cond ~ 1e3: CGS loses orthogonality like cond^2 * eps, MGS like
  // cond * eps, CGS2 stays near eps. The ordering is the textbook result
  // the paper's §3.1.1 refers to.
  la::Matrix a = la::random_with_condition(120, 30, 1e3, 11);
  const double e_cgs = la::orthogonality_error(cgs(a.view()).q.view());
  const double e_mgs = la::orthogonality_error(mgs(a.view()).q.view());
  const double e_cgs2 = la::orthogonality_error(cgs2(a.view()).q.view());
  EXPECT_LT(e_cgs2, 1e-4);
  EXPECT_LE(e_cgs2, e_mgs * 2.0);
  EXPECT_LT(e_mgs, e_cgs);
  // All still reconstruct A.
  for (const auto& f : {cgs(a.view()), mgs(a.view()), cgs2(a.view())}) {
    EXPECT_LT(la::qr_residual(a.view(), f.q.view(), f.r.view()), 1e-4);
  }
}

TEST(IncoreQr, RecursiveMatchesBaseCaseExactlyAtSmallSizes) {
  la::Matrix a = la::random_normal(20, 3, 3);
  const QrFactors rec = recursive_cgs(a.view(), 8); // n < base: pure CGS
  const QrFactors direct = cgs(a.view());
  EXPECT_EQ(la::relative_difference(rec.q.view(), direct.q.view()), 0.0);
  EXPECT_EQ(la::relative_difference(rec.r.view(), direct.r.view()), 0.0);
}

TEST(IncoreQr, RecursiveInplaceWritesCallerStorage) {
  la::Matrix a = la::random_normal(40, 16, 5);
  la::Matrix aq = la::materialize(a.view());
  la::Matrix r(16, 16);
  recursive_cgs_inplace(aq.view(), r.view(), 4);
  EXPECT_LT(la::qr_residual(a.view(), aq.view(), r.view()), 1e-5);
  EXPECT_TRUE(la::is_upper_triangular(r.view()));
}

// Each base case factors straight into the caller's R, the zeros below its
// diagonal included, so what R held before cannot leak into the result.
// Entries below the base-case blocks are not part of the output and are
// left as they were.
TEST(IncoreQr, RecursiveInplaceResultDoesNotDependOnPriorR) {
  const index_t m = 300;
  const index_t n = 44;
  const index_t base = 8; // 44 -> 22 -> 11 -> base cases of 5 and 6 columns
  const la::Matrix a = la::random_normal(m, n, 17);
  // leaf[j]: first column of the base-case block that holds column j.
  std::vector<index_t> leaf(static_cast<size_t>(n));
  const auto split = [&](const auto& self, index_t c0, index_t w) -> void {
    if (w <= base) {
      for (index_t j = c0; j < c0 + w; ++j) leaf[static_cast<size_t>(j)] = c0;
      return;
    }
    self(self, c0, w / 2);
    self(self, c0 + w / 2, w - w / 2);
  };
  split(split, 0, n);
  const auto bits = [](float v) {
    std::uint32_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return u;
  };
  for (const GemmPrecision prec :
       {GemmPrecision::FP32, GemmPrecision::FP16_FP32}) {
    la::Matrix q_zero = la::materialize(a.view());
    la::Matrix q_nan = la::materialize(a.view());
    la::Matrix r_zero(n, n);
    la::Matrix r_nan(n, n);
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < n; ++i) {
        r_nan(i, j) = std::numeric_limits<float>::quiet_NaN();
      }
    }
    recursive_cgs_inplace(q_zero.view(), r_zero.view(), base, prec);
    recursive_cgs_inplace(q_nan.view(), r_nan.view(), base, prec);
    EXPECT_EQ(std::memcmp(q_zero.data(), q_nan.data(),
                          sizeof(float) * static_cast<size_t>(m * n)),
              0);
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < n; ++i) {
        const bool same_leaf =
            leaf[static_cast<size_t>(i)] == leaf[static_cast<size_t>(j)];
        if (i > j && !same_leaf) {
          EXPECT_TRUE(std::isnan(r_nan(i, j))) << i << "," << j;
          continue;
        }
        EXPECT_EQ(bits(r_nan(i, j)), bits(r_zero(i, j))) << i << "," << j;
        if (i > j) {
          EXPECT_EQ(bits(r_nan(i, j)), 0u) << i << "," << j;
        }
      }
    }
  }
}

/// The left-looking CGS column loop (per column j: gemv(Trans) for
/// r(0:j, j), gemv(NoTrans) for the update, nrm2, scal), run on the
/// library's own compiled kernels: the bit reference for the right-looking
/// leaf.
void gemv_leaf(la::MatrixView q, la::MatrixView r) {
  const index_t m = q.rows();
  const index_t n = q.cols();
  for (index_t j = 0; j < n; ++j) {
    blas::gemv(blas::Op::Trans, m, j, 1.0f, q.data(), q.ld(), &q(0, j), 1,
               0.0f, &r(0, j), 1);
    blas::gemv(blas::Op::NoTrans, m, j, -1.0f, q.data(), q.ld(), &r(0, j), 1,
               1.0f, &q(0, j), 1);
    const double norm = blas::nrm2(m, &q(0, j), 1);
    ASSERT_GT(norm, 0.0) << "column " << j;
    r(j, j) = static_cast<float>(norm);
    blas::scal(m, static_cast<float>(1.0 / norm), &q(0, j), 1);
    for (index_t i = j + 1; i < n; ++i) r(i, j) = 0.0f;
  }
}

/// Columns in exactly orthogonal pairs: column 2p lives on the even rows and
/// column 2p + 1 on the odd ones, with -0.0f elsewhere. Their dot is a zero
/// sum, so the update it weights is skipped, and the -0.0f entries show
/// whether a skipped update ran anyway.
la::Matrix orthogonal_pairs(index_t m, index_t n, std::uint64_t seed) {
  Rng rng(seed);
  la::Matrix a(m, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      a(i, j) = (i % 2 == j % 2) ? static_cast<float>(rng.normal()) : -0.0f;
    }
  }
  return a;
}

// The right-looking leaf against the left-looking gemv loop, byte for byte,
// on sub-blocks (ld > m for A, ld > n for R, as recursive_cgs_inplace passes
// them). Every byte around the blocks must stay as it was, and every entry
// of the n x n R block is written (the NaN fill would show).
TEST(IncoreQr, RightLookingLeafMatchesGemvLeafBitwise) {
  for (const index_t n : {1, 2, 7, 8, 9, 31, 32, 33, 64}) {
    for (const index_t m : {n, index_t{33}, index_t{4096}}) {
      if (m < n) continue;
      for (const bool pairs : {false, true}) {
        const la::Matrix block = pairs ? orthogonal_pairs(m, n, 40 + n)
                                       : la::random_normal(m, n, 20 + n);
        la::Matrix q_ref = la::random_normal(m + 5, n + 2, 3);
        la::Matrix r_ref(n + 3, n + 1);
        for (index_t j = 0; j < r_ref.cols(); ++j) {
          for (index_t i = 0; i < r_ref.rows(); ++i) {
            r_ref(i, j) = std::numeric_limits<float>::quiet_NaN();
          }
        }
        for (index_t j = 0; j < n; ++j) {
          for (index_t i = 0; i < m; ++i) q_ref(2 + i, 1 + j) = block(i, j);
        }
        la::Matrix q_new = la::materialize(q_ref.view());
        la::Matrix r_new = la::materialize(r_ref.view());
        gemv_leaf(q_ref.block(2, 1, m, n), r_ref.block(1, 1, n, n));
        blas::cgs_right_looking(m, n, &q_new(2, 1), q_new.ld(), &r_new(1, 1),
                                r_new.ld());
        const auto bytes = [](const la::Matrix& x) {
          return sizeof(float) * static_cast<size_t>(x.ld() * x.cols());
        };
        EXPECT_EQ(std::memcmp(q_ref.data(), q_new.data(), bytes(q_ref)), 0)
            << "Q m=" << m << " n=" << n << " pairs=" << pairs;
        EXPECT_EQ(std::memcmp(r_ref.data(), r_new.data(), bytes(r_ref)), 0)
            << "R m=" << m << " n=" << n << " pairs=" << pairs;
      }
    }
  }
  // A zero column throws, from the inline leaf and from a pooled one, whose
  // other threads must stop waiting for it; the next leaf then runs.
  for (const index_t m : {index_t{40}, index_t{4096}}) {
    la::Matrix with_zero = la::random_normal(m, 33, 5);
    for (index_t i = 0; i < m; ++i) with_zero(i, 20) = 0.0f;
    la::Matrix r(33, 33);
    EXPECT_THROW(blas::cgs_right_looking(m, 33, with_zero.data(),
                                         with_zero.ld(), r.data(), r.ld()),
                 InvalidArgument)
        << "m=" << m;
    la::Matrix ok = la::random_normal(m, 33, 6);
    blas::cgs_right_looking(m, 33, ok.data(), ok.ld(), r.data(), r.ld());
    EXPECT_GT(r(32, 32), 0.0f) << "m=" << m;
  }
}

TEST(IncoreQr, Fp16PrecisionDegradesGracefully) {
  la::Matrix a = la::random_normal(128, 32, 9);
  const QrFactors f32 = recursive_cgs(a.view(), 8, GemmPrecision::FP32);
  const QrFactors f16 = recursive_cgs(a.view(), 8, GemmPrecision::FP16_FP32);
  const double res32 = la::qr_residual(a.view(), f32.q.view(), f32.r.view());
  const double res16 = la::qr_residual(a.view(), f16.q.view(), f16.r.view());
  EXPECT_LT(res32, 1e-5);
  // fp16-input GEMM updates: residual grows but stays at half-precision
  // levels (the HPDC'20 result that recursion keeps CGS usable on TC).
  EXPECT_LT(res16, 5e-3);
  EXPECT_GT(res16, res32);
}

TEST(IncoreQr, BlockedHandlesBlockBoundaryCases) {
  la::Matrix a = la::random_normal(50, 20, 13);
  for (index_t block : {1, 3, 7, 20, 64}) {
    const QrFactors f = blocked_cgs(a.view(), block);
    EXPECT_LT(la::qr_residual(a.view(), f.q.view(), f.r.view()), 1e-5)
        << "block=" << block;
  }
}

TEST(IncoreQr, RejectsDependentColumnsAndBadShapes) {
  // An exactly zero column has no direction at all: hard failure.
  la::Matrix with_zero = la::random_normal(8, 3, 21);
  for (index_t i = 0; i < 8; ++i) with_zero(i, 1) = 0.0f;
  EXPECT_THROW(cgs(with_zero.view()), InvalidArgument);
  EXPECT_THROW(mgs(with_zero.view()), InvalidArgument);
  // Exactly parallel columns: after projection only rounding noise remains.
  // Like reference Gram-Schmidt codes we do not guess a tolerance — the
  // result is a (documented) garbage direction, visible as a huge R-entry
  // ratio, not an exception.
  la::Matrix dependent(8, 2);
  for (index_t i = 0; i < 8; ++i) {
    dependent(i, 0) = 1.0f + 0.1f * static_cast<float>(i);
    dependent(i, 1) = 2.0f * dependent(i, 0);
  }
  try {
    const QrFactors f = cgs(dependent.view());
    EXPECT_GT(f.r(0, 0) / std::max(f.r(1, 1), 1e-30f), 1e5f);
  } catch (const InvalidArgument&) {
    // Projection happened to cancel exactly: also a valid outcome.
  }
  la::Matrix wide(3, 5);
  EXPECT_THROW(cgs(wide.view()), InvalidArgument);
  EXPECT_THROW(recursive_cgs(wide.view()), InvalidArgument);
  la::Matrix ok = la::random_normal(8, 4, 1);
  EXPECT_THROW(blocked_cgs(ok.view(), 0), InvalidArgument);
  EXPECT_THROW(recursive_cgs(ok.view(), 0), InvalidArgument);
}

TEST(IncoreQr, CholeskyQr2RestoresOrthogonality) {
  la::Matrix a = la::random_with_condition(200, 24, 100.0, 17);
  const double e1 = la::orthogonality_error(cholesky_qr(a.view()).q.view());
  const double e2 = la::orthogonality_error(cholesky_qr2(a.view()).q.view());
  EXPECT_LT(e2, e1);
  EXPECT_LT(e2, 1e-4);
}

TEST(IncoreQr, HilbertMatrixStressesCgs) {
  // Hilbert columns are nearly dependent; CGS2 must still produce an
  // orthonormal basis while plain CGS visibly degrades.
  la::Matrix h = la::hilbert(64, 8);
  const QrFactors f2 = cgs2(h.view());
  EXPECT_LT(la::orthogonality_error(f2.q.view()), 1e-3);
  EXPECT_LT(la::qr_residual(h.view(), f2.q.view(), f2.r.view()), 1e-4);
  const QrFactors f1 = cgs(h.view());
  EXPECT_GT(la::orthogonality_error(f1.q.view()),
            la::orthogonality_error(f2.q.view()));
}

} // namespace
} // namespace rocqr::qr
