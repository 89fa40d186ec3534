// Out-of-core LU and Cholesky (the §6 future-work extension) plus their
// substrates: the out-of-core triangular solve and the column-wise /
// transposed outer-product engines.
#include <gtest/gtest.h>

#include "leak_check.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "blas/transform.hpp"
#include "blas/trsm.hpp"
#include "common/error.hpp"
#include "la/cholesky.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"
#include "lu/incore.hpp"
#include "lu/ooc_cholesky.hpp"
#include "lu/ooc_lu.hpp"
#include "ooc/gemm_engines.hpp"
#include "ooc/operand.hpp"
#include "ooc/trsm_engine.hpp"
#include "sim/device.hpp"

namespace rocqr::lu {
namespace {

using blas::GemmPrecision;
using ooc::Operand;
using sim::Device;
using sim::ExecutionMode;

sim::DeviceSpec test_spec(bytes_t capacity = 512LL << 20) {
  sim::DeviceSpec s = sim::DeviceSpec::v100_32gb();
  s.memory_capacity = capacity;
  return s;
}

// --- Column-wise and transposed outer-product engines -----------------------

TEST(OuterColwise, MatchesHostGemm) {
  const index_t m = 60;
  const index_t k = 24;
  const index_t n = 150;
  la::Matrix a = la::random_uniform(m, k, 1);
  la::Matrix b = la::random_uniform(k, n, 2);
  la::Matrix c0 = la::random_uniform(m, n, 3);
  la::Matrix c = la::materialize(c0.view());

  Device dev(test_spec(), ExecutionMode::Real);
  ooc::OocGemmOptions opts;
  opts.blocksize = 40;
  opts.precision = GemmPrecision::FP32;
  const auto stats = ooc::outer_product_colwise(
      dev, Operand::on_host(a.view()), Operand::on_host(b.view()),
      sim::as_const(c.view()), c.view(), opts);
  dev.synchronize();

  la::Matrix expected = la::materialize(c0.view());
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, m, n, k, -1.0f, a.data(),
             a.ld(), b.data(), b.ld(), 1.0f, expected.data(), expected.ld());
  EXPECT_LT(la::relative_difference(c.view(), expected.view()), 1e-4);
  // A once; B and C column slabs once each.
  const sim::TraceSummary window =
      sim::summarize(dev.trace(), stats.trace_begin, stats.trace_end);
  EXPECT_EQ(window.bytes_h2d, (m * k + k * n + m * n) * 4);
  EXPECT_EQ(window.bytes_d2h, m * n * 4);
  EXPECT_EQ(dev.live_allocations(), 0);
}

TEST(OuterColwise, TransposedAOperand) {
  const index_t m = 40;
  const index_t k = 20;
  const index_t n = 90;
  la::Matrix a = la::random_uniform(k, m, 4); // stored k x m, used as Aᵀ
  la::Matrix b = la::random_uniform(k, n, 5);
  la::Matrix c0 = la::random_uniform(m, n, 6);
  la::Matrix c = la::materialize(c0.view());

  Device dev(test_spec(), ExecutionMode::Real);
  ooc::OocGemmOptions opts;
  opts.blocksize = 32;
  opts.precision = GemmPrecision::FP32;
  opts.outer_opa = blas::Op::Trans;
  ooc::outer_product_colwise(dev, Operand::on_host(a.view()),
                             Operand::on_host(b.view()),
                             sim::as_const(c.view()), c.view(), opts);
  dev.synchronize();

  la::Matrix expected = la::materialize(c0.view());
  blas::gemm(blas::Op::Trans, blas::Op::NoTrans, m, n, k, -1.0f, a.data(),
             a.ld(), b.data(), b.ld(), 1.0f, expected.data(), expected.ld());
  EXPECT_LT(la::relative_difference(c.view(), expected.view()), 1e-4);
}

TEST(OuterRowwise, TransposedAOperand) {
  // outer_product_recursive with opts.outer_opa = Trans (the Cholesky
  // trailing-update shape): A stored k x m, streamed in column slabs.
  const index_t m = 120;
  const index_t k = 30;
  const index_t n = 45;
  la::Matrix a = la::random_uniform(k, m, 7);
  la::Matrix b = la::random_uniform(k, n, 8);
  la::Matrix c0 = la::random_uniform(m, n, 9);
  la::Matrix c = la::materialize(c0.view());

  Device dev(test_spec(), ExecutionMode::Real);
  ooc::OocGemmOptions opts;
  opts.blocksize = 32;
  opts.precision = GemmPrecision::FP32;
  opts.outer_opa = blas::Op::Trans;
  ooc::outer_product_recursive(dev, Operand::on_host(a.view()),
                               Operand::on_host(b.view()),
                               sim::as_const(c.view()), c.view(), opts);
  dev.synchronize();

  la::Matrix expected = la::materialize(c0.view());
  blas::gemm(blas::Op::Trans, blas::Op::NoTrans, m, n, k, -1.0f, a.data(),
             a.ld(), b.data(), b.ld(), 1.0f, expected.data(), expected.ld());
  EXPECT_LT(la::relative_difference(c.view(), expected.view()), 1e-4);
}

TEST(OuterBlocking, SubBlockResidentOperand) {
  // Operand::on_device with a sub-block ref (the LU panel's L21 part).
  const index_t m = 48;
  const index_t k = 16;
  const index_t n = 40;
  la::Matrix combined = la::random_uniform(m + k, k, 10); // L11 over L21
  la::Matrix b = la::random_uniform(k, n, 11);
  la::Matrix c0 = la::random_uniform(m, n, 12);
  la::Matrix c = la::materialize(c0.view());

  Device dev(test_spec(), ExecutionMode::Real);
  auto dcomb = dev.allocate(m + k, k);
  dev.upload(dcomb, combined.view());
  auto db = dev.allocate(k, n);
  dev.upload(db, b.view());

  ooc::OocGemmOptions opts;
  opts.blocksize = 20;
  opts.precision = GemmPrecision::FP32;
  ooc::outer_product_blocking(
      dev, Operand::on_device(sim::DeviceMatrixRef(dcomb, k, 0, m, k)),
      Operand::on_device(db), sim::as_const(c.view()), c.view(), opts);
  dev.synchronize();

  la::Matrix expected = la::materialize(c0.view());
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, m, n, k, -1.0f,
             &combined(k, 0), combined.ld(), b.data(), b.ld(), 1.0f,
             expected.data(), expected.ld());
  EXPECT_LT(la::relative_difference(c.view(), expected.view()), 1e-4);
  dev.free(dcomb);
  dev.free(db);
}

// --- Out-of-core triangular solve -------------------------------------------

class OocTrsmTest
    : public ::testing::TestWithParam<std::tuple<index_t /*n*/, index_t /*nrhs*/,
                                                 index_t /*blocksize*/>> {};

TEST_P(OocTrsmTest, LowerUnitSolve) {
  const auto [n, nrhs, bs] = GetParam();
  // Unit lower triangle from a diagonally dominant LU.
  la::Matrix t = la::random_diagonally_dominant(n, 21);
  lu_nopiv_unblocked(t.view());
  la::Matrix x_true = la::random_uniform(n, nrhs, 22);
  la::Matrix b(n, nrhs);
  // b = L x: forward multiply.
  for (index_t j = 0; j < nrhs; ++j) {
    for (index_t i = 0; i < n; ++i) {
      double acc = x_true(i, j);
      for (index_t p = 0; p < i; ++p) {
        acc += static_cast<double>(t(i, p)) * static_cast<double>(x_true(p, j));
      }
      b(i, j) = static_cast<float>(acc);
    }
  }

  Device dev(test_spec(), ExecutionMode::Real);
  ooc::OocGemmOptions opts;
  opts.blocksize = bs;
  opts.precision = GemmPrecision::FP32;
  ooc::ooc_trsm(dev, ooc::TriSolveKind::LowerUnit, t.view(),
                sim::as_const(b.view()), b.view(), opts);
  dev.synchronize();
  EXPECT_LT(la::relative_difference(b.view(), x_true.view()), 1e-4);
  EXPECT_EQ(dev.live_allocations(), 0);
}

TEST_P(OocTrsmTest, UpperTransSolve) {
  const auto [n, nrhs, bs] = GetParam();
  la::Matrix spd = la::random_spd(n, 23);
  la::Matrix r = la::materialize(spd.view());
  la::cholesky_upper(r.view());
  la::Matrix x_true = la::random_uniform(n, nrhs, 24);
  la::Matrix b(n, nrhs);
  // b = Rᵀ x.
  for (index_t j = 0; j < nrhs; ++j) {
    for (index_t i = 0; i < n; ++i) {
      double acc = 0.0;
      for (index_t p = 0; p <= i; ++p) {
        acc += static_cast<double>(r(p, i)) * static_cast<double>(x_true(p, j));
      }
      b(i, j) = static_cast<float>(acc);
    }
  }

  Device dev(test_spec(), ExecutionMode::Real);
  ooc::OocGemmOptions opts;
  opts.blocksize = bs;
  opts.precision = GemmPrecision::FP32;
  ooc::ooc_trsm(dev, ooc::TriSolveKind::UpperTrans, r.view(),
                sim::as_const(b.view()), b.view(), opts);
  dev.synchronize();
  EXPECT_LT(la::relative_difference(b.view(), x_true.view()), 1e-4);
}

TEST_P(OocTrsmTest, UpperBackSubstitution) {
  const auto [n, nrhs, bs] = GetParam();
  la::Matrix u = la::random_diagonally_dominant(n, 25);
  blas::zero_lower_triangle(n, n, u.data(), u.ld());
  la::Matrix x_true = la::random_uniform(n, nrhs, 26);
  la::Matrix b(n, nrhs);
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, n, nrhs, n, 1.0f, u.data(),
             u.ld(), x_true.data(), x_true.ld(), 0.0f, b.data(), b.ld());

  Device dev(test_spec(), ExecutionMode::Real);
  ooc::OocGemmOptions opts;
  opts.blocksize = bs;
  opts.precision = GemmPrecision::FP32;
  ooc::ooc_trsm(dev, ooc::TriSolveKind::Upper, u.view(),
                sim::as_const(b.view()), b.view(), opts);
  dev.synchronize();
  EXPECT_LT(la::relative_difference(b.view(), x_true.view()), 1e-4);
  EXPECT_EQ(dev.live_allocations(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OocTrsmTest,
    ::testing::Combine(::testing::Values<index_t>(8, 33, 64, 100),
                       ::testing::Values<index_t>(1, 17, 64),
                       ::testing::Values<index_t>(8, 16, 64)));

TEST(OocTrsm, LuThenTwoSolvesRecoversSolution) {
  // The ooc_solver example's pipeline as a test: OOC LU, then forward and
  // back substitution out of core.
  const index_t n = 96;
  const index_t nrhs = 5;
  la::Matrix a = la::random_diagonally_dominant(n, 27);
  la::Matrix x_true = la::random_uniform(n, nrhs, 28);
  la::Matrix b(n, nrhs);
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, n, nrhs, n, 1.0f, a.data(),
             a.ld(), x_true.data(), x_true.ld(), 0.0f, b.data(), b.ld());

  Device dev(test_spec(), ExecutionMode::Real);
  FactorOptions fopts;
  fopts.blocksize = 32;
  fopts.precision = GemmPrecision::FP32;
  fopts.panel_base = 8;
  recursive_ooc_lu(dev, a.view(), fopts);

  ooc::OocGemmOptions topts;
  topts.blocksize = 32;
  topts.precision = GemmPrecision::FP32;
  ooc::ooc_trsm(dev, ooc::TriSolveKind::LowerUnit, a.view(),
                sim::as_const(b.view()), b.view(), topts);
  ooc::ooc_trsm(dev, ooc::TriSolveKind::Upper, a.view(),
                sim::as_const(b.view()), b.view(), topts);
  dev.synchronize();
  EXPECT_LT(la::relative_difference(b.view(), x_true.view()), 1e-4);
}

TEST(OocTrsm, RejectsBadShapesAndNonAliasedBuffers) {
  Device dev(test_spec(), ExecutionMode::Real);
  la::Matrix t = la::random_diagonally_dominant(8, 1);
  la::Matrix b = la::random_uniform(8, 4, 2);
  la::Matrix other = la::random_uniform(8, 4, 3);
  ooc::OocGemmOptions opts;
  opts.blocksize = 4;
  EXPECT_THROW(ooc::ooc_trsm(dev, ooc::TriSolveKind::LowerUnit,
                             la::ConstMatrixView(t.data(), 8, 7, 8),
                             sim::as_const(b.view()), b.view(), opts),
               InvalidArgument);
  EXPECT_THROW(ooc::ooc_trsm(dev, ooc::TriSolveKind::LowerUnit, t.view(),
                             sim::as_const(other.view()), b.view(), opts),
               InvalidArgument);
}

// --- Out-of-core LU ----------------------------------------------------------

class OocLuTest : public ::testing::TestWithParam<
                      std::tuple<bool /*recursive*/,
                                 std::tuple<index_t, index_t>, index_t>> {};

TEST_P(OocLuTest, FactorsCorrectly) {
  const auto [recursive, shape, bs] = GetParam();
  const auto [m, n] = shape;
  la::Matrix a = la::random_uniform(m, n, 41);
  for (index_t j = 0; j < n; ++j) a(j, j) += static_cast<float>(n) + 2.0f;
  la::Matrix original = la::materialize(a.view());

  Device dev(test_spec(), ExecutionMode::Real);
  FactorOptions opts;
  opts.blocksize = bs;
  opts.precision = GemmPrecision::FP32;
  opts.panel_base = 8;
  const FactorStats stats = recursive ? recursive_ooc_lu(dev, a.view(), opts)
                                      : blocking_ooc_lu(dev, a.view(), opts);
  EXPECT_LT(lu_residual(original.view(), a.view()), 1e-4)
      << "recursive=" << recursive << " bs=" << bs;
  EXPECT_GT(stats.total_seconds, 0.0);
  EXPECT_GT(stats.panels, 0);
  EXPECT_EQ(dev.live_allocations(), 0);
  EXPECT_LE(dev.memory_peak(), dev.memory_capacity());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OocLuTest,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(std::tuple<index_t, index_t>{48, 48},
                                         std::tuple<index_t, index_t>{100, 64},
                                         std::tuple<index_t, index_t>{96, 33}),
                       ::testing::Values<index_t>(16, 32)));

TEST(OocLu, MatchesIncoreFactorization) {
  la::Matrix a = la::random_diagonally_dominant(96, 51);
  la::Matrix incore = la::materialize(a.view());
  lu_nopiv_recursive(incore.view(), 8);

  Device dev(test_spec(), ExecutionMode::Real);
  FactorOptions opts;
  opts.blocksize = 32;
  opts.precision = GemmPrecision::FP32;
  opts.panel_base = 8;
  la::Matrix ooc_a = la::materialize(a.view());
  recursive_ooc_lu(dev, ooc_a.view(), opts);
  EXPECT_LT(la::relative_difference(ooc_a.view(), incore.view()), 1e-4);
}

TEST(OocLu, OverlapOffIsSlowerNotDifferent) {
  la::Matrix a = la::random_diagonally_dominant(80, 52);
  const auto run = [&](bool overlap) {
    Device dev(test_spec(), ExecutionMode::Real);
    FactorOptions opts;
    opts.blocksize = 16;
    opts.precision = GemmPrecision::FP32;
    opts.panel_base = 8;
    opts.overlap = overlap;
    la::Matrix work = la::materialize(a.view());
    const FactorStats stats = blocking_ooc_lu(dev, work.view(), opts);
    return std::make_pair(stats.total_seconds, std::move(work));
  };
  auto [t_on, m_on] = run(true);
  auto [t_off, m_off] = run(false);
  EXPECT_LE(t_on, t_off);
  EXPECT_EQ(la::relative_difference(m_on.view(), m_off.view()), 0.0);
}

// --- Out-of-core Cholesky -----------------------------------------------------

class OocCholeskyTest
    : public ::testing::TestWithParam<std::tuple<bool, index_t, index_t>> {};

TEST_P(OocCholeskyTest, FactorsSpdMatrix) {
  const auto [recursive, n, bs] = GetParam();
  la::Matrix a = la::random_spd(n, 61);
  la::Matrix original = la::materialize(a.view());

  Device dev(test_spec(), ExecutionMode::Real);
  FactorOptions opts;
  opts.blocksize = bs;
  opts.precision = GemmPrecision::FP32;
  opts.panel_base = 8;
  const FactorStats stats = recursive
                                ? recursive_ooc_cholesky(dev, a.view(), opts)
                                : blocking_ooc_cholesky(dev, a.view(), opts);
  EXPECT_LT(cholesky_residual(original.view(), a.view()), 1e-4)
      << "recursive=" << recursive << " n=" << n << " bs=" << bs;
  EXPECT_GT(stats.total_seconds, 0.0);
  EXPECT_EQ(dev.live_allocations(), 0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, OocCholeskyTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Values<index_t>(32, 75,
                                                                       128),
                                            ::testing::Values<index_t>(16,
                                                                       32)));

TEST(OocCholesky, MatchesIncoreUpperTriangle) {
  const index_t n = 96;
  la::Matrix a = la::random_spd(n, 62);
  la::Matrix incore = la::materialize(a.view());
  cholesky_recursive(incore.view(), 8);

  Device dev(test_spec(), ExecutionMode::Real);
  FactorOptions opts;
  opts.blocksize = 32;
  opts.precision = GemmPrecision::FP32;
  opts.panel_base = 8;
  la::Matrix ooc_a = la::materialize(a.view());
  recursive_ooc_cholesky(dev, ooc_a.view(), opts);
  // Only the upper triangle is specified.
  double worst = 0.0;
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i <= j; ++i) {
      worst = std::max(worst, std::fabs(static_cast<double>(ooc_a(i, j)) -
                                        static_cast<double>(incore(i, j))));
    }
  }
  EXPECT_LT(worst, 1e-3);
}

TEST(OuterBlocking, UpperTriangleTileFilter) {
  // Symmetric-update mode: only upper-triangle tiles are touched; the
  // upper triangle of the result is exact, movement drops by ~half.
  const index_t n = 96;
  const index_t k = 24;
  la::Matrix a = la::random_uniform(k, n, 81); // used as Aᵀ (Cholesky shape)
  la::Matrix c0 = la::random_uniform(n, n, 82);
  la::Matrix c = la::materialize(c0.view());

  Device dev(test_spec(), ExecutionMode::Real);
  ooc::OocGemmOptions opts;
  opts.blocksize = 32;
  opts.tile_cols = 32;
  opts.precision = GemmPrecision::FP32;
  opts.outer_opa = blas::Op::Trans;
  opts.upper_triangle_tiles_only = true;
  const auto stats = ooc::outer_product_blocking(
      dev, Operand::on_host(a.view()), Operand::on_host(a.view()),
      sim::as_const(c.view()), c.view(), opts);
  dev.synchronize();

  la::Matrix expected = la::materialize(c0.view());
  blas::gemm(blas::Op::Trans, blas::Op::NoTrans, n, n, k, -1.0f, a.data(),
             a.ld(), a.data(), a.ld(), 1.0f, expected.data(), expected.ld());
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i <= j; ++i) {
      EXPECT_NEAR(c(i, j), expected(i, j), 1e-4) << i << "," << j;
    }
  }
  // Strictly-below-diagonal tiles untouched.
  EXPECT_FLOAT_EQ(c(n - 1, 0), c0(n - 1, 0));
  // 3x3 tile grid: 6 upper tiles instead of 9.
  EXPECT_EQ(stats.steps, 6);
}

TEST(OuterRecursive, UpperTrapezoidSlabs) {
  // Trapezoid streaming: each row slab touches only columns at or right of
  // its diagonal block; the strict lower triangle stays untouched.
  const index_t n = 96;
  const index_t k = 20;
  la::Matrix a = la::random_uniform(k, n, 91); // used transposed
  la::Matrix c0 = la::random_uniform(n, n, 92);
  la::Matrix c = la::materialize(c0.view());

  Device dev(test_spec(), ExecutionMode::Real);
  ooc::OocGemmOptions opts;
  opts.blocksize = 32;
  opts.precision = GemmPrecision::FP32;
  opts.outer_opa = blas::Op::Trans;
  opts.upper_trapezoid_slabs = true;
  const auto stats = ooc::outer_product_recursive(
      dev, Operand::on_host(a.view()), Operand::on_host(a.view()),
      sim::as_const(c.view()), c.view(), opts);
  dev.synchronize();

  la::Matrix expected = la::materialize(c0.view());
  blas::gemm(blas::Op::Trans, blas::Op::NoTrans, n, n, k, -1.0f, a.data(),
             a.ld(), a.data(), a.ld(), 1.0f, expected.data(), expected.ld());
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i <= j; ++i) {
      EXPECT_NEAR(c(i, j), expected(i, j), 1e-4) << i << "," << j;
    }
  }
  EXPECT_FLOAT_EQ(c(n - 1, 0), c0(n - 1, 0)); // lower triangle untouched
  // C traffic is the trapezoid ((96+64+32)*32 columns-by-rows), not n^2.
  const bytes_t trapezoid = (96 + 64 + 32) * 32 * 4;
  const sim::TraceSummary window =
      sim::summarize(dev.trace(), stats.trace_begin, stats.trace_end);
  EXPECT_EQ(window.bytes_d2h, trapezoid);
  // Rectangular C must be rejected in this mode.
  la::Matrix rect(n, n + 8);
  EXPECT_THROW(ooc::outer_product_recursive(
                   dev, Operand::on_host(a.view()),
                   Operand::on_host(sim::HostConstRef::phantom(k, n + 8)),
                   sim::as_const(rect.view()), rect.view(), opts),
               InvalidArgument);
}

TEST(OocCholesky, TriangularFilterReducesBlockingMovement) {
  const auto run_bytes = [&](bool filter_expected) {
    sim::Device dev(sim::DeviceSpec::v100_32gb(), ExecutionMode::Phantom);
    dev.model().install_paper_calibration();
    auto a = sim::HostMutRef::phantom(65536, 65536);
    FactorOptions opts;
    opts.blocksize = 8192;
    const FactorStats stats = blocking_ooc_cholesky(dev, a, opts);
    (void)filter_expected;
    return stats;
  };
  const FactorStats stats = run_bytes(true);
  // Full-square updates would stream the whole trailing square in+out
  // (~2x the triangle); with the filter the H2D volume stays below what a
  // full-square schedule would need.
  const double full_square_lower_bound = 7.0 * 65536.0 * 65536.0 * 4.0;
  EXPECT_LT(static_cast<double>(stats.bytes_h2d), full_square_lower_bound);
}

TEST(OocFactor, PhantomScaleRecursiveBeatsBlocking) {
  // The §6 claim, measured: at paper scale and small memory, the recursive
  // LU/Cholesky drivers beat the blocking ones thanks to their larger,
  // better-overlapped trailing updates.
  const auto run = [&](bool recursive, bool cholesky) {
    sim::Device dev(sim::DeviceSpec::v100_16gb(), ExecutionMode::Phantom);
    dev.model().install_paper_calibration();
    auto a = sim::HostMutRef::phantom(65536, 65536);
    FactorOptions opts;
    opts.blocksize = 8192;
    if (!recursive) opts.staging_buffer = false; // conventional baseline
    const FactorStats stats =
        cholesky ? (recursive ? recursive_ooc_cholesky(dev, a, opts)
                              : blocking_ooc_cholesky(dev, a, opts))
                 : (recursive ? recursive_ooc_lu(dev, a, opts)
                              : blocking_ooc_lu(dev, a, opts));
    EXPECT_LE(dev.memory_peak(), dev.memory_capacity());
    return stats.total_seconds;
  };
  const double lu_speedup = run(false, false) / run(true, false);
  EXPECT_GT(lu_speedup, 1.1);
  const double chol_speedup = run(false, true) / run(true, true);
  EXPECT_GT(chol_speedup, 1.1);
}

} // namespace
} // namespace rocqr::lu
