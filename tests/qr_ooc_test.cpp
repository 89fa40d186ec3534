// End-to-end out-of-core QR drivers in Real mode: numerics against in-core
// references across sizes, blocksizes, and every optimization toggle.
#include <gtest/gtest.h>

#include "leak_check.hpp"

#include <chrono>
#include <tuple>

#include "common/error.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"
#include "qr/factorize.hpp"
#include "qr/incore.hpp"
#include "sim/device.hpp"

namespace rocqr::qr {
namespace {

using blas::GemmPrecision;
using sim::Device;
using sim::ExecutionMode;

sim::DeviceSpec test_spec(bytes_t capacity = 512LL << 20) {
  sim::DeviceSpec s = sim::DeviceSpec::v100_32gb();
  s.memory_capacity = capacity;
  return s;
}

struct OocRun {
  la::Matrix q;
  la::Matrix r;
  QrStats stats;
};

OocRun run_driver(bool recursive, const la::Matrix& a, const QrOptions& opts,
                  bytes_t capacity = 512LL << 20) {
  Device dev(test_spec(capacity), ExecutionMode::Real);
  OocRun run{la::materialize(a.view()), la::Matrix(a.cols(), a.cols()), {}};
  run.stats = factorize(QrProblem{
      {&dev}, run.q.view(), run.r.view(),
      recursive ? Algorithm::Recursive : Algorithm::Blocking, opts});
  EXPECT_EQ(dev.live_allocations(), 0);
  EXPECT_LE(dev.memory_peak(), dev.memory_capacity());
  return run;
}

void expect_valid_qr(const la::Matrix& a, const OocRun& run, double tol) {
  EXPECT_LT(la::qr_residual(a.view(), run.q.view(), run.r.view()), tol);
  EXPECT_TRUE(la::is_upper_triangular(run.r.view()));
  for (index_t j = 0; j < run.r.cols(); ++j) EXPECT_GT(run.r(j, j), 0.0f);
  EXPECT_LT(la::orthogonality_error(run.q.view()), 100 * tol);
}

class OocQrSweep
    : public ::testing::TestWithParam<
          std::tuple<bool /*recursive*/, std::tuple<index_t, index_t>,
                     index_t /*blocksize*/, bool /*qr_level_opt*/>> {};

TEST_P(OocQrSweep, FactorsCorrectly) {
  const auto [recursive, shape, blocksize, opt] = GetParam();
  const auto [m, n] = shape;
  la::Matrix a = la::random_normal(m, n, 1000 + m + n);
  QrOptions opts;
  opts.blocksize = blocksize;
  opts.precision = GemmPrecision::FP32;
  opts.panel_base = 8;
  opts.qr_level_opt = opt;
  const OocRun run = run_driver(recursive, a, opts);
  expect_valid_qr(a, run, 1e-4);
  EXPECT_GT(run.stats.total_seconds, 0.0);
  EXPECT_GT(run.stats.panels, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OocQrSweep,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(std::tuple<index_t, index_t>{64, 64},
                                         std::tuple<index_t, index_t>{96, 48},
                                         std::tuple<index_t, index_t>{200, 120},
                                         std::tuple<index_t, index_t>{150, 33}),
                       ::testing::Values<index_t>(16, 32, 64),
                       ::testing::Bool()));

TEST(OocQr, MatchesIncoreReferenceClosely) {
  // With positive-diagonal R the factorization is unique: OOC and in-core
  // runs of the same arithmetic must agree to fp32 rounding accumulation.
  la::Matrix a = la::random_normal(160, 80, 2);
  QrOptions opts;
  opts.blocksize = 32;
  opts.precision = GemmPrecision::FP32;
  opts.panel_base = 8;

  const QrFactors ref = recursive_cgs(a.view(), 8, GemmPrecision::FP32);
  const OocRun rec = run_driver(true, a, opts);
  EXPECT_LT(la::relative_difference(rec.q.view(), ref.q.view()), 1e-4);
  EXPECT_LT(la::relative_difference(rec.r.view(), ref.r.view()), 1e-4);

  const OocRun blk = run_driver(false, a, opts);
  EXPECT_LT(la::relative_difference(blk.q.view(), ref.q.view()), 1e-4);
  EXPECT_LT(la::relative_difference(blk.r.view(), ref.r.view()), 1e-4);
}

TEST(OocQr, OptimizationsDoNotChangeNumerics) {
  la::Matrix a = la::random_normal(128, 64, 3);
  QrOptions base;
  base.blocksize = 16;
  base.precision = GemmPrecision::FP32;
  base.panel_base = 8;

  for (const bool recursive : {false, true}) {
    const OocRun reference = run_driver(recursive, a, base);
    for (int variant = 0; variant < 4; ++variant) {
      QrOptions opts = base;
      opts.qr_level_opt = (variant & 1) != 0;
      opts.staging_buffer = (variant & 2) != 0;
      const OocRun run = run_driver(recursive, a, opts);
      EXPECT_EQ(la::relative_difference(run.q.view(), reference.q.view()), 0.0)
          << "recursive=" << recursive << " variant=" << variant;
      EXPECT_EQ(la::relative_difference(run.r.view(), reference.r.view()), 0.0)
          << "recursive=" << recursive << " variant=" << variant;
    }
  }
}

TEST(OocQr, RampUpPreservesNumerics) {
  la::Matrix a = la::random_normal(200, 64, 4);
  QrOptions opts;
  opts.blocksize = 32;
  opts.precision = GemmPrecision::FP32;
  opts.panel_base = 8;
  opts.ramp_up = true;
  opts.ramp_start = 8;
  const OocRun run = run_driver(true, a, opts);
  expect_valid_qr(a, run, 1e-4);
}

TEST(OocQr, Fp16PipelineStaysAtHalfPrecisionAccuracy) {
  la::Matrix a = la::random_normal(256, 64, 5);
  QrOptions opts;
  opts.blocksize = 16;
  opts.precision = GemmPrecision::FP16_FP32;
  opts.panel_base = 8;
  for (const bool recursive : {false, true}) {
    const OocRun run = run_driver(recursive, a, opts);
    EXPECT_LT(la::qr_residual(a.view(), run.q.view(), run.r.view()), 1e-2)
        << "recursive=" << recursive;
    EXPECT_TRUE(la::is_upper_triangular(run.r.view()));
  }
}

TEST(OocQr, TightMemoryForcesSplitsButStaysCorrect) {
  // A device barely big enough: the recursive driver must fall back to
  // splitting the inner-product accumulator, the blocking driver to small
  // tiles; numerics must be unaffected.
  la::Matrix a = la::random_normal(256, 128, 6);
  QrOptions opts;
  opts.blocksize = 32;
  opts.precision = GemmPrecision::FP32;
  opts.panel_base = 8;
  // Working set: panel 256x32 fp32 = 32 KiB; C 32x96 etc. Budget ~1 MiB
  // forces the planner's small-memory paths at these shapes.
  const OocRun rec = run_driver(true, a, opts, 1 << 20);
  expect_valid_qr(a, rec, 1e-4);
  const OocRun blk = run_driver(false, a, opts, 1 << 20);
  expect_valid_qr(a, blk, 1e-4);
}

TEST(OocQr, SinglePanelMatrix) {
  // n <= blocksize: both drivers degenerate to one panel factorization.
  la::Matrix a = la::random_normal(80, 16, 7);
  QrOptions opts;
  opts.blocksize = 64;
  opts.precision = GemmPrecision::FP32;
  opts.panel_base = 8;
  for (const bool recursive : {false, true}) {
    const OocRun run = run_driver(recursive, a, opts);
    expect_valid_qr(a, run, 1e-5);
    EXPECT_EQ(run.stats.panels, 1);
    EXPECT_DOUBLE_EQ(run.stats.gemm_seconds, 0.0);
  }
}

TEST(OocQr, StatsAreInternallyConsistent) {
  la::Matrix a = la::random_normal(192, 96, 8);
  QrOptions opts;
  opts.blocksize = 32;
  opts.precision = GemmPrecision::FP32;
  opts.panel_base = 8;
  const OocRun run = run_driver(true, a, opts);
  const QrStats& s = run.stats;
  // Engines cannot be busy longer than the makespan.
  EXPECT_LE(s.panel_seconds + s.gemm_seconds + s.d2d_seconds,
            s.total_seconds + 1e-9);
  EXPECT_LE(s.h2d_seconds, s.total_seconds + 1e-9);
  EXPECT_LE(s.d2h_seconds, s.total_seconds + 1e-9);
  EXPECT_GT(s.bytes_h2d, 0);
  EXPECT_GT(s.bytes_d2h, 0);
  EXPECT_GT(s.flops, 0);
  EXPECT_GT(s.peak_device_bytes, 0);
  EXPECT_GT(s.sustained_flops_per_s(), 0.0);
  // Every column moved at least once each way (Q out, A in).
  const bytes_t matrix_bytes = 192 * 96 * 4;
  EXPECT_GE(s.bytes_h2d, matrix_bytes);
  EXPECT_GE(s.bytes_d2h, matrix_bytes);
}

// Real-mode op bodies report their host wall per op kind; Phantom mode runs
// no body and reports nothing.
TEST(OocQr, DeviceMeasuresRealHostSecondsPerOpKind) {
  using sim::OpKind;
  const OpKind kinds[] = {OpKind::CopyH2D, OpKind::CopyD2H, OpKind::CopyD2D,
                          OpKind::Gemm,    OpKind::Trsm,    OpKind::Panel,
                          OpKind::Custom};
  const la::Matrix a = la::random_normal(512, 256, 9);
  QrOptions opts;
  opts.blocksize = 64;
  Device real(test_spec(1LL << 20), ExecutionMode::Real);
  la::Matrix q = la::materialize(a.view());
  la::Matrix r(256, 256);
  const auto t0 = std::chrono::steady_clock::now();
  factorize(QrProblem{{&real}, q.view(), r.view(), Algorithm::Recursive, opts});
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GT(real.host_seconds(OpKind::Gemm), 0.0);
  EXPECT_GT(real.host_seconds(OpKind::Panel), 0.0);
  EXPECT_GT(real.host_seconds(OpKind::CopyH2D), 0.0);
  EXPECT_GT(real.host_seconds(OpKind::CopyD2H), 0.0);
  double sum = 0;
  for (const OpKind kind : kinds) sum += real.host_seconds(kind);
  EXPECT_LE(sum, wall);

  Device phantom(test_spec(1LL << 20), ExecutionMode::Phantom);
  factorize(QrProblem{{&phantom},
                      sim::HostMutRef::phantom(512, 256),
                      sim::HostMutRef::phantom(256, 256),
                      Algorithm::Recursive,
                      opts});
  for (const OpKind kind : kinds) {
    EXPECT_EQ(phantom.host_seconds(kind), 0.0) << sim::to_string(kind);
  }
}

TEST(OocQr, PanelAlgorithmsAllFactorCorrectly) {
  la::Matrix a = la::random_normal(160, 64, 11);
  for (const PanelAlgorithm alg :
       {PanelAlgorithm::RecursiveCgs, PanelAlgorithm::Cgs2,
        PanelAlgorithm::CholeskyQr2}) {
    QrOptions opts;
    opts.blocksize = 32;
    opts.precision = GemmPrecision::FP32;
    opts.panel_base = 8;
    opts.panel_algorithm = alg;
    for (const bool recursive : {false, true}) {
      const OocRun run = run_driver(recursive, a, opts);
      expect_valid_qr(a, run, 1e-4);
    }
  }
}

TEST(OocQr, Cgs2PanelsImproveOrthogonalityOnHardMatrix) {
  // cond ~ 3e3: plain CGS panels lose orthogonality like cond^2 eps;
  // reorthogonalized panels hold near eps.
  la::Matrix a = la::random_with_condition(256, 64, 3e3, 13);
  QrOptions base;
  base.blocksize = 32;
  base.precision = GemmPrecision::FP32;
  base.panel_base = 8;
  QrOptions strong = base;
  strong.panel_algorithm = PanelAlgorithm::Cgs2;
  const OocRun weak = run_driver(true, a, base);
  const OocRun reorth = run_driver(true, a, strong);
  EXPECT_LT(la::orthogonality_error(reorth.q.view()),
            la::orthogonality_error(weak.q.view()));
  // Both still reconstruct A.
  EXPECT_LT(la::qr_residual(a.view(), weak.q.view(), weak.r.view()), 1e-3);
  EXPECT_LT(la::qr_residual(a.view(), reorth.q.view(), reorth.r.view()), 1e-3);
}

TEST(OocQr, StrongerPanelsCostMoreModeledTime) {
  la::Matrix a = la::random_normal(96, 64, 14);
  QrOptions base;
  base.blocksize = 32;
  base.precision = GemmPrecision::FP32;
  base.panel_base = 8;
  QrOptions strong = base;
  strong.panel_algorithm = PanelAlgorithm::CholeskyQr2;
  const OocRun cheap = run_driver(true, a, base);
  const OocRun pricey = run_driver(true, a, strong);
  EXPECT_GT(pricey.stats.panel_seconds, cheap.stats.panel_seconds * 1.5);
}

TEST(OocQr, RejectsBadInputs) {
  Device dev(test_spec(), ExecutionMode::Real);
  la::Matrix a = la::random_normal(10, 20, 9); // wide: invalid
  la::Matrix r(20, 20);
  QrOptions opts;
  EXPECT_THROW(factorize(
      QrProblem{{&dev}, a.view(), r.view(), Algorithm::Blocking, opts}),
               InvalidArgument);
  EXPECT_THROW(factorize(
      QrProblem{{&dev}, a.view(), r.view(), Algorithm::Recursive, opts}),
               InvalidArgument);
  la::Matrix ok = la::random_normal(20, 10, 9);
  la::Matrix bad_r(5, 5);
  EXPECT_THROW(factorize(
      QrProblem{{&dev}, ok.view(), bad_r.view(), Algorithm::Blocking, opts}),
               InvalidArgument);
}

} // namespace
} // namespace rocqr::qr
