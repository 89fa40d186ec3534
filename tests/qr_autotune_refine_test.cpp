// Blocksize autotuning (phantom dry runs), the Totals recording the dry
// runs use against the Events one, and mixed-precision iterative
// refinement.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "blas/gemm.hpp"
#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"
#include "qr/autotune.hpp"
#include "qr/blocking_qr.hpp"
#include "qr/checkpoint.hpp"
#include "qr/factorize.hpp"
#include "qr/recursive_qr.hpp"
#include "qr/refine.hpp"
#include "sim/device.hpp"
#include "stats_equal.hpp"

namespace rocqr::qr {
namespace {

TEST(Autotune, FindsFeasibleBlocksizeOn32GB) {
  const TuneResult r =
      tune_blocksize(sim::DeviceSpec::v100_32gb(), 131072, 131072, true);
  EXPECT_GT(r.best_blocksize, 0);
  EXPECT_GT(r.best_seconds, 0.0);
  // The winner must actually be the sweep's feasible minimum.
  for (const TunePoint& p : r.sweep) {
    if (p.fits) {
      EXPECT_LE(r.best_seconds, p.seconds + 1e-12);
    }
  }
  // And large blocksizes that cannot fit are flagged, not silently skipped.
  bool any_oom = false;
  for (const TunePoint& p : r.sweep) any_oom |= !p.fits;
  EXPECT_TRUE(any_oom); // 65536-wide panels exceed 32 GB
}

TEST(Autotune, SmallerMemoryPrefersSmallerBlocks) {
  const TuneResult big =
      tune_blocksize(sim::DeviceSpec::v100_32gb(), 131072, 131072, false);
  const TuneResult small =
      tune_blocksize(sim::DeviceSpec::v100_16gb(), 131072, 131072, false);
  EXPECT_LE(small.best_blocksize, big.best_blocksize);
  // The 16 GB card fits strictly fewer of the large candidates.
  int feasible_big = 0;
  int feasible_small = 0;
  for (const TunePoint& p : big.sweep) feasible_big += p.fits ? 1 : 0;
  for (const TunePoint& p : small.sweep) feasible_small += p.fits ? 1 : 0;
  EXPECT_LT(feasible_small, feasible_big);
}

TEST(Autotune, RecursiveToleratesSmallBlocksBetterThanBlocking) {
  // The paper's robustness claim as a tuning outcome: at 16 GB, recursion's
  // best time degrades far less than blocking's.
  const TuneResult rec32 =
      tune_blocksize(sim::DeviceSpec::v100_32gb(), 131072, 131072, true);
  const TuneResult rec16 =
      tune_blocksize(sim::DeviceSpec::v100_16gb(), 131072, 131072, true);
  const TuneResult blk32 =
      tune_blocksize(sim::DeviceSpec::v100_32gb(), 131072, 131072, false);
  const TuneResult blk16 =
      tune_blocksize(sim::DeviceSpec::v100_16gb(), 131072, 131072, false);
  EXPECT_LT(rec16.best_seconds / rec32.best_seconds,
            blk16.best_seconds / blk32.best_seconds);
}

TEST(Autotune, SmallNReturnsTailCandidate) {
  // n below min_blocksize must not throw or return an empty sweep: the
  // clamped tail candidate b = n is the single (feasible) point.
  const TuneResult r =
      tune_blocksize(sim::DeviceSpec::v100_32gb(), 512, 512, true);
  ASSERT_EQ(r.sweep.size(), 1u);
  EXPECT_EQ(r.sweep[0].blocksize, 512);
  EXPECT_TRUE(r.sweep[0].fits);
  EXPECT_EQ(r.best_blocksize, 512);
  EXPECT_GT(r.best_seconds, 0.0);
  EXPECT_GT(r.best_peak_bytes, 0u);
}

TEST(Autotune, NonPowerOfTwoNIncludesTail) {
  // 1536 is not on the power-of-two ladder from min_blocksize=1024; the
  // sweep must still include the full-width panel b = n as a tail point.
  const TuneResult r =
      tune_blocksize(sim::DeviceSpec::v100_32gb(), 1536, 1536, false);
  ASSERT_EQ(r.sweep.size(), 2u);
  EXPECT_EQ(r.sweep[0].blocksize, 1024);
  EXPECT_EQ(r.sweep[1].blocksize, 1536);
  bool best_in_sweep = false;
  for (const TunePoint& p : r.sweep) {
    EXPECT_TRUE(p.fits);
    best_in_sweep |= p.blocksize == r.best_blocksize;
  }
  EXPECT_TRUE(best_in_sweep);
}

TEST(Autotune, AllOomNamesConstraint) {
  // A device too small for any candidate: the error must name the actual
  // constraint (shape, device, capacity, candidate range), not a generic
  // "allocation failed".
  sim::DeviceSpec tiny = sim::DeviceSpec::v100_32gb();
  tiny.name = "tiny-1MB";
  tiny.memory_capacity = 1 << 20;
  try {
    tune_blocksize(tiny, 65536, 65536, true);
    FAIL() << "expected DeviceOutOfMemory";
  } catch (const DeviceOutOfMemory& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no feasible blocksize"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tiny-1MB"), std::string::npos) << msg;
    EXPECT_NE(msg.find("65536"), std::string::npos) << msg;
  }
}

TEST(Autotune, RejectsBadArguments) {
  EXPECT_THROW(tune_blocksize(sim::DeviceSpec::v100_32gb(), 16, 32, true),
               InvalidArgument);
  EXPECT_THROW(tune_blocksize(sim::DeviceSpec::v100_32gb(), 64, 64, true,
                              QrOptions{}, 128, 64),
               InvalidArgument);
}

using rocqr::testing::expect_same_stats;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Drops every checkpoint, as admission's dry runs do.
class DiscardingSink : public CheckpointSink {
 public:
  void write(const Checkpoint&) override {}
};

/// A Phantom run of `algorithm` at 32768x8192, b = 1024, on `devices`
/// fresh paper-calibrated V100s that record `recording`.
struct DryRun {
  QrStats stats;
  std::vector<bytes_t> peaks;
  std::vector<size_t> events;
};

DryRun dry_run(sim::Recording recording, Algorithm algorithm, int devices) {
  std::vector<std::unique_ptr<sim::Device>> fleet;
  std::vector<sim::Device*> ptrs;
  for (int d = 0; d < devices; ++d) {
    fleet.push_back(std::make_unique<sim::Device>(
        sim::DeviceSpec::v100_32gb(), sim::ExecutionMode::Phantom, nullptr,
        recording));
    fleet.back()->model().install_paper_calibration();
    ptrs.push_back(fleet.back().get());
  }
  DiscardingSink sink;
  QrOptions opts;
  opts.blocksize = 1024;
  if (algorithm == Algorithm::Tsqr) opts.checkpoint_sink = &sink;
  DryRun run;
  run.stats = factorize(QrProblem{ptrs, sim::HostMutRef::phantom(32768, 8192),
                                  sim::HostMutRef::phantom(8192, 8192),
                                  algorithm, opts});
  for (const auto& dev : fleet) {
    run.peaks.push_back(dev->memory_peak());
    run.events.push_back(dev->trace().size());
  }
  return run;
}

TEST(DryRunRecording, TotalsDevicesGiveEveryDriversStatsBitForBit) {
  const struct {
    Algorithm algorithm;
    int devices;
  } cases[] = {{Algorithm::Recursive, 1},
               {Algorithm::Blocking, 1},
               {Algorithm::LeftLooking, 1},
               {Algorithm::Tiled, 1},
               {Algorithm::Tsqr, 2}};
  for (const auto& c : cases) {
    SCOPED_TRACE(to_string(c.algorithm));
    const DryRun events =
        dry_run(sim::Recording::Events, c.algorithm, c.devices);
    const DryRun totals =
        dry_run(sim::Recording::Totals, c.algorithm, c.devices);
    EXPECT_GT(events.stats.events, 100);
    expect_same_stats(totals.stats, events.stats);
    EXPECT_EQ(totals.peaks, events.peaks);
    EXPECT_EQ(totals.events, events.events);
  }
}

TEST(DryRunRecording, TuneSweepEqualsTheSweepRunOnEventDevices) {
  // The sweep runs on Totals devices; by hand, every candidate runs on an
  // Events device: same seconds (bit for bit), fits and peaks.
  const sim::DeviceSpec spec = sim::DeviceSpec::v100_32gb();
  for (const bool recursive : {true, false}) {
    SCOPED_TRACE(recursive ? "recursive" : "blocking");
    const TuneResult tuned = tune_blocksize(spec, 131072, 131072, recursive);
    ASSERT_EQ(tuned.sweep.size(), 7u); // b = 1024 ... 65536
    index_t b = 1024;
    for (const TunePoint& p : tuned.sweep) {
      SCOPED_TRACE(b);
      EXPECT_EQ(p.blocksize, b);
      sim::Device dev(spec, sim::ExecutionMode::Phantom);
      dev.model().install_paper_calibration();
      QrOptions opts;
      opts.blocksize = b;
      const auto a = sim::HostMutRef::phantom(131072, 131072);
      const auto r = sim::HostMutRef::phantom(131072, 131072);
      try {
        const QrStats stats = recursive ? detail::run_recursive(dev, a, r, opts)
                                        : detail::run_blocking(dev, a, r, opts);
        EXPECT_TRUE(p.fits);
        EXPECT_EQ(bits(p.seconds), bits(stats.total_seconds));
        EXPECT_EQ(p.peak_bytes, stats.peak_device_bytes);
      } catch (const DeviceOutOfMemory&) {
        EXPECT_FALSE(p.fits);
        EXPECT_EQ(p.peak_bytes, dev.memory_peak());
      }
      b *= 2;
    }
  }
}

TEST(DryRunRecording, TuneSweepOpensNoSpans) {
  // A factorization on an Events device opens phase spans; the sweep's
  // Totals devices open none.
  auto& log = telemetry::SpanLog::global();
  const size_t before = log.snapshot().size();
  dry_run(sim::Recording::Events, Algorithm::Recursive, 1);
  EXPECT_GT(log.snapshot().size(), before);
  const size_t after_events = log.snapshot().size();
  const TuneResult r =
      tune_blocksize(sim::DeviceSpec::v100_32gb(), 32768, 8192, true);
  EXPECT_EQ(r.sweep.size(), 4u);
  EXPECT_EQ(log.snapshot().size(), after_events);
}

TEST(Refine, RecoversFp32AccuracyFromFp16Factorization) {
  const index_t m = 300;
  const index_t n = 60;
  const index_t nrhs = 4;
  la::Matrix a = la::random_with_condition(m, n, 50.0, 31);
  la::Matrix x_true = la::random_uniform(n, nrhs, 32);
  la::Matrix b(m, nrhs);
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, m, nrhs, n, 1.0f, a.data(),
             a.ld(), x_true.data(), x_true.ld(), 0.0f, b.data(), b.ld());

  // One sweep (= plain solve through the fp16 factors): visibly inaccurate.
  const RefineResult raw = ls_solve_refined(
      a.view(), b.view(), blas::GemmPrecision::FP16_FP32, 0);
  const double err_raw = la::relative_difference(raw.x.view(), x_true.view());

  // Full refinement: back to fp32-level accuracy.
  const RefineResult refined = ls_solve_refined(
      a.view(), b.view(), blas::GemmPrecision::FP16_FP32, 10, 1e-5);
  const double err_ref =
      la::relative_difference(refined.x.view(), x_true.view());

  EXPECT_GT(err_raw, 1e-4);
  EXPECT_LT(err_ref, 5e-5);
  EXPECT_LT(err_ref, err_raw);
  EXPECT_GT(refined.iterations, 1);
}

TEST(Refine, Fp32FactorizationConvergesImmediately) {
  const index_t m = 200;
  const index_t n = 40;
  la::Matrix a = la::random_normal(m, n, 33);
  la::Matrix x_true = la::random_uniform(n, 1, 34);
  la::Matrix b(m, 1);
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, m, 1, n, 1.0f, a.data(),
             a.ld(), x_true.data(), x_true.ld(), 0.0f, b.data(), b.ld());
  const RefineResult r =
      ls_solve_refined(a.view(), b.view(), blas::GemmPrecision::FP32, 10);
  EXPECT_LT(la::relative_difference(r.x.view(), x_true.view()), 1e-4);
  EXPECT_LE(r.iterations, 3);
}

TEST(Refine, InconsistentSystemFindsLeastSquaresSolution) {
  // Overdetermined with noise: the refined solution must satisfy the
  // normal equations (Aᵀr ~ 0) even though |r| stays large.
  const index_t m = 240;
  const index_t n = 30;
  la::Matrix a = la::random_normal(m, n, 35);
  la::Matrix b = la::random_normal(m, 1, 36); // generic rhs, not in range(A)
  const RefineResult r =
      ls_solve_refined(a.view(), b.view(), blas::GemmPrecision::FP16_FP32, 12,
                       1e-4);
  EXPECT_LT(r.final_residual_norm, 1e-2);
}

TEST(Refine, RejectsBadShapes) {
  la::Matrix wide(4, 8);
  la::Matrix b(4, 1);
  EXPECT_THROW(ls_solve_refined(wide.view(), b.view()), InvalidArgument);
  la::Matrix ok = la::random_normal(8, 4, 1);
  la::Matrix bad_b(7, 1);
  EXPECT_THROW(ls_solve_refined(ok.view(), bad_b.view()), InvalidArgument);
}

} // namespace
} // namespace rocqr::qr
