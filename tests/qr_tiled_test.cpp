// Tiled CGS QR on the TaskGraph executor: numerics against the in-core
// reference, DAG-lookahead schedule assertions, colocated-batch stats
// attribution, and the kill-every-unit bit-identical resume sweep.
#include <gtest/gtest.h>

#include "leak_check.hpp"

#include <string>
#include <vector>

#include "common/error.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"
#include "qr/checkpoint.hpp"
#include "qr/factorize.hpp"
#include "qr/tiled_qr.hpp"
#include "sim/device.hpp"
#include "sim/faults.hpp"

namespace rocqr {
namespace {

using sim::Device;
using sim::ExecutionMode;
using sim::FaultPlan;

sim::DeviceSpec test_spec(bytes_t capacity = 512LL << 20) {
  sim::DeviceSpec s = sim::DeviceSpec::v100_32gb();
  s.memory_capacity = capacity;
  return s;
}

qr::QrOptions base_options(index_t blocksize) {
  qr::QrOptions opts;
  opts.blocksize = blocksize;
  opts.panel_base = 8;
  opts.precision = blas::GemmPrecision::FP32;
  return opts;
}

bool bitwise_equal(const la::Matrix& x, const la::Matrix& y) {
  for (index_t j = 0; j < x.cols(); ++j) {
    for (index_t i = 0; i < x.rows(); ++i) {
      if (x(i, j) != y(i, j)) return false;
    }
  }
  return true;
}

struct TiledRun {
  la::Matrix q;
  la::Matrix r;
  qr::QrStats stats;
};

TiledRun run_tiled(const la::Matrix& a, const qr::QrOptions& opts) {
  Device dev(test_spec(), ExecutionMode::Real);
  TiledRun run{la::materialize(a.view()), la::Matrix(a.cols(), a.cols()), {}};
  qr::QrProblem p{{&dev}, run.q.view(), run.r.view(), qr::Algorithm::Tiled,
                  opts};
  run.stats = qr::factorize(p);
  EXPECT_EQ(dev.live_allocations(), 0);
  EXPECT_LE(dev.memory_peak(), dev.memory_capacity());
  return run;
}

void expect_valid_qr(const la::Matrix& a, const TiledRun& run, double tol) {
  EXPECT_LT(la::qr_residual(a.view(), run.q.view(), run.r.view()), tol);
  EXPECT_TRUE(la::is_upper_triangular(run.r.view()));
  for (index_t j = 0; j < run.r.cols(); ++j) EXPECT_GT(run.r(j, j), 0.0f);
  EXPECT_LT(la::orthogonality_error(run.q.view()), 100 * tol);
}

class TiledQrSweep
    : public ::testing::TestWithParam<
          std::tuple<std::tuple<index_t, index_t>, index_t /*blocksize*/>> {};

TEST_P(TiledQrSweep, FactorsCorrectly) {
  const auto [shape, blocksize] = GetParam();
  const auto [m, n] = shape;
  la::Matrix a = la::random_normal(m, n, 2000 + m + n);
  const TiledRun run = run_tiled(a, base_options(blocksize));
  expect_valid_qr(a, run, 1e-4);
  EXPECT_GT(run.stats.total_seconds, 0.0);
  const index_t tiles = (n + blocksize - 1) / blocksize;
  EXPECT_EQ(run.stats.panels, tiles);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TiledQrSweep,
    ::testing::Combine(
        ::testing::Values(std::tuple<index_t, index_t>{64, 64},
                          std::tuple<index_t, index_t>{96, 48},
                          std::tuple<index_t, index_t>{200, 120},
                          std::tuple<index_t, index_t>{160, 100}),
        ::testing::Values<index_t>(16, 24, 64)));

TEST(TiledQr, SingleTileReducesToOnePanel) {
  la::Matrix a = la::random_normal(80, 32, 7);
  const TiledRun run = run_tiled(a, base_options(64)); // b > n: one tile
  expect_valid_qr(a, run, 1e-4);
  EXPECT_EQ(run.stats.panels, 1);
}

TEST(TiledQr, LookaheadFactorsNextPanelBeforeFarUpdatesDrain) {
  // 4 tiles in Phantom mode: the factorization of tile k+1 must be enqueued
  // on the compute engine before step k's far-tile updates — i.e. panel 2's
  // compute starts no later than the last far update of step 0 ends.
  Device dev(sim::DeviceSpec::v100_32gb(), ExecutionMode::Phantom);
  auto a = sim::HostMutRef::phantom(1 << 16, 1 << 14);
  auto r = sim::HostMutRef::phantom(1 << 14, 1 << 14);
  qr::QrOptions opts;
  opts.blocksize = 1 << 12; // 4 tiles
  qr::QrProblem p{{&dev}, a, r, qr::Algorithm::Tiled, opts};
  qr::factorize(p);

  const auto& events = dev.trace().events();
  sim_time_t second_panel_start = -1;
  sim_time_t last_far_update_end = -1; // "gemm upd 0,3" of step 0
  int panels_seen = 0;
  for (const auto& e : events) {
    if (e.kind == sim::OpKind::Panel && ++panels_seen == 2) {
      second_panel_start = e.start;
    }
    if (e.name.view().starts_with("gemm upd 0,3")) last_far_update_end = e.end;
  }
  ASSERT_GE(second_panel_start, 0.0);
  ASSERT_GE(last_far_update_end, 0.0);
  EXPECT_LT(second_panel_start, last_far_update_end);
}

TEST(TiledQr, ColocatedBatchAttributesStatsPerJob) {
  // Two different-size jobs share one device and one graph; the label
  // prefix must split the trace so each job sees its own panel count and
  // both see forward progress.
  const index_t m0 = 96, n0 = 48, m1 = 64, n1 = 64;
  la::Matrix a0 = la::random_normal(m0, n0, 51);
  la::Matrix a1 = la::random_normal(m1, n1, 52);
  la::Matrix q0 = la::materialize(a0.view());
  la::Matrix q1 = la::materialize(a1.view());
  la::Matrix r0(n0, n0), r1(n1, n1);

  Device dev(test_spec(), ExecutionMode::Real);
  qr::QrOptions opts = base_options(16);
  const std::vector<qr::QrStats> stats = qr::detail::run_batch(
      dev,
      {qr::detail::BatchJob{"tiled", q0.view(), r0.view(), opts, "j0."},
       qr::detail::BatchJob{"tiled", q1.view(), r1.view(), opts, "j1."}});

  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].panels, 3); // 48 cols at b=16
  EXPECT_EQ(stats[1].panels, 4); // 64 cols at b=16
  EXPECT_GT(stats[0].bytes_h2d, 0);
  EXPECT_GT(stats[1].bytes_h2d, 0);

  // Both factorizations are numerically intact despite the interleaving.
  EXPECT_LT(la::qr_residual(a0.view(), q0.view(), r0.view()), 1e-4);
  EXPECT_LT(la::qr_residual(a1.view(), q1.view(), r1.view()), 1e-4);
  EXPECT_TRUE(la::is_upper_triangular(r0.view()));
  EXPECT_TRUE(la::is_upper_triangular(r1.view()));
}

TEST(TiledQr, BatchInterleavesJobsOnTheComputeEngine) {
  // With equal priorities the scheduler round-robins ready nodes by id, so
  // some of job 1's compute work must land before job 0's last compute.
  Device dev(sim::DeviceSpec::v100_32gb(), ExecutionMode::Phantom);
  qr::QrOptions opts;
  opts.blocksize = 1 << 12;
  auto a0 = sim::HostMutRef::phantom(1 << 15, 1 << 14);
  auto r0 = sim::HostMutRef::phantom(1 << 14, 1 << 14);
  auto a1 = sim::HostMutRef::phantom(1 << 15, 1 << 14);
  auto r1 = sim::HostMutRef::phantom(1 << 14, 1 << 14);
  qr::detail::run_batch(
      dev, {qr::detail::BatchJob{"tiled", a0, r0, opts, "j0."},
            qr::detail::BatchJob{"tiled", a1, r1, opts, "j1."}});

  const auto& events = dev.trace().events();
  size_t first_j1_compute = 0, last_j0_compute = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].resource != sim::Resource::Compute) continue;
    if (events[i].name.view().rfind("j1.", 0) == 0 && first_j1_compute == 0) {
      first_j1_compute = i;
    }
    if (events[i].name.view().rfind("j0.", 0) == 0) last_j0_compute = i;
  }
  EXPECT_GT(first_j1_compute, 0u);
  EXPECT_LT(first_j1_compute, last_j0_compute);
}

TEST(TiledQr, CheckpointsEveryUnitWithSink) {
  const index_t m = 96, n = 72; // 3 tiles at b=24
  la::Matrix a = la::random_normal(m, n, 61);
  la::Matrix q = la::materialize(a.view());
  la::Matrix r(n, n);
  qr::MemoryCheckpointSink sink;
  qr::QrOptions opts = base_options(24);
  opts.checkpoint_sink = &sink;
  Device dev(test_spec(), ExecutionMode::Real);
  qr::QrProblem p{{&dev}, q.view(), r.view(), qr::Algorithm::Tiled, opts};
  qr::factorize(p);
  EXPECT_EQ(sink.count(), 3);
  EXPECT_EQ(sink.last().driver, "tiled");
  EXPECT_EQ(sink.last().units_done, 3);
  EXPECT_EQ(sink.last().columns_done, n);
}

TEST(TiledQr, KillEveryUnitResumesBitIdentical) {
  const index_t m = 96, n = 72;
  const qr::QrOptions opts = base_options(24);
  la::Matrix a0 = la::random_normal(m, n, 71);

  // Uninterrupted reference; its fault injector counts H2D ops for the kill
  // sweep.
  la::Matrix q_ref = la::materialize(a0.view());
  la::Matrix r_ref(n, n);
  Device ref_dev(test_spec(), ExecutionMode::Real);
  ref_dev.install_faults(FaultPlan::parse("h2d:transient:p=0"));
  {
    qr::QrProblem p{{&ref_dev}, q_ref.view(), r_ref.view(),
                    qr::Algorithm::Tiled, opts};
    qr::factorize(p);
  }
  const std::int64_t total_h2d =
      ref_dev.fault_injector()->ops_seen(sim::FaultSite::H2D);
  ASSERT_GT(total_h2d, 2);

  int resumed = 0;
  for (std::int64_t kill = 2; kill < total_h2d; ++kill) {
    qr::MemoryCheckpointSink sink;
    qr::QrOptions kill_opts = opts;
    kill_opts.checkpoint_sink = &sink;
    kill_opts.transfer_max_attempts = 1;
    la::Matrix q_killed = la::materialize(a0.view());
    la::Matrix r_killed(n, n);
    Device kill_dev(test_spec(), ExecutionMode::Real);
    kill_dev.install_faults(
        FaultPlan::parse("h2d:transient:op=" + std::to_string(kill)));
    qr::QrProblem pk{{&kill_dev}, q_killed.view(), r_killed.view(),
                     qr::Algorithm::Tiled, kill_opts};
    EXPECT_THROW(qr::factorize(pk), FaultBudgetExhausted) << "kill " << kill;
    if (!sink.has_checkpoint()) continue;
    const qr::Checkpoint& cp = sink.last();
    EXPECT_EQ(cp.driver, "tiled");
    EXPECT_GT(cp.units_done, 0);

    la::Matrix q_res(m, n);
    la::Matrix r_res(n, n);
    Device res_dev(test_spec(), ExecutionMode::Real);
    qr::QrProblem pr{{&res_dev}, q_res.view(), r_res.view(),
                     qr::Algorithm::Tiled, opts};
    qr::resume(pr, cp);
    EXPECT_TRUE(bitwise_equal(q_res, q_ref)) << "kill " << kill;
    EXPECT_TRUE(bitwise_equal(r_res, r_ref)) << "kill " << kill;
    ++resumed;
  }
  EXPECT_GE(resumed, 1);
}

TEST(TiledQr, ResumeFromCompleteCheckpointIsANoOp) {
  const index_t m = 64, n = 48;
  la::Matrix a = la::random_normal(m, n, 81);
  la::Matrix q = la::materialize(a.view());
  la::Matrix r(n, n);
  qr::MemoryCheckpointSink sink;
  qr::QrOptions opts = base_options(16);
  opts.checkpoint_sink = &sink;
  Device dev(test_spec(), ExecutionMode::Real);
  qr::QrProblem p{{&dev}, q.view(), r.view(), qr::Algorithm::Tiled, opts};
  qr::factorize(p);
  ASSERT_EQ(sink.last().units_done, 3);

  la::Matrix q2(m, n), r2(n, n);
  Device dev2(test_spec(), ExecutionMode::Real);
  qr::QrProblem p2{{&dev2}, q2.view(), r2.view(), qr::Algorithm::Tiled,
                   base_options(16)};
  qr::resume(p2, sink.last());
  EXPECT_TRUE(bitwise_equal(q2, q));
  EXPECT_TRUE(bitwise_equal(r2, r));
}

TEST(TiledQr, FactorizeValidatesProblem) {
  Device dev(test_spec(), ExecutionMode::Phantom);
  auto a = sim::HostMutRef::phantom(64, 32);
  auto r = sim::HostMutRef::phantom(32, 32);
  // Tiled is single-device.
  Device dev2(test_spec(), ExecutionMode::Phantom);
  qr::QrProblem two{{&dev, &dev2}, a, r, qr::Algorithm::Tiled, {}};
  EXPECT_THROW(qr::factorize(two), InvalidArgument);
  qr::QrProblem none{{}, a, r, qr::Algorithm::Tiled, {}};
  EXPECT_THROW(qr::factorize(none), InvalidArgument);
  // Wide matrices are rejected.
  auto wide = sim::HostMutRef::phantom(16, 32);
  qr::QrProblem bad{{&dev}, wide, r, qr::Algorithm::Tiled, {}};
  EXPECT_THROW(qr::factorize(bad), InvalidArgument);
}

TEST(AlgorithmNames, RoundTripThroughParse) {
  using qr::Algorithm;
  for (Algorithm alg :
       {Algorithm::Blocking, Algorithm::LeftLooking, Algorithm::Recursive,
        Algorithm::Tsqr, Algorithm::Tiled}) {
    const auto back = qr::parse_algorithm(qr::to_string(alg));
    ASSERT_TRUE(back.has_value()) << qr::to_string(alg);
    EXPECT_EQ(*back, alg);
  }
  EXPECT_FALSE(qr::parse_algorithm("qrqrqr").has_value());
  // The retired data-parallel blocking QR is no longer a name.
  EXPECT_FALSE(qr::parse_algorithm("multi_gpu").has_value());
}

} // namespace
} // namespace rocqr
