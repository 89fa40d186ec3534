// The four OOC GEMM engines: numerics against host BLAS (Real mode),
// movement accounting, pipelining properties, and the §4.1 optimizations.
#include <gtest/gtest.h>

#include "leak_check.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "blas/gemm.hpp"
#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "la/generate.hpp"
#include "la/matrix.hpp"
#include "la/norms.hpp"
#include "ooc/gemm_engines.hpp"
#include "ooc/operand.hpp"
#include "sim/device.hpp"

namespace rocqr::ooc {
namespace {

using blas::GemmPrecision;
using blas::Op;
using sim::Device;
using sim::DeviceMatrix;
using sim::ExecutionMode;

sim::DeviceSpec test_spec(bytes_t capacity = 256LL << 20) {
  sim::DeviceSpec s = sim::DeviceSpec::v100_32gb();
  s.memory_capacity = capacity;
  return s;
}

la::Matrix host_inner_reference(const la::Matrix& a, const la::Matrix& b,
                                GemmPrecision prec) {
  la::Matrix c(a.cols(), b.cols());
  blas::gemm(Op::Trans, Op::NoTrans, a.cols(), b.cols(), a.rows(), 1.0f,
             a.data(), a.ld(), b.data(), b.ld(), 0.0f, c.data(), c.ld(), prec);
  return c;
}

double tolerance(GemmPrecision prec, index_t k) {
  // fp16-input GEMMs round both operands; accumulation is fp32 in both the
  // engine and the reference, but slab splits change summation order.
  return prec == GemmPrecision::FP32
             ? 1e-5 * std::sqrt(static_cast<double>(k))
             : 2e-3 * std::sqrt(static_cast<double>(k));
}

// --- Inner product ----------------------------------------------------------

class InnerRecursiveTest
    : public ::testing::TestWithParam<
          std::tuple<index_t /*blocksize*/, int /*depth*/, bool /*ramp*/,
                     GemmPrecision>> {};

TEST_P(InnerRecursiveTest, MatchesHostGemm) {
  const auto [bs, depth, ramp, prec] = GetParam();
  const index_t k = 200;
  const index_t m = 48;
  const index_t n = 72;
  la::Matrix a = la::random_uniform(k, m, 1);
  la::Matrix b = la::random_uniform(k, n, 2);
  la::Matrix c(m, n);

  Device dev(test_spec(), ExecutionMode::Real);
  OocGemmOptions opts;
  opts.blocksize = bs;
  opts.pipeline_depth = depth;
  opts.ramp_up = ramp;
  opts.ramp_start = std::min<index_t>(16, bs);
  opts.precision = prec;
  const auto stats =
      inner_product_recursive(dev, Operand::on_host(a.view()),
                              Operand::on_host(b.view()), c.view(), opts);
  dev.synchronize();

  la::Matrix expected = host_inner_reference(a, b, prec);
  EXPECT_LT(la::relative_difference(c.view(), expected.view()),
            tolerance(prec, k));
  const sim::TraceSummary window =
      sim::summarize(dev.trace(), stats.trace_begin, stats.trace_end);
  EXPECT_EQ(window.bytes_h2d, (k * m + k * n) * 4);
  EXPECT_EQ(window.bytes_d2h, m * n * 4);
  EXPECT_GT(stats.steps, 0);
  EXPECT_EQ(dev.live_allocations(), 0); // engine cleaned up
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InnerRecursiveTest,
    ::testing::Combine(::testing::Values<index_t>(16, 64, 200, 512),
                       ::testing::Values(1, 2, 3),
                       ::testing::Values(false, true),
                       ::testing::Values(GemmPrecision::FP32,
                                         GemmPrecision::FP16_FP32)));

TEST(InnerRecursive, KeepCReturnsResidentAccumulator) {
  const index_t k = 128;
  const index_t m = 32;
  const index_t n = 40;
  la::Matrix a = la::random_uniform(k, m, 3);
  la::Matrix b = la::random_uniform(k, n, 4);
  la::Matrix c(m, n);
  Device dev(test_spec(), ExecutionMode::Real);
  OocGemmOptions opts;
  opts.blocksize = 32;
  opts.precision = GemmPrecision::FP32;
  DeviceMatrix kept;
  inner_product_recursive(dev, Operand::on_host(a.view()),
                          Operand::on_host(b.view()), c.view(), opts, &kept);
  dev.synchronize();
  ASSERT_TRUE(kept.valid());
  la::Matrix resident = dev.download(kept);
  EXPECT_EQ(la::relative_difference(resident.view(), c.view()), 0.0);
  dev.free(kept);
  EXPECT_EQ(dev.live_allocations(), 0);
}

TEST(InnerRecursive, CPanelSplitMatchesAndRestreamsA) {
  const index_t k = 160;
  const index_t m = 40;
  const index_t n = 80;
  la::Matrix a = la::random_uniform(k, m, 5);
  la::Matrix b = la::random_uniform(k, n, 6);
  la::Matrix c(m, n);
  Device dev(test_spec(), ExecutionMode::Real);
  OocGemmOptions opts;
  opts.blocksize = 64;
  opts.c_panel_cols = 20; // 4 panels
  opts.precision = GemmPrecision::FP32;
  const auto stats =
      inner_product_recursive(dev, Operand::on_host(a.view()),
                              Operand::on_host(b.view()), c.view(), opts);
  dev.synchronize();
  la::Matrix expected = host_inner_reference(a, b, GemmPrecision::FP32);
  EXPECT_LT(la::relative_difference(c.view(), expected.view()), 1e-4);
  // A re-streamed once per C panel; B exactly once.
  const sim::TraceSummary window =
      sim::summarize(dev.trace(), stats.trace_begin, stats.trace_end);
  EXPECT_EQ(window.bytes_h2d, (4 * k * m + k * n) * 4);
  EXPECT_EQ(stats.output_ready.size(), 4u);
  // keep_c is incompatible with a split accumulator.
  DeviceMatrix kept;
  EXPECT_THROW(inner_product_recursive(dev, Operand::on_host(a.view()),
                                       Operand::on_host(b.view()), c.view(),
                                       opts, &kept),
               InvalidArgument);
}

TEST(InnerRecursive, AsyncBeatsSynchronous) {
  // Phantom mode at paper-like proportions: the pipelined schedule must be
  // substantially faster than the fully synchronized one (Table 1).
  const auto run = [&](bool synchronous) {
    Device dev(sim::DeviceSpec::v100_32gb(), ExecutionMode::Phantom);
    dev.model().install_paper_calibration();
    OocGemmOptions opts;
    opts.blocksize = 16384;
    opts.synchronous = synchronous;
    inner_product_recursive(
        dev, Operand::on_host(sim::HostConstRef::phantom(131072, 65536)),
        Operand::on_host(sim::HostConstRef::phantom(131072, 65536)),
        sim::HostMutRef::phantom(65536, 65536), opts);
    dev.synchronize();
    return dev.makespan();
  };
  const double sync = run(true);
  const double async = run(false);
  EXPECT_LT(async, 0.80 * sync);
  // Table 1 anchors: ~18.2 s sync, ~12.9 s async (±15%).
  EXPECT_NEAR(sync, 18.183, 18.183 * 0.15);
  EXPECT_NEAR(async, 12.932, 12.932 * 0.15);
}

TEST(PrefetchCounters, ResolveThroughRegistryAfterReset) {
  // Regression: count_slab_prefetch used to cache Counter* in function-local
  // statics. A MetricsRegistry reset between runs then left later engines
  // incrementing through the stale pointers while fresh registry lookups (a
  // snapshot, a new exporter) saw different objects. The counters must be
  // re-resolved per call so a run after reset() accounts from zero.
  auto& reg = telemetry::MetricsRegistry::global();
  const auto run_engine = [&]() {
    Device dev(sim::DeviceSpec::v100_32gb(), ExecutionMode::Phantom);
    OocGemmOptions opts;
    opts.blocksize = 256;
    opts.pipeline_depth = 2;
    // m = 4 slabs of 256: the first `depth` steps miss, the rest hit.
    inner_product_recursive(
        dev, Operand::on_host(sim::HostConstRef::phantom(1024, 64)),
        Operand::on_host(sim::HostConstRef::phantom(1024, 32)),
        sim::HostMutRef::phantom(64, 32), opts);
    dev.synchronize();
  };
  run_engine(); // interns the counters with some nonzero value
  reg.reset();
  run_engine();
  EXPECT_EQ(reg.counter("ooc.slab_prefetch_misses").value(), 2);
  EXPECT_EQ(reg.counter("ooc.slab_prefetch_hits").value(), 2);
}

class InnerBlockingTest
    : public ::testing::TestWithParam<std::tuple<index_t, bool /*resident*/,
                                                 GemmPrecision>> {};

TEST_P(InnerBlockingTest, MatchesHostGemm) {
  const auto [bs, resident, prec] = GetParam();
  const index_t k = 150;
  const index_t m = 24;
  const index_t n = 90;
  la::Matrix a = la::random_uniform(k, m, 7);
  la::Matrix b = la::random_uniform(k, n, 8);
  la::Matrix c(m, n);

  Device dev(test_spec(), ExecutionMode::Real);
  OocGemmOptions opts;
  opts.blocksize = bs;
  opts.precision = prec;

  DeviceMatrix a_dev;
  if (resident) {
    a_dev = dev.allocate(k, m);
    dev.upload(a_dev, a.view());
  }
  const Operand a_op =
      resident ? Operand::on_device(a_dev) : Operand::on_host(a.view());
  const auto stats =
      inner_product_blocking(dev, a_op, Operand::on_host(b.view()), c.view(),
                             opts);
  dev.synchronize();

  la::Matrix expected = host_inner_reference(a, b, prec);
  EXPECT_LT(la::relative_difference(c.view(), expected.view()),
            tolerance(prec, k));
  // B streamed once; A moved only when not resident.
  const bytes_t expected_h2d = (k * n + (resident ? 0 : k * m)) * 4;
  const sim::TraceSummary window =
      sim::summarize(dev.trace(), stats.trace_begin, stats.trace_end);
  EXPECT_EQ(window.bytes_h2d, expected_h2d);
  EXPECT_EQ(window.bytes_d2h, m * n * 4);
  if (resident) dev.free(a_dev);
  EXPECT_EQ(dev.live_allocations(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InnerBlockingTest,
    ::testing::Combine(::testing::Values<index_t>(16, 30, 128),
                       ::testing::Bool(),
                       ::testing::Values(GemmPrecision::FP32,
                                         GemmPrecision::FP16_FP32)));

TEST(InnerBlocking, KeepCHoldsFullResult) {
  const index_t k = 100;
  const index_t m = 20;
  const index_t n = 60;
  la::Matrix a = la::random_uniform(k, m, 9);
  la::Matrix b = la::random_uniform(k, n, 10);
  la::Matrix c(m, n);
  Device dev(test_spec(), ExecutionMode::Real);
  OocGemmOptions opts;
  opts.blocksize = 16;
  opts.precision = GemmPrecision::FP32;
  DeviceMatrix kept;
  inner_product_blocking(dev, Operand::on_host(a.view()),
                         Operand::on_host(b.view()), c.view(), opts, &kept);
  dev.synchronize();
  ASSERT_TRUE(kept.valid());
  la::Matrix resident = dev.download(kept);
  EXPECT_EQ(la::relative_difference(resident.view(), c.view()), 0.0);
  dev.free(kept);
}

// --- Outer product ----------------------------------------------------------

la::Matrix host_outer_reference(const la::Matrix& c0, const la::Matrix& a,
                                const la::Matrix& b, GemmPrecision prec) {
  la::Matrix c = la::materialize(c0.view());
  blas::gemm(Op::NoTrans, Op::NoTrans, a.rows(), b.cols(), a.cols(), -1.0f,
             a.data(), a.ld(), b.data(), b.ld(), 1.0f, c.data(), c.ld(), prec);
  return c;
}

class OuterRecursiveTest
    : public ::testing::TestWithParam<
          std::tuple<index_t, bool /*staging*/, bool /*resident B*/,
                     GemmPrecision>> {};

TEST_P(OuterRecursiveTest, MatchesHostGemm) {
  const auto [bs, staging, resident, prec] = GetParam();
  const index_t m = 180;
  const index_t k = 40;
  const index_t n = 52;
  la::Matrix a = la::random_uniform(m, k, 11);
  la::Matrix b = la::random_uniform(k, n, 12);
  la::Matrix c0 = la::random_uniform(m, n, 13);
  la::Matrix c = la::materialize(c0.view());

  Device dev(test_spec(), ExecutionMode::Real);
  OocGemmOptions opts;
  opts.blocksize = bs;
  opts.staging_buffer = staging;
  opts.precision = prec;

  DeviceMatrix b_dev;
  if (resident) {
    b_dev = dev.allocate(k, n);
    dev.upload(b_dev, b.view());
  }
  const Operand b_op =
      resident ? Operand::on_device(b_dev) : Operand::on_host(b.view());
  const auto stats = outer_product_recursive(
      dev, Operand::on_host(a.view()), b_op, sim::as_const(c.view()),
      c.view(), opts);
  dev.synchronize();

  la::Matrix expected = host_outer_reference(c0, a, b, prec);
  EXPECT_LT(la::relative_difference(c.view(), expected.view()),
            tolerance(prec, k));
  // A and C stream once each in; B only when not resident; C streams out.
  const bytes_t expected_h2d = (m * k + m * n + (resident ? 0 : k * n)) * 4;
  const sim::TraceSummary window =
      sim::summarize(dev.trace(), stats.trace_begin, stats.trace_end);
  EXPECT_EQ(window.bytes_h2d, expected_h2d);
  EXPECT_EQ(window.bytes_d2h, m * n * 4);
  // The staging optimization is pure buffer rotation: no PCIe or on-device
  // copies beyond the one-in/one-out minimum in either mode.
  EXPECT_EQ(window.bytes_d2d, 0);
  // Row-slab region events tile the full height.
  index_t covered = 0;
  for (const auto& re : stats.output_ready) {
    EXPECT_EQ(re.rows.offset, covered);
    covered += re.rows.width;
  }
  EXPECT_EQ(covered, m);
  if (resident) dev.free(b_dev);
  EXPECT_EQ(dev.live_allocations(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OuterRecursiveTest,
    ::testing::Combine(::testing::Values<index_t>(16, 60, 256),
                       ::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(GemmPrecision::FP32,
                                         GemmPrecision::FP16_FP32)));

TEST(OuterRecursive, StagingBufferImprovesOverlap) {
  // Phantom run at Table 2's recursive shape: with the staging buffer the
  // C move-in no longer serializes behind the move-out (§4.1.2).
  const auto run = [&](bool staging) {
    Device dev(sim::DeviceSpec::v100_32gb(), ExecutionMode::Phantom);
    dev.model().install_paper_calibration();
    OocGemmOptions opts;
    opts.blocksize = 8192;
    opts.staging_buffer = staging;
    outer_product_recursive(
        dev, Operand::on_host(sim::HostConstRef::phantom(131072, 65536)),
        Operand::on_host(sim::HostConstRef::phantom(65536, 65536)),
        sim::HostConstRef::phantom(131072, 65536),
        sim::HostMutRef::phantom(131072, 65536), opts);
    dev.synchronize();
    return dev.makespan();
  };
  EXPECT_LT(run(true), run(false));
}

TEST(OuterRecursive, PaperShapeTimesMatchTable2) {
  Device dev(sim::DeviceSpec::v100_32gb(), ExecutionMode::Phantom);
  dev.model().install_paper_calibration();
  OocGemmOptions opts;
  opts.blocksize = 8192;
  DeviceMatrix b_dev = dev.allocate(65536, 65536, sim::StoragePrecision::FP16);
  const auto stats = outer_product_recursive(
      dev, Operand::on_host(sim::HostConstRef::phantom(131072, 65536)),
      Operand::on_device(b_dev), sim::HostConstRef::phantom(131072, 65536),
      sim::HostMutRef::phantom(131072, 65536), opts);
  dev.synchronize();
  // Single-slab costs from Table 2: 347 / 654 / 163 ms.
  EXPECT_NEAR(stats.slab_h2d_seconds, 0.347, 0.347 * 0.1);
  EXPECT_NEAR(stats.slab_gemm_seconds, 0.654, 0.654 * 0.05);
  EXPECT_NEAR(stats.slab_d2h_seconds, 0.163, 0.163 * 0.1);
  // Async total ~11.5 s (paper measured 11.517, ideal bound 10.974).
  EXPECT_NEAR(dev.makespan(), 11.5, 11.5 * 0.1);
  dev.free(b_dev);
}

class OuterBlockingTest
    : public ::testing::TestWithParam<
          std::tuple<std::tuple<index_t, index_t> /*tiles*/, bool /*staging*/,
                     GemmPrecision>> {};

TEST_P(OuterBlockingTest, MatchesHostGemm) {
  const auto [tiles, staging, prec] = GetParam();
  const auto [b1, b2] = tiles;
  const index_t m = 130;
  const index_t k = 30;
  const index_t n = 88;
  la::Matrix a = la::random_uniform(m, k, 14);
  la::Matrix b = la::random_uniform(k, n, 15);
  la::Matrix c0 = la::random_uniform(m, n, 16);
  la::Matrix c = la::materialize(c0.view());

  Device dev(test_spec(), ExecutionMode::Real);
  OocGemmOptions opts;
  opts.blocksize = b1;
  opts.tile_cols = b2;
  opts.staging_buffer = staging;
  opts.precision = prec;
  const auto stats = outer_product_blocking(
      dev, Operand::on_host(a.view()), Operand::on_host(b.view()),
      sim::as_const(c.view()), c.view(), opts);
  dev.synchronize();

  la::Matrix expected = host_outer_reference(c0, a, b, prec);
  EXPECT_LT(la::relative_difference(c.view(), expected.view()),
            tolerance(prec, k));
  // A, B in once; C tiles in and out exactly once.
  const sim::TraceSummary window =
      sim::summarize(dev.trace(), stats.trace_begin, stats.trace_end);
  EXPECT_EQ(window.bytes_h2d, (m * k + k * n + m * n) * 4);
  EXPECT_EQ(window.bytes_d2h, m * n * 4);
  const index_t row_tiles = (m + b1 - 1) / b1;
  const index_t col_tiles = (n + b2 - 1) / b2;
  EXPECT_EQ(stats.steps, row_tiles * col_tiles);
  EXPECT_EQ(dev.live_allocations(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OuterBlockingTest,
    ::testing::Combine(
        ::testing::Values(std::tuple<index_t, index_t>{32, 32},
                          std::tuple<index_t, index_t>{64, 16},
                          std::tuple<index_t, index_t>{300, 300}),
        ::testing::Bool(),
        ::testing::Values(GemmPrecision::FP32, GemmPrecision::FP16_FP32)));

TEST(OuterBlocking, ResidentOperandsWithReadyEvents) {
  // Both factors produced on-device (as the blocking QR driver does):
  // consumers must respect the producer's ready event.
  const index_t m = 64;
  const index_t k = 16;
  const index_t n = 48;
  la::Matrix a = la::random_uniform(m, k, 17);
  la::Matrix b = la::random_uniform(k, n, 18);
  la::Matrix c0 = la::random_uniform(m, n, 19);
  la::Matrix c = la::materialize(c0.view());

  Device dev(test_spec(), ExecutionMode::Real);
  sim::Stream producer = dev.create_stream();
  DeviceMatrix a_dev = dev.allocate(m, k);
  DeviceMatrix b_dev = dev.allocate(k, n);
  dev.copy_h2d(a_dev, a.view(), producer);
  dev.copy_h2d(b_dev, b.view(), producer);
  sim::Event ready = dev.create_event();
  dev.record_event(ready, producer);

  OocGemmOptions opts;
  opts.blocksize = 32;
  opts.tile_cols = 24;
  opts.precision = GemmPrecision::FP32;
  outer_product_blocking(dev, Operand::on_device(a_dev, ready),
                         Operand::on_device(b_dev, ready),
                         sim::as_const(c.view()), c.view(), opts);
  dev.synchronize();
  la::Matrix expected = host_outer_reference(c0, a, b, GemmPrecision::FP32);
  EXPECT_LT(la::relative_difference(c.view(), expected.view()), 1e-4);
  // The first gemm must not start before the producer's uploads finished.
  const auto& events = dev.trace().events();
  sim_time_t upload_end = 0;
  sim_time_t first_gemm = -1;
  for (const auto& e : events) {
    if (e.stream == producer.id && e.kind == sim::OpKind::CopyH2D) {
      upload_end = std::max(upload_end, e.end);
    }
    if (e.kind == sim::OpKind::Gemm && first_gemm < 0) first_gemm = e.start;
  }
  EXPECT_GE(first_gemm, upload_end);
  dev.free(a_dev);
  dev.free(b_dev);
}

TEST(OuterBlocking, HostInputReadyDelaysFirstMoveIn) {
  Device dev(test_spec(), ExecutionMode::Phantom);
  // A long-running op on another stream, whose completion gates the engine.
  sim::Stream other = dev.create_stream();
  dev.custom_compute(other, 5.0, 0, sim::OpKind::Custom, "long op");
  sim::Event gate = dev.create_event();
  dev.record_event(gate, other);

  OocGemmOptions opts;
  opts.blocksize = 512;
  opts.host_input_ready = {gate};
  outer_product_blocking(
      dev, Operand::on_host(sim::HostConstRef::phantom(1024, 256)),
      Operand::on_host(sim::HostConstRef::phantom(256, 1024)),
      sim::HostConstRef::phantom(1024, 1024),
      sim::HostMutRef::phantom(1024, 1024), opts);
  dev.synchronize();
  for (const auto& e : dev.trace().events()) {
    if (e.kind == sim::OpKind::CopyH2D) {
      EXPECT_GE(e.start, 5.0);
    }
  }
}

TEST(Engines, StreamedRegionWaitsAreFineGrained) {
  // Two writer halves of the B operand finishing far apart: with region
  // events the first B slab streams right after the early half; a coarse
  // done-event would stall everything until t=9.
  Device dev(test_spec(), ExecutionMode::Phantom);
  sim::Stream writer = dev.create_stream();
  dev.custom_compute(writer, 1.0, 0, sim::OpKind::Custom, "early half");
  sim::Event early = dev.create_event();
  dev.record_event(early, writer);
  dev.custom_compute(writer, 8.0, 0, sim::OpKind::Custom, "late half");
  sim::Event late = dev.create_event();
  dev.record_event(late, writer);

  const index_t k = 512;
  const index_t m = 64;
  const index_t n = 256;
  auto a_dev = dev.allocate(k, m);
  OocGemmOptions opts;
  opts.blocksize = 64;
  opts.streamed_input_regions = {
      {Slab{0, k}, Slab{0, n / 2}, early},
      {Slab{0, k}, Slab{n / 2, n / 2}, late},
  };
  const size_t before = dev.trace().size();
  inner_product_blocking(dev, Operand::on_device(a_dev),
                         Operand::on_host(sim::HostConstRef::phantom(k, n)),
                         sim::HostMutRef::phantom(m, n), opts);
  dev.synchronize();

  double first_b_start = 1e30;
  double late_cols_start = 1e30;
  const auto& events = dev.trace().events();
  for (size_t i = before; i < events.size(); ++i) {
    if (events[i].kind != sim::OpKind::CopyH2D) continue;
    first_b_start = std::min(first_b_start, events[i].start);
    if (events[i].name == "h2d B[2]") late_cols_start = events[i].start;
  }
  EXPECT_GE(first_b_start, 1.0);  // waits the early half
  EXPECT_LT(first_b_start, 9.0);  // but NOT the late half
  EXPECT_GE(late_cols_start, 9.0); // slabs in the late half do wait
  dev.free(a_dev);
}

TEST(Engines, RejectShapeMismatches) {
  Device dev(test_spec(), ExecutionMode::Phantom);
  OocGemmOptions opts;
  opts.blocksize = 16;
  // Inner: k mismatch.
  EXPECT_THROW(
      inner_product_recursive(
          dev, Operand::on_host(sim::HostConstRef::phantom(100, 10)),
          Operand::on_host(sim::HostConstRef::phantom(90, 10)),
          sim::HostMutRef::phantom(10, 10), opts),
      InvalidArgument);
  // Inner: wrong C shape.
  EXPECT_THROW(
      inner_product_blocking(
          dev, Operand::on_host(sim::HostConstRef::phantom(100, 10)),
          Operand::on_host(sim::HostConstRef::phantom(100, 12)),
          sim::HostMutRef::phantom(10, 10), opts),
      InvalidArgument);
  // Outer: C shape mismatch.
  EXPECT_THROW(
      outer_product_recursive(
          dev, Operand::on_host(sim::HostConstRef::phantom(64, 8)),
          Operand::on_host(sim::HostConstRef::phantom(8, 16)),
          sim::HostConstRef::phantom(64, 16),
          sim::HostMutRef::phantom(64, 15), opts),
      InvalidArgument);
}

TEST(Engines, DeviceTooSmallThrowsOom) {
  Device dev(test_spec(1 << 16), ExecutionMode::Phantom); // 64 KiB device
  OocGemmOptions opts;
  opts.blocksize = 64;
  EXPECT_THROW(
      inner_product_recursive(
          dev, Operand::on_host(sim::HostConstRef::phantom(512, 256)),
          Operand::on_host(sim::HostConstRef::phantom(512, 256)),
          sim::HostMutRef::phantom(256, 256), opts),
      DeviceOutOfMemory);
}

} // namespace
} // namespace rocqr::ooc
