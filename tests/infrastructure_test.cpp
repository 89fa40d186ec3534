// Direct unit tests for the supporting infrastructure: HostWriteTracker,
// the driver planning helpers, Operand, pinned-memory modeling, chrome
// trace export, and the report table renderer.
#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "la/generate.hpp"
#include "ooc/operand.hpp"
#include "qr/driver_util.hpp"
#include "qr/gemm_plan.hpp"
#include "qr/host_tracker.hpp"
#include "report/table.hpp"
#include "sim/device.hpp"

namespace rocqr {
namespace {

using qr::detail::HostWriteTracker;
using sim::Device;
using sim::ExecutionMode;

sim::DeviceSpec tiny_spec() {
  sim::DeviceSpec s = sim::DeviceSpec::v100_32gb();
  s.memory_capacity = 64LL << 20;
  return s;
}

// --- HostWriteTracker --------------------------------------------------------

TEST(HostWriteTracker, EventsForIntersectingRangesOnly) {
  Device dev(tiny_spec(), ExecutionMode::Phantom);
  HostWriteTracker t(100);
  sim::Stream s = dev.create_stream();
  sim::Event e1 = dev.create_event();
  sim::Event e2 = dev.create_event();
  dev.record_event(e1, s);
  dev.record_event(e2, s);
  t.record(ooc::Slab{0, 30}, e1);
  t.record(ooc::Slab{50, 50}, e2);

  EXPECT_EQ(t.events_for(0, 10).size(), 1u);
  EXPECT_EQ(t.events_for(35, 10).size(), 0u); // gap
  EXPECT_EQ(t.events_for(60, 10).size(), 1u);
  EXPECT_EQ(t.events_for(20, 40).size(), 2u); // spans both
}

TEST(HostWriteTracker, NewWriteSupersedesContainedOld) {
  Device dev(tiny_spec(), ExecutionMode::Phantom);
  HostWriteTracker t(100);
  sim::Stream s = dev.create_stream();
  sim::Event e1 = dev.create_event();
  sim::Event e2 = dev.create_event();
  dev.record_event(e1, s);
  dev.record_event(e2, s);
  t.record(ooc::Slab{10, 20}, e1);
  t.record(ooc::Slab{0, 100}, e2); // covers everything
  EXPECT_EQ(t.events_for(10, 20).size(), 1u);
}

TEST(HostWriteTracker, RegionsForRequiresFullCoverageByLatestWriter) {
  Device dev(tiny_spec(), ExecutionMode::Phantom);
  HostWriteTracker t(200);
  sim::Stream s = dev.create_stream();
  sim::Event e = dev.create_event();
  dev.record_event(e, s);
  std::vector<ooc::RegionEvent> regions = {
      {ooc::Slab{0, 64}, ooc::Slab{100, 50}, e},
      {ooc::Slab{64, 64}, ooc::Slab{100, 50}, e},
  };
  t.record(ooc::Slab{100, 50}, e, regions);

  // Fully covered read: regions returned.
  EXPECT_EQ(t.regions_for(100, 50).size(), 2u);
  EXPECT_EQ(t.regions_for(110, 20).size(), 2u);
  // Read extending past the writer: no fine-grained path.
  EXPECT_TRUE(t.regions_for(90, 30).empty());
  // Writer without regions: empty.
  sim::Event e2 = dev.create_event();
  dev.record_event(e2, s);
  t.record(ooc::Slab{0, 50}, e2);
  EXPECT_TRUE(t.regions_for(0, 10).empty());
}

TEST(HostWriteTracker, RejectsOutOfBounds) {
  HostWriteTracker t(10);
  EXPECT_THROW(t.record(ooc::Slab{5, 10}, sim::Event{}), InvalidArgument);
  EXPECT_THROW(t.record(ooc::Slab{-1, 2}, sim::Event{}), InvalidArgument);
  EXPECT_THROW(HostWriteTracker(0), InvalidArgument);
}

// --- move_in_panel fine-grained chunking -------------------------------------

TEST(MoveInPanel, ChunksByRowRegionsWhenCovered) {
  Device dev(tiny_spec(), ExecutionMode::Phantom);
  sim::Stream writer = dev.create_stream();
  const index_t m = 64;
  const index_t w = 8;

  // A fake previous update: two row-halves finishing at different times.
  dev.custom_compute(writer, 1.0, 0, sim::OpKind::Custom, "fast half");
  sim::Event early = dev.create_event();
  dev.record_event(early, writer);
  dev.custom_compute(writer, 9.0, 0, sim::OpKind::Custom, "slow half");
  sim::Event late = dev.create_event();
  dev.record_event(late, writer);

  HostWriteTracker tracker(32);
  tracker.record(ooc::Slab{0, 32}, late,
                 {{ooc::Slab{0, 32}, ooc::Slab{0, 32}, early},
                  {ooc::Slab{32, 32}, ooc::Slab{0, 32}, late}});

  auto panel = dev.allocate(m, w);
  qr::QrOptions fine;
  fine.qr_level_opt = true; // fine-grained chunking by tracked row regions
  ooc::TaskGraph graph(dev, qr::detail::gemm_options(fine));
  ooc::TaskPlan stage;
  stage.move_in = [&](ooc::TaskCtx& ctx) {
    qr::detail::move_in_panel(ctx, panel, sim::HostConstRef::phantom(m, w),
                              tracker, 0, w, fine);
  };
  ooc::run_task(graph, stage);
  dev.synchronize();
  // Two chunked copies; the first starts right after the early event (t=1),
  // well before the late event (t=10).
  int copies = 0;
  double first_start = 1e30;
  for (const auto& e : dev.trace().events()) {
    if (e.kind == sim::OpKind::CopyH2D) {
      ++copies;
      first_start = std::min(first_start, e.start);
    }
  }
  EXPECT_EQ(copies, 2);
  EXPECT_LT(first_start, 9.0);
  EXPECT_GE(first_start, 1.0);

  // Coarse mode waits for everything.
  Device dev2(tiny_spec(), ExecutionMode::Phantom);
  sim::Stream w2 = dev2.create_stream();
  dev2.custom_compute(w2, 5.0, 0, sim::OpKind::Custom, "writer");
  sim::Event done = dev2.create_event();
  dev2.record_event(done, w2);
  HostWriteTracker tracker2(32);
  tracker2.record(ooc::Slab{0, 32}, done);
  auto panel2 = dev2.allocate(m, w);
  qr::QrOptions coarse;
  coarse.qr_level_opt = false; // coarse: one copy waiting on everything
  ooc::TaskGraph graph2(dev2, qr::detail::gemm_options(coarse));
  ooc::TaskPlan stage2;
  stage2.move_in = [&](ooc::TaskCtx& ctx) {
    qr::detail::move_in_panel(ctx, panel2, sim::HostConstRef::phantom(m, w),
                              tracker2, 0, w, coarse);
  };
  ooc::run_task(graph2, stage2);
  for (const auto& e : dev2.trace().events()) {
    if (e.kind == sim::OpKind::CopyH2D) {
      EXPECT_GE(e.start, 5.0);
    }
  }
}

// --- Planning helpers ---------------------------------------------------------

TEST(Planning, TileEdgeShrinksWithResidents) {
  sim::DeviceSpec s = sim::DeviceSpec::v100_32gb();
  Device dev(s, ExecutionMode::Phantom);
  qr::QrOptions opts;
  const index_t roomy = qr::detail::plan_tile_edge(dev, 0, opts);
  const index_t tight =
      qr::detail::plan_tile_edge(dev, 28LL << 30, opts);
  EXPECT_GT(roomy, tight);
  EXPECT_GE(tight, 32);
  // The paper's configuration: ~16 GiB of residents at b=16384 -> 16384
  // tiles (Table 2's choice).
  EXPECT_EQ(qr::detail::plan_tile_edge(dev, 16LL << 30, opts), 16384);
}

TEST(Planning, GemmOptionsInheritQrKnobs) {
  qr::QrOptions opts;
  opts.blocksize = 1234;
  opts.ramp_up = true;
  opts.ramp_start = 99;
  opts.staging_buffer = false;
  opts.pipeline_depth = 5;
  opts.precision = blas::GemmPrecision::FP32;
  const ooc::OocGemmOptions g = qr::detail::gemm_options(opts);
  EXPECT_EQ(g.blocksize, 1234);
  EXPECT_TRUE(g.ramp_up);
  EXPECT_EQ(g.ramp_start, 99);
  EXPECT_FALSE(g.staging_buffer);
  EXPECT_EQ(g.pipeline_depth, 5);
  EXPECT_EQ(g.precision, blas::GemmPrecision::FP32);
}

// --- Operand -------------------------------------------------------------------

TEST(Operand, HostAndDeviceVariants) {
  Device dev(tiny_spec(), ExecutionMode::Phantom);
  auto m = dev.allocate(10, 6);
  const auto whole = ooc::Operand::on_device(m);
  EXPECT_TRUE(whole.is_resident());
  EXPECT_EQ(whole.rows(), 10);
  EXPECT_EQ(whole.cols(), 6);
  EXPECT_THROW(whole.host(), InvalidArgument);

  const auto block =
      ooc::Operand::on_device(sim::DeviceMatrixRef(m, 2, 1, 4, 3));
  EXPECT_EQ(block.rows(), 4);
  EXPECT_EQ(block.cols(), 3);
  EXPECT_EQ(block.device_ref().row0, 2);

  const auto host = ooc::Operand::on_host(sim::HostConstRef::phantom(7, 8));
  EXPECT_FALSE(host.is_resident());
  EXPECT_EQ(host.rows(), 7);
  EXPECT_THROW(host.device_ref(), InvalidArgument);

  sim::DeviceMatrix invalid;
  EXPECT_THROW(ooc::Operand::on_device(invalid), InvalidArgument);
}

TEST(Operand, HostBlockHelperChecksBounds) {
  la::Matrix m = la::random_uniform(6, 6, 1);
  const auto ref = sim::HostConstRef(m.view());
  const auto blk = ooc::host_block(ref, 1, 2, 3, 4);
  EXPECT_EQ(blk.rows, 3);
  EXPECT_EQ(blk.data, m.data() + 1 + 2 * m.ld());
  EXPECT_THROW(ooc::host_block(ref, 4, 0, 3, 1), InvalidArgument);
  EXPECT_THROW(ooc::host_block(ref, 0, 5, 1, 2), InvalidArgument);
}

// --- Pinned vs pageable host memory ------------------------------------------

TEST(PinnedMemory, PageableTransfersAreSlower) {
  const auto copy_time = [&](bool pinned) {
    Device dev(tiny_spec(), ExecutionMode::Phantom);
    dev.set_host_memory_pinned(pinned);
    auto m = dev.allocate(1024, 1024);
    sim::Stream s = dev.create_stream();
    dev.copy_h2d(m, sim::HostConstRef::phantom(1024, 1024), s);
    auto out = sim::HostMutRef::phantom(1024, 1024);
    dev.copy_d2h(out, m, s);
    dev.synchronize();
    return dev.makespan();
  };
  const double pinned = copy_time(true);
  const double pageable = copy_time(false);
  // Factor 0.5 => exactly twice as slow (up to the fixed latencies).
  EXPECT_NEAR(pageable / pinned, 2.0, 0.01);
  // Compute durations are unaffected.
  Device dev(tiny_spec(), ExecutionMode::Phantom);
  dev.set_host_memory_pinned(false);
  auto m = dev.allocate(256, 256);
  sim::Stream s = dev.create_stream();
  dev.gemm(blas::Op::NoTrans, blas::Op::NoTrans, 1.0f, m, m, 0.0f, m,
           blas::GemmPrecision::FP16_FP32, s);
  const double t_pageable = dev.trace().events().back().end -
                            dev.trace().events().back().start;
  Device dev2(tiny_spec(), ExecutionMode::Phantom);
  auto m2 = dev2.allocate(256, 256);
  sim::Stream s2 = dev2.create_stream();
  dev2.gemm(blas::Op::NoTrans, blas::Op::NoTrans, 1.0f, m2, m2, 0.0f, m2,
            blas::GemmPrecision::FP16_FP32, s2);
  const double t_pinned = dev2.trace().events().back().end -
                          dev2.trace().events().back().start;
  EXPECT_DOUBLE_EQ(t_pageable, t_pinned);
}

// --- Chrome trace export -------------------------------------------------------

TEST(ChromeTrace, EmitsWellFormedEvents) {
  Device dev(tiny_spec(), ExecutionMode::Phantom);
  auto m = dev.allocate(512, 512);
  sim::Stream s = dev.create_stream();
  dev.copy_h2d(m, sim::HostConstRef::phantom(512, 512), s);
  dev.gemm(blas::Op::NoTrans, blas::Op::NoTrans, 1.0f, m, m, 0.0f, m,
           blas::GemmPrecision::FP16_FP32, s);
  std::ostringstream os;
  dev.trace().write_chrome_json(os);
  const std::string json = os.str();
  // Object form of the Chrome tracing format (see sim/trace_export.hpp).
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"gemm\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"copy_h2d\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"Compute\""), std::string::npos);
  // Balanced braces (crude well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

// --- In-core GEMM plans --------------------------------------------------------

TEST(GemmPlan, BlockedAndRecursiveDoIdenticalFlops) {
  // Both in-core algorithms perform exactly the same projector flops when
  // the blocksize divides n; only the shape distribution differs.
  for (const auto& [m, n, b] :
       {std::tuple<index_t, index_t, index_t>{1024, 1024, 128},
        std::tuple<index_t, index_t, index_t>{4096, 2048, 256},
        std::tuple<index_t, index_t, index_t>{512, 512, 64}}) {
    const auto blocked = qr::blocked_qr_gemm_plan(m, n, b);
    const auto recursive = qr::recursive_qr_gemm_plan(m, n, b);
    EXPECT_EQ(qr::plan_flops(blocked), qr::plan_flops(recursive))
        << m << "x" << n << " b=" << b;
  }
}

TEST(GemmPlan, ShapesAndCounts) {
  const auto blocked = qr::blocked_qr_gemm_plan(256, 256, 64);
  // 4 panels; the last has no trailing matrix: 3 x (inner + outer).
  ASSERT_EQ(blocked.size(), 6u);
  EXPECT_EQ(blocked[0].opa, blas::Op::Trans);
  EXPECT_EQ(blocked[0].m, 64);
  EXPECT_EQ(blocked[0].n, 192);
  EXPECT_EQ(blocked[0].k, 256);
  EXPECT_EQ(blocked[1].opa, blas::Op::NoTrans);
  EXPECT_EQ(blocked[1].m, 256);
  EXPECT_EQ(blocked[1].k, 64);

  const auto recursive = qr::recursive_qr_gemm_plan(256, 256, 64);
  // Full binary tree over 4 panels: 3 internal nodes x 2 GEMMs.
  ASSERT_EQ(recursive.size(), 6u);
  // The top split produces the largest GEMMs (128-wide).
  flops_t biggest_rec = 0;
  for (const auto& g : recursive) biggest_rec = std::max(biggest_rec, g.flops());
  flops_t biggest_blk = 0;
  for (const auto& g : blocked) biggest_blk = std::max(biggest_blk, g.flops());
  EXPECT_GT(biggest_rec, biggest_blk);
}

TEST(GemmPlan, ModeledRecursiveBeatsBlockedInCore) {
  // §3.1.3 / [24]: bigger GEMMs run faster on TensorCore, so the recursive
  // plan's modeled time is lower at equal flops.
  sim::PerfModel model(sim::DeviceSpec::v100_32gb());
  const auto blocked = qr::blocked_qr_gemm_plan(32768, 32768, 1024);
  const auto recursive = qr::recursive_qr_gemm_plan(32768, 32768, 1024);
  const double tb =
      qr::plan_seconds(blocked, model, blas::GemmPrecision::FP16_FP32);
  const double tr =
      qr::plan_seconds(recursive, model, blas::GemmPrecision::FP16_FP32);
  EXPECT_LT(tr, tb);
}

TEST(GemmPlan, DegenerateAndInvalid) {
  EXPECT_TRUE(qr::blocked_qr_gemm_plan(64, 32, 32).empty() ||
              qr::blocked_qr_gemm_plan(64, 32, 32).size() == 0);
  EXPECT_TRUE(qr::recursive_qr_gemm_plan(64, 32, 32).empty());
  EXPECT_THROW(qr::blocked_qr_gemm_plan(16, 32, 8), InvalidArgument);
  EXPECT_THROW(qr::recursive_qr_gemm_plan(32, 32, 0), InvalidArgument);
}

// --- Report tables --------------------------------------------------------------

TEST(ReportTable, RendersAlignedGrid) {
  report::Table t("Title:", {"col a", "b"});
  t.add_row({"x", "12345678"});
  t.add_rule();
  t.add_row({"longer cell", "y"});
  const std::string out = t.render();
  EXPECT_NE(out.find("Title:"), std::string::npos);
  EXPECT_NE(out.find("| col a"), std::string::npos);
  EXPECT_NE(out.find("| longer cell"), std::string::npos);
  // All lines between rules share the same width.
  std::istringstream is(out);
  std::string line;
  size_t width = 0;
  std::getline(is, line); // title
  while (std::getline(is, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width) << line;
  }
  EXPECT_THROW(t.add_row({"only one"}), InvalidArgument);
  EXPECT_THROW(report::Table("", {}), InvalidArgument);
}

TEST(ReportTable, CompareCellFormatsBothValues) {
  const std::string cell = report::compare_cell(1.54, 1.25, "x");
  EXPECT_NE(cell.find("1.5x"), std::string::npos);
  EXPECT_NE(cell.find("paper 1.2x"), std::string::npos);
}

} // namespace
} // namespace rocqr
