#include "lu/ooc_cholesky.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "la/cholesky.hpp"
#include "lu/driver_common.hpp"
#include "ooc/operand.hpp"
#include "ooc/pipeline.hpp"
#include "ooc/slab_schedule.hpp"
#include "ooc/trsm_engine.hpp"
#include "qr/driver_util.hpp"

namespace rocqr::lu {

using ooc::Operand;
using sim::Device;
using sim::DeviceMatrix;
using sim::DeviceMatrixRef;
using sim::Event;
using sim::HostMutRef;
using sim::StoragePrecision;
using sim::Stream;

namespace {

/// Enqueues the in-core potrf of the resident w x w diagonal block.
void panel_potrf_device(Device& dev, const DeviceMatrix& block, Stream stream,
                        const FactorOptions& opts) {
  (void)opts;
  const index_t w = block.rows();
  // potrf performs w³/3 flops; its GEMM-rich right-looking form sustains
  // roughly the panel rate.
  const double flops = static_cast<double>(w) * w * w / 3.0;
  const sim_time_t seconds =
      dev.model().spec().kernel_latency_s + flops / dev.model().panel_rate(w, w);
  dev.custom_compute(stream, seconds, static_cast<flops_t>(flops),
                     sim::OpKind::Panel,
                     sim::op_name("potrf ", w, "x", w),
                     [&]() {
                       la::Matrix host_block = dev.download(block);
                       la::cholesky_upper(host_block.view());
                       dev.upload(block, host_block.view());
                     });
}

struct DiagResult {
  DeviceMatrix block; // resident R11 (caller frees)
  Event factored;
  Event on_host;
};

DiagResult factor_diag_block(ooc::TaskGraph& graph, HostMutRef a, index_t j0,
                             index_t w, Event prev, const FactorOptions& opts) {
  Device& dev = graph.device();
  DiagResult r;
  r.block = dev.allocate(w, w, StoragePrecision::FP32, "chol.R11");

  ooc::TaskPlan task;
  task.move_in_waits = {prev};
  task.move_in = [&](ooc::TaskCtx& ctx) {
    ctx.h2d(r.block, ooc::host_block(sim::as_const(a), j0, j0, w, w),
            "h2d A11");
  };
  task.compute = [&](ooc::TaskCtx& ctx) {
    panel_potrf_device(dev, r.block, ctx.stream(), opts);
  };
  task.move_out = [&](ooc::TaskCtx& ctx) {
    ctx.d2h(ooc::host_block(a, j0, j0, w, w), r.block, "d2h R11");
  };
  const ooc::TaskResult done = ooc::run_task(graph, task);
  r.factored = done.computed;
  r.on_host = done.moved_out;
  return r;
}

} // namespace

FactorStats blocking_ooc_cholesky(Device& dev, HostMutRef a,
                                  const FactorOptions& opts) {
  const index_t n = a.rows;
  ROCQR_CHECK(a.cols == n && n >= 1, "blocking_ooc_cholesky: matrix must be square");
  const index_t b = std::min(opts.blocksize, n);

  ooc::TaskGraph graph(dev, detail::engine_options(opts));
  Event prev{};

  for (index_t j0 = 0; j0 < n; j0 += b) {
    const index_t w = std::min(b, n - j0);
    DiagResult diag = factor_diag_block(graph, a, j0, w, prev, opts);
    detail::sync_unless_overlap(dev, opts);
    prev = diag.on_host;

    const index_t rest = n - j0 - w;
    if (rest > 0) {
      // R12 = R11⁻ᵀ A12, solved on the device and kept resident.
      DeviceMatrix r12 =
          dev.allocate(w, rest, StoragePrecision::FP32, "chol.R12");
      ooc::TaskPlan solve;
      solve.move_in_waits = {prev};
      solve.move_in = [&](ooc::TaskCtx& ctx) {
        ctx.h2d(r12, ooc::host_block(sim::as_const(a), j0, j0 + w, w, rest),
                "h2d A12");
      };
      solve.compute_waits = {diag.factored};
      solve.compute = [&](ooc::TaskCtx& ctx) {
        ctx.trsm(Device::TrsmKind::LeftUpperTrans, diag.block, r12,
                 "trsm R12");
      };
      solve.move_out = [&](ooc::TaskCtx& ctx) {
        ctx.d2h(ooc::host_block(a, j0, j0 + w, w, rest), r12, "d2h R12");
      };
      const ooc::TaskResult solved = ooc::run_task(graph, solve);
      detail::sync_unless_overlap(dev, opts);

      // A22 -= R12ᵀ · R12: the transposed outer product, C tiled. Only the
      // upper triangle is ever read again, so sub-diagonal tiles are
      // skipped (roughly halves this update's movement and flops).
      ooc::OocGemmOptions g = detail::engine_options(opts);
      g.outer_opa = blas::Op::Trans;
      g.upper_triangle_tiles_only = true;
      qr::QrOptions plan_opts;
      plan_opts.memory_budget_fraction = opts.memory_budget_fraction;
      const index_t tile =
          qr::detail::plan_tile_edge(dev, 2 * r12.bytes(), plan_opts);
      g.blocksize = std::min<index_t>(tile, rest);
      g.tile_cols = std::min<index_t>(tile, rest);
      g.host_input_ready = {prev};
      const auto update = ooc::outer_product_blocking(
          dev, Operand::on_device(r12, solved.computed),
          Operand::on_device(r12, solved.computed),
          ooc::host_block(sim::as_const(a), j0 + w, j0 + w, rest, rest),
          ooc::host_block(a, j0 + w, j0 + w, rest, rest), g);
      prev = update.done;
      detail::sync_unless_overlap(dev, opts);
      dev.free(r12);
    }
    dev.free(diag.block);
  }

  dev.synchronize();
  return qr::stats_from_trace(dev.trace(), graph.window_begin(),
                              dev.memory_peak());
}

namespace {

struct RecursiveCholState {
  Device& dev;
  HostMutRef a;
  const FactorOptions& opts;
  ooc::TaskGraph& graph;
};

Event chol_recurse(RecursiveCholState& st, index_t j0, index_t w, Event prev) {
  Device& dev = st.dev;
  const index_t b = st.opts.blocksize;
  const index_t panels = (w + b - 1) / b;
  if (panels <= 1) {
    DiagResult diag = factor_diag_block(st.graph, st.a, j0, w, prev, st.opts);
    detail::sync_unless_overlap(dev, st.opts);
    dev.free(diag.block);
    return diag.on_host;
  }
  const index_t h = (panels / 2) * b;
  const index_t rest = w - h;

  Event left = chol_recurse(st, j0, h, prev);

  // R12 = R11⁻ᵀ A12, out of core.
  ooc::OocGemmOptions gt = detail::engine_options(st.opts);
  gt.host_input_ready = {left};
  const auto tr = ooc::ooc_trsm(
      dev, ooc::TriSolveKind::UpperTrans,
      ooc::host_block(sim::as_const(st.a), j0, j0, h, h),
      ooc::host_block(sim::as_const(st.a), j0, j0 + h, h, rest),
      ooc::host_block(st.a, j0, j0 + h, h, rest), gt);
  detail::sync_unless_overlap(dev, st.opts);

  // A22 -= R12ᵀ · R12, streamed row slabs (== R12 column slabs) with R12
  // resident, column-split when memory-bound.
  const index_t n_split = ooc::plan_column_split(
      dev, detail::engine_options(st.opts), st.opts.memory_budget_fraction,
      st.a.rows, h, rest);
  Event update_done{};
  for (const ooc::Slab panel :
       ooc::slab_partition(rest, n_split > 0 ? n_split : rest)) {
    ooc::OocGemmOptions g = detail::engine_options(st.opts);
    g.outer_opa = blas::Op::Trans;
    // Unsplit square update: stream only the trapezoid from the diagonal
    // (the strict lower triangle is never read again).
    g.upper_trapezoid_slabs = n_split == 0;
    g.host_input_ready = {tr.done};
    const auto update = ooc::outer_product_recursive(
        dev,
        Operand::on_host(
            ooc::host_block(sim::as_const(st.a), j0, j0 + h, h, rest)),
        Operand::on_host(ooc::host_block(sim::as_const(st.a), j0,
                                         j0 + h + panel.offset, h,
                                         panel.width)),
        ooc::host_block(sim::as_const(st.a), j0 + h, j0 + h + panel.offset,
                        rest, panel.width),
        ooc::host_block(st.a, j0 + h, j0 + h + panel.offset, rest,
                        panel.width),
        g);
    update_done = update.done;
  }
  detail::sync_unless_overlap(dev, st.opts);

  return chol_recurse(st, j0 + h, rest, update_done);
}

} // namespace

FactorStats recursive_ooc_cholesky(Device& dev, HostMutRef a,
                                   const FactorOptions& opts) {
  const index_t n = a.rows;
  ROCQR_CHECK(a.cols == n && n >= 1,
              "recursive_ooc_cholesky: matrix must be square");
  ROCQR_CHECK(opts.blocksize >= 1,
              "recursive_ooc_cholesky: blocksize must be positive");

  ooc::TaskGraph graph(dev, detail::engine_options(opts));
  RecursiveCholState st{dev, a, opts, graph};
  chol_recurse(st, 0, n, Event{});
  dev.synchronize();
  return qr::stats_from_trace(dev.trace(), graph.window_begin(),
                              dev.memory_peak());
}

} // namespace rocqr::lu
