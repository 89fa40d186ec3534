#include "lu/ooc_lu.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "lu/driver_common.hpp"
#include "lu/incore.hpp"
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

/// Enqueues the in-core LU panel factorization on `stream`: `panel`
/// (rows x w, fp32 device) holds the combined L\U factor on exit.
void panel_lu_device(Device& dev, const DeviceMatrix& panel, Stream stream,
                     const FactorOptions& opts) {
  const index_t m = panel.rows();
  const index_t w = panel.cols();
  // LU performs ~m w² flops (half of CGS QR's 2 m w²); model it at the same
  // sustained panel rate as the QR panel solver.
  const double flops = static_cast<double>(m) * w * w;
  const sim_time_t seconds =
      dev.model().spec().kernel_latency_s + flops / dev.model().panel_rate(m, w);
  dev.custom_compute(
      stream, seconds, static_cast<flops_t>(flops), sim::OpKind::Panel,
      sim::op_name("panel_lu ", m, "x", w), [&]() {
        la::Matrix host_panel = dev.download(panel);
        lu_nopiv_recursive(host_panel.view(), opts.panel_base, opts.precision);
        dev.upload(panel, host_panel.view());
      });
}

struct PanelResult {
  DeviceMatrix panel;  // resident combined L\U factor (caller frees)
  Event factored;      // panel kernel finished
  Event on_host;       // factor landed back in the host matrix
};

/// One panel step shared by both drivers, expressed as a one-shot
/// move-in / factor / drain task on the driver's pipeline.
PanelResult factor_lu_panel(ooc::TaskGraph& graph, HostMutRef a, index_t j0,
                            index_t w, Event prev, const FactorOptions& opts) {
  Device& dev = graph.device();
  const index_t below = a.rows - j0;
  PanelResult r;
  r.panel = dev.allocate(below, w, StoragePrecision::FP32, "lu.panel");

  ooc::TaskPlan task;
  task.move_in_waits = {prev};
  task.move_in = [&](ooc::TaskCtx& ctx) {
    ctx.h2d(r.panel, ooc::host_block(sim::as_const(a), j0, j0, below, w),
            "h2d LU panel");
  };
  task.compute = [&](ooc::TaskCtx& ctx) {
    panel_lu_device(dev, r.panel, ctx.stream(), opts);
  };
  task.move_out = [&](ooc::TaskCtx& ctx) {
    ctx.d2h(ooc::host_block(a, j0, j0, below, w), r.panel, "d2h LU panel");
  };
  const ooc::TaskResult done = ooc::run_task(graph, task);
  r.factored = done.computed;
  r.on_host = done.moved_out;
  return r;
}

} // namespace

FactorStats blocking_ooc_lu(Device& dev, HostMutRef a,
                            const FactorOptions& opts) {
  const index_t m = a.rows;
  const index_t n = a.cols;
  ROCQR_CHECK(m >= n && n >= 1, "blocking_ooc_lu: need m >= n >= 1");
  const index_t b = std::min(opts.blocksize, n);

  ooc::TaskGraph graph(dev, detail::engine_options(opts));
  Event prev{};

  for (index_t j0 = 0; j0 < n; j0 += b) {
    const index_t w = std::min(b, n - j0);
    const index_t below = m - j0;
    PanelResult panel = factor_lu_panel(graph, a, j0, w, prev, opts);
    detail::sync_unless_overlap(dev, opts);
    prev = panel.on_host;

    const index_t rest = n - j0 - w;
    if (rest > 0) {
      // U12 = L11^{-1} A12, solved on the device with the panel's L11 and
      // kept resident as the trailing update's B factor.
      DeviceMatrix u12 = dev.allocate(w, rest, StoragePrecision::FP32,
                                      "lu.U12");
      ooc::TaskPlan solve;
      solve.move_in_waits = {prev};
      solve.move_in = [&](ooc::TaskCtx& ctx) {
        ctx.h2d(u12, ooc::host_block(sim::as_const(a), j0, j0 + w, w, rest),
                "h2d A12");
      };
      solve.compute_waits = {panel.factored};
      solve.compute = [&](ooc::TaskCtx& ctx) {
        ctx.trsm(Device::TrsmKind::LeftLowerUnit,
                 DeviceMatrixRef(panel.panel, 0, 0, w, w), u12, "trsm U12");
      };
      solve.move_out = [&](ooc::TaskCtx& ctx) {
        ctx.d2h(ooc::host_block(a, j0, j0 + w, w, rest), u12, "d2h U12");
      };
      const ooc::TaskResult solved = ooc::run_task(graph, solve);
      detail::sync_unless_overlap(dev, opts);

      // A22 -= L21 · U12 with both factors resident, C tiled.
      ooc::OocGemmOptions g = detail::engine_options(opts);
      const bytes_t residents = panel.panel.bytes() + u12.bytes();
      qr::QrOptions plan_opts;
      plan_opts.memory_budget_fraction = opts.memory_budget_fraction;
      const index_t tile = qr::detail::plan_tile_edge(dev, residents, plan_opts);
      g.blocksize = std::min<index_t>(tile, below - w);
      g.tile_cols = std::min<index_t>(tile, rest);
      g.host_input_ready = {prev};
      const auto update = ooc::outer_product_blocking(
          dev,
          Operand::on_device(DeviceMatrixRef(panel.panel, w, 0, below - w, w),
                             panel.factored),
          Operand::on_device(u12, solved.computed),
          ooc::host_block(sim::as_const(a), j0 + w, j0 + w, below - w, rest),
          ooc::host_block(a, j0 + w, j0 + w, below - w, rest), g);
      prev = update.done;
      detail::sync_unless_overlap(dev, opts);
      dev.free(u12);
    }
    dev.free(panel.panel);
  }

  dev.synchronize();
  return qr::stats_from_trace(dev.trace(), graph.window_begin(),
                              dev.memory_peak());
}

namespace {

struct RecursiveLuState {
  Device& dev;
  HostMutRef a;
  const FactorOptions& opts;
  ooc::TaskGraph& graph;
};

Event lu_recurse(RecursiveLuState& st, index_t j0, index_t w, Event prev) {
  Device& dev = st.dev;
  const index_t b = st.opts.blocksize;
  const index_t panels = (w + b - 1) / b;
  if (panels <= 1) {
    PanelResult panel = factor_lu_panel(st.graph, st.a, j0, w, prev, st.opts);
    detail::sync_unless_overlap(dev, st.opts);
    dev.free(panel.panel);
    return panel.on_host;
  }
  const index_t h = (panels / 2) * b;
  const index_t rest = w - h;
  const index_t m = st.a.rows;

  Event left = lu_recurse(st, j0, h, prev);

  // U12 = L11^{-1} A12, out of core (L11 may exceed device memory).
  ooc::OocGemmOptions gt = detail::engine_options(st.opts);
  gt.host_input_ready = {left};
  const auto tr = ooc::ooc_trsm(
      dev, ooc::TriSolveKind::LowerUnit,
      ooc::host_block(sim::as_const(st.a), j0, j0, h, h),
      ooc::host_block(sim::as_const(st.a), j0, j0 + h, h, rest),
      ooc::host_block(st.a, j0, j0 + h, h, rest), gt);
  detail::sync_unless_overlap(dev, st.opts);

  // A22 -= L21 · U12, streamed row slabs with U12 resident (column-split on
  // small-memory devices).
  const index_t below = m - j0 - h;
  const index_t n_split = ooc::plan_column_split(
      dev, detail::engine_options(st.opts), st.opts.memory_budget_fraction, m,
      h, rest);
  Event update_done{};
  for (const ooc::Slab panel :
       ooc::slab_partition(rest, n_split > 0 ? n_split : rest)) {
    ooc::OocGemmOptions g = detail::engine_options(st.opts);
    g.host_input_ready = {tr.done};
    const auto update = ooc::outer_product_recursive(
        dev,
        Operand::on_host(
            ooc::host_block(sim::as_const(st.a), j0 + h, j0, below, h)),
        Operand::on_host(ooc::host_block(sim::as_const(st.a), j0,
                                         j0 + h + panel.offset, h,
                                         panel.width)),
        ooc::host_block(sim::as_const(st.a), j0 + h, j0 + h + panel.offset,
                        below, panel.width),
        ooc::host_block(st.a, j0 + h, j0 + h + panel.offset, below,
                        panel.width),
        g);
    update_done = update.done;
  }
  detail::sync_unless_overlap(dev, st.opts);

  return lu_recurse(st, j0 + h, rest, update_done);
}

} // namespace

FactorStats recursive_ooc_lu(Device& dev, HostMutRef a,
                             const FactorOptions& opts) {
  const index_t m = a.rows;
  const index_t n = a.cols;
  ROCQR_CHECK(m >= n && n >= 1, "recursive_ooc_lu: need m >= n >= 1");
  ROCQR_CHECK(opts.blocksize >= 1, "recursive_ooc_lu: blocksize must be positive");

  ooc::TaskGraph graph(dev, detail::engine_options(opts));
  RecursiveLuState st{dev, a, opts, graph};
  lu_recurse(st, 0, n, Event{});
  dev.synchronize();
  return qr::stats_from_trace(dev.trace(), graph.window_begin(),
                              dev.memory_peak());
}

} // namespace rocqr::lu
