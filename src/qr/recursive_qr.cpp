#include "qr/recursive_qr.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "ooc/gemm_engines.hpp"
#include "ooc/operand.hpp"
#include "ooc/pipeline.hpp"
#include "ooc/resilience.hpp"
#include "qr/driver_util.hpp"
#include "qr/host_tracker.hpp"
#include "qr/panel.hpp"
#include "sim/scoped_matrix.hpp"
#include "sim/trace_export.hpp"

namespace rocqr::qr {

using ooc::Operand;
using sim::Device;
using sim::DeviceMatrix;
using sim::Event;
using sim::HostMutRef;
using sim::ScopedMatrix;
using sim::StoragePrecision;

namespace {

struct DriverState {
  Device& dev;
  HostMutRef a;
  HostMutRef r;
  const QrOptions& opts;
  detail::HostWriteTracker tracker;
  ooc::TaskGraph& graph;
  // Checkpoint/resume bookkeeping. A "unit" is a recursion leaf (streamed
  // panel or resident subtree); the schedule visits leaves left to right and
  // every node-level update sits at a fixed position in that sequence, so a
  // resumed run replays the recursion, skips the first `skip_units` leaves,
  // and executes a node's update iff the leaf counter has caught up — the
  // checkpoint captured exactly the updates enqueued before its leaf.
  index_t units = 0;
  index_t skip_units = 0;
};

std::vector<Event> merge_events(std::vector<Event> lhs,
                                const std::vector<Event>& rhs) {
  lhs.insert(lhs.end(), rhs.begin(), rhs.end());
  return lhs;
}

/// Deepest recursion level: stream the panel in, factor in core, stream Q
/// and R_ii out (overlapping neighbours when the QR-level opt is on).
void factor_panel(DriverState& st, index_t j0, index_t w) {
  Device& dev = st.dev;
  if (st.units < st.skip_units) { // leaf restored from the checkpoint
    ++st.units;
    return;
  }
  sim::TraceSpan span(dev, "factor_panel j0=" + std::to_string(j0));
  const index_t m = st.a.rows;

  ScopedMatrix panel(dev, m, w, StoragePrecision::FP32, "rqr.panel");
  ooc::TaskPlan stage;
  stage.move_in = [&](ooc::TaskCtx& ctx) {
    detail::move_in_panel(ctx, panel.get(),
                          ooc::host_block(sim::as_const(st.a), 0, j0, m, w),
                          st.tracker, j0, w, st.opts);
  };
  const Event panel_in = ooc::run_task(st.graph, stage).moved_in;

  ScopedMatrix r_dev(dev, w, w, StoragePrecision::FP32, "rqr.Rii");
  ooc::TaskPlan factor;
  factor.compute_waits = {panel_in};
  factor.compute = [&](ooc::TaskCtx& ctx) {
    panel_qr_device(dev, panel.get(), r_dev.get(), ctx.stream(), st.opts);
  };
  factor.move_out = [&](ooc::TaskCtx& ctx) {
    ctx.d2h(ooc::host_block(st.r, j0, j0, w, w),
            sim::DeviceMatrixRef(r_dev.get()), "d2h Rii");
    ctx.d2h(ooc::host_block(st.a, 0, j0, m, w),
            sim::DeviceMatrixRef(panel.get()), "d2h Q panel");
  };
  const Event q_out = ooc::run_task(st.graph, factor).moved_out;
  st.tracker.record(ooc::Slab{j0, w}, q_out);
  if (!st.opts.qr_level_opt) dev.synchronize();

  panel.reset();
  r_dev.reset();

  ++st.units;
  detail::maybe_checkpoint(dev, "recursive", st.a, st.r, st.opts, j0 + w,
                           st.units);
}

/// Picks the C column split for the recursive inner product so the fp32
/// accumulator plus the streamed-slab pool fits the memory budget.
/// Returns 0 for "unsplit".
index_t plan_inner_c_split(const DriverState& st, index_t h, index_t rest) {
  if (st.opts.inner_c_panel > 0) {
    return st.opts.inner_c_panel >= rest ? 0 : st.opts.inner_c_panel;
  }
  const double budget = static_cast<double>(st.dev.memory_capacity()) *
                        st.opts.memory_budget_fraction;
  const double depth = static_cast<double>(st.opts.pipeline_depth);
  const double bs = static_cast<double>(std::min(st.opts.blocksize, st.a.rows));
  const double in_bytes =
      st.opts.precision == blas::GemmPrecision::FP16_FP32 ? 2.0 : 4.0;
  const auto fits = [&](index_t cp) {
    const double c_bytes = static_cast<double>(h) * static_cast<double>(cp) * 4.0;
    const double slab_bytes = depth * bs *
                              (static_cast<double>(h) + static_cast<double>(cp)) *
                              in_bytes;
    const double c_slots = cp == rest ? 1.0 : 2.0; // split => two accumulators
    return c_slots * c_bytes + slab_bytes <= budget;
  };
  if (fits(rest)) return 0;
  index_t cp = rest;
  while (cp > st.opts.blocksize && !fits(cp)) {
    cp = (cp + 1) / 2;
    // Round up to a panel multiple to keep slabs aligned.
    cp = std::min(rest,
                  (cp + st.opts.blocksize - 1) / st.opts.blocksize *
                      st.opts.blocksize);
    if (fits(cp)) break;
    if (cp <= st.opts.blocksize) break;
  }
  return std::min(cp, rest);
}

/// Whether R12 (h x rest fp32) can remain resident through the outer product
/// alongside the outer product's own working set.
bool plan_keep_r12(const DriverState& st, index_t h, index_t rest,
                   index_t c_split) {
  if (!st.opts.qr_level_opt || c_split != 0) return false;
  const double budget = static_cast<double>(st.dev.memory_capacity()) *
                        st.opts.memory_budget_fraction;
  const double depth = static_cast<double>(st.opts.pipeline_depth);
  const double bs = static_cast<double>(std::min(st.opts.blocksize, st.a.rows));
  const double in_bytes =
      st.opts.precision == blas::GemmPrecision::FP16_FP32 ? 2.0 : 4.0;
  const double r12_bytes = static_cast<double>(h) * static_cast<double>(rest) * 4.0;
  const double a_slabs = depth * bs * static_cast<double>(h) * in_bytes;
  const double c_slabs =
      (st.opts.staging_buffer ? 2.0 : 1.0) * bs * static_cast<double>(rest) * 4.0;
  return r12_bytes + a_slabs + c_slabs <= budget;
}

/// Whether the whole m x w subtree can be factored resident: the fp32 block
/// plus its largest internal R12 must fit comfortably (leaving room for the
/// neighbouring pipelines' buffers).
bool plan_resident_subtree(const DriverState& st, index_t w) {
  if (!st.opts.qr_level_opt || !st.opts.resident_subtrees) return false;
  // Only the "small GEMM" levels the paper targets: wider subtrees stream
  // better through the k-split engines (their GEMMs are near peak).
  if (w > 4 * st.opts.blocksize) return false;
  const double budget = static_cast<double>(st.dev.memory_capacity()) * 0.70;
  const double a_bytes =
      static_cast<double>(st.a.rows) * static_cast<double>(w) * 4.0;
  const double r12_bytes =
      static_cast<double>(w / 2) * static_cast<double>(w - w / 2) * 4.0;
  return a_bytes + r12_bytes <= budget;
}

/// On-device recursion over the resident block's columns [c0, c0+wl):
/// panels factor in place, level GEMMs stay on the device, R blocks stream
/// out as they are produced (ctx.emit drains them while compute continues).
void device_recurse(DriverState& st, ooc::TaskCtx& ctx,
                    const DeviceMatrix& block, index_t j0, index_t c0,
                    index_t wl) {
  Device& dev = st.dev;
  const index_t m = st.a.rows;
  const index_t b = st.opts.blocksize;
  const index_t panels = (wl + b - 1) / b;
  if (panels <= 1) {
    ScopedMatrix rii(dev, wl, wl, StoragePrecision::FP32, "rqr.res.Rii");
    panel_qr_device(dev, sim::DeviceMatrixRef(block, 0, c0, m, wl),
                    sim::DeviceMatrixRef(rii.get()), ctx.stream(), st.opts);
    ctx.emit(ooc::host_block(st.r, j0 + c0, j0 + c0, wl, wl),
             sim::DeviceMatrixRef(rii.get()), "d2h Rii");
    return;
  }
  const index_t h = (panels / 2) * b;
  const index_t rest = wl - h;
  device_recurse(st, ctx, block, j0, c0, h);

  ScopedMatrix r12(dev, h, rest, StoragePrecision::FP32, "rqr.res.R12");
  ctx.gemm(blas::Op::Trans, blas::Op::NoTrans, 1.0f,
           sim::DeviceMatrixRef(block, 0, c0, m, h),
           sim::DeviceMatrixRef(block, 0, c0 + h, m, rest), 0.0f,
           sim::DeviceMatrixRef(r12.get()), "resident R12");
  ctx.emit(ooc::host_block(st.r, j0 + c0, j0 + c0 + h, h, rest),
           sim::DeviceMatrixRef(r12.get()), "d2h R12");
  ctx.gemm(blas::Op::NoTrans, blas::Op::NoTrans, -1.0f,
           sim::DeviceMatrixRef(block, 0, c0, m, h),
           sim::DeviceMatrixRef(r12.get()), 1.0f,
           sim::DeviceMatrixRef(block, 0, c0 + h, m, rest),
           "resident update");
  r12.reset();

  device_recurse(st, ctx, block, j0, c0 + h, rest);
}

/// Factors columns [j0, j0+w) entirely on the device: one move-in, the full
/// recursion resident, one Q move-out.
void factor_resident_subtree(DriverState& st, index_t j0, index_t w) {
  Device& dev = st.dev;
  if (st.units < st.skip_units) { // leaf restored from the checkpoint
    ++st.units;
    return;
  }
  sim::TraceSpan span(dev, "resident_subtree j0=" + std::to_string(j0));
  const index_t m = st.a.rows;
  ScopedMatrix block(dev, m, w, StoragePrecision::FP32, "rqr.subtree");
  ooc::TaskPlan stage;
  stage.move_in = [&](ooc::TaskCtx& ctx) {
    detail::move_in_panel(ctx, block.get(),
                          ooc::host_block(sim::as_const(st.a), 0, j0, m, w),
                          st.tracker, j0, w, st.opts);
  };
  const Event moved_in = ooc::run_task(st.graph, stage).moved_in;

  ooc::TaskPlan factor;
  factor.compute_waits = {moved_in};
  factor.compute = [&](ooc::TaskCtx& ctx) {
    device_recurse(st, ctx, block.get(), j0, 0, w);
  };
  factor.move_out = [&](ooc::TaskCtx& ctx) {
    ctx.d2h(ooc::host_block(st.a, 0, j0, m, w),
            sim::DeviceMatrixRef(block.get()), "d2h Q subtree");
  };
  const Event q_out = ooc::run_task(st.graph, factor).moved_out;
  st.tracker.record(ooc::Slab{j0, w}, q_out);
  block.reset();

  ++st.units;
  detail::maybe_checkpoint(dev, "recursive", st.a, st.r, st.opts, j0 + w,
                           st.units);
}

void recurse(DriverState& st, index_t j0, index_t w) {
  Device& dev = st.dev;
  const index_t b = st.opts.blocksize;
  const index_t panels = (w + b - 1) / b;
  if (panels <= 1) {
    factor_panel(st, j0, w);
    return;
  }
  if (plan_resident_subtree(st, w)) {
    factor_resident_subtree(st, j0, w);
    return;
  }
  sim::TraceSpan span(dev, "recurse j0=" + std::to_string(j0) +
                               " w=" + std::to_string(w));
  // Split at panel granularity: left half gets floor(panels/2) panels.
  const index_t h = (panels / 2) * b;
  const index_t rest = w - h;

  // 1. Factor the left half recursively.
  recurse(st, j0, h);

  // On resume, this node's update replays only once the leaf counter has
  // caught up with the checkpoint (see DriverState) — a skipped update was
  // already applied to the restored host data.
  if (st.units >= st.skip_units) {
    const index_t m = st.a.rows;
    ooc::OocGemmOptions gi = detail::gemm_options(st.opts);
    gi.blocksize = std::min(st.opts.blocksize, m);
    gi.c_panel_cols = plan_inner_c_split(st, h, rest);
    gi.host_input_ready = merge_events(st.tracker.events_for(j0, h),
                                       st.tracker.events_for(j0 + h, rest));
    const bool keep = plan_keep_r12(st, h, rest, gi.c_panel_cols);

    // 2. Inner product: R12 = Q1ᵀ·A2, both streamed from the host in k-slabs,
    // C accumulating on the device (split along columns only if memory-bound).
    DeviceMatrix r12;
    const auto inner = ooc::inner_product_recursive(
        dev,
        Operand::on_host(ooc::host_block(sim::as_const(st.a), 0, j0, m, h)),
        Operand::on_host(ooc::host_block(sim::as_const(st.a), 0, j0 + h, m,
                                         rest)),
        ooc::host_block(st.r, j0, j0 + h, h, rest), gi,
        keep ? &r12 : nullptr);
    if (!st.opts.qr_level_opt) dev.synchronize();

    // 3. Outer product: A2 -= Q1·R12, B resident (kept from the inner product
    // when it fits — the QR-level optimization — else re-staged from the
    // host, which requires the inner product's move-out to finish first).
    // On small-memory devices even a re-staged full R12 may not fit; then the
    // update runs over column panels, re-streaming Q1 once per panel.
    ooc::OocGemmOptions go = detail::gemm_options(st.opts);
    const index_t n_split =
        keep ? 0
             : ooc::plan_column_split(dev, go, st.opts.memory_budget_fraction,
                                      m, h, rest);
    go.blocksize = std::min(st.opts.blocksize, m);
    go.host_input_ready = merge_events(st.tracker.events_for(j0, h),
                                       st.tracker.events_for(j0 + h, rest));
    if (!keep) go.host_input_ready.push_back(inner.done);

    std::vector<ooc::RegionEvent> regions;
    sim::Event outer_done{};
    for (const ooc::Slab panel :
         ooc::slab_partition(rest, n_split > 0 ? n_split : rest)) {
      const Operand b_operand =
          keep ? Operand::on_device(r12, inner.device_result_ready)
               : Operand::on_host(ooc::host_block(sim::as_const(st.r), j0,
                                                  j0 + h + panel.offset, h,
                                                  panel.width));
      const auto outer = ooc::outer_product_recursive(
          dev,
          Operand::on_host(ooc::host_block(sim::as_const(st.a), 0, j0, m, h)),
          b_operand,
          ooc::host_block(sim::as_const(st.a), 0, j0 + h + panel.offset, m,
                          panel.width),
          ooc::host_block(st.a, 0, j0 + h + panel.offset, m, panel.width), go);
      for (const ooc::RegionEvent& re : outer.output_ready) {
        regions.push_back(ooc::RegionEvent{
            re.rows,
            ooc::Slab{re.cols.offset + j0 + h + panel.offset, re.cols.width},
            re.event});
      }
      outer_done = outer.done;
    }
    if (keep) dev.free(r12);

    st.tracker.record(ooc::Slab{j0 + h, rest}, outer_done, std::move(regions));
    if (!st.opts.qr_level_opt) dev.synchronize();
  }

  // 4. Factor the updated right half recursively.
  recurse(st, j0 + h, rest);
}

} // namespace

QrStats detail::run_recursive(Device& dev, HostMutRef a, HostMutRef r,
                              const QrOptions& opts, bool sync_at_end) {
  opts.validate();
  const index_t m = a.rows;
  const index_t n = a.cols;
  ROCQR_CHECK(m >= n && n >= 1, "recursive_ooc_qr: need m >= n >= 1");
  ROCQR_CHECK(r.rows == n && r.cols == n, "recursive_ooc_qr: R must be n x n");

  const size_t window = dev.trace().size();
  sim::TraceSpan qr_span(dev, "recursive_qr");
  ooc::TaskGraph graph(dev, detail::gemm_options(opts));
  DriverState st{dev, a, r, opts, detail::HostWriteTracker(n), graph};
  st.skip_units = opts.resume_units;
  recurse(st, 0, n);
  if (sync_at_end) dev.synchronize();
  return stats_from_trace(dev.trace(), window, dev.memory_peak());
}

} // namespace rocqr::qr
