#include "qr/blocking_qr.hpp"

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

QrStats detail::run_blocking(Device& dev, HostMutRef a, HostMutRef r,
                             const QrOptions& opts) {
  opts.validate();
  const index_t m = a.rows;
  const index_t n = a.cols;
  ROCQR_CHECK(m >= n && n >= 1, "blocking_ooc_qr: need m >= n >= 1");
  ROCQR_CHECK(r.rows == n && r.cols == n, "blocking_ooc_qr: R must be n x n");
  const index_t b = std::min(opts.blocksize, n);

  const size_t window = dev.trace().size();
  sim::TraceSpan qr_span(dev, "blocking_qr");
  detail::HostWriteTracker tracker(n);
  ooc::TaskGraph graph(dev, detail::gemm_options(opts));

  // Each panel iteration is one checkpoint/resume unit: a resumed run skips
  // the first opts.resume_units iterations entirely (their Q columns and R
  // rows were restored onto the host from the checkpoint).
  index_t units = 0;
  for (index_t j0 = 0; j0 < n; j0 += b) {
    const index_t w = std::min(b, n - j0);
    if (units < opts.resume_units) {
      ++units;
      continue;
    }
    sim::TraceSpan iter_span(dev, "panel_iter j0=" + std::to_string(j0));

    // 1. Panel move-in. With the QR-level optimization, row chunks start as
    // soon as the previous trailing update's matching move-outs complete.
    ScopedMatrix panel(dev, m, w, StoragePrecision::FP32, "qr.panel");
    ooc::TaskPlan stage;
    stage.move_in = [&](ooc::TaskCtx& ctx) {
      detail::move_in_panel(ctx, panel.get(),
                            ooc::host_block(sim::as_const(a), 0, j0, m, w),
                            tracker, j0, w, opts);
    };
    const Event panel_in = ooc::run_task(graph, stage).moved_in;

    // 2. In-core panel factorization (recursive CGS on the device), then
    // 3. move R_ii and the factored Q panel back. With the optimization on,
    // these move-outs overlap the trailing GEMMs' move-ins.
    ScopedMatrix r_dev(dev, w, w, StoragePrecision::FP32, "qr.Rii");
    ooc::TaskPlan factor;
    factor.compute_waits = {panel_in};
    factor.compute = [&](ooc::TaskCtx& ctx) {
      panel_qr_device(dev, panel.get(), r_dev.get(), ctx.stream(), opts);
    };
    factor.move_out = [&](ooc::TaskCtx& ctx) {
      ctx.d2h(ooc::host_block(r, j0, j0, w, w),
              sim::DeviceMatrixRef(r_dev.get()), "d2h Rii");
      ctx.d2h(ooc::host_block(a, 0, j0, m, w),
              sim::DeviceMatrixRef(panel.get()), "d2h Q panel");
    };
    const ooc::TaskResult factored = ooc::run_task(graph, factor);
    const Event panel_done = factored.computed;
    const Event q_out = factored.moved_out;
    tracker.record(ooc::Slab{j0, w}, q_out);
    if (!opts.qr_level_opt) dev.synchronize();

    const index_t rest = n - j0 - w;
    if (rest > 0) {
      // Fine-grained §4.2 pipelining: streamed reads of the trailing
      // columns wait only on the previous update's writes they intersect
      // (translated into the trailing submatrix's local coordinates).
      std::vector<ooc::RegionEvent> local_regions;
      if (opts.qr_level_opt) {
        for (const ooc::RegionEvent& re : tracker.regions_for(j0 + w, rest)) {
          local_regions.push_back(ooc::RegionEvent{
              re.rows, ooc::Slab{re.cols.offset - (j0 + w), re.cols.width},
              re.event});
        }
      }

      // 4. Inner product R12 = Q1ᵀ·A2, panel resident, B streamed in
      // b-column slabs; R12 stays resident for the outer product.
      ooc::OocGemmOptions gi = detail::gemm_options(opts);
      gi.blocksize = std::min(b, rest);
      if (local_regions.empty()) {
        gi.host_input_ready = tracker.events_for(j0 + w, rest);
      } else {
        gi.streamed_input_regions = local_regions;
      }
      DeviceMatrix r12;
      const auto inner = ooc::inner_product_blocking(
          dev, Operand::on_device(panel.get(), panel_done),
          Operand::on_host(ooc::host_block(sim::as_const(a), 0, j0 + w, m,
                                           rest)),
          ooc::host_block(r, j0, j0 + w, w, rest), gi, &r12);
      if (!opts.qr_level_opt) dev.synchronize();

      // 5. Outer product A2 -= Q1·R12, both factors resident, C tiled.
      ooc::OocGemmOptions go = detail::gemm_options(opts);
      const bytes_t residents = panel.get().bytes() + r12.bytes();
      const index_t tile = opts.outer_tile_rows > 0
                               ? opts.outer_tile_rows
                               : detail::plan_tile_edge(dev, residents, opts);
      go.blocksize = std::min(tile, m);
      go.tile_cols = opts.outer_tile_cols > 0 ? std::min(opts.outer_tile_cols, rest)
                                              : std::min(tile, rest);
      go.ramp_up = false; // tiles are square; the ramp applies to slabs
      if (local_regions.empty()) {
        go.host_input_ready = tracker.events_for(j0 + w, rest);
      } else {
        go.streamed_input_regions = local_regions;
      }
      const auto outer = ooc::outer_product_blocking(
          dev, Operand::on_device(panel.get(), panel_done),
          Operand::on_device(r12, inner.device_result_ready),
          ooc::host_block(sim::as_const(a), 0, j0 + w, m, rest),
          ooc::host_block(a, 0, j0 + w, m, rest), go);

      // Re-base the engine's region events (relative to the trailing
      // submatrix) onto absolute host coordinates for the tracker.
      std::vector<ooc::RegionEvent> regions;
      regions.reserve(outer.output_ready.size());
      for (const ooc::RegionEvent& re : outer.output_ready) {
        regions.push_back(ooc::RegionEvent{
            re.rows, ooc::Slab{re.cols.offset + j0 + w, re.cols.width},
            re.event});
      }
      tracker.record(ooc::Slab{j0 + w, rest}, outer.done, std::move(regions));
      if (!opts.qr_level_opt) dev.synchronize();
      dev.free(r12);
    }
    panel.reset();
    r_dev.reset();

    ++units;
    detail::maybe_checkpoint(dev, "blocking", a, r, opts, j0 + w, units);
  }

  dev.synchronize();
  return stats_from_trace(dev.trace(), window, dev.memory_peak());
}

} // namespace rocqr::qr
