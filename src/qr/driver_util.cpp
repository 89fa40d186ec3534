#include "qr/driver_util.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "ooc/operand.hpp"
#include "ooc/resilience.hpp"
#include "sim/trace_export.hpp"

namespace rocqr::qr::detail {

void move_in_panel(ooc::TaskCtx& ctx, const sim::DeviceMatrix& panel,
                   sim::HostConstRef a_cols, const HostWriteTracker& tracker,
                   index_t j0, index_t w, const QrOptions& opts) {
  ROCQR_CHECK(panel.rows() == a_cols.rows && panel.cols() == w &&
                  a_cols.cols == w,
              "move_in_panel: shape mismatch");
  const index_t m = panel.rows();

  if (opts.qr_level_opt) {
    auto regions = tracker.regions_for(j0, w);
    if (!regions.empty()) {
      // Group the writer's region events by row slab; a chunk may depend on
      // several column tiles covering the panel's columns. The stable sort
      // keeps a slab's events in publication order.
      std::stable_sort(
          regions.begin(), regions.end(),
          [](const ooc::RegionEvent& x, const ooc::RegionEvent& y) {
            return x.rows.offset < y.rows.offset;
          });
      const auto ends_slab = [&](size_t i) {
        return i + 1 == regions.size() ||
               regions[i + 1].rows.offset != regions[i].rows.offset;
      };
      // The chunked path is only valid if the row slabs tile [0, m) exactly;
      // a slab's extent is its last region's row width.
      index_t covered = 0;
      for (size_t i = 0;
           i < regions.size() && regions[i].rows.offset == covered; ++i) {
        if (ends_slab(i)) covered += regions[i].rows.width;
      }
      if (covered == m) {
        for (size_t i = 0; i < regions.size(); ++i) {
          ctx.wait(regions[i].event);
          if (!ends_slab(i)) continue;
          const ooc::Slab rows = regions[i].rows;
          ctx.h2d(sim::DeviceMatrixRef(panel, rows.offset, 0, rows.width, w),
                  ooc::host_block(a_cols, rows.offset, 0, rows.width, w),
                  sim::op_name("h2d panel rows ", rows.offset));
        }
        return;
      }
    }
  }

  for (const sim::Event& e : tracker.events_for(j0, w)) {
    ctx.wait(e);
  }
  ctx.h2d(sim::DeviceMatrixRef(panel), a_cols, "h2d panel");
}

ooc::OocGemmOptions gemm_options(const QrOptions& opts) {
  ooc::OocGemmOptions g;
  g.blocksize = opts.blocksize;
  g.ramp_up = opts.ramp_up;
  g.ramp_start = opts.ramp_start;
  g.staging_buffer = opts.staging_buffer;
  g.pipeline_depth = opts.pipeline_depth;
  g.precision = opts.precision;
  g.transfer_max_attempts = opts.transfer_max_attempts;
  g.transfer_backoff_seconds = opts.transfer_backoff_seconds;
  g.degrade_on_oom = opts.degrade_on_oom;
  g.abft = opts.abft;
  g.plan_log = opts.plan_log;
  return g;
}

void maybe_checkpoint(sim::Device& dev, const char* driver,
                      sim::HostMutRef a, sim::HostMutRef r,
                      const QrOptions& opts, index_t columns_done,
                      index_t units_done, index_t leaves) {
  if (opts.checkpoint_sink == nullptr) return;
  if (units_done % opts.checkpoint_every != 0) return;
  sim::TraceSpan span(dev, "checkpoint units=" + std::to_string(units_done));
  // Drain the pipelines so every completed unit's Q/R rows have landed on
  // the host; the snapshot is then a consistent factorization prefix.
  dev.synchronize();
  Checkpoint cp;
  cp.driver = driver;
  cp.m = a.rows;
  cp.n = a.cols;
  cp.blocksize = opts.blocksize;
  cp.columns_done = columns_done;
  cp.units_done = units_done;
  cp.leaves = leaves;
  if (a.data != nullptr) {
    cp.a = snapshot_host(a);
    cp.r = snapshot_host(r);
  }
  opts.checkpoint_sink->write(cp);
  // Resolved once: a registry lookup is a map walk under a mutex, and
  // reset() keeps the object.
  static telemetry::Counter& written =
      telemetry::MetricsRegistry::global().counter("checkpoints_written");
  written.increment();
}

index_t plan_tile_edge(const sim::Device& dev, bytes_t resident_bytes,
                       const QrOptions& opts) {
  const double budget =
      static_cast<double>(dev.memory_capacity()) *
          opts.memory_budget_fraction -
      static_cast<double>(resident_bytes);
  // Two fp32 tiles in flight (working + staging), at half the remaining
  // budget so the streamed-input pools of the neighbouring operations fit.
  for (index_t t = 32768; t >= 64; t /= 2) {
    const double need = 2.0 * static_cast<double>(t) * static_cast<double>(t) * 4.0;
    if (need <= budget * 0.5) return t;
  }
  return 32;
}

} // namespace rocqr::qr::detail
