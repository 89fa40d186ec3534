// Internal helpers shared by the OOC GEMM engines (not public API).
#pragma once

#include "common/telemetry.hpp"
#include "ooc/gemm_engines.hpp"
#include "sim/device.hpp"

namespace rocqr::ooc::detail {

/// Slab prefetch accounting shared by every streaming engine. A *hit* is a
/// streamed-input move-in whose buffer slot was already free (the pipeline
/// ran deep enough); a *miss* is a slot still owned by an in-flight GEMM, so
/// the move-in had to be fenced behind that GEMM's completion event — the
/// H2D link may stall there. The miss count is structural (fences enqueued),
/// not a measured stall time; see ooc.* counters in docs/TELEMETRY.md, whose
/// "Caching a metric" is why each counter is resolved once.
inline void count_slab_prefetch(bool missed) {
  auto& reg = telemetry::MetricsRegistry::global();
  if (missed) {
    static telemetry::Counter& misses = reg.counter("ooc.slab_prefetch_misses");
    misses.increment();
  } else {
    static telemetry::Counter& hits = reg.counter("ooc.slab_prefetch_hits");
    hits.increment();
  }
}

/// In synchronous mode, the host joins the device after every enqueue —
/// this is the "Synchronous" baseline of Tables 1/2 (no overlap at all).
inline void sync_if(sim::Device& dev, const OocGemmOptions& opts) {
  if (opts.synchronous) dev.synchronize();
}

/// Device-resident storage width for streamed GEMM *inputs*: fp16 when the
/// TensorCore path will consume them (that is what halves the working set in
/// the paper's pipeline), fp32 for the CUDA-core path.
inline sim::StoragePrecision input_storage(const OocGemmOptions& opts) {
  return opts.precision == blas::GemmPrecision::FP16_FP32
             ? sim::StoragePrecision::FP16
             : sim::StoragePrecision::FP32;
}

/// Blocks the engine's move-in stream on the events guarding its host inputs.
inline void wait_host_inputs(sim::Device& dev, sim::Stream in,
                             const OocGemmOptions& opts) {
  for (const sim::Event& e : opts.host_input_ready) {
    if (e.valid()) dev.wait_event(in, e);
  }
}

/// Waits (on the move-in stream) for every streamed-input region event that
/// intersects the [rows x cols] rectangle about to be read. Offsets may be
/// negative after coordinate translation; the signed intersection handles
/// that.
inline void wait_intersecting_regions(sim::Device& dev, sim::Stream in,
                                      const OocGemmOptions& opts, Slab rows,
                                      Slab cols) {
  for (const RegionEvent& r : opts.streamed_input_regions) {
    const bool rows_hit = r.rows.offset < rows.offset + rows.width &&
                          rows.offset < r.rows.offset + r.rows.width;
    const bool cols_hit = r.cols.offset < cols.offset + cols.width &&
                          cols.offset < r.cols.offset + r.cols.width;
    if (rows_hit && cols_hit && r.event.valid()) dev.wait_event(in, r.event);
  }
}

} // namespace rocqr::ooc::detail
