// Machine-readable export of the simulated timeline: Chrome-trace/Perfetto
// JSON for the trace (the paper's Gantt figures, Figs 7-15, loadable in
// chrome://tracing), plus the glue binding telemetry spans to a device's
// trace window.
//
// Track layout of the exported file:
//   pid 0 "engines"  — one thread per Resource (H2D, Compute, D2H); the
//                      hardware-occupancy view, intervals never overlap
//                      within a track.
//   pid 1 "streams"  — one thread per stream id; the program-order view.
//   pid 2 "phases"   — the span tree, one thread per nesting depth; each
//                      span covers [earliest start, latest end) of the trace
//                      events enqueued inside it.
#pragma once

#include <iosfwd>
#include <optional>

#include "common/telemetry.hpp"
#include "sim/device.hpp"
#include "sim/trace.hpp"

namespace rocqr::sim {

/// Writes the trace (and, when `spans` is non-null, its phase-span tree) as
/// a Chrome tracing JSON object. Events are emitted in nondecreasing-`ts`
/// order; timestamps are microseconds of simulated time.
void write_chrome_trace(std::ostream& os, const Trace& trace,
                        const telemetry::SpanLog* spans = nullptr);

/// RAII phase span bound to a device's trace: the cursor is the trace event
/// count, so the span window is exactly the events enqueued in scope.
///
///   { TraceSpan span(dev, "qr.panel"); ... enqueue panel ops ... }
///
/// Spans land in telemetry::SpanLog::global(); nesting follows C++ scope.
/// Over a Totals trace the span records nothing: its window would index
/// events the trace does not keep.
class TraceSpan {
 public:
  TraceSpan(const Device& dev, std::string name) {
    if (dev.trace().recording() == Recording::Events) {
      span_.emplace(std::move(name), [&dev] {
        return static_cast<std::uint64_t>(dev.trace().size());
      });
    }
  }

 private:
  std::optional<telemetry::Span> span_;
};

} // namespace rocqr::sim
