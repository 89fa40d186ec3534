#include "qr/options.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rocqr::qr {

void QrOptions::validate() const {
  ROCQR_CHECK(blocksize > 0, "QrOptions: blocksize must be positive");
  ROCQR_CHECK(panel_base > 0, "QrOptions: panel_base must be positive");
  ROCQR_CHECK(pipeline_depth >= 1, "QrOptions: pipeline_depth must be >= 1");
  // The ramp knobs only participate in the schedule when ramp-up is on, so a
  // small-blocksize run with the default ramp_start stays valid.
  if (ramp_up) {
    ROCQR_CHECK(ramp_start > 0, "QrOptions: ramp_start must be positive");
    ROCQR_CHECK(ramp_start <= blocksize,
                "QrOptions: ramp_start must not exceed blocksize");
  }
  ROCQR_CHECK(memory_budget_fraction > 0.0 && memory_budget_fraction <= 1.0,
              "QrOptions: memory_budget_fraction must be in (0, 1]");
  ROCQR_CHECK(outer_tile_rows >= 0,
              "QrOptions: outer_tile_rows must be non-negative");
  ROCQR_CHECK(outer_tile_cols >= 0,
              "QrOptions: outer_tile_cols must be non-negative");
  ROCQR_CHECK(inner_c_panel >= 0,
              "QrOptions: inner_c_panel must be non-negative");
  ROCQR_CHECK(transfer_max_attempts >= 1,
              "QrOptions: transfer_max_attempts must be >= 1");
  ROCQR_CHECK(transfer_backoff_seconds >= 0.0,
              "QrOptions: transfer_backoff_seconds must be non-negative");
  ROCQR_CHECK(checkpoint_every >= 1,
              "QrOptions: checkpoint_every must be >= 1");
  ROCQR_CHECK(resume_units >= 0,
              "QrOptions: resume_units must be non-negative");
}

QrStats stats_from_trace(const sim::Trace& trace, size_t from,
                         bytes_t peak_device_bytes,
                         std::string_view name_prefix) {
  QrStats s = sim::engine_stats_from_trace(trace, from,
                                           static_cast<size_t>(-1),
                                           name_prefix);
  s.peak_device_bytes = peak_device_bytes;
  return s;
}

std::vector<QrStats> stats_by_prefix(const sim::Trace& trace, size_t from,
                                     bytes_t peak_device_bytes,
                                     std::span<const std::string_view> prefixes) {
  std::vector<QrStats> stats = sim::engine_stats_by_prefix(
      trace, from, static_cast<size_t>(-1), prefixes);
  for (QrStats& s : stats) s.peak_device_bytes = peak_device_bytes;
  return stats;
}

void merge_stats(QrStats& into, const QrStats& s) {
  const bool had_events = into.events > 0;
  into.panel_seconds += s.panel_seconds;
  into.gemm_seconds += s.gemm_seconds;
  into.d2d_seconds += s.d2d_seconds;
  into.h2d_seconds += s.h2d_seconds;
  into.d2h_seconds += s.d2h_seconds;
  into.compute_seconds += s.compute_seconds;
  into.bytes_h2d += s.bytes_h2d;
  into.bytes_d2h += s.bytes_d2h;
  into.bytes_d2d += s.bytes_d2d;
  into.flops += s.flops;
  into.panels += s.panels;
  into.events += s.events;
  into.peak_device_bytes =
      std::max(into.peak_device_bytes, s.peak_device_bytes);
  if (s.events == 0) return;
  into.first_start =
      had_events ? std::min(into.first_start, s.first_start) : s.first_start;
  into.last_end = had_events ? std::max(into.last_end, s.last_end) : s.last_end;
}

QrStats combine_device_stats(const std::vector<QrStats>& per_device) {
  QrStats total;
  for (const QrStats& s : per_device) merge_stats(total, s);
  total.total_seconds = total.last_end - total.first_start;
  return total;
}

} // namespace rocqr::qr
