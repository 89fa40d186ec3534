#include "sim/trace.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/telemetry.hpp"
#include "sim/trace_export.hpp"

namespace rocqr::sim {

namespace {

/// Process-wide movement counters, interned once (registry lookup is a map
/// walk under a mutex — too heavy for the per-event path).
struct TraceMetrics {
  telemetry::Counter& bytes_h2d;
  telemetry::Counter& bytes_d2h;
  telemetry::Counter& bytes_d2d;
  telemetry::Counter& flops;
  telemetry::Counter& events;

  static TraceMetrics& get() {
    auto& reg = telemetry::MetricsRegistry::global();
    static TraceMetrics* m = new TraceMetrics{
        reg.counter("sim.bytes_h2d"), reg.counter("sim.bytes_d2h"),
        reg.counter("sim.bytes_d2d"), reg.counter("sim.flops"),
        reg.counter("sim.trace_events")};
    return *m;
  }

  /// Counts one event of an Events trace as it is added.
  void count(const TraceEvent& e) {
    switch (e.kind) {
      case OpKind::CopyH2D: bytes_h2d.add(e.bytes); break;
      case OpKind::CopyD2H: bytes_d2h.add(e.bytes); break;
      case OpKind::CopyD2D: bytes_d2d.add(e.bytes); break;
      default: break;
    }
    flops.add(e.flops);
    events.increment();
  }
};

/// Adds one event to `s`; the first event (s.events == 0) opens the window.
void accumulate(EngineStats& s, const TraceEvent& e) {
  if (s.events == 0) {
    s.first_start = e.start;
    s.last_end = e.end;
  } else {
    s.first_start = std::min(s.first_start, e.start);
    s.last_end = std::max(s.last_end, e.end);
  }
  const sim_time_t dur = e.end - e.start;
  switch (e.resource) {
    case Resource::H2D: s.h2d_seconds += dur; break;
    case Resource::D2H: s.d2h_seconds += dur; break;
    case Resource::Compute: s.compute_seconds += dur; break;
  }
  switch (e.kind) {
    case OpKind::CopyH2D: s.bytes_h2d += e.bytes; break;
    case OpKind::CopyD2H: s.bytes_d2h += e.bytes; break;
    case OpKind::CopyD2D:
      s.bytes_d2d += e.bytes;
      s.d2d_seconds += dur;
      break;
    case OpKind::Panel:
      s.panel_seconds += dur;
      ++s.panels;
      break;
    case OpKind::Gemm:
    case OpKind::Trsm: // triangular solves count as update work
      s.gemm_seconds += dur;
      break;
    case OpKind::Custom: break;
  }
  s.flops += e.flops;
  ++s.events;
}

void close_window(EngineStats& s) {
  s.total_seconds = s.events == 0 ? 0 : s.last_end - s.first_start;
}

} // namespace

const char* to_string(Resource r) {
  switch (r) {
    case Resource::H2D: return "H2D";
    case Resource::Compute: return "Compute";
    case Resource::D2H: return "D2H";
  }
  return "?";
}

const char* to_string(OpKind k) {
  switch (k) {
    case OpKind::CopyH2D: return "copy_h2d";
    case OpKind::CopyD2H: return "copy_d2h";
    case OpKind::CopyD2D: return "copy_d2d";
    case OpKind::Gemm: return "gemm";
    case OpKind::Trsm: return "trsm";
    case OpKind::Panel: return "panel_qr";
    case OpKind::Custom: return "custom";
  }
  return "?";
}

Trace::~Trace() { flush_counters(); }

Trace::Trace(Trace&& other) noexcept : recording_(other.recording_) {
  *this = std::move(other);
}

Trace& Trace::operator=(Trace&& other) noexcept {
  if (this != &other) {
    flush_counters();
    recording_ = other.recording_;
    events_ = std::move(other.events_);
    other.events_.clear();
    run_ = std::exchange(other.run_, Running{});
  }
  return *this;
}

void Trace::flush_counters() const {
  if (recording_ != Recording::Totals || run_.count == 0) return;
  TraceMetrics& metrics = TraceMetrics::get();
  metrics.bytes_h2d.add(run_.bytes_h2d);
  metrics.bytes_d2h.add(run_.bytes_d2h);
  metrics.bytes_d2d.add(run_.bytes_d2d);
  metrics.flops.add(run_.flops);
  metrics.events.add(static_cast<std::int64_t>(run_.count));
}

void Trace::add(const TraceEvent& event) {
  ROCQR_CHECK(event.end >= event.start, "Trace::add: negative duration");
  switch (event.kind) {
    case OpKind::CopyH2D: run_.bytes_h2d += event.bytes; break;
    case OpKind::CopyD2H: run_.bytes_d2h += event.bytes; break;
    case OpKind::CopyD2D: run_.bytes_d2d += event.bytes; break;
    default: break;
  }
  run_.flops += event.flops;
  run_.makespan = std::max(run_.makespan, event.end);
  run_.last_event_end = event.end;
  ++run_.count;
  if (recording_ == Recording::Totals) {
    accumulate(run_.totals, event);
  } else {
    TraceMetrics::get().count(event);
    events_.push_back(event);
  }
}

void Trace::clear() {
  flush_counters();
  events_.clear();
  run_ = Running{};
}

const std::vector<TraceEvent>& Trace::events() const {
  ROCQR_CHECK(recording_ == Recording::Events,
              "Trace::events: a Totals trace keeps no events");
  return events_;
}

EngineStats Trace::whole_totals(size_t from, size_t to,
                                std::string_view name_prefix) const {
  ROCQR_CHECK(from == 0 && to >= run_.count && name_prefix.empty(),
              "engine_stats_from_trace: a Totals trace answers only the "
              "whole trace with no name prefix");
  EngineStats s = run_.totals;
  close_window(s);
  return s;
}

sim_time_t Trace::busy_seconds(Resource r) const {
  sim_time_t total = 0;
  for (const auto& e : events()) {
    if (e.resource == r) total += e.end - e.start;
  }
  return total;
}

double Trace::overlap_ratio() const {
  const double copy_time = busy_seconds(Resource::H2D) + busy_seconds(Resource::D2H);
  if (copy_time <= 0) return 1.0;
  const double exposed = makespan() - busy_seconds(Resource::Compute);
  return std::clamp(1.0 - exposed / copy_time, 0.0, 1.0);
}

std::string Trace::render_gantt(int width) const {
  ROCQR_CHECK(width >= 10, "render_gantt: width too small");
  const sim_time_t total = makespan();
  std::ostringstream os;
  if (total <= 0 || events().empty()) {
    os << "(empty trace)\n";
    return os.str();
  }
  const char kind_char[] = {'h', 'd', 'x', 'G', 'T', 'P', 'c'};
  const Resource lanes[] = {Resource::H2D, Resource::Compute, Resource::D2H};
  for (Resource lane : lanes) {
    std::string row(static_cast<size_t>(width), '.');
    for (const auto& e : events_) {
      if (e.resource != lane) continue;
      int c0 = static_cast<int>(std::floor(e.start / total * width));
      int c1 = static_cast<int>(std::ceil(e.end / total * width));
      c0 = std::clamp(c0, 0, width - 1);
      c1 = std::clamp(c1, c0 + 1, width);
      const char ch = kind_char[static_cast<int>(e.kind)];
      for (int c = c0; c < c1; ++c) row[static_cast<size_t>(c)] = ch;
    }
    os << pad_right(to_string(lane), 8) << "|" << row << "|\n";
  }
  os << pad_right("", 8) << " 0" << pad_left(format_seconds(total), width - 2)
     << "\n";
  os << "  h=move-in  G=gemm  T=trsm  P=panel  x=device copy  d=move-out\n";
  os << "  makespan " << format_seconds(total) << ", compute busy "
     << format_seconds(busy_seconds(Resource::Compute)) << ", H2D busy "
     << format_seconds(busy_seconds(Resource::H2D)) << ", D2H busy "
     << format_seconds(busy_seconds(Resource::D2H)) << ", overlap "
     << format_fixed(100.0 * overlap_ratio(), 1) << "%\n";
  return os.str();
}

void Trace::write_chrome_json(std::ostream& os) const {
  // Full exporter (engine + stream tracks, span tree) lives in
  // sim/trace_export.cpp; this member is the spanless convenience form.
  write_chrome_trace(os, *this, nullptr);
}

EngineStats engine_stats_from_trace(const Trace& trace, size_t from,
                                    size_t to, std::string_view name_prefix) {
  if (trace.recording() == Recording::Totals) {
    return trace.whole_totals(from, to, name_prefix);
  }
  const auto& events = trace.events();
  to = std::min(to, events.size());
  EngineStats s;
  for (size_t i = from; i < to; ++i) {
    const TraceEvent& e = events[i];
    if (e.name.view().starts_with(name_prefix)) accumulate(s, e);
  }
  close_window(s);
  return s;
}

std::vector<EngineStats> engine_stats_by_prefix(
    const Trace& trace, size_t from, size_t to,
    std::span<const std::string_view> prefixes) {
  std::vector<EngineStats> stats(prefixes.size());
  if (trace.recording() == Recording::Totals) {
    for (size_t p = 0; p < prefixes.size(); ++p) {
      stats[p] = trace.whole_totals(from, to, prefixes[p]);
    }
    return stats;
  }
  const auto& events = trace.events();
  to = std::min(to, events.size());
  for (size_t i = from; i < to; ++i) {
    const TraceEvent& e = events[i];
    const std::string_view name = e.name.view();
    for (size_t p = 0; p < prefixes.size(); ++p) {
      if (name.starts_with(prefixes[p])) accumulate(stats[p], e);
    }
  }
  for (EngineStats& s : stats) close_window(s);
  return stats;
}

void Trace::write_csv(std::ostream& os) const {
  os << "id,name,kind,resource,stream,start,end,bytes,flops\n";
  for (const auto& e : events()) {
    os << e.id << "," << e.name << "," << to_string(e.kind) << ","
       << to_string(e.resource) << "," << e.stream << "," << e.start << ","
       << e.end << "," << e.bytes << "," << e.flops << "\n";
  }
}

} // namespace rocqr::sim
