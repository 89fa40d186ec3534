#include "sim/trace_export.hpp"

#include <algorithm>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/strings.hpp"

namespace rocqr::sim {

namespace {

/// One duration ("ph":"X") event staged for sorted emission.
struct DurationEvent {
  sim_time_t start = 0;
  sim_time_t dur = 0;
  int pid = 0;
  int tid = 0;
  std::string_view name; ///< of a trace event or span record, outliving this
  std::string cat;
  std::string args; ///< rendered JSON object, may be empty
};

constexpr int kEnginePid = 0;
constexpr int kStreamPid = 1;
constexpr int kPhasePid = 2;

void emit_metadata(std::ostream& os, bool& first, int pid, int tid,
                   const char* what, std::string_view name) {
  if (!first) os << ",\n";
  first = false;
  os << R"(    {"name": ")" << what << R"(", "ph": "M", "pid": )" << pid;
  if (tid >= 0) os << R"(, "tid": )" << tid;
  os << R"(, "args": {"name": ")" << escape_json(name) << R"("}})";
}

} // namespace

void write_chrome_trace(std::ostream& os, const Trace& trace,
                        const telemetry::SpanLog* spans) {
  const auto& events = trace.events();

  std::vector<DurationEvent> out;
  out.reserve(2 * events.size());
  int max_stream = -1;
  for (const TraceEvent& e : events) {
    DurationEvent d;
    d.start = e.start;
    d.dur = e.end - e.start;
    d.name = e.name;
    d.cat = to_string(e.kind);
    d.args = R"({"stream": )" + std::to_string(e.stream) + R"(, "bytes": )" +
             std::to_string(e.bytes) + R"(, "flops": )" +
             std::to_string(e.flops) + "}";
    d.pid = kEnginePid;
    d.tid = static_cast<int>(e.resource);
    out.push_back(d);
    d.pid = kStreamPid;
    d.tid = e.stream;
    out.push_back(std::move(d));
    max_stream = std::max(max_stream, e.stream);
  }

  std::vector<telemetry::SpanRecord> span_records;
  if (spans != nullptr) span_records = spans->snapshot();
  for (const telemetry::SpanRecord& r : span_records) {
    // A span covers the sim-time extent of the trace events enqueued inside
    // it; spans that enqueued nothing have no timeline footprint.
    const size_t from = static_cast<size_t>(r.begin_cursor);
    const size_t to = std::min(static_cast<size_t>(r.end_cursor),
                               events.size());
    if (from >= to) continue;
    sim_time_t start = events[from].start;
    sim_time_t end = events[from].end;
    for (size_t i = from + 1; i < to; ++i) {
      start = std::min(start, events[i].start);
      end = std::max(end, events[i].end);
    }
    DurationEvent d;
    d.start = start;
    d.dur = end - start;
    d.pid = kPhasePid;
    d.tid = r.depth;
    d.name = r.name;
    d.cat = "phase";
    d.args = R"({"trace_events": )" + std::to_string(to - from) +
             R"(, "span_id": )" + std::to_string(r.id) + R"(, "parent": )" +
             std::to_string(r.parent) + "}";
    out.push_back(std::move(d));
  }

  // chrome://tracing tolerates unordered input but the machine-readable
  // contract is nicer sorted; ties keep engine before stream track.
  std::stable_sort(out.begin(), out.end(),
                   [](const DurationEvent& a, const DurationEvent& b) {
                     return a.start < b.start;
                   });

  const auto old_precision = os.precision(15);
  os << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n";
  bool first = true;
  emit_metadata(os, first, kEnginePid, -1, "process_name", "engines");
  emit_metadata(os, first, kStreamPid, -1, "process_name", "streams");
  const Resource lanes[] = {Resource::H2D, Resource::Compute, Resource::D2H};
  for (Resource lane : lanes) {
    emit_metadata(os, first, kEnginePid, static_cast<int>(lane), "thread_name",
                  to_string(lane));
  }
  for (int s = 0; s <= max_stream; ++s) {
    emit_metadata(os, first, kStreamPid, s, "thread_name",
                  "stream " + std::to_string(s));
  }
  if (!span_records.empty()) {
    emit_metadata(os, first, kPhasePid, -1, "process_name", "phases");
  }
  for (const DurationEvent& d : out) {
    if (!first) os << ",\n";
    first = false;
    // Timestamps in microseconds, as the format requires.
    os << R"(    {"name": ")" << escape_json(d.name) << R"(", "cat": ")"
       << d.cat << R"(", "ph": "X", "ts": )" << d.start * 1e6 << R"(, "dur": )"
       << d.dur * 1e6 << R"(, "pid": )" << d.pid << R"(, "tid": )" << d.tid;
    if (!d.args.empty()) os << R"(, "args": )" << d.args;
    os << "}";
  }
  os << "\n  ]\n}\n";
  os.precision(old_precision);
}

} // namespace rocqr::sim
