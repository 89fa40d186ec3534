// Chrome-trace exporter schema test: the JSON parses, "X" events are emitted
// in nondecreasing ts order, engine tracks never self-overlap, the three
// engine thread_name tracks are present, and phase spans nest.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/telemetry.hpp"
#include "sim/trace.hpp"
#include "sim/trace_export.hpp"

namespace rocqr::sim {
namespace {

// ---------------------------------------------------------------------------
// Minimal validating JSON scanner. Parses the whole document (so malformed
// output fails loudly) and collects every element of the top-level
// "traceEvents" array as a flat map of top-level fields; the raw text of
// scalar values is kept verbatim, nested objects keep their raw JSON.
class JsonScanner {
 public:
  using Event = std::map<std::string, std::string>;

  explicit JsonScanner(std::string text) : s_(std::move(text)) {}

  bool parse() {
    i_ = 0;
    ok_ = true;
    skip_ws();
    value(/*at_root=*/true);
    skip_ws();
    if (i_ != s_.size()) fail("trailing characters");
    return ok_;
  }

  const std::vector<Event>& events() const { return events_; }
  const std::string& error() const { return error_; }

 private:
  void fail(const std::string& what) {
    if (ok_) error_ = what + " at offset " + std::to_string(i_);
    ok_ = false;
  }
  void skip_ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' ||
                              s_[i_] == '\r' || s_[i_] == '\t')) {
      ++i_;
    }
  }
  bool consume(char c) {
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    fail(std::string("expected '") + c + "'");
    return false;
  }

  // Returns the raw text of the value just parsed.
  std::string value(bool at_root = false) {
    if (!ok_ || i_ >= s_.size()) {
      fail("expected value");
      return {};
    }
    const size_t begin = i_;
    switch (s_[i_]) {
      case '{': object(at_root); break;
      case '[': array(/*collect=*/false); break;
      case '"': string_token(); break;
      default: scalar_token(); break;
    }
    return s_.substr(begin, i_ - begin);
  }

  std::string string_token() {
    if (!consume('"')) return {};
    const size_t begin = i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') {
        ++i_;
        if (i_ >= s_.size()) break;
      }
      ++i_;
    }
    const std::string body = s_.substr(begin, i_ - begin);
    consume('"');
    return body;
  }

  void scalar_token() {
    const size_t begin = i_;
    while (i_ < s_.size() &&
           (std::isalnum(static_cast<unsigned char>(s_[i_])) != 0 ||
            s_[i_] == '-' || s_[i_] == '+' || s_[i_] == '.')) {
      ++i_;
    }
    const std::string t = s_.substr(begin, i_ - begin);
    if (t.empty()) fail("expected scalar");
    if (t == "true" || t == "false" || t == "null") return;
    char* end = nullptr;
    const std::string copy = t;
    std::strtod(copy.c_str(), &end);
    if (end != copy.c_str() + copy.size()) fail("bad number '" + t + "'");
  }

  void object(bool at_root) {
    consume('{');
    skip_ws();
    if (ok_ && i_ < s_.size() && s_[i_] == '}') {
      ++i_;
      return;
    }
    while (ok_) {
      skip_ws();
      const std::string key = string_token();
      skip_ws();
      consume(':');
      skip_ws();
      if (at_root && key == "traceEvents") {
        array(/*collect=*/true);
      } else {
        value();
      }
      skip_ws();
      if (i_ < s_.size() && s_[i_] == ',') {
        ++i_;
        continue;
      }
      consume('}');
      return;
    }
  }

  void array(bool collect) {
    consume('[');
    skip_ws();
    if (ok_ && i_ < s_.size() && s_[i_] == ']') {
      ++i_;
      return;
    }
    while (ok_) {
      skip_ws();
      if (collect) {
        events_.push_back(flat_object());
      } else {
        value();
      }
      skip_ws();
      if (i_ < s_.size() && s_[i_] == ',') {
        ++i_;
        continue;
      }
      consume(']');
      return;
    }
  }

  // One traceEvents element: top-level fields only, nested values raw.
  Event flat_object() {
    Event out;
    consume('{');
    while (ok_) {
      skip_ws();
      const std::string key = string_token();
      skip_ws();
      consume(':');
      skip_ws();
      if (i_ < s_.size() && s_[i_] == '"') {
        out[key] = string_token();
      } else {
        out[key] = value();
      }
      skip_ws();
      if (i_ < s_.size() && s_[i_] == ',') {
        ++i_;
        continue;
      }
      consume('}');
      return out;
    }
    return out;
  }

  std::string s_;
  size_t i_ = 0;
  bool ok_ = true;
  std::string error_;
  std::vector<Event> events_;
};

double num(const JsonScanner::Event& e, const std::string& key) {
  const auto it = e.find(key);
  EXPECT_NE(it, e.end()) << "missing field " << key;
  return it == e.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
}

std::string str(const JsonScanner::Event& e, const std::string& key) {
  const auto it = e.find(key);
  return it == e.end() ? std::string() : it->second;
}

TraceEvent make_event(std::int64_t id, const std::string& name, OpKind kind,
                      Resource res, int stream, sim_time_t start,
                      sim_time_t end, bytes_t bytes = 0, flops_t flops = 0) {
  TraceEvent e;
  e.id = id;
  e.name = name;
  e.kind = kind;
  e.resource = res;
  e.stream = stream;
  e.start = start;
  e.end = end;
  e.bytes = bytes;
  e.flops = flops;
  return e;
}

/// A small two-level workload: a root span around everything and a nested
/// panel span around the two compute ops. Span cursors index the trace.
struct Exported {
  Trace trace;
  telemetry::SpanLog log;
  std::string json;
};

void export_sample(Exported& x) {
  const auto cursor = [&x] {
    return static_cast<std::uint64_t>(x.trace.size());
  };
  {
    telemetry::Span root("factor", cursor, x.log);
    x.trace.add(make_event(0, "move-in \"A\"", OpKind::CopyH2D, Resource::H2D,
                           0, 0.0, 1.0, 64));
    {
      telemetry::Span panel("panel j0=0", cursor, x.log);
      x.trace.add(make_event(1, "panel", OpKind::Panel, Resource::Compute, 1,
                             1.0, 2.0, 0, 100));
      x.trace.add(make_event(2, "gemm", OpKind::Gemm, Resource::Compute, 1,
                             2.0, 4.0, 0, 900));
    }
    x.trace.add(make_event(3, "move-out", OpKind::CopyD2H, Resource::D2H, 2,
                           4.0, 5.0, 32));
  }
  std::ostringstream os;
  write_chrome_trace(os, x.trace, &x.log);
  x.json = os.str();
}

/// Two events whose names hold a double quote and a backslash — one inline,
/// one long enough to be interned — inside one phase span.
struct QuotedNames {
  Trace trace;
  telemetry::SpanLog log;
};

void add_quoted_names(QuotedNames& x) {
  const auto cursor = [&x] {
    return static_cast<std::uint64_t>(x.trace.size());
  };
  telemetry::Span span("phase \"x\"", cursor, x.log);
  x.trace.add(make_event(0, "h2d \"A\" \\ 1", OpKind::CopyH2D, Resource::H2D,
                         0, 0.0, 0.25, 64));
  x.trace.add(make_event(1, "gemm \"C\" \\ a name long enough to be interned",
                         OpKind::Gemm, Resource::Compute, 1, 0.25, 1.5, 0,
                         1000));
}

TEST(TraceExport, NamesWithQuotesAndBackslashesRenderAsPinned) {
  // The bytes the std::string-named trace wrote for the same text: names
  // render verbatim in CSV and JSON-escaped in both Chrome exporters.
  QuotedNames x;
  add_quoted_names(x);
  std::ostringstream csv;
  x.trace.write_csv(csv);
  EXPECT_EQ(csv.str(), R"(id,name,kind,resource,stream,start,end,bytes,flops
0,h2d "A" \ 1,copy_h2d,H2D,0,0,0.25,64,0
1,gemm "C" \ a name long enough to be interned,gemm,Compute,1,0.25,1.5,0,1000
)");

  const std::string head = R"({
  "displayTimeUnit": "ms",
  "traceEvents": [
    {"name": "process_name", "ph": "M", "pid": 0, "args": {"name": "engines"}},
    {"name": "process_name", "ph": "M", "pid": 1, "args": {"name": "streams"}},
    {"name": "thread_name", "ph": "M", "pid": 0, "tid": 0, "args": {"name": "H2D"}},
    {"name": "thread_name", "ph": "M", "pid": 0, "tid": 1, "args": {"name": "Compute"}},
    {"name": "thread_name", "ph": "M", "pid": 0, "tid": 2, "args": {"name": "D2H"}},
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "stream 0"}},
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1, "args": {"name": "stream 1"}},
)";
  const std::string h2d =
      R"(    {"name": "h2d \"A\" \\ 1", "cat": "copy_h2d", "ph": "X", "ts": 0, "dur": 250000, "pid": 0, "tid": 0, "args": {"stream": 0, "bytes": 64, "flops": 0}},
    {"name": "h2d \"A\" \\ 1", "cat": "copy_h2d", "ph": "X", "ts": 0, "dur": 250000, "pid": 1, "tid": 0, "args": {"stream": 0, "bytes": 64, "flops": 0}},
)";
  const std::string gemm =
      R"(    {"name": "gemm \"C\" \\ a name long enough to be interned", "cat": "gemm", "ph": "X", "ts": 250000, "dur": 1250000, "pid": 0, "tid": 1, "args": {"stream": 1, "bytes": 0, "flops": 1000}},
    {"name": "gemm \"C\" \\ a name long enough to be interned", "cat": "gemm", "ph": "X", "ts": 250000, "dur": 1250000, "pid": 1, "tid": 1, "args": {"stream": 1, "bytes": 0, "flops": 1000}}
  ]
}
)";
  std::ostringstream chrome;
  x.trace.write_chrome_json(chrome);
  EXPECT_EQ(chrome.str(), head + h2d + gemm);

  std::ostringstream traced;
  write_chrome_trace(traced, x.trace, &x.log);
  EXPECT_EQ(
      traced.str(),
      head +
          R"(    {"name": "process_name", "ph": "M", "pid": 2, "args": {"name": "phases"}},
)" + h2d +
          R"(    {"name": "phase \"x\"", "cat": "phase", "ph": "X", "ts": 0, "dur": 1500000, "pid": 2, "tid": 0, "args": {"trace_events": 2, "span_id": 0, "parent": -1}},
)" + gemm);
}

TEST(ChromeTraceExport, OutputIsValidJson) {
  Exported x;
  export_sample(x);
  JsonScanner scan(x.json);
  ASSERT_TRUE(scan.parse()) << scan.error() << "\n" << x.json;
  EXPECT_NE(x.json.find("\"displayTimeUnit\""), std::string::npos);
  // 4 ops x 2 tracks + 1 phase-covered pair of spans + metadata entries.
  EXPECT_GE(scan.events().size(), 10u);
}

TEST(ChromeTraceExport, EmptyTraceIsStillValidJson) {
  Trace empty;
  std::ostringstream os;
  write_chrome_trace(os, empty);
  JsonScanner scan(os.str());
  EXPECT_TRUE(scan.parse()) << scan.error() << "\n" << os.str();
}

TEST(ChromeTraceExport, TimestampsAreMonotoneNondecreasing) {
  Exported x;
  export_sample(x);
  JsonScanner scan(x.json);
  ASSERT_TRUE(scan.parse()) << scan.error();
  double last_ts = -1.0;
  int duration_events = 0;
  for (const auto& e : scan.events()) {
    if (str(e, "ph") != "X") continue;
    const double ts = num(e, "ts");
    EXPECT_GE(ts, last_ts);
    EXPECT_GE(num(e, "dur"), 0.0);
    last_ts = ts;
    ++duration_events;
  }
  // 4 engine + 4 stream + 2 phase events.
  EXPECT_EQ(duration_events, 10);
}

TEST(ChromeTraceExport, EngineTracksNeverOverlap) {
  Exported x;
  export_sample(x);
  JsonScanner scan(x.json);
  ASSERT_TRUE(scan.parse()) << scan.error();
  std::map<int, double> track_end; // engine tid -> latest end seen
  for (const auto& e : scan.events()) {
    if (str(e, "ph") != "X" || num(e, "pid") != 0) continue;
    const int tid = static_cast<int>(num(e, "tid"));
    const double ts = num(e, "ts");
    EXPECT_GE(ts, track_end[tid]) << "overlap on engine track " << tid;
    track_end[tid] = ts + num(e, "dur");
  }
  EXPECT_EQ(track_end.size(), 3u); // all three engines saw work
}

TEST(ChromeTraceExport, DeclaresEngineThreadNames) {
  Exported x;
  export_sample(x);
  JsonScanner scan(x.json);
  ASSERT_TRUE(scan.parse()) << scan.error();
  std::vector<std::string> engine_names;
  for (const auto& e : scan.events()) {
    if (str(e, "ph") == "M" && str(e, "name") == "thread_name" &&
        num(e, "pid") == 0) {
      const std::string args = str(e, "args");
      for (const char* lane : {"H2D", "Compute", "D2H"}) {
        if (args.find(lane) != std::string::npos) engine_names.push_back(lane);
      }
    }
  }
  ASSERT_EQ(engine_names.size(), 3u);
  EXPECT_EQ(engine_names[0], "H2D");
  EXPECT_EQ(engine_names[1], "Compute");
  EXPECT_EQ(engine_names[2], "D2H");
}

TEST(ChromeTraceExport, PhaseSpansNestWithinParents) {
  Exported x;
  export_sample(x);
  JsonScanner scan(x.json);
  ASSERT_TRUE(scan.parse()) << scan.error();
  std::map<std::string, std::pair<double, double>> phases;
  for (const auto& e : scan.events()) {
    if (str(e, "ph") != "X" || num(e, "pid") != 2) continue;
    phases[str(e, "name")] = {num(e, "ts"), num(e, "ts") + num(e, "dur")};
  }
  ASSERT_EQ(phases.size(), 2u);
  const auto root = phases.at("factor");
  const auto panel = phases.at("panel j0=0");
  // Root covers all four ops, the panel only the two compute ops.
  EXPECT_DOUBLE_EQ(root.first, 0.0);
  EXPECT_DOUBLE_EQ(root.second, 5e6);
  EXPECT_DOUBLE_EQ(panel.first, 1e6);
  EXPECT_DOUBLE_EQ(panel.second, 4e6);
  EXPECT_GE(panel.first, root.first);
  EXPECT_LE(panel.second, root.second);
}

TEST(ChromeTraceExport, SpansWithoutEventsHaveNoTimelineFootprint) {
  Trace trace;
  telemetry::SpanLog log;
  const auto cursor = [&trace] {
    return static_cast<std::uint64_t>(trace.size());
  };
  { telemetry::Span idle("idle", cursor, log); } // no events enqueued inside
  trace.add(make_event(0, "gemm", OpKind::Gemm, Resource::Compute, 0, 0.0,
                       1.0, 0, 10));
  std::ostringstream os;
  write_chrome_trace(os, trace, &log);
  JsonScanner scan(os.str());
  ASSERT_TRUE(scan.parse()) << scan.error();
  for (const auto& e : scan.events()) {
    EXPECT_NE(str(e, "name"), "idle");
  }
}

} // namespace
} // namespace rocqr::sim
