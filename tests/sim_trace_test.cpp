// Trace container: counters, summaries, overlap ratio, rendering, CSV; the
// OpName value every op name and buffer label travels in; the Totals
// recording against the Events one, bit for bit, and the process counters
// a Totals trace adds when it is destroyed.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "sim/device.hpp"
#include "sim/op_name.hpp"
#include "sim/trace.hpp"
#include "stats_equal.hpp"

namespace rocqr::sim {
namespace {

using rocqr::testing::expect_same_stats;

TraceEvent make_event(std::int64_t id, OpKind kind, Resource res,
                      sim_time_t start, sim_time_t end, bytes_t bytes = 0,
                      flops_t flops = 0) {
  TraceEvent e;
  e.id = id;
  e.name = "op" + std::to_string(id);
  e.kind = kind;
  e.resource = res;
  e.stream = 0;
  e.start = start;
  e.end = end;
  e.bytes = bytes;
  e.flops = flops;
  return e;
}

TEST(Trace, CountersAccumulatePerDirection) {
  Trace t;
  t.add(make_event(0, OpKind::CopyH2D, Resource::H2D, 0, 1, 100));
  t.add(make_event(1, OpKind::CopyD2H, Resource::D2H, 0, 1, 40));
  t.add(make_event(2, OpKind::CopyD2D, Resource::Compute, 1, 1.1, 7));
  t.add(make_event(3, OpKind::Gemm, Resource::Compute, 1.1, 2, 0, 1000));
  EXPECT_EQ(t.bytes_h2d(), 100);
  EXPECT_EQ(t.bytes_d2h(), 40);
  EXPECT_EQ(t.bytes_d2d(), 7);
  EXPECT_EQ(t.total_flops(), 1000);
  EXPECT_EQ(t.size(), 4u);
  t.clear();
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.bytes_h2d(), 0);
}

TEST(Trace, MakespanAndBusy) {
  Trace t;
  EXPECT_DOUBLE_EQ(t.makespan(), 0.0);
  t.add(make_event(0, OpKind::CopyH2D, Resource::H2D, 0, 2));
  t.add(make_event(1, OpKind::Gemm, Resource::Compute, 1, 5));
  t.add(make_event(2, OpKind::CopyH2D, Resource::H2D, 2, 3));
  EXPECT_DOUBLE_EQ(t.makespan(), 5.0);
  EXPECT_DOUBLE_EQ(t.busy_seconds(Resource::H2D), 3.0);
  EXPECT_DOUBLE_EQ(t.busy_seconds(Resource::Compute), 4.0);
  EXPECT_DOUBLE_EQ(t.busy_seconds(Resource::D2H), 0.0);
}

TEST(Trace, MakespanIsTheLargestEndInAnyAddOrder) {
  // The trace keeps its latest end as events arrive; engines finish out of
  // issue order, so the last event added need not end last.
  Trace t;
  t.add(make_event(0, OpKind::Gemm, Resource::Compute, 0, 7));
  t.add(make_event(1, OpKind::CopyH2D, Resource::H2D, 0, 2));
  EXPECT_DOUBLE_EQ(t.makespan(), 7.0);
  t.add(make_event(2, OpKind::CopyD2H, Resource::D2H, 7, 9.5));
  t.add(make_event(3, OpKind::CopyH2D, Resource::H2D, 2, 4));
  sim_time_t largest = 0;
  for (const TraceEvent& e : t.events()) largest = std::max(largest, e.end);
  EXPECT_DOUBLE_EQ(t.makespan(), largest);
  EXPECT_DOUBLE_EQ(t.makespan(), 9.5);
  t.clear();
  EXPECT_DOUBLE_EQ(t.makespan(), 0.0);
  t.add(make_event(4, OpKind::Gemm, Resource::Compute, 1, 3));
  EXPECT_DOUBLE_EQ(t.makespan(), 3.0);
}

TEST(Trace, OverlapRatioBounds) {
  Trace t;
  // Fully overlapped: copies hidden under one long gemm.
  t.add(make_event(0, OpKind::Gemm, Resource::Compute, 0, 10));
  t.add(make_event(1, OpKind::CopyH2D, Resource::H2D, 0, 4));
  t.add(make_event(2, OpKind::CopyD2H, Resource::D2H, 5, 8));
  EXPECT_DOUBLE_EQ(t.overlap_ratio(), 1.0);

  Trace s;
  // Fully serialized: copy then gemm, nothing hidden.
  s.add(make_event(0, OpKind::CopyH2D, Resource::H2D, 0, 4));
  s.add(make_event(1, OpKind::Gemm, Resource::Compute, 4, 10));
  EXPECT_DOUBLE_EQ(s.overlap_ratio(), 0.0);

  Trace empty;
  EXPECT_DOUBLE_EQ(empty.overlap_ratio(), 1.0);
}

TEST(Trace, RejectsNegativeDuration) {
  Trace t;
  EXPECT_THROW(t.add(make_event(0, OpKind::Gemm, Resource::Compute, 2, 1)),
               InvalidArgument);
}

TEST(Trace, SummarizeWindow) {
  Trace t;
  t.add(make_event(0, OpKind::CopyH2D, Resource::H2D, 0, 1, 10));
  t.add(make_event(1, OpKind::Gemm, Resource::Compute, 1, 3, 0, 500));
  t.add(make_event(2, OpKind::CopyD2H, Resource::D2H, 3, 4, 20));
  t.add(make_event(3, OpKind::Gemm, Resource::Compute, 4, 9, 0, 700));

  const TraceSummary all = summarize(t);
  EXPECT_EQ(all.events, 4);
  EXPECT_DOUBLE_EQ(all.span(), 9.0);
  EXPECT_EQ(all.bytes_h2d, 10);
  EXPECT_EQ(all.bytes_d2h, 20);
  EXPECT_EQ(all.flops, 1200);
  EXPECT_DOUBLE_EQ(all.compute_seconds, 7.0);

  const TraceSummary tail = summarize(t, 2);
  EXPECT_EQ(tail.events, 2);
  EXPECT_DOUBLE_EQ(tail.first_start, 3.0);
  EXPECT_DOUBLE_EQ(tail.last_end, 9.0);
  EXPECT_EQ(tail.bytes_h2d, 0);
  EXPECT_EQ(tail.flops, 700);

  const TraceSummary window = summarize(t, 1, 3);
  EXPECT_EQ(window.events, 2);
  EXPECT_DOUBLE_EQ(window.span(), 3.0);

  const TraceSummary none = summarize(t, 4);
  EXPECT_EQ(none.events, 0);
  EXPECT_DOUBLE_EQ(none.span(), 0.0);
}

TEST(Trace, GanttRenderShowsLanesAndStats) {
  Trace t;
  t.add(make_event(0, OpKind::CopyH2D, Resource::H2D, 0, 1, 10));
  t.add(make_event(1, OpKind::Gemm, Resource::Compute, 1, 3));
  t.add(make_event(2, OpKind::Panel, Resource::Compute, 3, 4));
  t.add(make_event(3, OpKind::CopyD2H, Resource::D2H, 3, 4, 5));
  const std::string g = t.render_gantt(60);
  EXPECT_NE(g.find("H2D"), std::string::npos);
  EXPECT_NE(g.find("Compute"), std::string::npos);
  EXPECT_NE(g.find("D2H"), std::string::npos);
  EXPECT_NE(g.find('G'), std::string::npos);
  EXPECT_NE(g.find('P'), std::string::npos);
  EXPECT_NE(g.find("makespan"), std::string::npos);
  EXPECT_THROW(t.render_gantt(2), InvalidArgument);
  Trace empty;
  EXPECT_NE(empty.render_gantt(50).find("empty"), std::string::npos);
}

TEST(Trace, CsvHasHeaderAndRows) {
  Trace t;
  t.add(make_event(0, OpKind::CopyH2D, Resource::H2D, 0, 1.5, 10));
  t.add(make_event(1, OpKind::Gemm, Resource::Compute, 1.5, 2, 0, 99));
  std::ostringstream os;
  t.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("id,name,kind,resource,stream,start,end,bytes,flops"),
            std::string::npos);
  EXPECT_NE(csv.find("copy_h2d"), std::string::npos);
  EXPECT_NE(csv.find("gemm"), std::string::npos);
  EXPECT_NE(csv.find("99"), std::string::npos);
}

// Trace events copy as bytes, so a name costs nothing between its producer
// and the trace, and vector growth is a memmove.
static_assert(std::is_trivially_copyable_v<TraceEvent>);
static_assert(std::is_trivially_copyable_v<OpName>);
static_assert(sizeof(OpName) == 32);

/// `n` characters of varied text (so a truncation or a shifted copy shows).
std::string text_of_length(size_t n) {
  std::string s;
  for (size_t i = 0; i < n; ++i) s += static_cast<char>('a' + i % 26);
  return s;
}

TEST(OpName, HoldsTextOfEveryLengthAroundTheInlineCapacity) {
  for (const size_t n : {0, 15, 16, 31, 32, 200}) {
    SCOPED_TRACE(n);
    const std::string text = text_of_length(n);
    const OpName from_string(text);
    const OpName from_view(std::string_view{text});
    const OpName from_chars(text.c_str());
    for (const OpName& name : {from_string, from_view, from_chars}) {
      EXPECT_EQ(name.view(), text);
      EXPECT_EQ(name.str(), text);
      EXPECT_EQ(name.empty(), n == 0);
    }
    // A byte copy is a full copy, inline or interned.
    OpName copy;
    std::memcpy(static_cast<void*>(&copy), &from_string, sizeof(copy));
    EXPECT_EQ(copy.view(), text);
    // Built piecewise, across the inline capacity when n > 31.
    const OpName built =
        op_name(std::string_view(text).substr(0, n / 2),
                std::string_view(text).substr(n / 2));
    EXPECT_EQ(built.view(), text);
  }
  // One interned copy per distinct long text.
  const std::string long_text = text_of_length(200);
  EXPECT_EQ(OpName(long_text).view().data(),
            OpName(long_text.c_str()).view().data());
}

TEST(OpName, ComparesEqualToTextOfEveryStringType) {
  const OpName name = op_name("gemm upd ", 3, ",", 7);
  const std::string text = "gemm upd 3,7";
  EXPECT_TRUE(name == "gemm upd 3,7");
  EXPECT_TRUE("gemm upd 3,7" == name);
  EXPECT_TRUE(name == text);
  EXPECT_TRUE(text == name);
  EXPECT_TRUE(name == std::string_view(text));
  EXPECT_TRUE(std::string_view(text) == name);
  EXPECT_TRUE(name == OpName(text));
  EXPECT_FALSE(name == "gemm upd 3,");
  EXPECT_FALSE(name != text);
  EXPECT_TRUE(name != "gemm upd 3,8");
  EXPECT_TRUE(OpName() == "");
  const std::string long_text = text_of_length(64);
  EXPECT_TRUE(OpName(long_text) == long_text);
  EXPECT_FALSE(OpName(long_text) == text_of_length(63));
}

TEST(OpName, FormatsTextAndIntegersInPlace) {
  EXPECT_EQ(op_name("h2d A[", 3, "]").view(), "h2d A[3]");
  EXPECT_EQ(op_name("j", 12, ".", "panel_qr ", 4096, "x", 128).view(),
            "j12.panel_qr 4096x128");
  EXPECT_EQ(op_name("d", -5, "/", index_t{1} << 40).view(),
            "d-5/1099511627776");
  EXPECT_EQ(op_name(OpName("fused "), "gemm upd ", 3, ",", 7).view(),
            "fused gemm upd 3,7");
  // An integer that crosses the inline capacity spills the whole name.
  const std::string head = text_of_length(29);
  EXPECT_EQ(op_name(head, 12345, "]").view(), head + "12345]");
  EXPECT_EQ(op_name(head, 12).view(), head + "12");
  EXPECT_EQ(op_name(head, 12, "x").view(), head + "12x");
  std::ostringstream os;
  os << op_name("d2h R ", 1, ",", 2) << '|' << OpName(text_of_length(40));
  EXPECT_EQ(os.str(), "d2h R 1,2|" + text_of_length(40));
}

TEST(OpName, InternsLongNamesFromFourThreadsAtOnce) {
  // Every thread interns the same 300 long names (plus one of its own per
  // round), so insertions race on the one table.
  constexpr int kThreads = 4;
  constexpr int kNames = 300;
  std::vector<std::vector<OpName>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &got] {
      for (int i = 0; i < kNames; ++i) {
        got[static_cast<size_t>(t)].push_back(
            op_name("an interned name longer than the inline text #", i));
        op_name("a name only thread ", t, " interns, round ", i);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int i = 0; i < kNames; ++i) {
    const std::string want =
        "an interned name longer than the inline text #" + std::to_string(i);
    for (int t = 0; t < kThreads; ++t) {
      const OpName& name = got[static_cast<size_t>(t)][static_cast<size_t>(i)];
      EXPECT_EQ(name.view(), want);
      EXPECT_EQ(name.view().data(), got[0][static_cast<size_t>(i)].view().data());
    }
  }
}

TEST(Trace, OnePassPrefixBucketsMatchPerPrefixDerivation) {
  // "ab" events count toward both "a" and "ab"; the empty prefix takes
  // everything, and a prefix no event has stays an empty window.
  Trace t;
  const char* names[] = {"a gemm", "ab h2d", "b d2h", "ab panel", "a d2d",
                         "abc gemm", "b gemm", "a h2d"};
  const OpKind kinds[] = {OpKind::Gemm, OpKind::CopyH2D, OpKind::CopyD2H,
                          OpKind::Panel, OpKind::CopyD2D, OpKind::Gemm,
                          OpKind::Trsm, OpKind::CopyH2D};
  const Resource lanes[] = {Resource::Compute, Resource::H2D, Resource::D2H,
                            Resource::Compute, Resource::Compute,
                            Resource::Compute, Resource::Compute,
                            Resource::H2D};
  for (int i = 0; i < 8; ++i) {
    TraceEvent e = make_event(i, kinds[i], lanes[i], 0.1 * i + 0.03,
                              0.37 * i + 0.71, 1000 + 7 * i, 10 * i);
    e.name = names[i];
    t.add(e);
  }
  const std::vector<std::string_view> prefixes = {"", "a", "ab", "b", "zz",
                                                  "a "};
  for (const size_t from : {size_t{0}, size_t{3}}) {
    const std::vector<EngineStats> buckets =
        engine_stats_by_prefix(t, from, static_cast<size_t>(-1), prefixes);
    ASSERT_EQ(buckets.size(), prefixes.size());
    for (size_t p = 0; p < prefixes.size(); ++p) {
      SCOPED_TRACE(std::string(prefixes[p]));
      expect_same_stats(
          buckets[p],
          engine_stats_from_trace(t, from, static_cast<size_t>(-1),
                                  prefixes[p]));
    }
  }
  EXPECT_EQ(engine_stats_by_prefix(t, 0, 8, prefixes)[2].events, 3);
  EXPECT_EQ(engine_stats_by_prefix(t, 0, 8, prefixes)[4].events, 0);
}

/// The value of the process counter `name`.
std::int64_t counter(const char* name) {
  return telemetry::MetricsRegistry::global().counter(name).value();
}

/// The sim.* counters a trace adds to.
struct TraceCounters {
  std::int64_t bytes_h2d = 0, bytes_d2h = 0, bytes_d2d = 0, flops = 0,
               events = 0;

  static TraceCounters now() {
    return {counter("sim.bytes_h2d"), counter("sim.bytes_d2h"),
            counter("sim.bytes_d2d"), counter("sim.flops"),
            counter("sim.trace_events")};
  }
  TraceCounters operator-(const TraceCounters& o) const {
    return {bytes_h2d - o.bytes_h2d, bytes_d2h - o.bytes_d2h,
            bytes_d2d - o.bytes_d2d, flops - o.flops, events - o.events};
  }
  TraceCounters times(std::int64_t k) const {
    return {k * bytes_h2d, k * bytes_d2h, k * bytes_d2d, k * flops,
            k * events};
  }
  bool operator==(const TraceCounters&) const = default;
};

/// `n` seeded events of every kind and engine, added out of end order and
/// with durations that do not sum exactly in floating point.
std::vector<TraceEvent> random_events(std::uint64_t seed, int n) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const OpKind kinds[] = {OpKind::CopyH2D, OpKind::CopyD2H, OpKind::CopyD2D,
                          OpKind::Gemm,    OpKind::Trsm,    OpKind::Panel,
                          OpKind::Custom};
  const Resource lanes[] = {Resource::H2D, Resource::D2H, Resource::Compute,
                            Resource::Compute, Resource::Compute,
                            Resource::Compute, Resource::Compute};
  std::vector<TraceEvent> events;
  for (int i = 0; i < n; ++i) {
    const size_t k = rng() % 7;
    const double start = 100.0 * unit(rng);
    events.push_back(make_event(i, kinds[k], lanes[k], start,
                                start + 0.37 * unit(rng),
                                static_cast<bytes_t>(rng() % 100000),
                                static_cast<flops_t>(rng() % 10000000)));
  }
  return events;
}

TEST(Trace, TotalsRecordingMatchesEventsBitForBit) {
  const std::vector<TraceEvent> added = random_events(20261020, 5000);
  Trace events;
  const TraceCounters before = TraceCounters::now();
  for (const TraceEvent& e : added) events.add(e);
  const TraceCounters by_events = TraceCounters::now() - before;
  EXPECT_EQ(by_events.events, 5000);

  std::optional<Trace> totals(std::in_place, Recording::Totals);
  for (const TraceEvent& e : added) totals->add(e);
  // Nothing reaches the process counters until the trace is destroyed.
  EXPECT_TRUE(TraceCounters::now() - before == by_events);

  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(totals->recording(), Recording::Totals);
  EXPECT_EQ(totals->size(), events.size());
  EXPECT_EQ(bits(totals->makespan()), bits(events.makespan()));
  EXPECT_EQ(bits(totals->last_event_end()), bits(events.events().back().end));
  EXPECT_EQ(bits(events.last_event_end()), bits(events.events().back().end));
  EXPECT_EQ(totals->bytes_h2d(), events.bytes_h2d());
  EXPECT_EQ(totals->bytes_d2h(), events.bytes_d2h());
  EXPECT_EQ(totals->bytes_d2d(), events.bytes_d2d());
  EXPECT_EQ(totals->total_flops(), events.total_flops());
  expect_same_stats(engine_stats_from_trace(*totals, 0),
                    engine_stats_from_trace(events, 0));
  expect_same_stats(engine_stats_from_trace(*totals, 0, totals->size()),
                    engine_stats_from_trace(events, 0));
  const std::vector<std::string_view> whole = {"", ""};
  const std::vector<EngineStats> buckets =
      engine_stats_by_prefix(*totals, 0, static_cast<size_t>(-1), whole);
  ASSERT_EQ(buckets.size(), 2u);
  for (const EngineStats& b : buckets) {
    expect_same_stats(b, engine_stats_from_trace(events, 0));
  }

  // What a Totals trace cannot answer fails loudly.
  EXPECT_THROW(totals->events(), InvalidArgument);
  EXPECT_THROW(engine_stats_from_trace(*totals, 1), InvalidArgument);
  EXPECT_THROW(engine_stats_from_trace(*totals, 0, 4999), InvalidArgument);
  EXPECT_THROW(engine_stats_from_trace(*totals, 0, static_cast<size_t>(-1),
                                       "op1"),
               InvalidArgument);
  const std::vector<std::string_view> named = {"", "op"};
  EXPECT_THROW(
      engine_stats_by_prefix(*totals, 0, static_cast<size_t>(-1), named),
      InvalidArgument);
  EXPECT_THROW(totals->busy_seconds(Resource::H2D), InvalidArgument);
  EXPECT_THROW(totals->render_gantt(), InvalidArgument);
  std::ostringstream csv;
  EXPECT_THROW(totals->write_csv(csv), InvalidArgument);

  // Destroyed, it adds exactly what the Events trace added event by event.
  totals.reset();
  EXPECT_TRUE(TraceCounters::now() - before == by_events.times(2));
}

TEST(Trace, TotalsCountsReachTheCountersOnceAcrossMovesAndClears) {
  const std::vector<TraceEvent> added = random_events(7, 40);
  TraceCounters one;
  {
    const TraceCounters before = TraceCounters::now();
    Trace events;
    for (const TraceEvent& e : added) events.add(e);
    one = TraceCounters::now() - before;
  }
  const TraceCounters before = TraceCounters::now();
  {
    Trace a(Recording::Totals);
    for (const TraceEvent& e : added) a.add(e);
    Trace b(std::move(a)); // a is empty now, b holds the counts
    EXPECT_EQ(a.size(), 0u);
    EXPECT_EQ(b.size(), 40u);
    Trace c(Recording::Totals);
    for (const TraceEvent& e : added) c.add(e);
    c = std::move(b); // c's own counts go to the counters first
    EXPECT_TRUE(TraceCounters::now() - before == one);
    Trace d(Recording::Totals);
    for (const TraceEvent& e : added) d.add(e);
    d.clear(); // flushes, then starts over
    EXPECT_EQ(d.size(), 0u);
    EXPECT_DOUBLE_EQ(d.makespan(), 0.0);
    EXPECT_EQ(engine_stats_from_trace(d).events, 0);
    EXPECT_TRUE(TraceCounters::now() - before == one.times(2));
  }
  EXPECT_TRUE(TraceCounters::now() - before == one.times(3));
}

/// Enqueues `n` phantom 64x64 H2D copies on `dev`.
void enqueue_copies(Device& dev, int n) {
  const DeviceMatrix m = dev.allocate(64, 64);
  const Stream s = dev.create_stream();
  for (int i = 0; i < n; ++i) {
    dev.copy_h2d(m, HostConstRef::phantom(64, 64), s, op_name("h2d ", i));
  }
}

TEST(Trace, TotalsDeviceDestroyedAtThreadExitAddsItsCounts) {
  // A thread_local device is destroyed at thread exit, after the thread's
  // other locals: its trace still adds its counts to the counters.
  const std::int64_t before = counter("sim.trace_events");
  std::thread([] {
    thread_local std::optional<Device> late;
    late.emplace(DeviceSpec::v100_32gb(), ExecutionMode::Phantom, nullptr,
                 Recording::Totals);
    enqueue_copies(*late, 300);
  }).join();
  EXPECT_EQ(counter("sim.trace_events") - before, 300);
}

/// Destroyed at process exit, after every test.
Device& static_device() {
  static Device dev(DeviceSpec::v100_32gb(), ExecutionMode::Phantom, nullptr,
                    Recording::Totals);
  return dev;
}

TEST(Trace, StaticTotalsDeviceIsDestroyedAtProcessExit) {
  // Its counts reach the process counters at exit (ASan checks the
  // counters are still there then).
  Device& dev = static_device();
  enqueue_copies(dev, 200);
  EXPECT_EQ(dev.trace().size(), 200u);
  EXPECT_EQ(dev.trace().bytes_h2d(), 200 * 64 * 64 * 4);
}

TEST(Trace, EnumNames) {
  EXPECT_STREQ(to_string(Resource::H2D), "H2D");
  EXPECT_STREQ(to_string(Resource::Compute), "Compute");
  EXPECT_STREQ(to_string(Resource::D2H), "D2H");
  EXPECT_STREQ(to_string(OpKind::Panel), "panel_qr");
  EXPECT_STREQ(to_string(OpKind::CopyD2D), "copy_d2d");
}

} // namespace
} // namespace rocqr::sim
