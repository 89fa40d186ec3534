// Unified telemetry: a process-wide registry of named metrics and a
// hierarchical span log.
//
// The paper's evidence is timeline- and byte-count-shaped (Figs 7-15,
// Tables 1-4); communication-optimal QR work judges algorithms by words
// moved, engine occupancy, and overlap. This header is the one place those
// quantities are collected:
//
//  - MetricsRegistry: named counters / gauges / histograms with atomic
//    updates and a deterministic JSON snapshot. Instrumented producers
//    include the trace (bytes per direction, flops by GEMM shape class),
//    the host GEMM pack buffers, the thread pool, and the OOC engines'
//    slab-buffer pools.
//  - Span / SpanLog: RAII phase markers threaded through the OOC engines
//    and the QR drivers. A span records a *cursor window* — a pair of
//    monotone positions obtained from a caller-supplied source (the
//    simulator uses its trace event count) — so a later exporter can
//    attribute everything that happened inside the span without this
//    layer depending on the simulator.
//
// Layering: common sits below sim, so nothing here includes sim headers;
// src/sim/trace_export.hpp binds spans to the device trace and renders the
// Chrome-trace JSON.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace rocqr::telemetry {

/// Monotonically increasing integer metric (bytes moved, events, cache
/// misses). Safe to bump from any thread.
class Counter {
 public:
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void increment() { add(1); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-written floating-point metric (queue depth, buffer size). `set`
/// overwrites; `record_max` keeps the high-water mark.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void record_max(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Power-of-two bucketed distribution of non-negative integer samples
/// (pack-buffer sizes, parallel_for widths). Bucket i counts samples whose
/// bit width is i, i.e. values in [2^(i-1), 2^i).
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void observe(std::int64_t sample);
  std::int64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::int64_t bucket(int i) const {
    return buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
  }
  void reset();

 private:
  std::atomic<std::int64_t> buckets_[kBuckets] = {};
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
};

enum class MetricKind { Counter, Gauge, Histogram };

/// One metric in a snapshot. For histograms, `value` is the sample count and
/// `sum` the sample total (bucket detail stays in the live object).
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  double value = 0.0;
  double sum = 0.0;
};

/// Process-wide registry of named metrics. Lookup interns the metric on
/// first use and returns a stable reference; hot paths should cache it.
/// global() is never replaced or destroyed and reset() keeps
/// registrations, so a cached reference stays valid for the life of the
/// process. Snapshots iterate in name order, so exports are deterministic.
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  std::vector<MetricSample> snapshot() const;

  /// JSON object {"metrics": {name: value | {histogram}}, ...}, names sorted.
  void write_json(std::ostream& os) const;

  /// Zeroes every registered metric (keeps registrations). Test/CLI aid.
  void reset();

 private:
  enum class SlotKind { Counter, Gauge, Histogram };
  struct Slot {
    SlotKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Slot& slot(const std::string& name, SlotKind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Slot> slots_;
};

/// One closed (or still open) phase scope. Cursor positions come from the
/// span's cursor source; for device spans they are trace event indices, so
/// [begin_cursor, end_cursor) is the window of trace events attributable to
/// this phase.
struct SpanRecord {
  int id = 0;
  int parent = -1; ///< index into the log, -1 for roots
  int depth = 0;
  std::string name;
  std::uint64_t begin_cursor = 0;
  std::uint64_t end_cursor = 0;
  bool open = true;
};

/// Append-only log of spans. Nesting is tracked per thread: a Span opened
/// while another is live on the same thread becomes its child.
class SpanLog {
 public:
  static SpanLog& global();

  /// Copy of all records (thread-safe; open spans have open == true).
  std::vector<SpanRecord> snapshot() const;
  bool empty() const;
  void clear();

 private:
  friend class Span;
  int open_span(std::string name, std::uint64_t begin_cursor);
  void close_span(int id, std::uint64_t end_cursor);

  mutable std::mutex mutex_;
  std::vector<SpanRecord> records_;
};

/// RAII phase marker. The cursor source is sampled once at construction and
/// once at destruction; any monotone counter works (the simulator passes its
/// trace event count, see sim::TraceSpan).
class Span {
 public:
  Span(std::string name, std::function<std::uint64_t()> cursor,
       SpanLog& log = SpanLog::global());
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int id() const { return id_; }

 private:
  SpanLog& log_;
  std::function<std::uint64_t()> cursor_;
  int id_;
};

} // namespace rocqr::telemetry
