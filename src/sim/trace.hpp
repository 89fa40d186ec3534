// Execution trace of the simulated device: one interval per operation.
//
// This is the reproduction's counterpart of the paper's timeline figures
// (Figs 7-15): per-engine Gantt rows for H2D, compute, and D2H, plus byte
// and flop counters for the data-movement tables.
//
// A trace either keeps every event (Recording::Events) or only what a dry
// run reads (Recording::Totals): the whole-trace EngineStats, folded in add
// order so every sum is bit-identical to a scan of the kept events, plus
// the event count, makespan and byte and flop totals. Blocksize sweeps and
// admission quotes record Totals; nothing else needs to know which.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/types.hpp"
#include "sim/op_name.hpp"

namespace rocqr::sim {

/// The three contended engines of the device (+Host for sync markers).
enum class Resource { H2D, Compute, D2H };

enum class OpKind { CopyH2D, CopyD2H, CopyD2D, Gemm, Trsm, Panel, Custom };

const char* to_string(Resource r);
const char* to_string(OpKind k);

struct TraceEvent {
  std::int64_t id = 0;
  OpName name;
  OpKind kind = OpKind::Custom;
  Resource resource = Resource::Compute;
  int stream = 0;
  sim_time_t start = 0;
  sim_time_t end = 0;
  bytes_t bytes = 0;
  flops_t flops = 0;
};

// Events are copied and moved as bytes: vector growth is a memmove, and a
// name costs no allocation anywhere between its producer and the trace.
static_assert(std::is_trivially_copyable_v<TraceEvent>);

/// What a trace keeps of the events added to it; fixed at construction.
enum class Recording {
  Events, ///< every event, in add order
  Totals, ///< the whole-trace EngineStats, count, makespan and totals only
};

/// The one aggregate view of a contiguous window of trace events. Every
/// engine and driver statistic (QrStats, the Table 1-2 engine rows) derives
/// from this single struct via engine_stats_from_trace, so there is exactly
/// one place counters are accumulated.
///
/// Naming convention (uniform with the Trace accessors): byte counters are
/// `bytes_<direction>`, busy times are `<engine>_seconds`.
struct EngineStats {
  // Window extent.
  sim_time_t first_start = 0;
  sim_time_t last_end = 0;
  sim_time_t total_seconds = 0; ///< last_end - first_start (window makespan)
  sim_time_t span() const { return total_seconds; }

  // Per-engine busy time.
  sim_time_t h2d_seconds = 0;     ///< H2D link busy
  sim_time_t d2h_seconds = 0;     ///< D2H link busy
  sim_time_t compute_seconds = 0; ///< compute engine busy (all kinds)

  // Compute-engine breakdown by operation kind.
  sim_time_t panel_seconds = 0; ///< panel factorizations
  sim_time_t gemm_seconds = 0;  ///< GEMMs and triangular solves
  sim_time_t d2d_seconds = 0;   ///< staging copies

  // Volumes.
  bytes_t bytes_h2d = 0;
  bytes_t bytes_d2h = 0;
  bytes_t bytes_d2d = 0;
  flops_t flops = 0;

  bytes_t peak_device_bytes = 0; ///< filled by drivers (not trace-derived)
  index_t panels = 0;            ///< panel factorizations in the window
  int events = 0;                ///< trace events in the window

  double sustained_flops_per_s() const {
    return total_seconds > 0 ? static_cast<double>(flops) / total_seconds
                             : 0.0;
  }
};

class Trace {
 public:
  explicit Trace(Recording recording = Recording::Events)
      : recording_(recording) {}
  /// A Totals trace adds its counts to the sim.* process counters here
  /// (an Events trace added them as events arrived). Traces move but do
  /// not copy, so each count reaches the counters exactly once: a moved-from
  /// trace is empty, and a trace moved onto first adds its own counts.
  ~Trace();
  Trace(Trace&& other) noexcept;
  Trace& operator=(Trace&& other) noexcept;
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  Recording recording() const { return recording_; }

  /// Appends an event (Events) or folds it into the running whole-trace
  /// EngineStats (Totals).
  void add(const TraceEvent& event);
  /// Forgets every event (a Totals trace first adds its counts to the
  /// process counters).
  void clear();

  /// The recorded events. Throws InvalidArgument on a Totals trace, which
  /// keeps none.
  const std::vector<TraceEvent>& events() const;
  bool empty() const { return size() == 0; }

  /// Number of events added so far (use as a window anchor).
  size_t size() const { return run_.count; }

  /// Latest end time over all events (0 when empty). Kept as events are
  /// added, so reading it costs O(1) however long the trace grows.
  sim_time_t makespan() const { return run_.makespan; }

  /// End time of the most recently added event (0 when empty).
  sim_time_t last_event_end() const { return run_.last_event_end; }

  /// Total busy time of one engine (its intervals never overlap). Reads
  /// the events, so it throws on a Totals trace.
  sim_time_t busy_seconds(Resource r) const;

  /// Bytes moved per direction.
  bytes_t bytes_h2d() const { return run_.bytes_h2d; }
  bytes_t bytes_d2h() const { return run_.bytes_d2h; }
  bytes_t bytes_d2d() const { return run_.bytes_d2d; }
  flops_t total_flops() const { return run_.flops; }

  /// Fraction of copy time hidden under other engines' activity:
  /// 1 - (makespan - busy(Compute)) / (busy(H2D) + busy(D2H)), clamped to
  /// [0,1]. Equals 1 when communication is perfectly overlapped.
  double overlap_ratio() const;

  /// ASCII Gantt chart with one lane per engine, `width` columns wide.
  std::string render_gantt(int width = 100) const;

  /// CSV: id,name,kind,resource,stream,start,end,bytes,flops
  void write_csv(std::ostream& os) const;

  /// Chrome tracing JSON (load in chrome://tracing or Perfetto): one
  /// complete ("ph":"X") event per operation, one track per engine and one
  /// per stream. Convenience wrapper over sim::write_chrome_trace (see
  /// sim/trace_export.hpp), which can additionally render the phase-span
  /// tree collected via telemetry::SpanLog.
  void write_chrome_json(std::ostream& os) const;

 private:
  friend EngineStats engine_stats_from_trace(const Trace&, size_t, size_t,
                                             std::string_view);
  friend std::vector<EngineStats> engine_stats_by_prefix(
      const Trace&, size_t, size_t, std::span<const std::string_view>);

  /// Adds this trace's counts to the sim.* process counters (Totals).
  void flush_counters() const;
  /// A Totals trace's closed whole-trace EngineStats; throws unless
  /// [from, to) covers the whole trace and `name_prefix` is empty.
  EngineStats whole_totals(size_t from, size_t to,
                           std::string_view name_prefix) const;

  /// What add() keeps under either recording.
  struct Running {
    size_t count = 0;
    sim_time_t makespan = 0;
    sim_time_t last_event_end = 0;
    bytes_t bytes_h2d = 0;
    bytes_t bytes_d2h = 0;
    bytes_t bytes_d2d = 0;
    flops_t flops = 0;
    EngineStats totals; ///< Totals only: every event, folded in add order
  };

  Recording recording_;
  std::vector<TraceEvent> events_; ///< Events only
  Running run_;
};

/// Derives EngineStats from the trace events [from, to) (to = npos means
/// "to the end"). With a non-empty `name_prefix`, only events whose name
/// starts with the prefix contribute — per-job attribution when several
/// factorizations interleave on one device (qr/tiled_qr). All windowed
/// aggregates in the repo route through this one deriver. A Totals trace
/// answers only the whole trace with an empty prefix; any other window or
/// prefix throws InvalidArgument.
EngineStats engine_stats_from_trace(const Trace& trace, size_t from,
                                    size_t to, std::string_view name_prefix);
inline EngineStats engine_stats_from_trace(const Trace& trace, size_t from = 0,
                                           size_t to = static_cast<size_t>(-1)) {
  return engine_stats_from_trace(trace, from, to, {});
}

/// engine_stats_from_trace for several prefixes in one pass over the
/// window: element i aggregates the events whose name starts with
/// prefixes[i] (an event counts toward every prefix it starts with; the
/// empty prefix takes every event), bit for bit what a per-prefix call
/// returns. A Totals trace answers only empty prefixes over the whole
/// trace, as engine_stats_from_trace does.
std::vector<EngineStats> engine_stats_by_prefix(
    const Trace& trace, size_t from, size_t to,
    std::span<const std::string_view> prefixes);

/// Historic name for the windowed aggregate; same type, same deriver.
using TraceSummary = EngineStats;

/// Summarizes events [from, to) of the trace (to = npos means "to the end").
inline TraceSummary summarize(const Trace& trace, size_t from = 0,
                              size_t to = static_cast<size_t>(-1)) {
  return engine_stats_from_trace(trace, from, to);
}

} // namespace rocqr::sim
