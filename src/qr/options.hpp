// Options and statistics for the out-of-core QR drivers.
#pragma once

#include "blas/gemm.hpp"
#include "common/types.hpp"
#include "sim/trace.hpp"

namespace rocqr::ooc {
struct PlanLog;
}

namespace rocqr::qr {

class CheckpointSink;

/// In-core solver used for the device panel factorization. The paper (via
/// HPDC'20) uses recursive CGS; CGS2 and CholeskyQR2 are included as
/// stability ablations — both do ~2x the panel flops for much better
/// orthogonality on ill-conditioned panels.
enum class PanelAlgorithm { RecursiveCgs, Cgs2, CholeskyQr2 };

struct QrOptions {
  /// QR blocksize b: panel width for both algorithms, streamed-slab width
  /// for the OOC GEMMs (the paper couples them the same way).
  index_t blocksize = 16384;
  blas::GemmPrecision precision = blas::GemmPrecision::FP16_FP32;
  PanelAlgorithm panel_algorithm = PanelAlgorithm::RecursiveCgs;

  /// §4.2 QR-level optimizations: keep small results resident across BLAS
  /// calls, overlap panel move-out with GEMM move-ins and vice versa.
  /// Off inserts a full device synchronization between phases.
  bool qr_level_opt = true;
  /// §4.1.3 blocksize ramp-up inside the OOC GEMMs.
  bool ramp_up = false;
  index_t ramp_start = 2048;
  /// §4.1.2 staging buffer for outer-product move-outs.
  bool staging_buffer = true;
  int pipeline_depth = 2;

  /// Column width below which the in-core recursive CGS switches to plain
  /// CGS (Real-mode numerics only; no effect on the schedule).
  index_t panel_base = 32;

  /// Blocking driver: trailing-update C tile shape; 0 = plan from memory.
  index_t outer_tile_rows = 0;
  index_t outer_tile_cols = 0;
  /// Recursive driver: inner-product C column split; 0 = plan from memory.
  index_t inner_c_panel = 0;

  /// Recursive driver, §4.2's first optimization in full: when a whole
  /// recursion subtree (all m rows x w columns) fits on the device, factor
  /// it entirely resident — panels and level GEMMs operate on device data
  /// with no intermediate host round-trips; only the final Q and the R
  /// blocks stream out. Subject to qr_level_opt and the memory plan.
  bool resident_subtrees = true;

  /// Fraction of device memory the planner is allowed to commit (head-room
  /// for the allocator's alignment and cross-phase overlap).
  double memory_budget_fraction = 0.92;

  // --- Fault tolerance (docs/FAULTS.md) ------------------------------------
  /// Transfer retry budget per individual copy (1 = no retries) and the
  /// initial backoff charged to the host clock per retry (doubles each time).
  int transfer_max_attempts = 4;
  double transfer_backoff_seconds = 1e-3;
  /// On DeviceOutOfMemory inside an OOC engine, re-plan with a halved slab
  /// schedule instead of failing (counted as `slab_degradations`).
  bool degrade_on_oom = true;
  /// Opt-in ABFT column-sum checksums on the OOC GEMMs: detects injected
  /// compute corruption and recomputes the affected slab.
  bool abft = false;
  /// When set, the driver writes a panel-level checkpoint every
  /// `checkpoint_every` completed units (panels / recursion leaves). Not
  /// owned. qr::resume() restarts from such a checkpoint.
  CheckpointSink* checkpoint_sink = nullptr;
  index_t checkpoint_every = 1;
  /// Internal (set by qr::resume): number of already-completed panel
  /// units to skip when replaying the factorization schedule.
  index_t resume_units = 0;
  /// Opt-in output guard: after the driver returns, qr::factorize/resume
  /// scan the host R (then Q) for non-finite values and throw
  /// rocqr::NumericalError on the first hit, bumping the
  /// `qr.nonfinite_detected` counter. Catches silent poisoning (e.g. an
  /// injected `corrupt` fault with ABFT disabled) at the API boundary
  /// instead of letting NaNs escape into a caller's pipeline. Real mode
  /// only (Phantom runs carry no element data to scan).
  bool check_finite = false;

  /// When non-null, every task graph the driver runs (the drivers and all
  /// their OOC engine calls lower onto ooc::TaskGraph) reports its lowered
  /// form here on teardown — node counts per stage, edge/fence-edge counts,
  /// and a Graphviz digraph. Surfaced by rocqr_cli and the benches behind
  /// --explain-plan[=dot]. Not owned; single-threaded use only.
  ooc::PlanLog* plan_log = nullptr;

  /// Checks every field against its documented domain and throws
  /// rocqr::InvalidArgument on the first violation. All drivers call this on
  /// entry, so a bad configuration fails uniformly at the API boundary
  /// instead of asserting deep inside the memory planner.
  void validate() const;

  /// Field by field (pointers by address). serve's admission memo keys on
  /// it, so a field added here joins that key without further edits.
  bool operator==(const QrOptions&) const = default;
};

/// The factorization aggregate is the unified trace-window statistic shared
/// with the OOC engines — one deriver (sim::engine_stats_from_trace), no
/// duplicated counter logic. See sim/trace.hpp for the field list; byte
/// counters follow the Trace naming convention (`bytes_h2d`, not the former
/// `h2d_bytes`).
using EngineStats = sim::EngineStats;
using QrStats = sim::EngineStats;

/// Builds QrStats from the device trace window [from, end). A non-empty
/// `name_prefix` restricts the aggregate to events whose name starts with
/// the prefix — per-job attribution for colocated factorizations
/// (qr/tiled_qr.hpp labels).
QrStats stats_from_trace(const sim::Trace& trace, size_t from,
                         bytes_t peak_device_bytes,
                         std::string_view name_prefix = {});

/// stats_from_trace for several prefixes in one pass over the window
/// (sim::engine_stats_by_prefix): element i equals
/// stats_from_trace(trace, from, peak_device_bytes, prefixes[i]).
std::vector<QrStats> stats_by_prefix(const sim::Trace& trace, size_t from,
                                     bytes_t peak_device_bytes,
                                     std::span<const std::string_view> prefixes);

/// Folds the window `s` into `into`: busy times, volumes, flops, panels and
/// event counts sum; peak_device_bytes keeps the larger. [first_start,
/// last_end] widens over windows that recorded at least one event — an
/// empty window's zero-initialized extent is a default, not an interval,
/// and must not drag first_start to 0. total_seconds is left to the caller:
/// a fleet takes the span of the merged extent, a job's attempts sum their
/// spans.
void merge_stats(QrStats& into, const QrStats& s);

/// Aggregates per-device trace-window stats into one fleet view:
/// merge_stats over the windows, with total_seconds the fleet makespan
/// last_end - first_start (zero when every window is empty). Used by TSQR
/// and the serve::Scheduler fleet report.
QrStats combine_device_stats(const std::vector<QrStats>& per_device);

} // namespace rocqr::qr
