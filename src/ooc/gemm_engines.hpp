// The four out-of-core GEMM engines of §3.3/§4.1.
//
// Naming follows the paper: the "inner product" computes R12 = Q1ᵀ·A2 and
// the "outer product" computes the trailing update A2 -= Q1·R12. Each exists
// in the tiling used by the recursive QR and the tiling used by the blocking
// QR:
//
//   inner_product_recursive  C  = AᵀB   split the (long) reduction dim k;
//                                        C accumulates on device, moved out
//                                        once. Both inputs stream exactly
//                                        once (when C fits unsplit).
//   inner_product_blocking   C  = AᵀB   A (the panel Q) resident; B streamed
//                                        in n-slabs; C slab moved out per
//                                        step.
//   outer_product_recursive  C -= A·B   B resident; A and C streamed in row
//                                        slabs; extra C working space so the
//                                        next move-in is not serialized
//                                        behind the move-out (§4.1.2).
//   outer_product_blocking   C -= A·B   A and B resident; C streamed in
//                                        b1 x b2 tiles.
//
// Each engine call builds one ooc::TaskGraph and runs its streaming loop on
// it as a SlabPlan (ooc/pipeline.hpp) whose nodes declare the buffer-pool
// slots they touch, so the graph's hazard rule derives the input-pool and
// §4.1.2 output-slot fences. Engines only *enqueue* asynchronous device
// work and return scheduling statistics; they do not synchronize at the
// end, so a caller (the QR drivers) can overlap the tail of one engine with
// the head of the next — the paper's QR-level optimization. Callers that
// need the wall time of a single engine synchronize the device themselves.
#pragma once

#include <string>
#include <vector>

#include "blas/gemm.hpp"
#include "ooc/operand.hpp"
#include "ooc/slab_schedule.hpp"
#include "sim/device.hpp"
#include "sim/trace.hpp"

namespace rocqr::ooc {

/// Completion marker for one rectangular host region written by an engine's
/// device-to-host move-outs: once `event` completes, host rows
/// [rows.offset, rows.offset+rows.width) x cols [cols.offset, ...) are
/// current. Drivers use these to start the *next* operation's move-ins as
/// soon as the data they touch is ready — the paper's QR-level overlapping —
/// instead of waiting for the whole previous operation.
struct RegionEvent {
  Slab rows;
  Slab cols;
  sim::Event event;
};

/// Collector for the --explain-plan tooling. When wired into
/// OocGemmOptions::plan_log (or QrOptions::plan_log, which forwards), every
/// slab loop appends a one-line description of its plan (buffer depths,
/// groups, ramp) to `text` as it runs, and every TaskGraph — the single
/// executor all engines and drivers run on — appends its node/edge summary
/// to `text` and a Graphviz digraph to `dot` as it is torn down. Nothing is
/// formatted without a log. Plain accumulation with no locking: wire it up
/// for single-threaded explanation runs (benches, rocqr_cli), not serve.
struct PlanLog {
  std::string text;
  std::string dot;
};

struct OocGemmOptions {
  /// Primary slab width (k-slab for recursive inner, n-slab for blocking
  /// inner, row-slab for recursive outer, tile rows for blocking outer).
  index_t blocksize = 16384;
  /// Blocking outer product: tile columns b2 (0 means == blocksize).
  index_t tile_cols = 0;
  /// Recursive inner product: column-panel width for C when the full m x n
  /// accumulator cannot stay resident (small-memory devices). 0 = unsplit.
  index_t c_panel_cols = 0;
  /// §4.1.3 ramp-up of the streamed slab width.
  bool ramp_up = false;
  index_t ramp_start = 2048;
  /// §4.1.2 extra C working space in the outer products, realized as a
  /// rotating buffer pair: slab t+1 prefetches while slab t computes and
  /// drains. Off = the single-buffer baseline the paper describes, whose
  /// move-ins serialize behind move-outs.
  bool staging_buffer = true;
  /// Synchronize the device after every operation (the tables' synchronous
  /// baseline rows; disables all overlap).
  bool synchronous = false;
  /// Number of in-flight streamed-input buffers (2 = double buffering).
  int pipeline_depth = 2;
  blas::GemmPrecision precision = blas::GemmPrecision::FP16_FP32;
  /// Outer products only: transpose the streamed A operand, i.e. compute
  /// C := beta·C + alpha·op(A)·B with op = Aᵀ. A is then stored k x m on the
  /// host and streamed in *column* slabs matching C's row slabs. This is the
  /// shape of the symmetric trailing update A22 -= R12ᵀ·R12 in out-of-core
  /// Cholesky (the paper's §6 future work, implemented in src/lu).
  blas::Op outer_opa = blas::Op::NoTrans;
  /// Outer products only: transpose the resident B operand (stored n x k on
  /// the host when Trans).
  blas::Op outer_opb = blas::Op::NoTrans;
  /// Outer products only: the scalars of C := beta·C + alpha·op(A)·op(B).
  /// Defaults express the trailing update C -= A·B. With beta == 0 the C
  /// move-in is skipped entirely (write-only output). The inner-product
  /// engines keep their fixed C = Aᵀ·B semantics.
  float alpha = -1.0f;
  float beta = 1.0f;
  /// outer_product_blocking only: skip tiles strictly below the diagonal of
  /// C. For symmetric trailing updates (Cholesky's A22 -= R12ᵀR12) only the
  /// upper triangle is ever read again, so the sub-diagonal tiles are pure
  /// waste — this roughly halves that update's movement and flops.
  bool upper_triangle_tiles_only = false;
  /// outer_product_recursive only, square C: stream each row slab as the
  /// trapezoid from the diagonal rightward (columns [slab start, n)) — the
  /// row-slab analogue of the triangular tile filter above, for the
  /// recursive Cholesky trailing update.
  bool upper_trapezoid_slabs = false;
  /// Events that must complete before this engine's first host read (its
  /// streamed host inputs were produced by earlier device-to-host copies).
  std::vector<sim::Event> host_input_ready;
  // --- Fault tolerance (docs/FAULTS.md) ----------------------------------
  /// Transfer retry budget per copy: a copy that throws TransferError (an
  /// injected transient fault) is re-enqueued up to this many times total,
  /// with exponential backoff on the simulated host clock between attempts.
  /// Exhausting the budget throws FaultBudgetExhausted.
  int transfer_max_attempts = 4;
  /// Backoff before the first re-attempt; doubles per retry.
  double transfer_backoff_seconds = 1e-3;
  /// On DeviceOutOfMemory, halve blocksize (and tile_cols/c_panel_cols) and
  /// re-plan the whole engine call instead of propagating, down to
  /// degrade_min_blocksize. Safe because every engine allocates all device
  /// buffers before its first device-to-host write.
  bool degrade_on_oom = true;
  index_t degrade_min_blocksize = 32;
  /// Opt-in ABFT: verify every engine GEMM against a column-sum check
  /// vector (Real mode only) and recompute the slab on mismatch. Detects
  /// injected compute corruption; see docs/FAULTS.md for the tolerance.
  bool abft = false;
  /// Fine-grained alternative for the *streamed* host input (B slabs of the
  /// blocking inner product, C slabs/tiles of the outer products): per-slab
  /// reads wait only on the regions they intersect, in the ENGINE'S local
  /// coordinates. This is the full §4.2 cross-operation pipelining — slab j
  /// of the next operation starts as soon as the previous operation's
  /// writes covering slab j landed, not when the whole operation finished.
  std::vector<RegionEvent> streamed_input_regions;
  /// When non-null, every task graph run under these options reports its
  /// lowered form here on teardown (--explain-plan / --explain-plan=dot).
  /// Not owned; must outlive the engine call.
  PlanLog* plan_log = nullptr;

  /// Throws InvalidArgument on out-of-range knobs (mirrors
  /// QrOptions::validate). Every engine entry point calls this before
  /// planning; engines no longer silently clamp (pipeline_depth < 1 used to
  /// be rounded up to 1 — now it is an error).
  void validate() const;
};

struct OocGemmStats {
  /// This engine's trace window: events [trace_begin, trace_end) of
  /// dev.trace(), which sim::summarize aggregates for a caller that wants
  /// the engine's volumes and busy times.
  size_t trace_begin = 0;
  size_t trace_end = 0;
  index_t steps = 0; ///< number of streamed slabs/tiles
  /// Per-region completion of this engine's host writes (see RegionEvent).
  std::vector<RegionEvent> output_ready;
  /// Completes when every operation this engine enqueued has finished.
  sim::Event done;
  /// Completes when the device-resident result (keep_c) holds final values —
  /// i.e. after the last GEMM, typically earlier than `done`. Consumers of a
  /// kept C wait on this (not on `done`) to start sooner.
  sim::Event device_result_ready;
  /// Modeled in-core rate of the steady-state (full-width) GEMM, flop/s.
  double steady_gemm_rate = 0.0;
  /// Duration of one steady-state slab's H2D / GEMM / D2H (the "single
  /// block time cost" rows of Tables 1 and 2).
  sim_time_t slab_h2d_seconds = 0;
  sim_time_t slab_gemm_seconds = 0;
  sim_time_t slab_d2h_seconds = 0;
};

/// C (m x n) = Aᵀ·B with A: k x m and B: k x n streamed from the host in
/// k-slabs. If `keep_c` is non-null, the device-resident fp32 accumulator is
/// handed back to the caller instead of being freed (QR-level optimization;
/// requires c_panel_cols == 0). C is always also copied out to `c`.
OocGemmStats inner_product_recursive(sim::Device& dev, const Operand& a,
                                     const Operand& b, sim::HostMutRef c,
                                     const OocGemmOptions& opts,
                                     sim::DeviceMatrix* keep_c = nullptr);

/// C (m x n) = Aᵀ·B with A: k x m resident (or moved in once) and B streamed
/// in n-slabs of `blocksize` columns.
OocGemmStats inner_product_blocking(sim::Device& dev, const Operand& a,
                                    const Operand& b, sim::HostMutRef c,
                                    const OocGemmOptions& opts,
                                    sim::DeviceMatrix* keep_c = nullptr);

/// C (m x n) -= A·B with A: m x k and C streamed in `blocksize`-row slabs
/// and B: k x n resident (or moved in once). C is updated in place on the
/// host (c_in and c_out may alias; shapes must match).
OocGemmStats outer_product_recursive(sim::Device& dev, const Operand& a,
                                     const Operand& b,
                                     sim::HostConstRef c_in,
                                     sim::HostMutRef c_out,
                                     const OocGemmOptions& opts);

/// C (m x n) -= A·B with A and B resident (or moved in once) and C streamed
/// in blocksize x tile_cols tiles.
OocGemmStats outer_product_blocking(sim::Device& dev, const Operand& a,
                                    const Operand& b, sim::HostConstRef c_in,
                                    sim::HostMutRef c_out,
                                    const OocGemmOptions& opts);

/// Column-wise dual of outer_product_recursive: C (m x n) -= op(A)·B with
/// op(A) (m x k) resident (or moved in once) and B and C streamed in
/// `blocksize`-COLUMN slabs. This is the update shape of out-of-core
/// triangular solves (B2 -= L21·X1 with L21 resident, unknowns streamed by
/// right-hand-side columns), the substrate for the LU/Cholesky extensions.
/// opts.outer_opa applies to A (resident either way).
OocGemmStats outer_product_colwise(sim::Device& dev, const Operand& a,
                                   const Operand& b, sim::HostConstRef c_in,
                                   sim::HostMutRef c_out,
                                   const OocGemmOptions& opts);

} // namespace rocqr::ooc
