// Declarative slab-pipeline frontend — a thin lowering layer over the
// task-DAG executor (`ooc::TaskGraph`), which owns the three-stream
// out-of-core schedule every engine in this repo uses.
//
// An engine used to hand-roll: stream creation, the streamed-input
// buffer-pool fence (wait the GEMM that last read slot s%depth), the
// staging-buffer output-slot fence (§4.1.2), `host_input_ready` waits,
// region-intersection waits (§4.2 cross-operation pipelining), per-site
// retry/ABFT/sync_if, and the slab-prefetch counters. Now it builds a
// `SlabPlan` — buffer depths, fence kind, per-step move-in/compute/move-out
// callbacks — and `SlabPipeline::run` *compiles* it into task-graph nodes:
// each step lowers to a linear move-in -> compute (-> move-out) chain, and
// the fence taxonomy lowers to explicit WAR edges against earlier nodes
// (input pool -> edge to the compute `input_slots` steps back; output slot
// -> edge to the move-out `output_slots` groups back, landing on the
// move-in or compute node per the fence kind). The lowering is
// schedule-preserving by construction: nodes are added in the legacy
// program order with equal priority, the executor enqueues ready nodes in
// id order, and same-stream edges ride the stream FIFO — so the device
// sees the same operations in the same order with the same event
// dependencies as the hand-rolled loops (see
// tests/schedule_golden_test.cpp and tests/ooc_pipeline_lowering_test.cpp,
// which pin the resulting timelines).
//
// Stage model (docs/ARCHITECTURE.md has the long-form description):
//
//   per step:  [input-pool fence | counted output fence]
//              -> region waits -> streamed move-in -> output-slot fence
//              -> output move-in -> moved_in event -> compute waits
//              -> compute -> compute event
//   per group: -> move-out fence -> move-out -> out event -> RegionEvent
//
// One-shot stages (a resident operand, a panel factorization, a staged
// triangle) run through `stage_resident` / `run_task` as eagerly-enqueued
// nodes on the same graph, so drivers compose slab loops with panel tasks
// without touching `dev.create_stream()` / `dev.record_event()` themselves.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ooc/gemm_engines.hpp"
#include "ooc/task_graph.hpp"
#include "sim/device.hpp"
#include "sim/scoped_matrix.hpp"
#include "sim/trace_export.hpp"

namespace rocqr::ooc {

class SlabPipeline;

/// Move-in stage handle: host-to-device transfers on the pipeline's H2D
/// stream, with transfer retry and synchronous-mode serialization applied.
/// A thin rename of the underlying TaskCtx, kept so engine callbacks read
/// in stage vocabulary.
class MoveInCtx {
 public:
  void h2d(sim::DeviceMatrixRef dst, sim::HostConstRef src, sim::OpName name) {
    t_.h2d(dst, src, name);
  }
  /// Extra per-step dependency of the move-in (valid-checked).
  void wait(const sim::Event& e) { t_.wait(e); }

 private:
  friend class SlabPipeline;
  explicit MoveInCtx(TaskCtx& t) : t_(t) {}
  TaskCtx& t_;
};

/// Compute stage handle: GEMM/TRSM on the pipeline's compute stream (with
/// the opt-in ABFT check), plus an escape hatch for panel kernels that
/// enqueue custom compute ops themselves.
class ComputeCtx {
 public:
  void gemm(blas::Op opa, blas::Op opb, float alpha, sim::DeviceMatrixRef a,
            sim::DeviceMatrixRef b, float beta, sim::DeviceMatrixRef c,
            sim::OpName name) {
    t_.gemm(opa, opb, alpha, a, b, beta, c, name);
  }
  void trsm(sim::Device::TrsmKind kind, sim::DeviceMatrixRef tri,
            sim::DeviceMatrixRef b, sim::OpName name) {
    t_.trsm(kind, tri, b, name);
  }
  void wait(const sim::Event& e) { t_.wait(e); }
  /// The compute stream, for panel factorization kernels
  /// (panel_qr_device & co.) that enqueue their own custom ops.
  sim::Stream stream() const { return t_.stream(); }
  /// Records an event on the compute stream, fences the move-out stream on
  /// it, and enqueues the device-to-host copy there — the "drain an
  /// intermediate while compute continues" idiom of the recursive drivers.
  sim::Event emit(sim::HostMutRef dst, sim::DeviceMatrixRef src,
                  sim::OpName name) {
    return t_.emit(dst, src, name);
  }

 private:
  friend class SlabPipeline;
  explicit ComputeCtx(TaskCtx& t) : t_(t) {}
  TaskCtx& t_;
};

/// Move-out stage handle: device-to-host transfers on the D2H stream.
class MoveOutCtx {
 public:
  void d2h(sim::HostMutRef dst, sim::DeviceMatrixRef src, sim::OpName name) {
    t_.d2h(dst, src, name);
  }
  void wait(const sim::Event& e) { t_.wait(e); }

 private:
  friend class SlabPipeline;
  explicit MoveOutCtx(TaskCtx& t) : t_(t) {}
  TaskCtx& t_;
};

/// How a step's move-in is fenced against the output working set.
enum class OutputFence {
  /// No output-slot fence (the blocking inner product: C is fully
  /// resident, every slab writes a disjoint column block).
  None,
  /// Move-in waits the move-out that last used this output slot
  /// (the recursive/colwise outer products' §4.1.2 rotating C pair; the
  /// streamed-input pool fence does the prefetch accounting).
  MoveIn,
  /// Same fence, but it IS the prefetch account — engines with no
  /// streamed-input pool (blocking outer product, trsm base case) count
  /// hit/miss on the output slot instead.
  MoveInCounted,
  /// The fence lands on the compute stream at each group's first step:
  /// the accumulator slot must have drained before the group's first
  /// beta=0 GEMM overwrites it (the recursive inner product's C panels).
  Compute,
};

/// Declarative description of one streaming loop. All callbacks receive the
/// flat step index; engines derive (group, local, buffer slot) themselves so
/// buffer rotation stays next to the buffers it rotates.
struct SlabPlan {
  /// Short engine tag used in the plan description (--explain-plan).
  std::string label;
  index_t steps = 0;
  /// Streamed-input buffer-pool depth; 0 = no input pool (resident inputs).
  /// The fence indexes the pipeline's persistent compute history, so a
  /// plan's first steps also fence against the previous run()'s computes.
  int input_slots = 0;
  OutputFence output_fence = OutputFence::None;
  /// Output working-set depth (the §4.1.2 staging pair = 2, baseline = 1).
  index_t output_slots = 1;
  /// Steps per move-out group (recursive inner product: k-slabs per C
  /// panel; everyone else: 1).
  index_t steps_per_group = 1;
  /// Waited (valid-checked) on the compute stream before the run's first
  /// compute — resident operands staged on the H2D stream.
  std::vector<sim::Event> resident_ready;
  /// Region rectangle this step's streamed move-in reads, in the engine's
  /// local coordinates; waits every intersecting opts.streamed_input_regions
  /// event (§4.2). Return nullopt for no region gating.
  std::function<std::optional<std::pair<Slab, Slab>>(index_t step)>
      input_region;
  /// Streamed-input move-in (fenced by the input pool / counted fence).
  std::function<void(MoveInCtx&, index_t step)> move_in;
  /// Output move-in (fenced by the output-slot fence; the outer products'
  /// beta != 0 C slab). Runs after `move_in` on the same stream.
  std::function<void(MoveInCtx&, index_t step)> move_in_output;
  std::function<void(ComputeCtx&, index_t step)> compute;
  /// Per-group drain; fenced behind the group's last compute event.
  std::function<void(MoveOutCtx&, index_t group)> move_out;
  /// Host region the group's move-out wrote (becomes a RegionEvent).
  std::function<std::optional<std::pair<Slab, Slab>>(index_t group)>
      output_region;
};

struct SlabRunResult {
  std::vector<sim::Event> compute_done; ///< one per step
  std::vector<sim::Event> out_done;     ///< one per group with a move-out
  std::vector<RegionEvent> output_regions;
};

/// One-shot three-stage task (panel move-in / factor / drain) on the same
/// streams as the slab loops. Stages are optional; present stages chain
/// in -> comp -> out through graph edges exactly like one slab step.
struct TaskPlan {
  std::vector<sim::Event> move_in_waits; ///< valid-checked, on the H2D stream
  std::function<void(MoveInCtx&)> move_in;
  std::vector<sim::Event> compute_waits; ///< valid-checked, on compute
  std::function<void(ComputeCtx&)> compute;
  std::function<void(MoveOutCtx&)> move_out; ///< fenced behind the compute
  /// Node-label stem in the lowered graph (--explain-plan=dot,
  /// DeviceLost attribution). Defaults to "task".
  std::string label;
};

struct TaskResult {
  sim::Event moved_in;  ///< invalid if the task had no move-in stage
  sim::Event computed;  ///< invalid if the task had no compute stage
  sim::Event moved_out; ///< invalid if the task had no move-out stage
};

class SlabPipeline {
 public:
  /// Creates the underlying task graph (in/compute/out streams in that
  /// order — stream numbering is part of the preserved schedule), opens an
  /// optional trace span, and fences the H2D stream on `wait_before` plus
  /// opts.host_input_ready. `opts` must already be validated (engines call
  /// OocGemmOptions::validate() at their public entry, before OOM
  /// degradation re-plans can legitimately shrink the slab knobs).
  SlabPipeline(sim::Device& dev, const OocGemmOptions& opts,
               std::string span_name = {},
               std::vector<sim::Event> wait_before = {});

  SlabPipeline(const SlabPipeline&) = delete;
  SlabPipeline& operator=(const SlabPipeline&) = delete;

  /// Stages a resident operand: H2D on the move-in stream, returning the
  /// event marking its readiness (a resident_ready candidate).
  sim::Event stage_resident(sim::DeviceMatrixRef dst, sim::HostConstRef src,
                            sim::OpName name);

  SlabRunResult run(const SlabPlan& plan);
  TaskResult run_task(const TaskPlan& plan);

  /// Trace index at construction — the engine's stats window.
  size_t window_begin() const { return graph_.window_begin(); }

  /// Human-readable summary of every plan this pipeline ran, followed by
  /// the lowered task-graph form (node/edge/fence-edge counts);
  /// empty until the first run().
  std::string plan_description() const;

  /// Graphviz dump of the lowered graph (--explain-plan=dot).
  std::string dot(const std::string& graph_name = "slab-pipeline") const {
    return graph_.dot(graph_name);
  }

  /// The task graph this pipeline lowers onto. Exposed for equivalence
  /// tests; engines should speak SlabPlan/TaskPlan.
  const TaskGraph& graph() const { return graph_; }

  sim::Device& device() { return graph_.device(); }
  const OocGemmOptions& options() const { return graph_.options(); }

 private:
  TaskGraph graph_;
  /// Compute node of every run() step, across runs — the streamed-input
  /// pool fence indexes it globally, so a run's move-ins also wait for the
  /// previous runs' computes to release their slots.
  std::vector<TaskId> history_;
  std::string plan_description_;
};

/// A resident operand of a slab loop: either the caller's device matrix or
/// a host operand staged once through the pipeline's H2D stream.
struct ResidentInput {
  sim::DeviceMatrixRef ref;
  sim::ScopedMatrix owned; ///< set when staged here; freed on scope exit
  sim::Event ready{};
};

/// Stages `op` unless it is already device-resident. `label` names the
/// allocation, `copy_name` the H2D trace op.
ResidentInput stage_operand(SlabPipeline& p, const Operand& op,
                            sim::OpName label, sim::OpName copy_name);

} // namespace rocqr::ooc
