// Slab loops and one-shot tasks as nodes of a caller's `ooc::TaskGraph`,
// the one executor every engine and driver in this repo runs on.
//
// A streaming engine describes its loop as a `SlabPlan` — step count,
// group size, buffer-pool depths, per-step move-in / compute / move-out
// callbacks — and `run_slab_plan` adds each step's nodes to the graph,
// declaring the pool slots they touch as hazard keys. `TaskGraph` derives
// every edge from those keys with its one rule (a write waits the slot's
// readers or last writer, a read waits its last writer), so the input-pool
// WAR fence, the §4.1.2 rotating output pair and the accumulator drain are
// not wired by hand:
//
//   per step s of group g (in = the input pool, out = the output slots):
//     in     streamed move-in  writes in[s % input_slots]
//                              (no input pool: writes out[g % output_slots])
//     in-out output move-in    writes out[g % output_slots]
//     comp   compute           reads in[s % input_slots] (with a pool),
//                              writes out[g % output_slots]
//   per group g:
//     out    move-out          reads out[g % output_slots]
//
// With output_slots = 0 the output is resident and each group writes its
// own block (the blocking inner product's C), so each group has its own
// key and nothing fences on the output.
//
// Nodes are added in program order with one priority and every derived
// edge points backward, so the executor enqueues them in id order: the
// device sees the same op/wait sequence as the hand-rolled loops
// (tests/schedule_golden_test.cpp and tests/ooc_pipeline_lowering_test.cpp
// pin the timelines).
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

namespace rocqr::ooc {

/// Declarative description of one streaming loop. All callbacks receive the
/// flat step index (or the group index); engines derive (group, local,
/// buffer slot) themselves so buffer rotation stays next to the buffers it
/// rotates.
struct SlabPlan {
  /// Short engine tag used in node labels and the plan line of a PlanLog.
  std::string label;
  index_t steps = 0;
  /// Streamed-input buffer-pool depth; 0 = no input pool (resident inputs;
  /// the streamed move-in then fills the step's output slot).
  int input_slots = 0;
  /// Output working-set depth: the §4.1.2 staging pair = 2, the
  /// single-buffer baseline = 1, and 0 = a resident output whose groups
  /// write disjoint blocks (one key per group, no output fence).
  index_t output_slots = 0;
  /// Steps per move-out group (recursive inner product: k-slabs per C
  /// panel; everyone else: 1).
  index_t steps_per_group = 1;
  /// Waited (valid-checked) on the compute stream before the loop's first
  /// compute — resident operands staged on the H2D stream.
  std::vector<sim::Event> resident_ready;
  /// Region rectangle this step's streamed move-in reads, in the engine's
  /// local coordinates; waits every intersecting opts.streamed_input_regions
  /// event (§4.2). Return nullopt for no region gating.
  std::function<std::optional<std::pair<Slab, Slab>>(index_t step)>
      input_region;
  /// Streamed-input move-in.
  std::function<void(TaskCtx&, index_t step)> move_in;
  /// Output move-in (the outer products' beta != 0 C slab), after
  /// `move_in` on the same stream.
  std::function<void(TaskCtx&, index_t step)> move_in_output;
  std::function<void(TaskCtx&, index_t step)> compute;
  /// Per-group drain, after the group's last compute.
  std::function<void(TaskCtx&, index_t group)> move_out;
  /// Host region the group's move-out wrote (becomes a RegionEvent).
  std::function<std::optional<std::pair<Slab, Slab>>(index_t group)>
      output_region;
};

struct SlabRunResult {
  sim::Event computed;  ///< the loop's last compute
  sim::Event moved_out; ///< the last move-out; invalid without move_out
  std::vector<RegionEvent> output_regions;
};

/// Adds `plan`'s nodes to `g` with fresh slot keys and runs the graph.
/// Counts one slab-prefetch hit or miss per step: a pool step misses when
/// s >= input_slots, a step without a pool when g >= output_slots. With
/// opts.plan_log set, appends a one-line description of the plan to its
/// text. `plan` must outlive the call only.
SlabRunResult run_slab_plan(TaskGraph& g, const SlabPlan& plan);

/// One-shot three-stage task (panel move-in / factor / drain) on the
/// graph's streams. Stages are optional; present stages chain
/// in -> comp -> out through graph edges exactly like one slab step.
struct TaskPlan {
  std::vector<sim::Event> move_in_waits; ///< valid-checked, on the H2D stream
  std::function<void(TaskCtx&)> move_in;
  std::vector<sim::Event> compute_waits; ///< valid-checked, on compute
  std::function<void(TaskCtx&)> compute;
  std::function<void(TaskCtx&)> move_out; ///< after the compute
  /// Node-label stem in the graph (--explain-plan=dot, DeviceLost
  /// attribution). Defaults to "task".
  std::string label;
};

struct TaskResult {
  sim::Event moved_in;  ///< invalid if the task had no move-in stage
  sim::Event computed;  ///< invalid if the task had no compute stage
  sim::Event moved_out; ///< invalid if the task had no move-out stage
};

/// Adds `plan`'s stages to `g` and runs the graph.
TaskResult run_task(TaskGraph& g, const TaskPlan& plan);

/// Stages a resident operand: H2D on the graph's move-in stream, enqueued
/// at once (callers may free the host source right after), returning the
/// event marking its readiness (a resident_ready candidate).
sim::Event stage_resident(TaskGraph& g, sim::DeviceMatrixRef dst,
                          sim::HostConstRef src, sim::OpName name);

/// A resident operand of a slab loop: either the caller's device matrix or
/// a host operand staged once through the graph's H2D stream.
struct ResidentInput {
  sim::DeviceMatrixRef ref;
  sim::ScopedMatrix owned; ///< set when staged here; freed on scope exit
  sim::Event ready{};
};

/// Stages `op` unless it is already device-resident. `label` names the
/// allocation, `copy_name` the H2D trace op.
ResidentInput stage_operand(TaskGraph& g, const Operand& op, sim::OpName label,
                            sim::OpName copy_name);

} // namespace rocqr::ooc
