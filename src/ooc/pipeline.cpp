#include "ooc/pipeline.hpp"

#include "common/error.hpp"
#include "common/strings.hpp"
#include "ooc/engine_util.hpp"
#include "ooc/resilience.hpp"

namespace rocqr::ooc {

using sim::Event;

SlabPipeline::SlabPipeline(sim::Device& dev, const OocGemmOptions& opts,
                           std::string span_name,
                           std::vector<Event> wait_before)
    : graph_(dev, opts, std::move(span_name), std::move(wait_before)) {}

Event SlabPipeline::stage_resident(sim::DeviceMatrixRef dst,
                                   sim::HostConstRef src, sim::OpName name) {
  // Eagerly enqueued: one-shot stages must keep the legacy program order
  // relative to surrounding run()/run_task() calls, and callers may free
  // the host source right after this returns.
  const TaskId id = graph_.add(
      TaskStage::MoveIn, "stage " + name.str(),
      [dst, src, name](TaskCtx& t) { t.h2d(dst, src, name); });
  graph_.run();
  return graph_.done(id);
}

namespace {

std::string describe_plan(const SlabPlan& plan, const OocGemmOptions& opts) {
  std::string s = "slab-pipeline ";
  s += plan.label.empty() ? "loop" : plan.label;
  s += ": ";
  append_int(s, plan.steps);
  s += " step(s)";
  if (plan.steps_per_group > 1) {
    s += " in groups of ";
    append_int(s, plan.steps_per_group);
  }
  if (plan.input_slots > 0) {
    s += ", input pool ";
    append_int(s, plan.input_slots);
    s += " slot(s)";
  } else {
    s += ", no streamed-input pool";
  }
  switch (plan.output_fence) {
    case OutputFence::None:
      s += ", output resident (no slot fence)";
      break;
    case OutputFence::MoveIn:
      s += ", output slots ";
      append_int(s, plan.output_slots);
      s += " (move-in fence)";
      break;
    case OutputFence::MoveInCounted:
      s += ", output slots ";
      append_int(s, plan.output_slots);
      s += " (move-in fence, counted)";
      break;
    case OutputFence::Compute:
      s += ", output slots ";
      append_int(s, plan.output_slots);
      s += " (compute fence)";
      break;
  }
  s += ", ";
  append_int(s, static_cast<std::int64_t>(plan.resident_ready.size()));
  s += " resident operand(s), regions ";
  s += plan.input_region ? "on" : "off";
  s += ", blocksize ";
  append_int(s, opts.blocksize);
  if (opts.tile_cols > 0) {
    s += " x ";
    append_int(s, opts.tile_cols);
  }
  s += ", ramp ";
  if (opts.ramp_up) {
    s += "from ";
    append_int(s, opts.ramp_start);
  } else {
    s += "off";
  }
  s += ", staging ";
  s += opts.staging_buffer ? "on" : "off";
  s += ", depth ";
  append_int(s, opts.pipeline_depth);
  if (opts.synchronous) s += ", SYNCHRONOUS";
  if (opts.abft) s += ", abft";
  s += "\n";
  return s;
}

} // namespace

// Lowering: each step becomes (up to) four nodes added in the legacy
// program order —
//
//   M1  streamed move-in; dep = the input-pool fence (compute node
//       `input_slots` global steps back) or the counted output-slot fence
//       (move-out node `output_slots` groups back); carries the §4.2
//       input region.
//   M2  output move-in; dep = M1 (same-stream FIFO) + the §4.1.2
//       output-slot fence (move-out node `output_slots` groups back).
//       Present when there is an output move-in or a MoveIn fence to
//       place between the two transfers.
//   C   compute; dep = the last move-in node, + the accumulator fence
//       (move-out node, per-group first step) for Compute-fenced plans.
//       First step waits the resident_ready events in its body.
//   O   per-group move-out; dep = the group's last compute.
//
// All nodes share priority 0 and every edge points backward, so the
// executor enqueues them in exactly this order: the device sees the same
// op/wait sequence the legacy interleaved loop produced (pinned by
// tests/schedule_golden_test.cpp and ooc_pipeline_lowering_test.cpp).
SlabRunResult SlabPipeline::run(const SlabPlan& plan) {
  ROCQR_CHECK(plan.steps > 0, "SlabPipeline: empty plan");
  ROCQR_CHECK(plan.compute != nullptr, "SlabPipeline: plan needs a compute");
  ROCQR_CHECK(plan.steps_per_group >= 1 &&
                  plan.steps % plan.steps_per_group == 0,
              "SlabPipeline: steps must be whole groups");
  ROCQR_CHECK(plan.output_slots >= 1, "SlabPipeline: output_slots < 1");
  ROCQR_CHECK(plan.output_fence == OutputFence::None || plan.move_out,
              "SlabPipeline: an output-slot fence waits the move-outs, so "
              "the plan needs a move_out");
  plan_description_ += describe_plan(plan, options());

  // Node labels: one head per node kind, completed by the step or group
  // number only when a label is rendered. Nothing per step is a string.
  const std::string stem = plan.label.empty() ? "loop" : plan.label;
  const std::uint32_t in_head = graph_.label_head("in " + stem + " s");
  const std::uint32_t in_out_head = graph_.label_head("in-out " + stem + " s");
  const std::uint32_t comp_head = graph_.label_head("comp " + stem + " s");
  const std::uint32_t out_head = graph_.label_head("out " + stem + " g");

  // This run's compute nodes are history_[first_step, first_step + steps).
  const size_t first_step = history_.size();
  // Sized up front: one allocation each per plan, not one per doubling.
  std::vector<TaskId> out_ids;
  std::vector<std::optional<std::pair<Slab, Slab>>> out_regions;
  if (plan.move_out) {
    out_ids.reserve(static_cast<size_t>(plan.steps / plan.steps_per_group));
    out_regions.reserve(out_ids.capacity());
  }

  // Step bodies capture only &plan and the step (or group), so they fit
  // std::function's local buffer and add no heap allocation per node.
  for (index_t step = 0; step < plan.steps; ++step) {
    const index_t group = step / plan.steps_per_group;
    const index_t local = step % plan.steps_per_group;

    // Streamed-input pool fence: the slot this step rotates into was last
    // read by the compute `input_slots` global steps ago; the move-in may
    // not overwrite it earlier. The history spans run() calls, so a run's
    // first steps wait for the slots the previous run's computes still
    // read. Without a pool, the counted output-slot fence is the prefetch
    // account (blocking outer product, trsm base case).
    TaskId m1_dep = -1;
    const index_t g_hist = static_cast<index_t>(history_.size());
    if (plan.input_slots > 0) {
      detail::count_slab_prefetch(g_hist >= plan.input_slots);
      if (g_hist >= plan.input_slots) {
        m1_dep = history_[static_cast<size_t>(g_hist - plan.input_slots)];
      }
    } else if (plan.output_fence == OutputFence::MoveInCounted) {
      detail::count_slab_prefetch(group >= plan.output_slots);
      if (group >= plan.output_slots) {
        m1_dep = out_ids[static_cast<size_t>(group - plan.output_slots)];
      }
    }

    std::function<void(TaskCtx&)> m1_body;
    if (plan.move_in) {
      m1_body = [&plan, step](TaskCtx& t) {
        MoveInCtx c(t);
        plan.move_in(c, step);
      };
    }
    const TaskId m1 =
        graph_.add(TaskStage::MoveIn, TaskLabel(in_head, step),
                   std::move(m1_body),
                   std::span<const TaskId>(&m1_dep, m1_dep >= 0 ? 1 : 0));
    if (plan.input_region) {
      if (const auto region = plan.input_region(step)) {
        graph_.set_input_region(m1, region->first, region->second);
      }
    }

    // §4.1.2 output-slot fence: the working buffer this step's output
    // move-in (and GEMM) reuses must have drained `output_slots` groups
    // ago — one group with the single-buffer baseline, two with the
    // rotating staging pair. The fence lands between the streamed and the
    // output move-in, hence the node split.
    TaskId m_last = m1;
    const bool movein_fence =
        plan.output_fence == OutputFence::MoveIn && group >= plan.output_slots;
    if (plan.move_in_output || movein_fence) {
      const TaskId m2_deps[2] = {
          m1, movein_fence
                  ? out_ids[static_cast<size_t>(group - plan.output_slots)]
                  : -1};
      std::function<void(TaskCtx&)> m2_body;
      if (plan.move_in_output) {
        m2_body = [&plan, step](TaskCtx& t) {
          MoveInCtx c(t);
          plan.move_in_output(c, step);
        };
      }
      m_last = graph_.add(
          TaskStage::MoveIn, TaskLabel(in_out_head, step), std::move(m2_body),
          std::span<const TaskId>(m2_deps, movein_fence ? 2 : 1));
    }

    // Accumulator fence: the group's first (beta = 0) compute overwrites an
    // output slot whose previous group must have drained.
    const bool compute_fence = plan.output_fence == OutputFence::Compute &&
                               local == 0 && group >= plan.output_slots;
    const TaskId c_deps[2] = {
        m_last, compute_fence
                    ? out_ids[static_cast<size_t>(group - plan.output_slots)]
                    : -1};
    const TaskId cid = graph_.add(
        TaskStage::Compute, TaskLabel(comp_head, step),
        [&plan, step](TaskCtx& t) {
          if (step == 0) {
            for (const Event& e : plan.resident_ready) t.wait(e);
          }
          ComputeCtx c(t);
          plan.compute(c, step);
        },
        std::span<const TaskId>(c_deps, compute_fence ? 2 : 1));
    history_.push_back(cid);

    if (local == plan.steps_per_group - 1 && plan.move_out) {
      const TaskId oid = graph_.add(
          TaskStage::MoveOut, TaskLabel(out_head, group),
          [&plan, group](TaskCtx& t) {
            MoveOutCtx c(t);
            plan.move_out(c, group);
          },
          std::span<const TaskId>(&cid, 1));
      out_ids.push_back(oid);
      out_regions.push_back(plan.output_region ? plan.output_region(group)
                                               : std::nullopt);
    }
  }

  graph_.run();

  SlabRunResult r;
  r.compute_done.reserve(static_cast<size_t>(plan.steps));
  for (size_t i = first_step; i < history_.size(); ++i) {
    r.compute_done.push_back(graph_.done(history_[i]));
  }
  r.out_done.reserve(out_ids.size());
  for (size_t g = 0; g < out_ids.size(); ++g) {
    const Event out_ev = graph_.done(out_ids[g]);
    r.out_done.push_back(out_ev);
    if (out_regions[g]) {
      r.output_regions.push_back(
          RegionEvent{out_regions[g]->first, out_regions[g]->second, out_ev});
    }
  }
  return r;
}

TaskResult SlabPipeline::run_task(const TaskPlan& plan) {
  const std::string stem = plan.label.empty() ? "task" : plan.label;
  TaskResult r;

  TaskId m = -1, c = -1, o = -1;
  if (plan.move_in || !plan.move_in_waits.empty()) {
    m = graph_.add(TaskStage::MoveIn, stem + " in", [&plan](TaskCtx& t) {
      for (const Event& e : plan.move_in_waits) t.wait(e);
      if (plan.move_in) {
        MoveInCtx mc(t);
        plan.move_in(mc);
      }
    });
  }
  if (plan.compute) {
    // The compute chains on the move-in only when one actually ran; bare
    // move_in_waits fence the H2D stream without gating compute.
    std::vector<TaskId> deps;
    if (plan.move_in) deps.push_back(m);
    c = graph_.add(
        TaskStage::Compute, stem + " comp",
        [&plan](TaskCtx& t) {
          for (const Event& e : plan.compute_waits) t.wait(e);
          ComputeCtx cc(t);
          plan.compute(cc);
        },
        std::move(deps));
  }
  if (plan.move_out) {
    std::vector<TaskId> deps;
    if (c >= 0) deps.push_back(c);
    o = graph_.add(
        TaskStage::MoveOut, stem + " out",
        [&plan](TaskCtx& t) {
          MoveOutCtx mc(t);
          plan.move_out(mc);
        },
        std::move(deps));
  }
  graph_.run();

  if (plan.move_in && m >= 0) r.moved_in = graph_.done(m);
  if (c >= 0) r.computed = graph_.done(c);
  if (o >= 0) r.moved_out = graph_.done(o);
  return r;
}

std::string SlabPipeline::plan_description() const {
  std::string description = plan_description_;
  const std::string lowered = graph_.plan_description();
  if (!lowered.empty()) description += lowered + "\n";
  return description;
}

ResidentInput stage_operand(SlabPipeline& p, const Operand& op,
                            sim::OpName label, sim::OpName copy_name) {
  ResidentInput r;
  if (op.is_resident()) {
    r.ref = op.device_ref();
    r.ready = op.ready_event();
    return r;
  }
  r.owned = sim::ScopedMatrix(p.device(), op.rows(), op.cols(),
                              detail::input_storage(p.options()), label);
  r.ready = p.stage_resident(r.owned.get(), op.host(), copy_name);
  r.ref = sim::DeviceMatrixRef(r.owned.get());
  return r;
}

} // namespace rocqr::ooc
