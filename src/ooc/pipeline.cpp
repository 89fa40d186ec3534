#include "ooc/pipeline.hpp"

#include "common/error.hpp"
#include "common/strings.hpp"
#include "ooc/engine_util.hpp"

namespace rocqr::ooc {

using sim::Event;

namespace {

std::string describe_plan(const SlabPlan& plan, const OocGemmOptions& opts) {
  std::string s = "slab-plan ";
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
  if (plan.output_slots > 0) {
    s += ", output slots ";
    append_int(s, plan.output_slots);
  } else {
    s += ", output resident (one key per group)";
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

SlabRunResult run_slab_plan(TaskGraph& g, const SlabPlan& plan) {
  ROCQR_CHECK(plan.steps > 0, "run_slab_plan: empty plan");
  ROCQR_CHECK(plan.compute != nullptr, "run_slab_plan: plan needs a compute");
  ROCQR_CHECK(plan.steps_per_group >= 1 &&
                  plan.steps % plan.steps_per_group == 0,
              "run_slab_plan: steps must be whole groups");
  ROCQR_CHECK(plan.input_slots >= 0 && plan.output_slots >= 0,
              "run_slab_plan: negative slot count");
  if (PlanLog* log = g.options().plan_log) {
    log->text += describe_plan(plan, g.options());
  }

  // Node labels: one head per node kind, completed by the step or group
  // number only when a label is rendered. Nothing per step is a string.
  const std::string stem = plan.label.empty() ? "loop" : plan.label;
  const std::uint32_t in_head = g.label_head("in " + stem + " s");
  const std::uint32_t in_out_head = g.label_head("in-out " + stem + " s");
  const std::uint32_t comp_head = g.label_head("comp " + stem + " s");
  const std::uint32_t out_head = g.label_head("out " + stem + " g");

  // Slot keys: the input pool's, and the output's (one per group when the
  // output is resident).
  const index_t groups = plan.steps / plan.steps_per_group;
  const bool pool = plan.input_slots > 0;
  const index_t out_keys = plan.output_slots > 0 ? plan.output_slots : groups;
  const HazardKey in = pool ? g.key(static_cast<size_t>(plan.input_slots))
                            : HazardKey{};
  const HazardKey out = g.key(static_cast<size_t>(out_keys));
  // Room for every node of the loop up front: growing by doubling would
  // move each node, std::function and all, once per doubling.
  const index_t nodes = plan.steps * (plan.move_in_output ? 3 : 2) +
                        (plan.move_out ? groups : 0);
  g.reserve_nodes(static_cast<size_t>(nodes));

  SlabRunResult r;
  // Move-out nodes whose group has an output region, in region order.
  std::vector<TaskId> region_nodes;
  if (plan.move_out && plan.output_region) {
    r.output_regions.reserve(static_cast<size_t>(groups));
    region_nodes.reserve(static_cast<size_t>(groups));
  }
  TaskId last_comp = -1;
  TaskId last_out = -1;

  // Step bodies capture only &plan and the step (or group), so they fit
  // std::function's local buffer and add no heap allocation per node.
  for (index_t step = 0; step < plan.steps; ++step) {
    const index_t group = step / plan.steps_per_group;
    const HazardKey in_slot =
        in + static_cast<size_t>(pool ? step % plan.input_slots : 0);
    const HazardKey out_slot = out + static_cast<size_t>(group % out_keys);
    if (pool) {
      detail::count_slab_prefetch(step >= plan.input_slots);
    } else if (plan.output_slots > 0) {
      detail::count_slab_prefetch(group >= plan.output_slots);
    }

    std::function<void(TaskCtx&)> m1_body;
    if (plan.move_in) {
      m1_body = [&plan, step](TaskCtx& t) { plan.move_in(t, step); };
    }
    const TaskId m1 =
        g.add(TaskStage::MoveIn, TaskLabel(in_head, step), std::move(m1_body),
              {writes(pool ? in_slot : out_slot)}, 0);
    if (plan.input_region) {
      if (const auto region = plan.input_region(step)) {
        g.set_input_region(m1, region->first, region->second);
      }
    }
    if (plan.move_in_output) {
      g.add(
          TaskStage::MoveIn, TaskLabel(in_out_head, step),
          [&plan, step](TaskCtx& t) { plan.move_in_output(t, step); },
          {writes(out_slot)}, 0);
    }

    auto comp_body = [&plan, step](TaskCtx& t) {
      if (step == 0) {
        for (const Event& e : plan.resident_ready) t.wait(e);
      }
      plan.compute(t, step);
    };
    last_comp = pool ? g.add(TaskStage::Compute, TaskLabel(comp_head, step),
                             comp_body, {reads(in_slot), writes(out_slot)}, 0)
                     : g.add(TaskStage::Compute, TaskLabel(comp_head, step),
                             comp_body, {writes(out_slot)}, 0);

    if (step % plan.steps_per_group == plan.steps_per_group - 1 &&
        plan.move_out) {
      last_out = g.add(
          TaskStage::MoveOut, TaskLabel(out_head, group),
          [&plan, group](TaskCtx& t) { plan.move_out(t, group); },
          {reads(out_slot)}, 0);
      if (plan.output_region) {
        if (const auto region = plan.output_region(group)) {
          r.output_regions.push_back(
              RegionEvent{region->first, region->second, Event{}});
          region_nodes.push_back(last_out);
        }
      }
    }
  }

  g.run();

  r.computed = g.done(last_comp);
  if (last_out >= 0) r.moved_out = g.done(last_out);
  for (size_t i = 0; i < region_nodes.size(); ++i) {
    r.output_regions[i].event = g.done(region_nodes[i]);
  }
  return r;
}

TaskResult run_task(TaskGraph& g, const TaskPlan& plan) {
  const std::string stem = plan.label.empty() ? "task" : plan.label;
  TaskId m = -1, c = -1, o = -1;
  if (plan.move_in || !plan.move_in_waits.empty()) {
    m = g.add(TaskStage::MoveIn, TaskLabel(g.label_head(stem + " in")),
              [&plan](TaskCtx& t) {
                for (const Event& e : plan.move_in_waits) t.wait(e);
                if (plan.move_in) plan.move_in(t);
              });
  }
  if (plan.compute) {
    // The compute chains on the move-in only when one actually ran; bare
    // move_in_waits fence the H2D stream without gating compute.
    c = g.add(TaskStage::Compute, TaskLabel(g.label_head(stem + " comp")),
              [&plan](TaskCtx& t) {
                for (const Event& e : plan.compute_waits) t.wait(e);
                plan.compute(t);
              },
              std::span<const TaskId>(&m, plan.move_in ? 1 : 0));
  }
  if (plan.move_out) {
    o = g.add(TaskStage::MoveOut, TaskLabel(g.label_head(stem + " out")),
              [&plan](TaskCtx& t) { plan.move_out(t); },
              std::span<const TaskId>(&c, c >= 0 ? 1 : 0));
  }
  g.run();

  TaskResult r;
  if (plan.move_in) r.moved_in = g.done(m);
  if (c >= 0) r.computed = g.done(c);
  if (o >= 0) r.moved_out = g.done(o);
  return r;
}

Event stage_resident(TaskGraph& g, sim::DeviceMatrixRef dst,
                     sim::HostConstRef src, sim::OpName name) {
  // Eagerly enqueued: one-shot stages keep program order relative to the
  // surrounding loops and tasks, and callers may free the host source right
  // after this returns.
  const TaskId id =
      g.add(TaskStage::MoveIn, "stage " + name.str(),
            [dst, src, name](TaskCtx& t) { t.h2d(dst, src, name); });
  g.run();
  return g.done(id);
}

ResidentInput stage_operand(TaskGraph& g, const Operand& op, sim::OpName label,
                            sim::OpName copy_name) {
  ResidentInput r;
  if (op.is_resident()) {
    r.ref = op.device_ref();
    r.ready = op.ready_event();
    return r;
  }
  r.owned = sim::ScopedMatrix(g.device(), op.rows(), op.cols(),
                              detail::input_storage(g.options()), label);
  r.ready = stage_resident(g, r.owned.get(), op.host(), copy_name);
  r.ref = sim::DeviceMatrixRef(r.owned.get());
  return r;
}

} // namespace rocqr::ooc
