// A declarative SlabPlan lowers onto a caller's TaskGraph: run_slab_plan
// adds each step's nodes with the pool slots they touch declared as hazard
// keys, and the graph derives every edge. This suite pins the lowering
// contract directly — a slab loop produces the *same device timeline* as
// the hand-built task graph it documents itself as compiling to, the slot
// keys put the fences on the right nodes, and every graph reports its form
// through PlanLog (--explain-plan's single chokepoint).
#include <gtest/gtest.h>

#include "leak_check.hpp"

#include <string>
#include <vector>

#include "ooc/pipeline.hpp"
#include "ooc/task_graph.hpp"
#include "qr/factorize.hpp"
#include "sim/device.hpp"

namespace rocqr {
namespace {

using sim::Device;
using sim::ExecutionMode;

constexpr index_t kB = 4096;
constexpr index_t kSteps = 4;

ooc::OocGemmOptions small_options() {
  ooc::OocGemmOptions opts;
  opts.blocksize = kB;
  return opts;
}

/// The shared loop body: stream a slab into a depth-2 pool, square it into
/// an accumulator, drain the accumulator — op names identical in both the
/// SlabPlan and the hand-built mirror so the traces can be compared.
struct LoopBuffers {
  explicit LoopBuffers(Device& dev)
      : pool{dev.allocate(kB, kB, sim::StoragePrecision::FP32),
             dev.allocate(kB, kB, sim::StoragePrecision::FP32)},
        acc(dev.allocate(kB, kB, sim::StoragePrecision::FP32)) {}
  sim::DeviceMatrix pool[2];
  sim::DeviceMatrix acc;
  sim::HostConstRef in = sim::HostConstRef::phantom(kB, kB);
  sim::HostMutRef out = sim::HostMutRef::phantom(kB, kB);

  void release(Device& dev) {
    dev.free(acc);
    dev.free(pool[1]);
    dev.free(pool[0]);
  }
};

/// The shared loop as a SlabPlan over `b`: a depth-2 input pool and a
/// resident output (each group its own key).
ooc::SlabPlan loop_plan(LoopBuffers& b) {
  ooc::SlabPlan plan;
  plan.label = "eq";
  plan.steps = kSteps;
  plan.input_slots = 2;
  plan.move_in = [&b](ooc::TaskCtx& c, index_t s) {
    c.h2d(sim::DeviceMatrixRef(b.pool[s % 2]), b.in,
          "h2d " + std::to_string(s));
  };
  plan.compute = [&b](ooc::TaskCtx& c, index_t s) {
    c.gemm(blas::Op::NoTrans, blas::Op::NoTrans, 1.0f,
           sim::DeviceMatrixRef(b.pool[s % 2]),
           sim::DeviceMatrixRef(b.pool[s % 2]), 0.0f,
           sim::DeviceMatrixRef(b.acc), "gemm " + std::to_string(s));
  };
  plan.move_out = [&b](ooc::TaskCtx& c, index_t g) {
    c.d2h(b.out, sim::DeviceMatrixRef(b.acc), "d2h " + std::to_string(g));
  };
  return plan;
}

std::vector<sim::TraceEvent> run_via_pipeline(Device& dev) {
  LoopBuffers b(dev);
  {
    ooc::TaskGraph g(dev, small_options());
    ooc::run_slab_plan(g, loop_plan(b));
  }
  dev.synchronize();
  b.release(dev);
  return dev.trace().events();
}

std::vector<sim::TraceEvent> run_via_hand_built_graph(Device& dev) {
  LoopBuffers b(dev);
  {
    ooc::TaskGraph g(dev, small_options());
    std::vector<ooc::TaskId> computes;
    for (index_t s = 0; s < kSteps; ++s) {
      // The documented lowering: M1's only dep is the input-pool WAR fence
      // (the compute two steps back), C chains on M1, O on C.
      std::vector<ooc::TaskId> m1_deps;
      if (s >= 2) m1_deps.push_back(computes[static_cast<size_t>(s - 2)]);
      const ooc::TaskId m1 = g.add(
          ooc::TaskStage::MoveIn, "in eq s" + std::to_string(s),
          [&b, s](ooc::TaskCtx& t) {
            t.h2d(sim::DeviceMatrixRef(b.pool[s % 2]), b.in,
                  "h2d " + std::to_string(s));
          },
          std::move(m1_deps));
      const ooc::TaskId c = g.add(
          ooc::TaskStage::Compute, "comp eq s" + std::to_string(s),
          [&b, s](ooc::TaskCtx& t) {
            t.gemm(blas::Op::NoTrans, blas::Op::NoTrans, 1.0f,
                   sim::DeviceMatrixRef(b.pool[s % 2]),
                   sim::DeviceMatrixRef(b.pool[s % 2]), 0.0f,
                   sim::DeviceMatrixRef(b.acc), "gemm " + std::to_string(s));
          },
          {m1});
      computes.push_back(c);
      g.add(
          ooc::TaskStage::MoveOut, "out eq g" + std::to_string(s),
          [&b, s](ooc::TaskCtx& t) {
            t.d2h(b.out, sim::DeviceMatrixRef(b.acc),
                  "d2h " + std::to_string(s));
          },
          {c});
    }
    g.run();
  }
  dev.synchronize();
  b.release(dev);
  return dev.trace().events();
}

TEST(SlabPipelineLowering, LoopLowersToTheDocumentedTaskGraph) {
  // The equivalence pin: the declarative loop and its hand-built task-graph
  // mirror produce identical device timelines — same ops, same order, same
  // start/end times. The lowering adds nothing and reorders nothing.
  Device pipe_dev(sim::DeviceSpec::v100_32gb(), ExecutionMode::Phantom);
  Device graph_dev(sim::DeviceSpec::v100_32gb(), ExecutionMode::Phantom);
  const auto pipe_events = run_via_pipeline(pipe_dev);
  const auto graph_events = run_via_hand_built_graph(graph_dev);

  ASSERT_EQ(pipe_events.size(), graph_events.size());
  for (size_t i = 0; i < pipe_events.size(); ++i) {
    EXPECT_EQ(pipe_events[i].name, graph_events[i].name) << "event " << i;
    EXPECT_EQ(pipe_events[i].start, graph_events[i].start) << "event " << i;
    EXPECT_EQ(pipe_events[i].end, graph_events[i].end) << "event " << i;
  }
}

TEST(SlabPipelineLowering, InputPoolFenceDelaysOverwritingMoveIn) {
  // Depth-2 pool: the move-in of step s reuses the buffer the compute of
  // step s-2 read, so "h2d 2" may not start before "gemm 0" ends.
  Device dev(sim::DeviceSpec::v100_32gb(), ExecutionMode::Phantom);
  const auto events = run_via_pipeline(dev);
  double gemm0_end = -1, h2d2_start = -1;
  for (const auto& e : events) {
    if (e.name == "gemm 0") gemm0_end = e.end;
    if (e.name == "h2d 2") h2d2_start = e.start;
  }
  ASSERT_GE(gemm0_end, 0.0);
  ASSERT_GE(h2d2_start, 0.0);
  EXPECT_GE(h2d2_start, gemm0_end);
}

TEST(SlabPipelineLowering, SynchronousModeSerializesTheLoop) {
  // opts.synchronous inserts full-device ordering between stages; the
  // async pipeline must strictly beat it on the same plan.
  Device async_dev(sim::DeviceSpec::v100_32gb(), ExecutionMode::Phantom);
  run_via_pipeline(async_dev);
  const double async_makespan = async_dev.makespan();

  Device sync_dev(sim::DeviceSpec::v100_32gb(), ExecutionMode::Phantom);
  LoopBuffers b(sync_dev);
  {
    ooc::OocGemmOptions opts = small_options();
    opts.synchronous = true;
    ooc::TaskGraph g(sync_dev, opts);
    ooc::run_slab_plan(g, loop_plan(b));
  }
  sync_dev.synchronize();
  b.release(sync_dev);
  EXPECT_LT(async_makespan, sync_dev.makespan());
}

TEST(SlabPipelineLowering, MoveOutWaitsTheGroupsLastCompute) {
  // steps_per_group = 2: one drain per group, fenced behind the group's
  // *last* compute, not its first.
  Device dev(sim::DeviceSpec::v100_32gb(), ExecutionMode::Phantom);
  LoopBuffers b(dev);
  {
    ooc::TaskGraph graph(dev, small_options());
    ooc::SlabPlan plan;
    plan.label = "grp";
    plan.steps = kSteps;
    plan.steps_per_group = 2;
    plan.input_slots = 2;
    plan.move_in = [&](ooc::TaskCtx& c, index_t s) {
      c.h2d(sim::DeviceMatrixRef(b.pool[s % 2]), b.in,
            "h2d " + std::to_string(s));
    };
    plan.compute = [&](ooc::TaskCtx& c, index_t s) {
      c.gemm(blas::Op::NoTrans, blas::Op::NoTrans, 1.0f,
             sim::DeviceMatrixRef(b.pool[s % 2]),
             sim::DeviceMatrixRef(b.pool[s % 2]),
             s % 2 == 0 ? 0.0f : 1.0f, sim::DeviceMatrixRef(b.acc),
             "gemm " + std::to_string(s));
    };
    plan.move_out = [&](ooc::TaskCtx& c, index_t g) {
      c.d2h(b.out, sim::DeviceMatrixRef(b.acc), "d2h g" + std::to_string(g));
    };
    ooc::run_slab_plan(graph, plan);
  }
  dev.synchronize();
  b.release(dev);

  double gemm1_end = -1, d2h0_start = -1;
  for (const auto& e : dev.trace().events()) {
    if (e.name == "gemm 1") gemm1_end = e.end;
    if (e.name == "d2h g0") d2h0_start = e.start;
  }
  ASSERT_GE(gemm1_end, 0.0);
  ASSERT_GE(d2h0_start, 0.0);
  EXPECT_GE(d2h0_start, gemm1_end);
}

TEST(SlabPipelineLowering, RunTaskChainsPresentStages) {
  Device dev(sim::DeviceSpec::v100_32gb(), ExecutionMode::Phantom);
  LoopBuffers b(dev);
  {
    ooc::TaskGraph graph(dev, small_options());
    ooc::TaskPlan task;
    task.label = "panel";
    task.move_in = [&](ooc::TaskCtx& c) {
      c.h2d(sim::DeviceMatrixRef(b.pool[0]), b.in, "h2d panel");
    };
    task.compute = [&](ooc::TaskCtx& c) {
      c.gemm(blas::Op::NoTrans, blas::Op::NoTrans, 1.0f,
             sim::DeviceMatrixRef(b.pool[0]), sim::DeviceMatrixRef(b.pool[0]),
             0.0f, sim::DeviceMatrixRef(b.acc), "gemm panel");
    };
    task.move_out = [&](ooc::TaskCtx& c) {
      c.d2h(b.out, sim::DeviceMatrixRef(b.acc), "d2h panel");
    };
    const ooc::TaskResult r = ooc::run_task(graph, task);
    EXPECT_TRUE(r.moved_in.valid());
    EXPECT_TRUE(r.computed.valid());
    EXPECT_TRUE(r.moved_out.valid());
  }
  dev.synchronize();
  b.release(dev);

  double in_end = -1, comp_start = -1, comp_end = -1, out_start = -1;
  for (const auto& e : dev.trace().events()) {
    if (e.name == "h2d panel") in_end = e.end;
    if (e.name == "gemm panel") comp_start = e.start, comp_end = e.end;
    if (e.name == "d2h panel") out_start = e.start;
  }
  ASSERT_GE(in_end, 0.0);
  EXPECT_GE(comp_start, in_end);
  EXPECT_GE(out_start, comp_end);
}

TEST(SlabPipelineLowering, PlanLogCapturesEveryGraphOnTeardown) {
  ooc::PlanLog log;
  Device dev(sim::DeviceSpec::v100_32gb(), ExecutionMode::Phantom);
  LoopBuffers b(dev);
  {
    ooc::OocGemmOptions opts = small_options();
    opts.plan_log = &log;
    ooc::TaskGraph g(dev, opts, "eq-span");
    ooc::SlabPlan plan = loop_plan(b);
    plan.move_out = nullptr;
    ooc::run_slab_plan(g, plan);
  }
  dev.synchronize();
  b.release(dev);

  // The loop describes its plan as it runs; the flush names the graph,
  // counts its nodes and carries the Graphviz dump with the node labels.
  EXPECT_NE(log.text.find("slab-plan eq: 4 step(s), input pool 2 slot(s)"),
            std::string::npos)
      << log.text;
  EXPECT_NE(log.text.find("eq-span: task-graph run: 8 node(s)"),
            std::string::npos)
      << log.text;
  EXPECT_NE(log.dot.find("digraph \"eq-span\""), std::string::npos);
  EXPECT_NE(log.dot.find("in eq s0"), std::string::npos);
  EXPECT_NE(log.dot.find("comp eq s3"), std::string::npos);

  // A graph that built nodes but never ran still reports itself; an empty
  // graph stays silent.
  ooc::PlanLog unrun_log;
  {
    ooc::OocGemmOptions opts = small_options();
    opts.plan_log = &unrun_log;
    ooc::TaskGraph g(dev, opts, "ghost");
    g.add(ooc::TaskStage::MoveIn, "never", nullptr);
  }
  EXPECT_NE(unrun_log.text.find("ghost: built but never run"),
            std::string::npos);

  ooc::PlanLog empty_log;
  {
    ooc::OocGemmOptions opts = small_options();
    opts.plan_log = &empty_log;
    ooc::TaskGraph g(dev, opts, "empty");
  }
  EXPECT_TRUE(empty_log.text.empty());
  EXPECT_TRUE(empty_log.dot.empty());
}

TEST(SlabPipelineLowering, DotRendersEveryLoweredNodeLabel) {
  // Node labels are rendered only where text is needed; pin the exact dot
  // lines of every kind a streaming recursive QR lowers — the four slab-step
  // labels and the run_task stages — and the slot-key edges of an outer
  // product step.
  ooc::PlanLog log;
  Device dev(sim::DeviceSpec::v100_32gb(), ExecutionMode::Phantom);
  qr::QrOptions opts;
  opts.blocksize = 256;
  opts.resident_subtrees = false;
  opts.plan_log = &log;
  const auto a = sim::HostMutRef::phantom(2048, 1024);
  const auto r = sim::HostMutRef::phantom(1024, 1024);
  qr::factorize(qr::QrProblem{{&dev}, a, r, qr::Algorithm::Recursive, opts});
  const char* const lines[] = {
      R"dot(n0 [label="task in\n(move-in)", shape=box, fillcolor=lightblue];)dot",
      R"dot(n1 [label="task comp\n(compute)", shape=ellipse, fillcolor=palegreen];)dot",
      R"dot(n2 [label="task out\n(move-out)", shape=box, fillcolor=lightsalmon];)dot",
      R"dot(n0 [label="in inner_product_recursive s0\n(move-in)", shape=box, fillcolor=lightblue];)dot",
      R"dot(n1 [label="comp inner_product_recursive s0\n(compute)", shape=ellipse, fillcolor=palegreen];)dot",
      R"dot(n16 [label="out inner_product_recursive g0\n(move-out)", shape=box, fillcolor=lightsalmon];)dot",
      R"dot(n1 [label="in-out outer_product_recursive s0\n(move-in)", shape=box, fillcolor=lightblue];)dot",
      R"dot(n11 [label="out outer_product_recursive g2\n(move-out)", shape=box, fillcolor=lightsalmon];)dot",
      // in-out s2 writes C slot 0, so it waits group 0's move-out (the
      // staging-pair fence) and nothing else; comp s2 reads A slot 0 and
      // writes C slot 0, so it waits both move-ins of its step.
      "  n3 -> n9;\n  n8 -> n10;\n  n9 -> n10;\n",
  };
  for (const char* line : lines) {
    EXPECT_NE(log.dot.find(line), std::string::npos) << line;
  }
}

} // namespace
} // namespace rocqr
