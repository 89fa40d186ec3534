// TaskGraph executor: deterministic list scheduling onto the three-stream
// device, stage-typed node contexts, region edges, incremental runs, and
// the hazard rule that derives deps from declared accesses.
#include <gtest/gtest.h>

#include "leak_check.hpp"

#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"
#include "ooc/task_graph.hpp"
#include "sim/device.hpp"
#include "sim/scoped_matrix.hpp"

namespace rocqr::ooc {
namespace {

using sim::Device;
using sim::DeviceMatrixRef;
using sim::ExecutionMode;
using sim::ScopedMatrix;
using sim::StoragePrecision;

Device phantom_device() {
  return Device(sim::DeviceSpec::v100_32gb(), ExecutionMode::Phantom);
}

OocGemmOptions test_options() {
  OocGemmOptions opts;
  opts.blocksize = 32;
  opts.precision = blas::GemmPrecision::FP32; // exact match vs host GEMM
  return opts;
}

/// Index of the first trace event whose name matches, or npos.
size_t find_event(const Device& dev, const std::string& name) {
  const auto& events = dev.trace().events();
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].name == name) return i;
  }
  return static_cast<size_t>(-1);
}

TEST(TaskGraph, RunsAMoveInComputeMoveOutChainInRealMode) {
  // y = a * x through the graph: the numeric result proves the node bodies
  // ran in dependency order.
  const index_t n = 16;
  la::Matrix a = la::random_normal(n, n, 11);
  la::Matrix x = la::random_normal(n, n, 12);
  la::Matrix y(n, n);

  Device dev(sim::DeviceSpec::v100_32gb(), ExecutionMode::Real);
  {
    TaskGraph g(dev, test_options(), "test chain");
    ScopedMatrix da(dev, n, n, StoragePrecision::FP32, "tg.a");
    ScopedMatrix dx(dev, n, n, StoragePrecision::FP32, "tg.x");
    ScopedMatrix dy(dev, n, n, StoragePrecision::FP32, "tg.y");

    const TaskId in_a = g.add(TaskStage::MoveIn, "in a", [&](TaskCtx& c) {
      c.h2d(da.get(), sim::HostConstRef(a.view()), "h2d a");
    });
    const TaskId in_x = g.add(TaskStage::MoveIn, "in x", [&](TaskCtx& c) {
      c.h2d(dx.get(), sim::HostConstRef(x.view()), "h2d x");
    });
    const TaskId mul = g.add(
        TaskStage::Compute, "mul",
        [&](TaskCtx& c) {
          c.gemm(blas::Op::NoTrans, blas::Op::NoTrans, 1.0f, da.get(),
                 dx.get(), 0.0f, dy.get(), "gemm ax");
        },
        {in_a, in_x});
    g.add(
        TaskStage::MoveOut, "out y",
        [&](TaskCtx& c) {
          c.d2h(sim::HostMutRef(y.view()), dy.get(), "d2h y");
        },
        {mul});
    g.run();
    dev.synchronize();
    EXPECT_NE(g.plan_description().find("4 node(s)"), std::string::npos);
  }
  dev.synchronize();

  la::Matrix ref(n, n);
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, n, n, n, 1.0f, a.data(),
             a.ld(), x.data(), x.ld(), 0.0f, ref.data(), ref.ld());
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) EXPECT_EQ(y(i, j), ref(i, j));
  }
  EXPECT_EQ(dev.live_allocations(), 0);
}

TEST(TaskGraph, ReadyNodesEnqueueInPriorityOrder) {
  Device dev = phantom_device();
  TaskGraph g(dev, test_options());
  ScopedMatrix buf(dev, 8, 8, StoragePrecision::FP32, "tg.buf");
  // Three independent computes added in reverse priority order.
  for (int p : {3, 1, 2}) {
    std::string node = "c";
    node += std::to_string(p);
    g.add(
        TaskStage::Compute, node,
        [&, p](TaskCtx& c) {
          c.gemm(blas::Op::NoTrans, blas::Op::NoTrans, 1.0f, buf.get(),
                 buf.get(), 0.0f, buf.get(), "gemm p" + std::to_string(p));
        },
        {}, p);
  }
  g.run();
  dev.synchronize();
  EXPECT_LT(find_event(dev, "gemm p1"), find_event(dev, "gemm p2"));
  EXPECT_LT(find_event(dev, "gemm p2"), find_event(dev, "gemm p3"));
}

TEST(TaskGraph, AOnePrioritySegmentAfterAMixedRunEnqueuesInIdOrder) {
  // The first run mixes priorities, so the ready heap orders it. The
  // segment added after it shares one priority and enqueues in id order,
  // its dep on the first run resolved through the recorded done event.
  Device dev = phantom_device();
  TaskGraph g(dev, test_options());
  ScopedMatrix buf(dev, 8, 8, StoragePrecision::FP32, "tg.buf");
  const auto gemm = [&buf](std::string name) {
    return [&buf, name](TaskCtx& c) {
      c.gemm(blas::Op::NoTrans, blas::Op::NoTrans, 1.0f, buf.get(), buf.get(),
             0.0f, buf.get(), name);
    };
  };
  const TaskId late =
      g.add(TaskStage::Compute, "late", gemm("gemm late"), {}, 2);
  g.add(TaskStage::Compute, "early", gemm("gemm early"), {}, 1);
  g.run();
  g.add(TaskStage::Compute, "s0", gemm("gemm s0"), {}, 5);
  g.add(TaskStage::Compute, "s1", gemm("gemm s1"), {late}, 5);
  g.add(TaskStage::Compute, "s2", gemm("gemm s2"), {}, 5);
  g.run();
  dev.synchronize();
  EXPECT_LT(find_event(dev, "gemm early"), find_event(dev, "gemm late"));
  EXPECT_LT(find_event(dev, "gemm late"), find_event(dev, "gemm s0"));
  EXPECT_LT(find_event(dev, "gemm s0"), find_event(dev, "gemm s1"));
  EXPECT_LT(find_event(dev, "gemm s1"), find_event(dev, "gemm s2"));
  EXPECT_EQ(g.plan_description(),
            "task-graph run: 5 node(s) (0 move-in, 5 compute, 0 move-out), "
            "1 edge(s), 0 fence edge(s)");
}

TEST(TaskGraph, CrossStreamDependencyOrdersSimulatedTime) {
  // The compute must start at or after the move-in's end (event edge), and
  // the move-out after the compute — even though each runs on its own
  // engine.
  Device dev = phantom_device();
  TaskGraph g(dev, test_options());
  ScopedMatrix buf(dev, 64, 64, StoragePrecision::FP32, "tg.buf");
  const TaskId in = g.add(TaskStage::MoveIn, "in", [&](TaskCtx& c) {
    c.h2d(buf.get(), sim::HostConstRef::phantom(64, 64), "h2d b");
  });
  const TaskId mul = g.add(
      TaskStage::Compute, "mul",
      [&](TaskCtx& c) {
        c.gemm(blas::Op::NoTrans, blas::Op::NoTrans, 1.0f, buf.get(),
               buf.get(), 0.0f, buf.get(), "gemm b");
      },
      {in});
  g.add(
      TaskStage::MoveOut, "out",
      [&](TaskCtx& c) {
        c.d2h(sim::HostMutRef::phantom(64, 64), buf.get(), "d2h b");
      },
      {mul});
  g.run();
  dev.synchronize();

  const auto& ev = dev.trace().events();
  const auto& h2d = ev[find_event(dev, "h2d b")];
  const auto& gemm = ev[find_event(dev, "gemm b")];
  const auto& d2h = ev[find_event(dev, "d2h b")];
  EXPECT_GE(gemm.start, h2d.end);
  EXPECT_GE(d2h.start, gemm.end);
}

TEST(TaskGraph, IncrementalRunsEnqueueOnlyNewNodes) {
  Device dev = phantom_device();
  TaskGraph g(dev, test_options());
  ScopedMatrix buf(dev, 8, 8, StoragePrecision::FP32, "tg.buf");
  const TaskId first = g.add(TaskStage::MoveIn, "in", [&](TaskCtx& c) {
    c.h2d(buf.get(), sim::HostConstRef::phantom(8, 8), "h2d 1");
  });
  g.run();
  const size_t after_first = dev.trace().size();
  EXPECT_GT(after_first, 0u);
  EXPECT_TRUE(g.done(first).valid());

  // The second segment depends on the already-enqueued first: allowed, and
  // only the new node runs.
  g.add(
      TaskStage::Compute, "c",
      [&](TaskCtx& c) {
        c.gemm(blas::Op::NoTrans, blas::Op::NoTrans, 1.0f, buf.get(),
               buf.get(), 0.0f, buf.get(), "gemm 2");
      },
      {first});
  g.run();
  dev.synchronize();
  EXPECT_NE(find_event(dev, "gemm 2"), static_cast<size_t>(-1));
}

TEST(TaskGraph, ANodeWithMoreThanTwoDepsWaitsForEveryOne) {
  // A node keeps up to two deps inline; a third moves the list to the
  // graph's dep arena. Every dep must still fence the node, count as an
  // edge and appear in the dot dump, in order.
  Device dev = phantom_device();
  ScopedMatrix buf(dev, 64, 64, StoragePrecision::FP32, "tg.buf");
  TaskGraph g(dev, test_options());
  const TaskId in = g.add(TaskStage::MoveIn, "in", [&](TaskCtx& c) {
    c.h2d(buf.get(), sim::HostConstRef::phantom(64, 64), "h2d in");
  });
  const auto gemm = [&](const char* name) {
    return [&buf, name](TaskCtx& c) {
      c.gemm(blas::Op::NoTrans, blas::Op::NoTrans, 1.0f, buf.get(), buf.get(),
             0.0f, buf.get(), name);
    };
  };
  const TaskId mul = g.add(TaskStage::Compute, "mul", gemm("gemm mul"), {in});
  const TaskId out = g.add(
      TaskStage::MoveOut, "out",
      [&](TaskCtx& c) {
        c.d2h(sim::HostMutRef::phantom(64, 64), buf.get(), "d2h out");
      },
      {mul});
  g.add(TaskStage::Compute, "last", gemm("gemm last"), {in, mul, out});
  g.run();
  dev.synchronize();

  const auto& ev = dev.trace().events();
  EXPECT_GE(ev[find_event(dev, "gemm last")].start,
            ev[find_event(dev, "d2h out")].end);
  EXPECT_EQ(g.plan_description(),
            "task-graph run: 4 node(s) (1 move-in, 2 compute, 1 move-out), "
            "5 edge(s), 4 fence edge(s)");
  const std::string dot = g.dot();
  EXPECT_NE(dot.find("  n0 -> n3;\n  n1 -> n3 [style=dashed];\n"
                     "  n2 -> n3;\n"),
            std::string::npos)
      << dot;
}

TEST(TaskGraph, RejectsStageMisuse) {
  Device dev = phantom_device();
  TaskGraph g(dev, test_options());
  ScopedMatrix buf(dev, 8, 8, StoragePrecision::FP32, "tg.buf");
  g.add(TaskStage::MoveIn, "bad", [&](TaskCtx& c) {
    c.d2h(sim::HostMutRef::phantom(8, 8), buf.get(), "d2h from move-in");
  });
  EXPECT_THROW(g.run(), InvalidArgument);
}

TEST(TaskGraph, RejectsUnknownAndForwardDeps) {
  Device dev = phantom_device();
  TaskGraph g(dev, test_options());
  EXPECT_THROW(g.add(TaskStage::Compute, "x", nullptr, {5}), InvalidArgument);
}

TEST(TaskGraph, InputRegionGatesMoveInOnIntersectingProducers) {
  // A producer event covering rows [0, 64) of the streamed input: a move-in
  // reading rows [32, 48) must wait for it; one reading rows [64, 96) must
  // not.
  Device dev = phantom_device();
  ScopedMatrix staging(dev, 8, 8, StoragePrecision::FP32, "tg.stage");
  const sim::Stream producer_stream = dev.create_stream();
  dev.custom_compute(producer_stream, 1.0, 0, sim::OpKind::Custom,
                     "producer");
  sim::Event produced = dev.create_event();
  dev.record_event(produced, producer_stream);

  OocGemmOptions opts = test_options();
  opts.streamed_input_regions.push_back(
      RegionEvent{Slab{0, 64}, Slab{0, 64}, produced});
  TaskGraph g(dev, opts);
  ScopedMatrix buf(dev, 8, 8, StoragePrecision::FP32, "tg.buf");
  const TaskId hit = g.add(TaskStage::MoveIn, "hit", [&](TaskCtx& c) {
    c.h2d(buf.get(), sim::HostConstRef::phantom(8, 8), "h2d hit");
  });
  g.set_input_region(hit, Slab{32, 16}, Slab{0, 8});
  const TaskId miss = g.add(TaskStage::MoveIn, "miss", [&](TaskCtx& c) {
    c.h2d(buf.get(), sim::HostConstRef::phantom(8, 8), "h2d miss");
  });
  g.set_input_region(miss, Slab{64, 32}, Slab{0, 8});
  g.run();
  dev.synchronize();

  const auto& ev = dev.trace().events();
  const auto& producer = ev[find_event(dev, "producer")];
  const auto& gated = ev[find_event(dev, "h2d hit")];
  EXPECT_GE(gated.start, producer.end);

  // A compute node cannot carry an input region.
  const TaskId c = g.add(TaskStage::Compute, "c", nullptr);
  EXPECT_THROW(g.set_input_region(c, Slab{0, 8}, Slab{0, 8}),
               InvalidArgument);
}

TEST(TaskGraph, DoneEventsBridgeToOtherGraphs) {
  // The done(id) event of one graph gates a node of a second graph via
  // TaskCtx::wait — the cross-graph DAG edge serve's colocated batches use.
  Device dev = phantom_device();
  ScopedMatrix buf(dev, 8, 8, StoragePrecision::FP32, "tg.buf");
  TaskGraph g1(dev, test_options());
  const TaskId p = g1.add(TaskStage::Compute, "produce", [&](TaskCtx& c) {
    c.gemm(blas::Op::NoTrans, blas::Op::NoTrans, 1.0f, buf.get(), buf.get(),
           0.0f, buf.get(), "gemm produce");
  });
  g1.run();

  TaskGraph g2(dev, test_options());
  g2.add(TaskStage::MoveOut, "consume", [&](TaskCtx& c) {
    c.wait(g1.done(p));
    c.d2h(sim::HostMutRef::phantom(8, 8), buf.get(), "d2h consume");
  });
  g2.run();
  dev.synchronize();

  const auto& ev = dev.trace().events();
  EXPECT_GE(ev[find_event(dev, "d2h consume")].start,
            ev[find_event(dev, "gemm produce")].end);
  EXPECT_THROW(g1.done(42), InvalidArgument);
}

/// Adds a bodiless compute node that declares `accesses`.
TaskId access_node(TaskGraph& g, const char* label,
                   std::initializer_list<Access> accesses) {
  return g.add(TaskStage::Compute, TaskLabel(g.label_head(label)), nullptr,
               accesses, 0);
}

/// The deps of node `id` in g.dot(), in the order the node lists them.
std::vector<TaskId> dot_deps(const TaskGraph& g, TaskId id) {
  std::vector<TaskId> deps;
  std::istringstream dot(g.dot());
  const std::string to = " -> n" + std::to_string(id);
  std::string line;
  while (std::getline(dot, line)) {
    const size_t at = line.find(to);
    const size_t end = at + to.size();
    if (at == std::string::npos || (end < line.size() && line[end] != ';' &&
                                    line[end] != ' ')) {
      continue;
    }
    deps.push_back(std::stoll(line.substr(line.find('n') + 1)));
  }
  return deps;
}

TEST(TaskGraphHazards, AReadWaitsTheLastWriter) {
  Device dev = phantom_device();
  TaskGraph g(dev, test_options());
  const HazardKey k = g.key();
  const TaskId first = access_node(g, "first read", {reads(k)});
  const TaskId w = access_node(g, "write", {writes(k)});
  const TaskId r = access_node(g, "read", {reads(k)});
  EXPECT_TRUE(dot_deps(g, first).empty());
  EXPECT_EQ(dot_deps(g, r), std::vector<TaskId>{w});
}

TEST(TaskGraphHazards, AWriteWaitsEveryReaderSinceTheLastWrite) {
  Device dev = phantom_device();
  TaskGraph g(dev, test_options());
  const HazardKey k = g.key();
  access_node(g, "w0", {writes(k)});
  const TaskId r1 = access_node(g, "r1", {reads(k)});
  const TaskId r2 = access_node(g, "r2", {reads(k)});
  const TaskId r3 = access_node(g, "r3", {reads(k)});
  const TaskId w1 = access_node(g, "w1", {writes(k)});
  EXPECT_EQ(dot_deps(g, w1), (std::vector<TaskId>{r1, r2, r3}));
}

TEST(TaskGraphHazards, AWriteWithNoReadersWaitsTheLastWriter) {
  Device dev = phantom_device();
  TaskGraph g(dev, test_options());
  const HazardKey k = g.key();
  const TaskId w0 = access_node(g, "w0", {writes(k)});
  const TaskId w1 = access_node(g, "w1", {writes(k)});
  EXPECT_EQ(dot_deps(g, w1), std::vector<TaskId>{w0});
}

TEST(TaskGraphHazards, ADepNamedByTwoAccessesIsPassedOnce) {
  Device dev = phantom_device();
  TaskGraph g(dev, test_options());
  const HazardKey k = g.key(2);
  const TaskId w = access_node(g, "w", {writes(k), writes(k + 1)});
  const TaskId r = access_node(g, "r", {reads(k), reads(k + 1)});
  g.run();
  EXPECT_EQ(dot_deps(g, r), std::vector<TaskId>{w});
  EXPECT_EQ(g.plan_description(),
            "task-graph run: 2 node(s) (0 move-in, 2 compute, 0 move-out), "
            "1 edge(s), 0 fence edge(s)");
}

TEST(TaskGraphHazards, AReaderTheNextReaderWaitsOnIsDropped) {
  // r2 reads k and waits r1 through k2. r1 is a current reader of k, so it
  // waited k's writer w0 already: r2 skips that RAW dep. And a write of k
  // that waits r2 is ordered after r1 already: it carries one WAR dep, not
  // two.
  Device dev = phantom_device();
  TaskGraph g(dev, test_options());
  const HazardKey k = g.key();
  const HazardKey k2 = g.key();
  access_node(g, "w0", {writes(k)});
  const TaskId r1 = access_node(g, "r1", {reads(k), writes(k2)});
  const TaskId r2 = access_node(g, "r2", {reads(k), reads(k2)});
  const TaskId w1 = access_node(g, "w1", {writes(k)});
  EXPECT_EQ(dot_deps(g, r2), std::vector<TaskId>{r1});
  EXPECT_EQ(dot_deps(g, w1), std::vector<TaskId>{r2});
}

TEST(TaskGraphHazards, AWriterAnotherAccessNamesIsKept) {
  // As above, r2's read of k finds w0 implied through r1; but r2 also
  // overwrites k3, whose last writer is w0 with no reader since, and that
  // WAW dep stays.
  Device dev = phantom_device();
  TaskGraph g(dev, test_options());
  const HazardKey k = g.key();
  const HazardKey k2 = g.key();
  const HazardKey k3 = g.key();
  const TaskId w0 = access_node(g, "w0", {writes(k), writes(k3)});
  const TaskId r1 = access_node(g, "r1", {reads(k), writes(k2)});
  const TaskId r2 = access_node(g, "r2", {reads(k), reads(k2), writes(k3)});
  EXPECT_EQ(dot_deps(g, r2), (std::vector<TaskId>{w0, r1}));
}

TEST(TaskGraphHazards, AWriteInALaterRunWaitsAReaderFromAnEarlierOne) {
  // Keys and their readers persist across run(): a checkpoint round's
  // move-in overwriting a buffer waits the compute of the previous round
  // that still read it.
  Device dev = phantom_device();
  ScopedMatrix buf(dev, 64, 64, StoragePrecision::FP32, "tg.buf");
  TaskGraph g(dev, test_options());
  const HazardKey k = g.key();
  const auto h2d = [&buf](const char* name) {
    return [&buf, name](TaskCtx& c) {
      c.h2d(buf.get(), sim::HostConstRef::phantom(64, 64), name);
    };
  };
  g.add(TaskStage::MoveIn, TaskLabel(g.label_head("in 1")), h2d("h2d 1"),
        {writes(k)}, 0);
  const TaskId use = g.add(
      TaskStage::Compute, TaskLabel(g.label_head("use")),
      [&buf](TaskCtx& c) {
        c.gemm(blas::Op::NoTrans, blas::Op::NoTrans, 1.0f, buf.get(),
               buf.get(), 0.0f, buf.get(), "gemm use");
      },
      {reads(k)}, 0);
  g.run();
  const TaskId again = g.add(TaskStage::MoveIn, TaskLabel(g.label_head("in 2")),
                             h2d("h2d 2"), {writes(k)}, 0);
  g.run();
  dev.synchronize();

  EXPECT_EQ(dot_deps(g, again), std::vector<TaskId>{use});
  const auto& ev = dev.trace().events();
  EXPECT_GE(ev[find_event(dev, "h2d 2")].start,
            ev[find_event(dev, "gemm use")].end);
}

} // namespace
} // namespace rocqr::ooc
