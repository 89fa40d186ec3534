// Task-DAG executor: the one scheduler every out-of-core engine and driver
// in this repo runs on, a dependency graph of move-in / compute / move-out
// nodes on a three-stream schedule.
//
// Every tile/slab operation is a *node* pinned to one stage (and therefore
// one stream), and every hazard is an *edge*. A node either names its
// deps, or declares the hazard keys (buffers, host blocks, pool slots) it
// reads and writes and the graph derives them with one rule: a read waits
// the key's last writer (RAW), a write waits the key's readers since that
// write (WAR) or, with none, the last writer (WAW). So a move-in
// overwriting a buffer waits the computes still reading it, and a move-in
// re-reading a host tile waits the move-out that last wrote it, without
// either edge being wired by hand (the OmpSs-2 in/inout pattern). The slab
// loops of ooc/pipeline.hpp declare their input-pool and output slots the
// same way, so the engines' buffer-reuse fences come from this rule too.
//
// The executor is a deterministic list scheduler at enqueue time: a node
// is ready once all its dependencies are enqueued, the lowest
// (priority, id) ready node is enqueued next, and cross-stream
// dependencies become `wait_event` edges while same-stream dependencies
// ride the stream's FIFO order. Because the simulator resolves op start
// times from engine FIFOs plus event waits, enqueue order IS the schedule —
// lookahead (Buttari-style tiled QR: factor panel k+1 while panel k's
// trailing updates drain) falls out of giving the panel node a smaller
// priority key than the updates behind it. When every node run() has to
// solve shares one priority, that order is plain id order.
//
// The cross-cutting hooks apply at one site each: transfer retry with
// backoff, opt-in ABFT checked GEMM, §4.2 region gating on move-ins
// (`set_input_region`), synchronous-mode serialization, and an optional
// trace span around the whole graph. Checkpoint hooks stay at the driver
// layer: drivers run the graph in segments and snapshot at node-set
// boundaries (see qr/tiled_qr.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ooc/gemm_engines.hpp"
#include "sim/device.hpp"
#include "sim/trace_export.hpp"

namespace rocqr::ooc {

class TaskGraph;

/// Which stage (and therefore which stream/engine) a node runs on.
enum class TaskStage { MoveIn, Compute, MoveOut };

using TaskId = index_t;

/// A node label that costs no string per node: `head` indexes the graph's
/// table of label heads (TaskGraph::label_head) and up to two integers
/// follow. It renders as the head, then the integers joined by ',' — head
/// "comp inner_product_recursive s" with {2} is
/// "comp inner_product_recursive s2", head "upd " with {0, 2} is "upd 0,2".
/// Labels are rendered only where text is needed: dot(), the DeviceLost
/// attribution and the add error message.
struct TaskLabel {
  explicit TaskLabel(std::uint32_t h) : head(h) {}
  TaskLabel(std::uint32_t h, index_t a) : head(h), n_ints(1), ints{a, 0} {}
  TaskLabel(std::uint32_t h, index_t a, index_t b)
      : head(h), n_ints(2), ints{a, b} {}

  std::uint32_t head = 0;
  std::uint32_t n_ints = 0;
  index_t ints[2] = {0, 0};
};

/// Names one buffer or host block whose declared accesses order the nodes
/// that touch it (TaskGraph::key). `key + i` is the i-th of a run of keys
/// handed out together.
struct HazardKey {
  std::uint32_t index = 0;
  HazardKey operator+(size_t i) const {
    return {index + static_cast<std::uint32_t>(i)};
  }
};

/// One declared access of a node. A node that reads and writes a key
/// (inout) declares the write.
struct Access {
  HazardKey key;
  bool write = false;
};
inline Access reads(HazardKey k) { return {k, false}; }
inline Access writes(HazardKey k) { return {k, true}; }

/// Stage handle passed to a node's body. Only the operations matching the
/// node's stage are legal — h2d on MoveIn, gemm/trsm/stream on Compute, d2h
/// on MoveOut; anything else throws InvalidArgument so a mis-staged node
/// fails loudly instead of silently racing another engine.
class TaskCtx {
 public:
  /// MoveIn: one host-to-device transfer of `es` with retry + sync_if
  /// applied. K > 1 entries are a fused transfer in one link occupancy (the
  /// batched serving path); one fault site, so a retry replays them all.
  void h2d(std::span<const sim::Device::H2dBatchEntry> es, sim::OpName name);
  /// MoveIn: the one-entry transfer.
  void h2d(sim::DeviceMatrixRef dst, sim::HostConstRef src, sim::OpName name) {
    const sim::Device::H2dBatchEntry e{dst, src};
    h2d({&e, 1}, name);
  }
  /// Compute: one GEMM launch over `es` (block-diagonal for K > 1) with the
  /// opt-in ABFT column-sum check, which covers one-entry launches (the
  /// fused serving path rejects abft jobs up front).
  void gemm(std::span<const sim::Device::GemmBatchEntry> es, sim::OpName name);
  /// Compute: the one-entry GEMM.
  void gemm(blas::Op opa, blas::Op opb, float alpha, sim::DeviceMatrixRef a,
            sim::DeviceMatrixRef b, float beta, sim::DeviceMatrixRef c,
            sim::OpName name) {
    const sim::Device::GemmBatchEntry e{opa, opb, alpha, a, b, beta, c};
    gemm({&e, 1}, name);
  }
  /// Compute: triangular solve.
  void trsm(sim::Device::TrsmKind kind, sim::DeviceMatrixRef tri,
            sim::DeviceMatrixRef b, sim::OpName name);
  /// Compute: the stream, for panel kernels (panel_qr_device & co.) that
  /// enqueue their own custom ops.
  sim::Stream stream() const;
  /// MoveOut: one device-to-host transfer of `es` (symmetric to h2d).
  void d2h(std::span<const sim::Device::D2hBatchEntry> es, sim::OpName name);
  /// MoveOut: the one-entry transfer.
  void d2h(sim::HostMutRef dst, sim::DeviceMatrixRef src, sim::OpName name) {
    const sim::Device::D2hBatchEntry e{dst, src};
    d2h({&e, 1}, name);
  }
  /// Compute: records an event on the compute stream, fences the move-out
  /// stream on it, and enqueues the device-to-host copy there — the "drain
  /// an intermediate while compute continues" idiom of the recursive
  /// drivers.
  sim::Event emit(sim::HostMutRef dst, sim::DeviceMatrixRef src,
                  sim::OpName name);
  /// Extra wait on this node's stream (valid-checked) — for events that are
  /// not graph edges, e.g. a slab loop's resident-stage event.
  void wait(const sim::Event& e);

  sim::Device& device();
  const OocGemmOptions& options() const;

 private:
  friend class TaskGraph;
  TaskCtx(TaskGraph& g, TaskStage stage) : g_(g), stage_(stage) {}
  TaskGraph& g_;
  TaskStage stage_;
};

class TaskGraph {
 public:
  /// Creates the in/compute/out streams (in that order — stream numbering
  /// is part of the preserved schedule), opens an optional trace span,
  /// fences the H2D stream on opts.host_input_ready and then on every
  /// valid `wait_before` event
  /// (producer hand-off, e.g. TRSM waiting the factorization that wrote
  /// its triangle). `opts` must already be validated.
  TaskGraph(sim::Device& dev, const OocGemmOptions& opts,
            std::string span_name = {},
            std::vector<sim::Event> wait_before = {});

  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Flushes the graph's lowered form (node/edge summary + Graphviz dump)
  /// into opts.plan_log, when one is wired up — the single chokepoint
  /// feeding --explain-plan, since every executor client lowers onto
  /// TaskGraph.
  ~TaskGraph();

  /// Interns a label head for TaskLabel and returns its index. Lowering
  /// layers add one head per node kind and per plan, not one per node.
  std::uint32_t label_head(std::string head);

  /// Adds a node. `deps` are earlier node ids that must be enqueued before
  /// this node; `priority` orders the ready set (smaller runs earlier; ties
  /// break on id, so insertion order is the deterministic default).
  /// Returns the node's id. Up to two deps live in the node and a longer
  /// list in the graph's dep arena, so a node of any dep count allocates
  /// nothing beyond the graph's node and dep arrays, provided `body` fits
  /// std::function's local buffer (16 bytes: `this` plus an index).
  TaskId add(TaskStage stage, TaskLabel label,
             std::function<void(TaskCtx&)> body,
             std::span<const TaskId> deps = {}, std::int64_t priority = 0);

  /// Returns a fresh hazard key; with `count` > 1, the first of `count`
  /// keys handed out together (key + i names the i-th).
  HazardKey key(size_t count = 1);

  /// Makes room for `count` more nodes, so adding them moves no node. A
  /// graph that already holds nodes grows to at least twice its capacity,
  /// so a long-lived graph that reserves once per plan still reallocates
  /// only geometrically often.
  void reserve_nodes(size_t count);

  /// Adds a node whose deps follow from its declared accesses:
  /// - a read waits the key's last writer (RAW);
  /// - a write waits the key's readers since that write (WAR), or, when
  ///   there are none, the last writer (WAW).
  /// A dep named by two accesses is passed once. A read skips the writer
  /// when the node also waits a current reader of the key (that reader
  /// waited the writer), unless another access names the writer too. A
  /// read then drops from the key's readers every reader this node waits
  /// on directly: a later write that waits this node is ordered after them
  /// already. Keys and their readers persist across run()s.
  TaskId add(TaskStage stage, TaskLabel label,
             std::function<void(TaskCtx&)> body,
             std::initializer_list<Access> accesses, std::int64_t priority);

  /// Adds a node labelled by `label` verbatim: the string becomes a label
  /// head of its own.
  TaskId add(TaskStage stage, std::string label,
             std::function<void(TaskCtx&)> body, std::vector<TaskId> deps = {},
             std::int64_t priority = 0);

  /// §4.2 region gating: declares the host rectangle a MoveIn node reads.
  /// At enqueue the node waits every intersecting
  /// opts.streamed_input_regions event before its transfer.
  void set_input_region(TaskId node, Slab rows, Slab cols);

  /// Enqueues every node not yet enqueued, in dependency order, lowest
  /// (priority, id) ready node first (id order when they share one
  /// priority). Incremental: drivers may add nodes,
  /// run(), snapshot a checkpoint, add more nodes and run() again —
  /// dependencies on nodes from earlier runs resolve through their
  /// recorded completion events. Every dep points to an earlier node, so
  /// the graph has no cycle.
  void run();

  /// Completion event of an enqueued node (invalid before its run()).
  sim::Event done(TaskId id) const;

  /// Trace index at construction — the driver's stats window.
  size_t window_begin() const { return window_begin_; }

  /// Human-readable node/edge summary of everything run so far, including
  /// the count of fence edges (cross-stream dependencies that lowered to
  /// `wait_event`; same-stream edges ride the FIFO). One cumulative line
  /// (--explain-plan companion), rendered on demand from the counts;
  /// empty until the first run().
  std::string plan_description() const;

  /// Graphviz dump of every node added so far (--explain-plan=dot). Solid
  /// edges are cross-stream fences, dashed edges ride a stream's FIFO.
  std::string dot(const std::string& graph_name = "taskgraph") const;

  sim::Device& device() { return dev_; }
  const OocGemmOptions& options() const { return opts_; }

 private:
  friend class TaskCtx;

  struct Node {
    Node(TaskStage s, TaskLabel l, std::function<void(TaskCtx&)> b,
         std::int64_t p)
        : stage(s), label(l), body(std::move(b)), priority(p) {}

    TaskStage stage;
    TaskLabel label;
    std::function<void(TaskCtx&)> body;
    std::int64_t priority = 0;
    // Deps live inline up to two; a longer list (a buffer's WAR readers in
    // the node programs) lives in the graph's deps_ arena at spill_at.
    size_t n_deps = 0;
    TaskId inline_deps[2] = {0, 0};
    size_t spill_at = 0;
    std::optional<std::pair<Slab, Slab>> input_region;
    sim::Event done{};
    bool enqueued = false;
  };

  /// A hazard key's last writer (-1: none) and its readers since that
  /// write, ascending: readers_[at, at + n), with room for `cap`.
  struct Hazard {
    TaskId writer = -1;
    size_t at = 0;
    std::uint32_t n = 0;
    std::uint32_t cap = 0;
  };

  /// Node and edge counts, cumulative across runs.
  struct Counts {
    index_t in = 0, comp = 0, out = 0;
    index_t edges = 0, fence_edges = 0;
  };

  std::span<const TaskId> deps_of(const Node& n) const {
    return n.n_deps <= 2 ? std::span<const TaskId>(n.inline_deps, n.n_deps)
                         : std::span<const TaskId>(deps_.data() + n.spill_at,
                                                   n.n_deps);
  }
  /// Marks "no key" in implied_by_.
  static constexpr std::uint32_t kNoKey = ~std::uint32_t{0};

  std::string label_text(const TaskLabel& label) const;
  bool is_reader(const Hazard& h, TaskId d) const;
  /// Removes from derived_ the read-named writers a waited reader implies.
  void drop_implied_writers();
  sim::Stream stream_for(TaskStage stage) const;
  void enqueue(Node& node);

  sim::Device& dev_;
  OocGemmOptions opts_;
  // The span name (or "taskgraph"), kept for the plan_log flush.
  std::string name_;
  size_t window_begin_;
  std::optional<sim::TraceSpan> span_;
  sim::Stream in_;
  sim::Stream comp_;
  sim::Stream out_;
  std::vector<Node> nodes_;
  // Dep lists longer than two, each contiguous.
  std::vector<TaskId> deps_;
  std::vector<std::string> heads_;
  // Hazard state per key, the reader lists it points into (a list that
  // outgrows its room moves to the end with twice the room), the derived
  // deps of the node being added and, per dep, the key of the read whose
  // writer it is when a waited reader of that key may imply it (kNoKey
  // otherwise).
  std::vector<Hazard> hazards_;
  std::vector<TaskId> readers_;
  std::vector<TaskId> derived_;
  std::vector<std::uint32_t> implied_by_;
  // Every node below this index was enqueued by an earlier run(); run()
  // only has to solve the suffix.
  size_t run_from_ = 0;
  Counts counts_;
  // Kahn scratch of run(), owned here so incremental runs reuse it: pending
  // dep counts and CSR successor lists over the unsolved suffix, and the
  // (priority, id) ready min-heap.
  std::vector<index_t> pending_;
  std::vector<size_t> succ_begin_;
  std::vector<TaskId> succ_;
  std::vector<std::pair<std::int64_t, TaskId>> ready_;
};

} // namespace rocqr::ooc
