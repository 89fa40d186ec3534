#include "qr/tiled_qr.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <utility>

#include "common/error.hpp"
#include "ooc/engine_util.hpp"
#include "ooc/operand.hpp"
#include "ooc/task_graph.hpp"
#include "qr/driver_util.hpp"
#include "qr/panel.hpp"
#include "sim/scoped_matrix.hpp"
#include "sim/trace_export.hpp"

namespace rocqr::qr::detail {

namespace {

using ooc::Access;
using ooc::HazardKey;
using ooc::reads;
using ooc::TaskCtx;
using ooc::TaskGraph;
using ooc::TaskLabel;
using ooc::TaskStage;
using ooc::writes;
using sim::Device;
using sim::DeviceMatrixRef;
using sim::ScopedMatrix;
using sim::StoragePrecision;

/// Rotating device-buffer pool. A slot holds one buffer per lane (the jobs a
/// program factors in lockstep acquire and release a slot together), stored
/// flat at slot * lanes + lane, and one hazard key that every lane shares.
class SlotPool {
 public:
  /// Allocates `slots` slots of one rows x cols buffer per lane, labelled
  /// label(s) (plus ".<lane>" when there are several lanes), and their keys.
  template <typename Label>
  void allocate(TaskGraph& g, Device& dev, index_t slots, size_t lanes,
                index_t rows, index_t cols, StoragePrecision prec,
                Label label) {
    lanes_ = lanes;
    bufs_.reserve(static_cast<size_t>(slots) * lanes);
    for (index_t s = 0; s < slots; ++s) {
      const sim::OpName name = label(s);
      for (size_t k = 0; k < lanes; ++k) {
        bufs_.emplace_back(dev, rows, cols, prec,
                           lanes == 1 ? name : sim::op_name(name, ".", k));
      }
    }
    key_ = g.key(static_cast<size_t>(slots));
  }
  size_t size() const { return bufs_.size() / lanes_; }
  /// The top-left rows x cols block of slot s's buffer for `lane`.
  DeviceMatrixRef block(size_t s, index_t rows, index_t cols,
                        size_t lane = 0) const {
    return DeviceMatrixRef(bufs_[s * lanes_ + lane].get())
        .block(0, 0, rows, cols);
  }
  HazardKey key(size_t s) const { return key_ + s; }
  size_t acquire() {
    const size_t s = next_;
    next_ = (next_ + 1) % size();
    return s;
  }

 private:
  std::vector<ScopedMatrix> bufs_; // [slot * lanes + lane]
  size_t lanes_ = 1;
  HazardKey key_;
  size_t next_ = 0;
};

/// The node program of one factorization inside a (possibly colocated)
/// batch — or, for the fused blocking batch, of K same-shape factorizations
/// in lockstep, one per lane. Programs build their DAG segment by segment so
/// the checkpointing caller can run round-by-round; without a checkpoint
/// sink every segment is added and the graph runs once. One checkpoint/resume
/// *unit* per completed segment, under the program's driver tag — the same
/// unit vocabulary as the solo runs, so a job preempted from a batch resumes
/// solo (and vice versa).
///
/// A program splits A into full-height column blocks of the blocksize (its
/// tiles or panels). Every node declares the pool slots and blocks of A it
/// reads and writes, and the graph derives the node's deps from them
/// (TaskGraph's hazard rule). Each block of A has one hazard key, shared by
/// the lanes; R blocks need none, since each is written once and never read
/// back.
///
/// A node costs its program no heap allocation once the scratch below has
/// grown: its label is a TaskLabel on the head its kind registered once,
/// and its body captures `this` plus an index into args_ (16 bytes, which
/// std::function stores inline). The body rebuilds the node's device
/// operands at enqueue, into scratch that keeps its capacity, and formats
/// its op name in place (sim::op_name).
class Program {
 public:
  /// `tag` is the checkpoint driver tag ("tiled" / "blocking" / "left")
  /// that qr::resume dispatches on.
  Program(TaskGraph& graph, std::span<const BatchJob> lanes,
          sim::OpName prefix, const char* tag)
      : g_(graph), lanes_(lanes), job_(lanes.front()), prefix_(prefix),
        m_(job_.a.rows), n_(job_.a.cols), tag_(tag) {
    ROCQR_CHECK(m_ >= n_ && n_ >= 1,
                std::string(tag) + " program: need m >= n >= 1");
    ROCQR_CHECK(job_.r.rows == n_ && job_.r.cols == n_,
                std::string(tag) + " program: R must be n x n");
    b_ = std::min(job_.opts.blocksize, n_);
    blocks_ = (n_ + b_ - 1) / b_;
    a_keys_ = g_.key(static_cast<size_t>(blocks_));
  }
  virtual ~Program() = default;

  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  /// The jobs this program factors: one, except in a fused batch.
  std::span<const BatchJob> lanes() const { return lanes_; }
  const char* driver_tag() const { return tag_; }
  index_t units_done() const { return units_; }
  index_t columns_done() const { return std::min(units_ * b_, n_); }

  virtual void allocate(Device& dev) = 0;
  /// First segment (resume positioning and any staging). Returns true when
  /// it completed a new unit (a checkpoint boundary). By default it only
  /// positions at the resume unit, whose blocks' results the checkpoint
  /// restored onto the host: nothing to stage. (Every lane shares one
  /// resume_units: fusion only joins jobs at the same checkpoint boundary.)
  virtual bool begin() {
    step_ = std::min(job_.opts.resume_units, blocks_);
    units_ = step_;
    return false;
  }
  /// Adds the next segment; false once the factorization is fully built.
  virtual bool add_step() = 0;

 protected:
  /// What a node's body needs besides its program: the node kind, its
  /// panel or tile indices, and the pool slots it was given when it was
  /// added (slot rotation happens at build time).
  struct NodeArgs {
    int kind = 0;
    index_t i = 0;
    index_t j = 0;
    size_t s0 = 0;
    size_t s1 = 0;
    size_t s2 = 0;
  };

  /// Enqueue-time body of a node: issues its device ops.
  virtual void run_node(TaskCtx& c, const NodeArgs& a) = 0;

  /// Declares node kind `kind`: its stage, and its labels' head prefix_ +
  /// `head` (e.g. "j3.inB "), followed by the node's i, or i and j when
  /// `ints` is 2.
  void declare(int kind, TaskStage stage, const char* head, int ints) {
    const std::uint32_t h = g_.label_head(prefix_.str() + head);
    kinds_.at(static_cast<size_t>(kind)) = {stage, h, ints};
  }

  /// Adds a node of kind args.kind whose deps follow from `accesses` and
  /// that runs run_node(args) at enqueue.
  void add_node(const NodeArgs& args, std::int64_t priority,
                std::initializer_list<Access> accesses) {
    const KindInfo& k = kinds_[static_cast<size_t>(args.kind)];
    const TaskLabel label = k.ints == 1 ? TaskLabel(k.head, args.i)
                                        : TaskLabel(k.head, args.i, args.j);
    const size_t at = args_.size();
    args_.push_back(args);
    const auto body = [this, at](TaskCtx& c) { run_node(c, args_[at]); };
    g_.add(k.stage, label, body, accesses, priority);
  }

  /// Buffer labels prefix_ + `role` + slot, for SlotPool::allocate.
  auto numbered(const char* role) const {
    return [this, role](index_t s) { return sim::op_name(prefix_, role, s); };
  }

  /// prefix_ + `what` + the integers joined by ',' (TaskLabel's rendering).
  sim::OpName op_name(const char* what, index_t a) const {
    return sim::op_name(prefix_, what, a);
  }
  sim::OpName op_name(const char* what, index_t a, index_t b) const {
    return sim::op_name(prefix_, what, a, ",", b);
  }

  index_t width(index_t t) const { return std::min(b_, n_ - t * b_); }
  index_t offset(index_t t) const { return t * b_; }
  /// Column block t of lane `lane`'s A.
  sim::HostConstRef a_block_const(size_t lane, index_t t) const {
    return ooc::host_block(sim::as_const(lanes_[lane].a), 0, offset(t), m_,
                           width(t));
  }
  sim::HostMutRef a_block(size_t lane, index_t t) const {
    return ooc::host_block(lanes_[lane].a, 0, offset(t), m_, width(t));
  }
  /// The hazard key of column block t of A.
  HazardKey a_key(index_t t) const {
    return a_keys_ + static_cast<size_t>(t);
  }
  /// Priority key: (block i, phase) with phases 0..3 per step, so
  /// colocated programs interleave block by block.
  std::int64_t prio(index_t i, std::int64_t phase) const {
    return 4 * static_cast<std::int64_t>(i) + phase;
  }

  TaskGraph& g_;
  std::span<const BatchJob> lanes_;
  /// The first lane; every lane shares its shape and options.
  const BatchJob& job_;
  /// Prefix of every node label, op name and buffer label: the job label
  /// ("j3."), or "fused " for a fused batch.
  const sim::OpName prefix_;
  const index_t m_;
  const index_t n_;
  index_t b_ = 0;
  /// Column blocks (tiles or panels) of A.
  index_t blocks_ = 0;
  /// The step add_step adds next.
  index_t step_ = 0;
  index_t units_ = 0;

 private:
  struct KindInfo {
    TaskStage stage = TaskStage::Compute;
    std::uint32_t head = 0;
    int ints = 1;
  };
  const char* tag_;
  HazardKey a_keys_;
  /// Indexed by kind; sized for the program with the most kinds
  /// (BlockingProgram).
  std::array<KindInfo, 9> kinds_{};
  std::vector<NodeArgs> args_; // indexed by the bodies
};

/// Tiled CGS: step k streams every trailing tile through the device while
/// tile k+1 factors in place as soon as its own update lands (Buttari-style
/// lookahead via priority keys). One unit = one factored tile.
class TiledProgram : public Program {
 public:
  TiledProgram(TaskGraph& graph, const BatchJob& job)
      : Program(graph, {&job, 1}, job.label, "tiled") {
    declare(Stage, TaskStage::MoveIn, "stage ", 1);
    declare(In, TaskStage::MoveIn, "in ", 2);
    declare(Upd, TaskStage::Compute, "upd ", 2);
    declare(OutR, TaskStage::MoveOut, "outR ", 2);
    declare(Fac, TaskStage::Compute, "fac ", 1);
    declare(Emit, TaskStage::MoveOut, "emit ", 1);
    declare(OutA, TaskStage::MoveOut, "outA ", 2);
  }

  /// Device working set: two role-swapping resident tiles, up to two
  /// streaming slots for far tiles, and a rotating pool of b x b R tiles.
  void allocate(Device& dev) override {
    const auto fp32 = StoragePrecision::FP32;
    big_.allocate(g_, dev, std::min<index_t>(2, blocks_), 1, m_, b_, fp32,
                  [this](index_t s) {
                    return sim::op_name(prefix_, s == 0 ? "tiled tile a"
                                                        : "tiled tile b");
                  });
    stream_.allocate(g_, dev, std::clamp<index_t>(blocks_ - 2, 0, 2), 1, m_,
                     b_, fp32, numbered("tiled stream "));
    rtiles_.allocate(g_, dev, std::min<index_t>(4, blocks_ + 1), 1, b_, b_,
                     fp32, numbered("tiled r "));
  }

  /// First segment: stage the starting tile. A fresh run factors tile 0;
  /// a resume (opts.resume_units = u > 0) re-stages the already-factored
  /// Q_{u-1} and goes straight to step u-1.
  bool begin() override {
    const index_t u = std::min(job_.opts.resume_units, blocks_);
    step_ = u > 0 ? u - 1 : 0;
    units_ = std::max<index_t>(u, 0);
    if (u >= blocks_) return false; // everything already factored
    const index_t t = step_;
    add_node({Stage, t}, prio(t, 0), {writes(tile_key(t)), reads(a_key(t))});
    // A staged Q_{u-1} needs no factor and no emit: step u-1's updates read
    // it as staged.
    if (u > 0) return false;
    add_factor(t, prio(t, 0));
    units_ = 1;
    return true;
  }

  /// Adds step k (updates by Q_k plus the factorization of tile k+1) and
  /// advances. Returns false once every tile is factored.
  bool add_step() override {
    if (step_ >= blocks_ - 1) return false;
    const index_t k = step_;
    for (index_t j = k + 1; j < blocks_; ++j) {
      const bool resident = j == k + 1;
      const std::int64_t p = prio(k, resident ? 1 : 3);

      // Move-in of tile j: into the resident buffer, which held Q_{k-1}
      // until its readers finished, or into a streaming slot. Host tile j
      // is re-read after the previous step's writeback of it.
      const size_t far_slot = resident ? 0 : stream_.acquire();
      const HazardKey dst = resident ? tile_key(j) : stream_.key(far_slot);
      add_node({In, k, j, far_slot}, p, {writes(dst), reads(a_key(j))});

      // Block-MGS update: R_kj = Q_k^T A_j, then A_j -= Q_k R_kj.
      const size_t rs = rtiles_.acquire();
      const HazardKey r = rtiles_.key(rs);
      add_node({Upd, k, j, far_slot, rs}, p,
               {writes(dst), reads(tile_key(k)), writes(r)});

      // R row writeback.
      add_node({OutR, k, j, far_slot, rs}, p, {reads(r)});

      if (resident) {
        // The tile that just absorbed its update factors in place — the
        // lookahead: priority (k, 2) beats the far updates' (k, 3), so the
        // panel runs on the compute engine while they stream.
        add_factor(j, prio(k, 2));
      } else {
        add_node({OutA, k, j, far_slot}, p, {reads(dst), writes(a_key(j))});
      }
    }
    ++step_;
    units_ = step_ + 1;
    return true;
  }

 private:
  enum Kind { Stage, In, Upd, OutR, Fac, Emit, OutA };

  /// i = the step k (the tile t for Stage/Fac/Emit), j = the trailing
  /// tile, s0 = the streaming slot of a far tile, s1 = the R tile slot.
  void run_node(TaskCtx& c, const NodeArgs& a) override {
    const index_t k = a.i;
    const index_t j = a.j;
    switch (a.kind) {
    case Stage:
      c.h2d(tile_buf(k), a_block_const(0, k), op_name("h2d tile ", k));
      break;
    case In:
      c.h2d(trailing_buf(k, j, a.s0), a_block_const(0, j),
            op_name("h2d tile ", j));
      break;
    case Upd: {
      const DeviceMatrixRef q = tile_buf(k);
      const DeviceMatrixRef dst = trailing_buf(k, j, a.s0);
      const DeviceMatrixRef rt = rtiles_.block(a.s1, width(k), width(j));
      c.gemm(blas::Op::Trans, blas::Op::NoTrans, 1.0f, q, dst, 0.0f, rt,
             op_name("gemm qta ", k, j));
      c.gemm(blas::Op::NoTrans, blas::Op::NoTrans, -1.0f, q, rt, 1.0f, dst,
             op_name("gemm upd ", k, j));
      break;
    }
    case OutR: {
      const DeviceMatrixRef rt = rtiles_.block(a.s1, width(k), width(j));
      c.d2h(ooc::host_block(job_.r, offset(k), offset(j), rt.rows, rt.cols),
            rt, op_name("d2h R ", k, j));
      break;
    }
    case Fac:
      panel_qr_device(c.device(), tile_buf(k),
                      rtiles_.block(a.s1, width(k), width(k)), c.stream(),
                      job_.opts, prefix_);
      break;
    case Emit: {
      const index_t w = width(k);
      c.d2h(ooc::host_block(job_.r, offset(k), offset(k), w, w),
            rtiles_.block(a.s1, w, w), op_name("d2h R ", k, k));
      c.d2h(a_block(0, k), tile_buf(k), op_name("d2h Q ", k));
      break;
    }
    case OutA:
      c.d2h(a_block(0, j), trailing_buf(k, j, a.s0), op_name("d2h tile ", j));
      break;
    }
  }

  /// Tile t lives in resident buffer t mod 2.
  HazardKey tile_key(index_t t) const {
    return big_.key(static_cast<size_t>(t) & 1);
  }
  DeviceMatrixRef tile_buf(index_t t) const {
    return big_.block(static_cast<size_t>(t) & 1, m_, width(t));
  }
  /// Where step k holds trailing tile j: the resident buffer for j = k+1,
  /// else streaming slot `far_slot`.
  DeviceMatrixRef trailing_buf(index_t k, index_t j, size_t far_slot) const {
    return j == k + 1 ? tile_buf(j) : stream_.block(far_slot, m_, width(j));
  }

  /// Factors tile t in place, with R_tt into the next R tile, then writes
  /// R_tt and Q_t back.
  void add_factor(index_t t, std::int64_t p) {
    const size_t rs = rtiles_.acquire();
    const HazardKey r = rtiles_.key(rs);
    add_node({Fac, t, 0, 0, rs}, p, {writes(tile_key(t)), writes(r)});
    add_node({Emit, t, 0, 0, rs}, p,
             {reads(tile_key(t)), reads(r), writes(a_key(t))});
  }

  SlotPool big_;
  SlotPool stream_;
  SlotPool rtiles_;
};

/// Right-looking fixed-panel CGS as a node program: factor panel i, then
/// stream every trailing panel through the device twice — once in the GEMM
/// input storage width for the inner product R12 = Q^T B (k = m, fixed),
/// once as the fp32 accumulator tile of the outer update C -= Q R12
/// (k = w, fixed) — exactly the solo driver's double-streaming. Because
/// every output element comes from ONE gemm whose k-extent is independent
/// of the panel/tile partition, and fp16 conversions are elementwise, the
/// arithmetic is bitwise identical to the solo blocking driver: a job
/// preempted here resumes solo (tag "blocking") bit-identically. One unit
/// = one panel iteration (panel factored + trailing updates applied).
///
/// The program is K >= 1 lanes wide. Colocation runs one lane named under
/// the job's label; a fused batch (run_fused_batch) runs K same-shape jobs
/// in lockstep named under "fused ". Every node issues ONE device op whose
/// entries are the lanes' bodies in lane order, so each lane's numerics are
/// its solo numerics while the fixed per-op latencies are paid once per
/// node, not once per lane.
class BlockingProgram : public Program {
 public:
  BlockingProgram(TaskGraph& graph, std::span<const BatchJob> lanes,
                  sim::OpName prefix)
      : Program(graph, lanes, prefix, "blocking") {
    declare(InP, TaskStage::MoveIn, "inP ", 1);
    declare(Fac, TaskStage::Compute, "fac ", 1);
    declare(Emit, TaskStage::MoveOut, "emit ", 1);
    declare(InB, TaskStage::MoveIn, "inB ", 2);
    declare(Inner, TaskStage::Compute, "inner ", 2);
    declare(OutR, TaskStage::MoveOut, "outR ", 2);
    declare(InC, TaskStage::MoveIn, "inC ", 2);
    declare(Outer, TaskStage::Compute, "outer ", 2);
    declare(OutA, TaskStage::MoveOut, "outA ", 2);
  }

  /// Working set, per lane: a panel double buffer, streaming slots for the
  /// trailing panels' inner-product input (GEMM storage width) and
  /// outer-product accumulator (fp32), and a rotating pool of b x b R tiles.
  void allocate(Device& dev) override {
    const StoragePrecision in_prec =
        ooc::detail::input_storage(gemm_options(job_.opts));
    const auto add = [&](SlotPool& pool, index_t slots, index_t rows,
                         StoragePrecision prec, const char* role) {
      pool.allocate(g_, dev, slots, lanes_.size(), rows, b_, prec,
                    numbered(role));
    };
    const index_t trail_slots = std::min<index_t>(2, blocks_ - 1);
    add(panel_, std::min<index_t>(2, blocks_), m_, StoragePrecision::FP32,
        "blk panel ");
    add(bstream_, trail_slots, m_, in_prec, "blk b ");
    add(cstream_, trail_slots, m_, StoragePrecision::FP32, "blk c ");
    add(rtiles_, std::min<index_t>(4, blocks_ + 1), b_, StoragePrecision::FP32,
        "blk r ");
  }

  /// Adds panel iteration i: move-in + factor + emit, then the trailing
  /// inner/outer update pair per remaining panel.
  bool add_step() override {
    if (step_ >= blocks_) return false;
    const index_t i = step_;
    const std::int64_t p = prio(i, 0);

    // Panel move-in into the slot that held panel i-2, in-core panel
    // factorization (recursive CGS on the device) with R_ii into a rotating
    // b x b tile, then one writeback of R_ii and the Q panel.
    const size_t ps = static_cast<size_t>(i) % panel_.size();
    const HazardKey panel = panel_.key(ps);
    add_node({InP, i, 0, ps}, p, {writes(panel), reads(a_key(i))});
    const size_t rs = rtiles_.acquire();
    const HazardKey rii = rtiles_.key(rs);
    add_node({Fac, i, 0, ps, rs}, p, {writes(panel), writes(rii)});
    add_node({Emit, i, 0, ps, rs}, p,
             {reads(panel), reads(rii), writes(a_key(i))});

    // Trailing updates, one panel-width column slab at a time.
    const std::int64_t pt = prio(i, 1);
    for (index_t j = i + 1; j < blocks_; ++j) {
      // Inner-product input slab (GEMM storage width — fp16 on the
      // TensorCore path, halving the streamed bytes like the solo engine).
      const size_t bs = bstream_.acquire();
      const HazardKey b = bstream_.key(bs);
      add_node({InB, i, j, 0, bs}, pt, {writes(b), reads(a_key(j))});

      // R12 = Q^T B over the full column height (k = m).
      const size_t rs2 = rtiles_.acquire();
      const HazardKey r12 = rtiles_.key(rs2);
      add_node({Inner, i, j, ps, bs, rs2}, pt,
               {reads(b), reads(panel), writes(r12)});
      add_node({OutR, i, j, 0, 0, rs2}, pt, {reads(r12)});

      // Fresh fp32 read of the same slab as the beta = 1 accumulator —
      // the solo engines' double-streaming, byte for byte.
      const size_t cs = cstream_.acquire();
      const HazardKey acc = cstream_.key(cs);
      add_node({InC, i, j, 0, cs}, pt, {writes(acc), reads(a_key(j))});
      add_node({Outer, i, j, ps, cs, rs2}, pt,
               {writes(acc), reads(r12), reads(panel)});
      add_node({OutA, i, j, 0, cs}, pt, {reads(acc), writes(a_key(j))});
    }
    ++step_;
    units_ = step_;
    return true;
  }

 private:
  using H2d = Device::H2dBatchEntry;
  using D2h = Device::D2hBatchEntry;
  using Gemm = Device::GemmBatchEntry;

  enum Kind { InP, Fac, Emit, InB, Inner, OutR, InC, Outer, OutA };

  /// i = the panel, j = the trailing panel, s0 = the panel slot, s1 = the
  /// b or c streaming slot (Fac/Emit: the R tile slot), s2 = the trailing
  /// update's R tile slot. Every node issues one device op over its lanes'
  /// entries, in lane order.
  void run_node(TaskCtx& c, const NodeArgs& a) override {
    const index_t i = a.i;
    const index_t j = a.j;
    const index_t w = width(i);
    const index_t wj = width(j);
    const size_t lanes = lanes_.size();
    switch (a.kind) {
    case InP:
      h2d_.clear();
      for (size_t k = 0; k < lanes; ++k) {
        h2d_.push_back({panel_.block(a.s0, m_, w, k), a_block_const(k, i)});
      }
      c.h2d(h2d_, op_name("h2d panel ", i));
      break;
    case Fac: {
      panel_es_.clear();
      for (size_t k = 0; k < lanes; ++k) {
        panel_es_.push_back(
            {panel_.block(a.s0, m_, w, k), rtiles_.block(a.s1, w, w, k)});
      }
      sim::OpName name = sim::op_name(prefix_, "panel_qr ", m_, "x", w);
      if (lanes > 1) name = sim::op_name(name, " x", lanes);
      panel_qr_device_batched(c.device(), panel_es_, c.stream(), job_.opts,
                              name);
      break;
    }
    case Emit:
      d2h_.clear();
      for (size_t k = 0; k < lanes; ++k) {
        d2h_.push_back(
            {ooc::host_block(lanes_[k].r, offset(i), offset(i), w, w),
             rtiles_.block(a.s1, w, w, k)});
        d2h_.push_back({a_block(k, i), panel_.block(a.s0, m_, w, k)});
      }
      c.d2h(d2h_, op_name("d2h RiiQ ", i));
      break;
    case InB:
      h2d_.clear();
      for (size_t k = 0; k < lanes; ++k) {
        h2d_.push_back({bstream_.block(a.s1, m_, wj, k), a_block_const(k, j)});
      }
      c.h2d(h2d_, op_name("h2d b ", j));
      break;
    case Inner:
      gemm_.clear();
      for (size_t k = 0; k < lanes; ++k) {
        gemm_.push_back({blas::Op::Trans, blas::Op::NoTrans, 1.0f,
                         panel_.block(a.s0, m_, w, k),
                         bstream_.block(a.s1, m_, wj, k), 0.0f,
                         rtiles_.block(a.s2, w, wj, k)});
      }
      c.gemm(gemm_, op_name("gemm qtb ", i, j));
      break;
    case OutR:
      d2h_.clear();
      for (size_t k = 0; k < lanes; ++k) {
        d2h_.push_back(
            {ooc::host_block(lanes_[k].r, offset(i), offset(j), w, wj),
             rtiles_.block(a.s2, w, wj, k)});
      }
      c.d2h(d2h_, op_name("d2h R ", i, j));
      break;
    case InC:
      h2d_.clear();
      for (size_t k = 0; k < lanes; ++k) {
        h2d_.push_back({cstream_.block(a.s1, m_, wj, k), a_block_const(k, j)});
      }
      c.h2d(h2d_, op_name("h2d c ", j));
      break;
    case Outer:
      gemm_.clear();
      for (size_t k = 0; k < lanes; ++k) {
        gemm_.push_back({blas::Op::NoTrans, blas::Op::NoTrans, -1.0f,
                         panel_.block(a.s0, m_, w, k),
                         rtiles_.block(a.s2, w, wj, k), 1.0f,
                         cstream_.block(a.s1, m_, wj, k)});
      }
      c.gemm(gemm_, op_name("gemm upd ", i, j));
      break;
    case OutA:
      d2h_.clear();
      for (size_t k = 0; k < lanes; ++k) {
        d2h_.push_back({a_block(k, j), cstream_.block(a.s1, m_, wj, k)});
      }
      c.d2h(d2h_, op_name("d2h tile ", j));
      break;
    }
  }

  SlotPool panel_;
  SlotPool bstream_;
  SlotPool cstream_;
  SlotPool rtiles_;
  // Per-lane operand scratch of run_node.
  std::vector<H2d> h2d_;
  std::vector<D2h> d2h_;
  std::vector<Gemm> gemm_;
  std::vector<PanelBatchEntry> panel_es_;
};

/// Left-looking out-of-core QR — the classic disk-era formulation (SOLAR,
/// §2.1): each panel pulls in all previously factored Q panels and applies
/// their projections lazily, so the trailing matrix is never updated or
/// written back. Compared to the right-looking blocking driver it moves far
/// fewer bytes (especially device-to-host) at the price of skinny
/// panel-width GEMMs. Under the calibrated V100 model its movement savings
/// outweigh even the TensorCore shape penalty — it beats right-looking
/// blocking — but the paper's recursive algorithm beats both, because it is
/// the only formulation that gets small movement AND near-peak GEMM shapes
/// simultaneously (see bench/left_vs_right).
///
/// As a node program: panel i moves in once, absorbs every previous panel's
/// projection (Q_j streamed back in GEMM storage width, R(j,i) = Q_j^T P
/// with k = m then P -= Q_j R(j,i) with k = w_j), factors, and writes
/// Q_i / R_ii out. A solo run is this program's one-job batch (resume tag
/// "left"). One unit = one panel.
class LeftLookingProgram : public Program {
 public:
  LeftLookingProgram(TaskGraph& graph, const BatchJob& job)
      : Program(graph, {&job, 1}, job.label, "left") {
    declare(InP, TaskStage::MoveIn, "inP ", 1);
    declare(InQ, TaskStage::MoveIn, "inQ ", 2);
    declare(Proj, TaskStage::Compute, "proj ", 2);
    declare(OutR, TaskStage::MoveOut, "outR ", 2);
    declare(Fac, TaskStage::Compute, "fac ", 1);
    declare(Emit, TaskStage::MoveOut, "emit ", 1);
  }

  /// Working set: a panel double buffer, a streamed-Q ring of
  /// opts.pipeline_depth slots in GEMM storage width, and single shared
  /// R-block / R_ii scratches (the projection chain serializes on them).
  void allocate(Device& dev) override {
    const auto fp32 = StoragePrecision::FP32;
    const StoragePrecision q_prec =
        ooc::detail::input_storage(gemm_options(job_.opts));
    panel_.allocate(g_, dev, std::min<index_t>(2, blocks_), 1, m_, b_, fp32,
                    numbered("ll panel "));
    qring_.allocate(g_, dev, std::max(1, job_.opts.pipeline_depth), 1, m_, b_,
                    q_prec, numbered("ll q "));
    rblk_.allocate(g_, dev, 1, 1, b_, b_, fp32, [this](index_t) {
      return sim::op_name(prefix_, "ll rblk");
    });
    rii_.allocate(g_, dev, 1, 1, b_, b_, fp32, [this](index_t) {
      return sim::op_name(prefix_, "ll rii");
    });
  }

  /// Adds panel i: move-in, the i previous panels' projections, factor,
  /// emit.
  bool add_step() override {
    if (step_ >= blocks_) return false;
    const index_t i = step_;

    // The panel's columns are still ORIGINAL data (left-looking writes
    // each column block exactly once, at its emit), so the move-in waits
    // no writeback — only the readers of the double-buffer slot.
    const size_t ps = static_cast<size_t>(i) % panel_.size();
    const HazardKey panel = panel_.key(ps);
    add_node({InP, i, 0, ps}, prio(i, 0), {writes(panel), reads(a_key(i))});

    // Lazy application of every previous panel's projection. The single
    // shared R scratch chains them: projection j+1's beta = 0 GEMM waits
    // for projection j's R writeback to drain.
    const HazardKey rblk = rblk_.key(0);
    for (index_t j = 0; j < i; ++j) {
      const std::int64_t pt = prio(i, 1);
      // Q_j must have landed on the host: its emit wrote it (a
      // resume-restored panel was there before the graph started).
      const size_t qs = qring_.acquire();
      const HazardKey q = qring_.key(qs);
      add_node({InQ, i, j, ps, qs}, pt, {writes(q), reads(a_key(j))});

      // R(j, i) = Q_j^T P ; P -= Q_j R(j, i) — the skinny GEMM pair.
      add_node({Proj, i, j, ps, qs}, pt,
               {reads(q), writes(panel), writes(rblk)});
      add_node({OutR, i, j}, pt, {reads(rblk)});
    }

    // In-core factorization of the fully projected panel, then the Q / Rii
    // writebacks. The shared Rii scratch waits the previous emit.
    const HazardKey rii = rii_.key(0);
    add_node({Fac, i, 0, ps}, prio(i, 2), {writes(panel), writes(rii)});
    add_node({Emit, i, 0, ps}, prio(i, 2),
             {reads(panel), reads(rii), writes(a_key(i))});
    ++step_;
    units_ = step_;
    return true;
  }

 private:
  enum Kind { InP, InQ, Proj, OutR, Fac, Emit };

  /// i = the panel, j = the projecting panel, s0 = the panel slot, s1 =
  /// the Q ring slot.
  void run_node(TaskCtx& c, const NodeArgs& a) override {
    const index_t i = a.i;
    const index_t j = a.j;
    const index_t w = width(i);
    switch (a.kind) {
    case InP:
      c.h2d(panel_.block(a.s0, m_, w), a_block_const(0, i),
            op_name("h2d panel ", i));
      break;
    case InQ:
      c.h2d(qring_.block(a.s1, m_, width(j)), a_block_const(0, j),
            op_name("h2d Q", j));
      break;
    case Proj: {
      const DeviceMatrixRef qd = qring_.block(a.s1, m_, width(j));
      const DeviceMatrixRef pd = panel_.block(a.s0, m_, w);
      const DeviceMatrixRef rb = rblk_.block(0, width(j), w);
      c.gemm(blas::Op::Trans, blas::Op::NoTrans, 1.0f, qd, pd, 0.0f, rb,
             op_name("proj R ", i, j));
      c.gemm(blas::Op::NoTrans, blas::Op::NoTrans, -1.0f, qd, rb, 1.0f, pd,
             op_name("proj update ", i, j));
      break;
    }
    case OutR: {
      const DeviceMatrixRef rb = rblk_.block(0, width(j), w);
      c.d2h(ooc::host_block(job_.r, offset(j), offset(i), rb.rows, rb.cols),
            rb, op_name("d2h R block ", i, j));
      break;
    }
    case Fac:
      panel_qr_device(c.device(), panel_.block(a.s0, m_, w),
                      rii_.block(0, w, w), c.stream(), job_.opts, prefix_);
      break;
    case Emit:
      c.d2h(ooc::host_block(job_.r, offset(i), offset(i), w, w),
            rii_.block(0, w, w), op_name("d2h Rii ", i));
      c.d2h(a_block(0, i), panel_.block(a.s0, m_, w), op_name("d2h Q ", i));
      break;
    }
  }

  SlotPool panel_;
  SlotPool qring_;
  SlotPool rblk_;
  SlotPool rii_;
};

std::unique_ptr<Program> make_program(TaskGraph& graph, const BatchJob& job) {
  if (job.algorithm == "tiled") {
    return std::make_unique<TiledProgram>(graph, job);
  }
  if (job.algorithm == "blocking") {
    return std::make_unique<BlockingProgram>(
        graph, std::span<const BatchJob>(&job, 1), job.label);
  }
  if (job.algorithm == "left") {
    return std::make_unique<LeftLookingProgram>(graph, job);
  }
  throw InvalidArgument("run_batch: no node program for algorithm \"" +
                        job.algorithm + "\"");
}

/// Runs `jobs` as ONE task graph on `dev` and returns the trace index the
/// run started at (the stats window). Colocated, every job is its own
/// one-lane program; `fused`, the jobs are the K lanes of one blocking
/// program. Without a checkpoint sink the whole DAG is built and run once —
/// maximum lookahead across every step of every program. With one, the
/// graph runs round by round so every boundary is a consistent "u units
/// factored" host snapshot: a round enqueues one segment of EVERY program
/// before the single graph.run(), so colocated programs still interleave on
/// the engines between checkpoint syncs; only then does each lane of each
/// advanced program checkpoint (maybe_checkpoint synchronizes before
/// snapshotting, and is where a serve PreemptSink raises PreemptRequest,
/// unwinding the whole batch). With one program this is exactly the
/// segment-per-segment schedule resume replays; a fused program's lanes
/// advance in lockstep, so a round is one boundary for every member, and
/// each checkpoint carries the solo driver tag.
size_t run_programs(Device& dev, const std::vector<BatchJob>& jobs,
                    bool fused, std::string span_name) {
  const size_t window = dev.trace().size();
  sim::TraceSpan span(dev, std::move(span_name));
  TaskGraph graph(dev, gemm_options(jobs.front().opts));
  std::vector<std::unique_ptr<Program>> progs;
  if (fused) {
    progs.push_back(std::make_unique<BlockingProgram>(graph, jobs, "fused "));
  } else {
    for (const BatchJob& job : jobs) progs.push_back(make_program(graph, job));
  }
  for (const auto& p : progs) p->allocate(dev);

  if (std::none_of(jobs.begin(), jobs.end(), [](const BatchJob& job) {
        return job.opts.checkpoint_sink != nullptr;
      })) {
    for (const auto& p : progs) p->begin();
    bool more = true;
    while (more) {
      more = false;
      for (const auto& p : progs) more = p->add_step() || more;
    }
    graph.run();
  } else {
    // One round: every program adds its next segment (`first`: its
    // begin()), the graph runs, and the programs that completed a unit
    // checkpoint. False once no program advanced.
    std::vector<const Program*> advanced;
    const auto round = [&](bool first) {
      advanced.clear();
      for (const auto& p : progs) {
        if (first ? p->begin() : p->add_step()) advanced.push_back(p.get());
      }
      graph.run();
      for (const Program* p : advanced) {
        for (const BatchJob& job : p->lanes()) {
          maybe_checkpoint(dev, p->driver_tag(), job.a, job.r, job.opts,
                           p->columns_done(), p->units_done());
        }
      }
      return !advanced.empty();
    };
    round(true);
    while (round(false)) {
    }
  }
  dev.synchronize();
  return window;
}

} // namespace

std::vector<QrStats> run_batch(Device& dev,
                               const std::vector<BatchJob>& jobs) {
  ROCQR_CHECK(!jobs.empty(), "run_batch: no jobs");
  const std::string& algorithm = jobs.front().algorithm;
  bool one_algorithm = true;
  for (const BatchJob& job : jobs) {
    job.opts.validate();
    one_algorithm = one_algorithm && job.algorithm == algorithm;
    // The graph-level transfer/ABFT configuration comes from jobs[0]; a
    // precision mismatch would silently change another job's arithmetic.
    ROCQR_CHECK(job.opts.precision == jobs.front().opts.precision,
                "run_batch: colocated jobs must share a gemm precision");
  }
  // A batch of tiled or of left-looking jobs alone is named like the solo
  // run of its algorithm, which is a one-job batch.
  std::string span = "qr_batch";
  if (one_algorithm && algorithm == "tiled") span = "tiled_qr";
  if (one_algorithm && algorithm == "left") span = "left_looking_qr";
  const size_t window = run_programs(dev, jobs, false, std::move(span));
  std::vector<std::string_view> labels;
  labels.reserve(jobs.size());
  for (const BatchJob& job : jobs) labels.push_back(job.label);
  return stats_by_prefix(dev.trace(), window, dev.memory_peak(), labels);
}

std::vector<QrStats> run_fused_batch(Device& dev,
                                     const std::vector<BatchJob>& jobs) {
  ROCQR_CHECK(!jobs.empty(), "run_fused_batch: no jobs");
  const BatchJob& j0 = jobs.front();
  for (const BatchJob& job : jobs) {
    job.opts.validate();
    ROCQR_CHECK(job.algorithm == "blocking",
                "run_fused_batch: only \"blocking\" jobs fuse (got \"" +
                    job.algorithm + "\")");
    ROCQR_CHECK(!job.opts.abft,
                "run_fused_batch: abft jobs cannot fuse (the batched GEMM "
                "carries no per-job checksum)");
    ROCQR_CHECK(job.a.rows == j0.a.rows && job.a.cols == j0.a.cols,
                "run_fused_batch: fused jobs must share one shape");
    ROCQR_CHECK(job.r.rows == job.a.cols && job.r.cols == job.a.cols,
                "run_fused_batch: R must be n x n");
    ROCQR_CHECK(job.opts.blocksize == j0.opts.blocksize,
                "run_fused_batch: fused jobs must share a blocksize");
    ROCQR_CHECK(job.opts.precision == j0.opts.precision,
                "run_fused_batch: fused jobs must share a gemm precision");
    ROCQR_CHECK(job.opts.panel_algorithm == j0.opts.panel_algorithm &&
                    job.opts.panel_base == j0.opts.panel_base,
                "run_fused_batch: fused jobs must share a panel algorithm");
    ROCQR_CHECK(job.opts.resume_units == j0.opts.resume_units,
                "run_fused_batch: fused jobs must share a resume position");
  }
  const size_t window = run_programs(
      dev, jobs, true, "qr_fused_batch x" + std::to_string(jobs.size()));
  // Even 1/K attribution — exact, because the K jobs are identical in shape
  // and arithmetic.
  const QrStats per = split_fused_stats(
      stats_from_trace(dev.trace(), window, dev.memory_peak()), jobs.size());
  return std::vector<QrStats>(jobs.size(), per);
}

QrStats split_fused_stats(QrStats whole, size_t members) {
  const auto k = static_cast<double>(members);
  whole.panel_seconds /= k;
  whole.gemm_seconds /= k;
  whole.d2d_seconds /= k;
  whole.h2d_seconds /= k;
  whole.d2h_seconds /= k;
  whole.compute_seconds /= k;
  whole.bytes_h2d =
      static_cast<bytes_t>(static_cast<double>(whole.bytes_h2d) / k);
  whole.bytes_d2h =
      static_cast<bytes_t>(static_cast<double>(whole.bytes_d2h) / k);
  whole.bytes_d2d =
      static_cast<bytes_t>(static_cast<double>(whole.bytes_d2d) / k);
  whole.flops = static_cast<flops_t>(static_cast<double>(whole.flops) / k);
  return whole;
}

} // namespace rocqr::qr::detail
