#include "qr/tiled_qr.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
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

using ooc::TaskCtx;
using ooc::TaskGraph;
using ooc::TaskId;
using ooc::TaskLabel;
using ooc::TaskStage;
using sim::Device;
using sim::DeviceMatrixRef;
using sim::HostMutRef;
using sim::ScopedMatrix;
using sim::StoragePrecision;

constexpr TaskId kNone = -1;

/// Rotating device-buffer pool. A slot holds one buffer per lane (the jobs a
/// program factors in lockstep acquire and release a slot together).
/// Acquiring a slot hands back its index; the recorded `last_uses` nodes are
/// the WAR edges the slot's next writer must depend on (the old
/// output-fence taxonomy, now explicit graph edges).
class SlotPool {
 public:
  /// Adds a slot: one rows x cols buffer per lane, labelled `label` (plus
  /// ".<lane>" when there are several lanes).
  void add(Device& dev, size_t lanes, index_t rows, index_t cols,
           StoragePrecision prec, sim::OpName label) {
    std::vector<ScopedMatrix> bufs;
    bufs.reserve(lanes);
    for (size_t k = 0; k < lanes; ++k) {
      bufs.emplace_back(dev, rows, cols, prec,
                        lanes == 1 ? label : sim::op_name(label, ".", k));
    }
    bufs_.push_back(std::move(bufs));
    last_uses_.emplace_back();
  }
  size_t size() const { return bufs_.size(); }
  /// The top-left rows x cols block of slot s's buffer for `lane`.
  DeviceMatrixRef block(size_t s, index_t rows, index_t cols,
                        size_t lane = 0) const {
    return DeviceMatrixRef(bufs_[s][lane].get()).block(0, 0, rows, cols);
  }
  size_t acquire() {
    const size_t s = next_;
    next_ = (next_ + 1) % bufs_.size();
    return s;
  }
  /// Appends slot s's outstanding readers to `deps` — the WAR edges its
  /// next writer takes.
  void depend(size_t s, std::vector<TaskId>& deps) const {
    deps.insert(deps.end(), last_uses_[s].begin(), last_uses_[s].end());
  }
  /// Records the nodes currently reading slot s (replacing prior uses —
  /// the new readers already depend on the old ones transitively). The
  /// slot's list keeps its capacity.
  void use(size_t s, std::span<const TaskId> ids) {
    last_uses_[s].assign(ids.begin(), ids.end());
  }
  void use(size_t s, TaskId id) { use(s, {&id, 1}); }

 private:
  std::vector<std::vector<ScopedMatrix>> bufs_; // [slot][lane]
  std::vector<std::vector<TaskId>> last_uses_;
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
/// A node costs its program no heap allocation once the scratch below has
/// grown: its label is a TaskLabel on the head its kind registered once,
/// its deps are gathered in deps_ and reach the graph as a span, and its
/// body captures `this` plus an index into args_ (16 bytes, which
/// std::function stores inline). The body rebuilds the node's device
/// operands at enqueue, into scratch that keeps its capacity, and formats
/// its op name in place (sim::op_name).
class Program {
 public:
  Program(TaskGraph& graph, std::span<const BatchJob> lanes,
          sim::OpName prefix)
      : g_(graph), lanes_(lanes), job_(lanes.front()), prefix_(prefix) {}
  virtual ~Program() = default;

  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  /// The jobs this program factors: one, except in a fused batch.
  std::span<const BatchJob> lanes() const { return lanes_; }

  /// Checkpoint driver tag ("tiled" / "blocking" / "left") — what
  /// qr::resume dispatches on.
  virtual const char* driver_tag() const = 0;
  virtual void allocate(Device& dev) = 0;
  /// First segment (resume positioning and any staging). Returns true when
  /// it completed a new unit (a checkpoint boundary).
  virtual bool begin() = 0;
  /// Adds the next segment; false once the factorization is fully built.
  virtual bool add_step() = 0;
  virtual index_t units_done() const = 0;
  virtual index_t columns_done() const = 0;

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

  /// Adds a node of kind args.kind that depends on deps_ (then cleared for
  /// the next node) and runs run_node(args) at enqueue.
  TaskId add_node(const NodeArgs& args, std::int64_t priority) {
    const KindInfo& k = kinds_[static_cast<size_t>(args.kind)];
    const TaskLabel label = k.ints == 1 ? TaskLabel(k.head, args.i)
                                        : TaskLabel(k.head, args.i, args.j);
    const size_t at = args_.size();
    args_.push_back(args);
    const auto body = [this, at](TaskCtx& c) { run_node(c, args_[at]); };
    const TaskId id = g_.add(k.stage, label, body, deps_, priority);
    deps_.clear();
    return id;
  }

  /// prefix_ + `what` + the integers joined by ',' (TaskLabel's rendering).
  sim::OpName op_name(const char* what, index_t a) const {
    return sim::op_name(prefix_, what, a);
  }
  sim::OpName op_name(const char* what, index_t a, index_t b) const {
    return sim::op_name(prefix_, what, a, ",", b);
  }

  TaskGraph& g_;
  std::span<const BatchJob> lanes_;
  /// The first lane; every lane shares its shape and options.
  const BatchJob& job_;
  /// Prefix of every node label, op name and buffer label: the job label
  /// ("j3."), or "fused " for a fused batch.
  const sim::OpName prefix_;
  /// The deps of the node being added.
  std::vector<TaskId> deps_;

 private:
  struct KindInfo {
    TaskStage stage = TaskStage::Compute;
    std::uint32_t head = 0;
    int ints = 1;
  };
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
      : Program(graph, {&job, 1}, job.label), a_(job.a), r_(job.r) {
    m_ = a_.rows;
    n_ = a_.cols;
    ROCQR_CHECK(m_ >= n_ && n_ >= 1, "tiled_qr: need m >= n >= 1");
    ROCQR_CHECK(r_.rows == n_ && r_.cols == n_, "tiled_qr: R must be n x n");
    b_ = std::min(job.opts.blocksize, n_);
    tiles_ = (n_ + b_ - 1) / b_;
    out_a_.assign(static_cast<size_t>(tiles_), kNone);
    declare(Stage, TaskStage::MoveIn, "stage ", 1);
    declare(In, TaskStage::MoveIn, "in ", 2);
    declare(Upd, TaskStage::Compute, "upd ", 2);
    declare(OutR, TaskStage::MoveOut, "outR ", 2);
    declare(Fac, TaskStage::Compute, "fac ", 1);
    declare(Emit, TaskStage::MoveOut, "emit ", 1);
    declare(OutA, TaskStage::MoveOut, "outA ", 2);
  }

  const char* driver_tag() const override { return "tiled"; }
  index_t units_done() const override { return units_; }
  index_t columns_done() const override { return std::min(units_ * b_, n_); }

  /// Device working set: two role-swapping resident tiles, up to two
  /// streaming slots for far tiles, and a rotating pool of b x b R tiles.
  void allocate(Device& dev) override {
    big_.add(dev, 1, m_, b_, StoragePrecision::FP32,
             sim::op_name(prefix_, "tiled tile a"));
    if (tiles_ > 1) {
      big_.add(dev, 1, m_, b_, StoragePrecision::FP32,
               sim::op_name(prefix_, "tiled tile b"));
    }
    const index_t far_slots = std::min<index_t>(2, tiles_ - 2);
    for (index_t s = 0; s < far_slots; ++s) {
      stream_.add(dev, 1, m_, b_, StoragePrecision::FP32,
                  sim::op_name(prefix_, "tiled stream ", s));
    }
    const index_t r_slots = std::min<index_t>(4, tiles_ + 1);
    for (index_t s = 0; s < r_slots; ++s) {
      rtiles_.add(dev, 1, b_, b_, StoragePrecision::FP32,
                  sim::op_name(prefix_, "tiled r ", s));
    }
  }

  /// First segment: stage the starting tile. A fresh run factors tile 0;
  /// a resume (opts.resume_units = u > 0) re-stages the already-factored
  /// Q_{u-1} and goes straight to step u-1.
  bool begin() override {
    const index_t u = std::min(job_.opts.resume_units, tiles_);
    k_ = u > 0 ? u - 1 : 0;
    units_ = std::max<index_t>(u, 0);
    if (u >= tiles_) return false; // everything already factored
    const index_t t = k_;
    const std::int64_t p = prio(t, 0);
    const TaskId stage = add_node({Stage, t}, p);
    if (u > 0) {
      // The staged tile is already Q_{u-1}: no factor, no emit. Updates of
      // step u-1 depend on the staging transfer instead.
      fac_ = stage;
      emit_ = kNone;
      return false;
    }
    fac_ = add_factor(t, stage, p);
    emit_ = add_emit(t, fac_, p);
    units_ = 1;
    return true;
  }

  /// Adds step k (updates by Q_k plus the factorization of tile k+1) and
  /// advances. Returns false once every tile is factored.
  bool add_step() override {
    if (k_ >= tiles_ - 1) return false;
    const index_t k = k_;
    TaskId next_fac = kNone;
    TaskId next_emit = kNone;
    for (index_t j = k + 1; j < tiles_; ++j) {
      const bool resident = j == k + 1;
      const std::int64_t p = prio(k, resident ? 1 : 3);
      const auto ju = static_cast<size_t>(j);

      // Move-in of tile j. WAR edges: the resident destination held
      // Q_{k-1}, so wait its readers; a streaming slot waits the move-out
      // that last drained it. Host-order edge: the previous step's
      // writeback of tile j must land before this re-read.
      size_t far_slot = 0;
      if (resident) {
        deps_.assign(prev_q_readers_.begin(), prev_q_readers_.end());
      } else {
        far_slot = stream_.acquire();
        stream_.depend(far_slot, deps_);
      }
      if (out_a_[ju] != kNone) deps_.push_back(out_a_[ju]);
      const TaskId in = add_node({In, k, j, far_slot}, p);

      // Block-MGS update: R_kj = Q_k^T A_j, then A_j -= Q_k R_kj.
      const size_t rs = rtiles_.acquire();
      deps_.assign({in, fac_});
      rtiles_.depend(rs, deps_);
      const TaskId upd = add_node({Upd, k, j, far_slot, rs}, p);
      q_readers_.push_back(upd);

      // R row writeback.
      deps_.push_back(upd);
      const TaskId outr = add_node({OutR, k, j, far_slot, rs}, p);
      rtiles_.use(rs, outr);

      if (resident) {
        // The tile that just absorbed its update factors in place — the
        // lookahead: priority (k, 2) beats the far updates' (k, 3), so the
        // panel runs on the compute engine while they stream.
        const std::int64_t pf = prio(k, 2);
        next_fac = add_factor(j, upd, pf);
        next_emit = add_emit(j, next_fac, pf);
      } else {
        deps_.push_back(upd);
        const TaskId outa = add_node({OutA, k, j, far_slot}, p);
        stream_.use(far_slot, outa);
        out_a_[ju] = outa;
      }
    }
    std::swap(prev_q_readers_, q_readers_);
    q_readers_.clear();
    if (emit_ != kNone) prev_q_readers_.push_back(emit_);
    fac_ = next_fac;
    emit_ = next_emit;
    ++k_;
    units_ = k_ + 1;
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
      c.h2d(tile_buf(k), host_tile_const(k), op_name("h2d tile ", k));
      break;
    case In:
      c.h2d(trailing_buf(k, j, a.s0), host_tile_const(j),
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
      c.d2h(ooc::host_block(r_, offset(k), offset(j), rt.rows, rt.cols), rt,
            op_name("d2h R ", k, j));
      break;
    }
    case Fac:
      panel_qr_device(c.device(), tile_buf(k),
                      rtiles_.block(a.s1, width(k), width(k)), c.stream(),
                      job_.opts, prefix_);
      break;
    case Emit: {
      const index_t w = width(k);
      c.d2h(ooc::host_block(r_, offset(k), offset(k), w, w),
            rtiles_.block(a.s1, w, w), op_name("d2h R ", k, k));
      c.d2h(host_tile(k), tile_buf(k), op_name("d2h Q ", k));
      break;
    }
    case OutA:
      c.d2h(host_tile(j), trailing_buf(k, j, a.s0), op_name("d2h tile ", j));
      break;
    }
  }

  index_t width(index_t t) const { return std::min(b_, n_ - t * b_); }
  index_t offset(index_t t) const { return t * b_; }
  DeviceMatrixRef tile_buf(index_t t) const {
    return big_.block(static_cast<size_t>(t) & 1, m_, width(t));
  }
  /// Where step k holds trailing tile j: the resident buffer for j = k+1,
  /// else streaming slot `far_slot`.
  DeviceMatrixRef trailing_buf(index_t k, index_t j, size_t far_slot) const {
    return j == k + 1 ? tile_buf(j) : stream_.block(far_slot, m_, width(j));
  }
  sim::HostConstRef host_tile_const(index_t t) const {
    return ooc::host_block(sim::as_const(a_), 0, offset(t), m_, width(t));
  }
  sim::HostMutRef host_tile(index_t t) const {
    return ooc::host_block(a_, 0, offset(t), m_, width(t));
  }
  /// Priority key: (step, phase) with phase 1 = the resident tile's
  /// move-in/update, 2 = the next panel factorization, 3 = far tiles.
  std::int64_t prio(index_t k, std::int64_t phase) const {
    return 4 * static_cast<std::int64_t>(k) + phase;
  }

  TaskId add_factor(index_t t, TaskId dep, std::int64_t p) {
    const size_t rs = rtiles_.acquire();
    deps_.push_back(dep);
    rtiles_.depend(rs, deps_);
    fac_r_slot_ = rs;
    return add_node({Fac, t, 0, 0, rs}, p);
  }

  TaskId add_emit(index_t t, TaskId fac, std::int64_t p) {
    deps_.push_back(fac);
    const TaskId id = add_node({Emit, t, 0, 0, fac_r_slot_}, p);
    rtiles_.use(fac_r_slot_, id);
    return id;
  }

  HostMutRef a_;
  HostMutRef r_;
  index_t m_ = 0;
  index_t n_ = 0;
  index_t b_ = 0;
  index_t tiles_ = 0;
  index_t k_ = 0;
  index_t units_ = 0;
  SlotPool big_;
  SlotPool stream_;
  SlotPool rtiles_;
  TaskId fac_ = kNone;
  TaskId emit_ = kNone;
  size_t fac_r_slot_ = 0;
  std::vector<TaskId> prev_q_readers_;
  std::vector<TaskId> q_readers_;
  /// Per tile: the move-out that last wrote it back (kNone: none yet).
  std::vector<TaskId> out_a_;
};

/// Right-looking fixed-panel CGS as a node program: factor panel i, then
/// stream every trailing panel through the device twice — once in the GEMM
/// input storage width for the inner product R12 = Q^T B (k = m, fixed),
/// once as the fp32 accumulator tile of the outer update C -= Q R12
/// (k = w, fixed) — exactly the solo driver's double-streaming. Because
/// every output element comes from ONE gemm whose k-extent is independent
/// of the panel/tile partition, and fp16 conversions are elementwise, the
/// arithmetic is bitwise identical to the solo SlabPipeline driver: a job
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
      : Program(graph, lanes, prefix) {
    m_ = job_.a.rows;
    n_ = job_.a.cols;
    ROCQR_CHECK(m_ >= n_ && n_ >= 1, "blocking batch: need m >= n >= 1");
    ROCQR_CHECK(job_.r.rows == n_ && job_.r.cols == n_,
                "blocking batch: R must be n x n");
    b_ = std::min(job_.opts.blocksize, n_);
    panels_ = (n_ + b_ - 1) / b_;
    out_a_.assign(static_cast<size_t>(panels_), kNone);
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

  const char* driver_tag() const override { return "blocking"; }
  index_t units_done() const override { return units_; }
  index_t columns_done() const override { return std::min(units_ * b_, n_); }

  /// Working set, per lane: a panel double buffer, streaming slots for the
  /// trailing panels' inner-product input (GEMM storage width) and
  /// outer-product accumulator (fp32), and a rotating pool of b x b R tiles.
  void allocate(Device& dev) override {
    const StoragePrecision in_prec =
        ooc::detail::input_storage(gemm_options(job_.opts));
    const auto add = [&](SlotPool& pool, index_t slots, index_t rows,
                         StoragePrecision prec, const char* role) {
      for (index_t s = 0; s < slots; ++s) {
        pool.add(dev, lanes_.size(), rows, b_, prec,
                 sim::op_name(prefix_, role, s));
      }
    };
    const index_t trail_slots = std::min<index_t>(2, panels_ - 1);
    add(panel_, std::min<index_t>(2, panels_), m_, StoragePrecision::FP32,
        "blk panel ");
    add(bstream_, trail_slots, m_, in_prec, "blk b ");
    add(cstream_, trail_slots, m_, StoragePrecision::FP32, "blk c ");
    add(rtiles_, std::min<index_t>(4, panels_ + 1), b_, StoragePrecision::FP32,
        "blk r ");
  }

  /// Resume positioning only: the skipped panels' Q columns and R rows
  /// were restored onto the host, and right-looking trailing updates for
  /// completed units are already applied there — nothing to stage. (Every
  /// lane shares one resume_units: fusion only joins jobs at the same
  /// checkpoint boundary.)
  bool begin() override {
    i_ = std::min(job_.opts.resume_units, panels_);
    units_ = i_;
    return false;
  }

  /// Adds panel iteration i: move-in + factor + emit, then the trailing
  /// inner/outer update pair per remaining panel.
  bool add_step() override {
    if (i_ >= panels_) return false;
    const index_t i = i_;
    const std::int64_t p = prio(i, 0);

    // Panel move-in. WAR edge: this slot held panel i-2, wait its readers.
    // Host-order edge: panel i's columns were last written by the previous
    // iteration's trailing writeback.
    const size_t ps = static_cast<size_t>(i) % panel_.size();
    panel_.depend(ps, deps_);
    if (out_a_[static_cast<size_t>(i)] != kNone) {
      deps_.push_back(out_a_[static_cast<size_t>(i)]);
    }
    const TaskId inp = add_node({InP, i, 0, ps}, p);

    // In-core panel factorization (recursive CGS on the device), R_ii into
    // a rotating b x b tile, then one writeback of R_ii and the Q panel.
    const size_t rs = rtiles_.acquire();
    deps_.push_back(inp);
    rtiles_.depend(rs, deps_);
    const TaskId fac = add_node({Fac, i, 0, ps, rs}, p);
    deps_.push_back(fac);
    const TaskId emit = add_node({Emit, i, 0, ps, rs}, p);
    rtiles_.use(rs, emit);
    readers_.assign(1, emit);

    // Trailing updates, one panel-width column slab at a time.
    for (index_t j = i + 1; j < panels_; ++j) {
      const std::int64_t pt = prio(i, 1);
      const auto ju = static_cast<size_t>(j);

      // Inner-product input slab (GEMM storage width — fp16 on the
      // TensorCore path, halving the streamed bytes like the solo engine).
      const size_t bs = bstream_.acquire();
      bstream_.depend(bs, deps_);
      if (out_a_[ju] != kNone) deps_.push_back(out_a_[ju]);
      const TaskId inb = add_node({InB, i, j, 0, bs}, pt);

      // R12 = Q^T B over the full column height (k = m).
      const size_t rs2 = rtiles_.acquire();
      deps_.assign({inb, fac});
      rtiles_.depend(rs2, deps_);
      const TaskId upd1 = add_node({Inner, i, j, ps, bs, rs2}, pt);
      bstream_.use(bs, upd1);
      deps_.push_back(upd1);
      const TaskId outr = add_node({OutR, i, j, 0, 0, rs2}, pt);

      // Fresh fp32 read of the same slab as the beta = 1 accumulator —
      // the solo engines' double-streaming, byte for byte.
      const size_t cs = cstream_.acquire();
      cstream_.depend(cs, deps_);
      if (out_a_[ju] != kNone) deps_.push_back(out_a_[ju]);
      const TaskId inc = add_node({InC, i, j, 0, cs}, pt);
      deps_.assign({inc, upd1});
      const TaskId upd2 = add_node({Outer, i, j, ps, cs, rs2}, pt);
      const TaskId r_readers[] = {outr, upd2};
      rtiles_.use(rs2, r_readers);
      deps_.push_back(upd2);
      const TaskId outa = add_node({OutA, i, j, 0, cs}, pt);
      cstream_.use(cs, outa);
      out_a_[ju] = outa;
      readers_.push_back(upd2);
    }
    panel_.use(ps, readers_);
    ++i_;
    units_ = i_;
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
        h2d_.push_back({panel_.block(a.s0, m_, w, k), host_panel_const(k, i)});
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
        d2h_.push_back({host_panel(k, i), panel_.block(a.s0, m_, w, k)});
      }
      c.d2h(d2h_, op_name("d2h RiiQ ", i));
      break;
    case InB:
      h2d_.clear();
      for (size_t k = 0; k < lanes; ++k) {
        h2d_.push_back(
            {bstream_.block(a.s1, m_, wj, k), host_panel_const(k, j)});
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
        h2d_.push_back(
            {cstream_.block(a.s1, m_, wj, k), host_panel_const(k, j)});
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
        d2h_.push_back({host_panel(k, j), cstream_.block(a.s1, m_, wj, k)});
      }
      c.d2h(d2h_, op_name("d2h tile ", j));
      break;
    }
  }

  index_t width(index_t t) const { return std::min(b_, n_ - t * b_); }
  index_t offset(index_t t) const { return t * b_; }
  sim::HostConstRef host_panel_const(size_t lane, index_t t) const {
    return ooc::host_block(sim::as_const(lanes_[lane].a), 0, offset(t), m_,
                           width(t));
  }
  sim::HostMutRef host_panel(size_t lane, index_t t) const {
    return ooc::host_block(lanes_[lane].a, 0, offset(t), m_, width(t));
  }
  /// Priority key: (panel, phase) with phase 0 = panel move-in/factor/emit
  /// and 1 = the trailing updates, so colocated jobs interleave per panel.
  std::int64_t prio(index_t i, std::int64_t phase) const {
    return 4 * static_cast<std::int64_t>(i) + phase;
  }

  index_t m_ = 0;
  index_t n_ = 0;
  index_t b_ = 0;
  index_t panels_ = 0;
  index_t i_ = 0;
  index_t units_ = 0;
  SlotPool panel_;
  SlotPool bstream_;
  SlotPool cstream_;
  SlotPool rtiles_;
  /// Per panel: the move-out that last wrote it back (kNone: none yet).
  std::vector<TaskId> out_a_;
  /// The nodes reading this step's panel slot.
  std::vector<TaskId> readers_;
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
      : Program(graph, {&job, 1}, job.label), a_(job.a), r_(job.r) {
    m_ = a_.rows;
    n_ = a_.cols;
    ROCQR_CHECK(m_ >= n_ && n_ >= 1, "left_looking_qr: need m >= n >= 1");
    ROCQR_CHECK(r_.rows == n_ && r_.cols == n_,
                "left_looking_qr: R must be n x n");
    b_ = std::min(job.opts.blocksize, n_);
    panels_ = (n_ + b_ - 1) / b_;
    declare(InP, TaskStage::MoveIn, "inP ", 1);
    declare(InQ, TaskStage::MoveIn, "inQ ", 2);
    declare(Proj, TaskStage::Compute, "proj ", 2);
    declare(OutR, TaskStage::MoveOut, "outR ", 2);
    declare(Fac, TaskStage::Compute, "fac ", 1);
    declare(Emit, TaskStage::MoveOut, "emit ", 1);
  }

  const char* driver_tag() const override { return "left"; }
  index_t units_done() const override { return units_; }
  index_t columns_done() const override { return std::min(units_ * b_, n_); }

  /// Working set: a panel double buffer, a streamed-Q ring of
  /// opts.pipeline_depth slots in GEMM storage width, and single shared
  /// R-block / R_ii scratches (the projection chain serializes on them).
  void allocate(Device& dev) override {
    const StoragePrecision q_prec =
        ooc::detail::input_storage(gemm_options(job_.opts));
    const index_t panel_slots = std::min<index_t>(2, panels_);
    for (index_t s = 0; s < panel_slots; ++s) {
      panel_.add(dev, 1, m_, b_, StoragePrecision::FP32,
                 sim::op_name(prefix_, "ll panel ", s));
    }
    const int depth = std::max(1, job_.opts.pipeline_depth);
    for (int s = 0; s < depth; ++s) {
      qring_.add(dev, 1, m_, b_, q_prec, sim::op_name(prefix_, "ll q ", s));
    }
    rblk_.add(dev, 1, b_, b_, StoragePrecision::FP32,
              sim::op_name(prefix_, "ll rblk"));
    rii_.add(dev, 1, b_, b_, StoragePrecision::FP32,
             sim::op_name(prefix_, "ll rii"));
  }

  /// Resume positioning: skipped panels' Q columns are on the host already
  /// (restored from the checkpoint), so later projections read them with
  /// no graph dependency.
  bool begin() override {
    i_ = std::min(job_.opts.resume_units, panels_);
    units_ = i_;
    emit_.assign(static_cast<size_t>(panels_), kNone);
    return false;
  }

  /// Adds panel i: move-in, the i previous panels' projections, factor,
  /// emit.
  bool add_step() override {
    if (i_ >= panels_) return false;
    const index_t i = i_;

    // The panel's columns are still ORIGINAL data (left-looking writes
    // each column block exactly once), so the move-in has no host-order
    // edge — only the WAR edge on the double-buffer slot.
    const size_t ps = static_cast<size_t>(i) % panel_.size();
    panel_.depend(ps, deps_);
    const TaskId inp = add_node({InP, i, 0, ps}, prio(i, 0));

    // Lazy application of every previous panel's projection. The single
    // shared R scratch chains them: projection j+1's beta = 0 GEMM waits
    // for projection j's R writeback to drain.
    TaskId last_proj = kNone;
    for (index_t j = 0; j < i; ++j) {
      const std::int64_t pt = prio(i, 1);
      const size_t qs = qring_.acquire();
      qring_.depend(qs, deps_);
      // Q_j must have landed on the host — a real graph edge from its
      // emit. A resume-restored panel has none: its data is already there.
      if (emit_[static_cast<size_t>(j)] != kNone) {
        deps_.push_back(emit_[static_cast<size_t>(j)]);
      }
      const TaskId inq = add_node({InQ, i, j, ps, qs}, pt);

      // R(j, i) = Q_j^T P ; P -= Q_j R(j, i) — the skinny GEMM pair.
      deps_.assign({inq, inp});
      rblk_.depend(0, deps_);
      const TaskId proj = add_node({Proj, i, j, ps, qs}, pt);
      qring_.use(qs, proj);
      deps_.push_back(proj);
      const TaskId outr = add_node({OutR, i, j}, pt);
      rblk_.use(0, outr);
      last_proj = proj;
    }

    // In-core factorization of the fully projected panel, then the Q / Rii
    // writebacks. The shared Rii scratch's WAR edge is the previous emit.
    deps_.push_back(inp);
    if (last_proj != kNone) deps_.push_back(last_proj);
    rii_.depend(0, deps_);
    const TaskId fac = add_node({Fac, i, 0, ps}, prio(i, 2));
    deps_.push_back(fac);
    const TaskId emit = add_node({Emit, i, 0, ps}, prio(i, 2));
    rii_.use(0, emit);
    panel_.use(ps, emit);
    emit_[static_cast<size_t>(i)] = emit;
    ++i_;
    units_ = i_;
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
      c.h2d(panel_.block(a.s0, m_, w), host_panel_const(i),
            op_name("h2d panel ", i));
      break;
    case InQ:
      c.h2d(qring_.block(a.s1, m_, width(j)), host_panel_const(j),
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
      c.d2h(ooc::host_block(r_, offset(j), offset(i), rb.rows, rb.cols), rb,
            op_name("d2h R block ", i, j));
      break;
    }
    case Fac:
      panel_qr_device(c.device(), panel_.block(a.s0, m_, w),
                      rii_.block(0, w, w), c.stream(), job_.opts, prefix_);
      break;
    case Emit:
      c.d2h(ooc::host_block(r_, offset(i), offset(i), w, w),
            rii_.block(0, w, w), op_name("d2h Rii ", i));
      c.d2h(host_panel(i), panel_.block(a.s0, m_, w), op_name("d2h Q ", i));
      break;
    }
  }

  index_t width(index_t t) const { return std::min(b_, n_ - t * b_); }
  index_t offset(index_t t) const { return t * b_; }
  sim::HostConstRef host_panel_const(index_t t) const {
    return ooc::host_block(sim::as_const(a_), 0, offset(t), m_, width(t));
  }
  sim::HostMutRef host_panel(index_t t) const {
    return ooc::host_block(a_, 0, offset(t), m_, width(t));
  }
  /// Priority key: (panel, phase) with phase 0 = panel move-in, 1 = the
  /// projection sweep, 2 = factor/emit.
  std::int64_t prio(index_t i, std::int64_t phase) const {
    return 4 * static_cast<std::int64_t>(i) + phase;
  }

  HostMutRef a_;
  HostMutRef r_;
  index_t m_ = 0;
  index_t n_ = 0;
  index_t b_ = 0;
  index_t panels_ = 0;
  index_t i_ = 0;
  index_t units_ = 0;
  SlotPool panel_;
  SlotPool qring_;
  SlotPool rblk_;
  SlotPool rii_;
  std::vector<TaskId> emit_;
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
