#include "qr/tiled_qr.hpp"

#include <algorithm>
#include <map>
#include <memory>
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
using ooc::TaskStage;
using sim::Device;
using sim::DeviceMatrixRef;
using sim::HostMutRef;
using sim::ScopedMatrix;
using sim::StoragePrecision;

constexpr TaskId kNone = -1;

std::string idx(index_t k, index_t j) {
  return std::to_string(k) + "," + std::to_string(j);
}

/// Rotating device-buffer pool. Acquiring a slot hands back its index; the
/// recorded `last_uses` nodes are the WAR edges the slot's next writer must
/// depend on (the old output-fence taxonomy, now explicit graph edges).
struct SlotPool {
  std::vector<ScopedMatrix> bufs;

  void add(ScopedMatrix buf) {
    bufs.push_back(std::move(buf));
    last_uses_.emplace_back();
  }
  size_t acquire() {
    const size_t s = next_;
    next_ = (next_ + 1) % bufs.size();
    return s;
  }
  /// Appends slot s's outstanding readers to `deps` — the WAR edges its
  /// next writer takes.
  void depend(size_t s, std::vector<TaskId>& deps) const {
    deps.insert(deps.end(), last_uses_[s].begin(), last_uses_[s].end());
  }
  /// Records the nodes currently reading slot s (replacing prior uses —
  /// the new readers already depend on the old ones transitively).
  void use(size_t s, std::vector<TaskId> ids) {
    last_uses_[s] = std::move(ids);
  }

 private:
  std::vector<std::vector<TaskId>> last_uses_;
  size_t next_ = 0;
};

/// The node program of one factorization inside a (possibly colocated)
/// batch. Programs build their DAG segment by segment so the checkpointing
/// caller can run round-by-round; solo runs add every segment and run once.
/// One checkpoint/resume *unit* per completed segment, under the program's
/// driver tag — the same unit vocabulary as the solo drivers, so a job
/// preempted from a batch resumes solo (and vice versa).
class Program {
 public:
  Program(TaskGraph& graph, const BatchJob& job) : g_(graph), job_(job) {}
  virtual ~Program() = default;

  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  const BatchJob& job() const { return job_; }

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
  TaskGraph& g_;
  const BatchJob& job_;
};

/// Tiled CGS: step k streams every trailing tile through the device while
/// tile k+1 factors in place as soon as its own update lands (Buttari-style
/// lookahead via priority keys). One unit = one factored tile.
class TiledProgram : public Program {
 public:
  TiledProgram(TaskGraph& graph, const BatchJob& job)
      : Program(graph, job), a_(job.a), r_(job.r) {
    m_ = a_.rows;
    n_ = a_.cols;
    ROCQR_CHECK(m_ >= n_ && n_ >= 1, "tiled_qr: need m >= n >= 1");
    ROCQR_CHECK(r_.rows == n_ && r_.cols == n_, "tiled_qr: R must be n x n");
    b_ = std::min(job.opts.blocksize, n_);
    tiles_ = (n_ + b_ - 1) / b_;
  }

  const char* driver_tag() const override { return "tiled"; }
  index_t units_done() const override { return units_; }
  index_t columns_done() const override { return std::min(units_ * b_, n_); }

  /// Device working set: two role-swapping resident tiles, up to two
  /// streaming slots for far tiles, and a rotating pool of b x b R tiles.
  void allocate(Device& dev) override {
    const std::string& l = job_.label;
    big_.add(ScopedMatrix(dev, m_, b_, StoragePrecision::FP32,
                          l + "tiled tile a"));
    if (tiles_ > 1) {
      big_.add(ScopedMatrix(dev, m_, b_, StoragePrecision::FP32,
                            l + "tiled tile b"));
    }
    const index_t far_slots = std::min<index_t>(2, tiles_ - 2);
    for (index_t s = 0; s < far_slots; ++s) {
      stream_.add(ScopedMatrix(dev, m_, b_, StoragePrecision::FP32,
                               l + "tiled stream " + std::to_string(s)));
    }
    const index_t r_slots = std::min<index_t>(4, tiles_ + 1);
    for (index_t s = 0; s < r_slots; ++s) {
      rtiles_.add(ScopedMatrix(dev, b_, b_, StoragePrecision::FP32,
                               l + "tiled r " + std::to_string(s)));
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
    const TaskId stage = g_.add(
        TaskStage::MoveIn, job_.label + "stage " + std::to_string(t),
        [this, t](TaskCtx& c) {
          c.h2d(tile_buf(t), host_tile_const(t),
                job_.label + "h2d tile " + std::to_string(t));
        },
        {}, p);
    if (u > 0) {
      // The staged tile is already Q_{u-1}: no factor, no emit. Updates of
      // step u-1 depend on the staging transfer instead.
      fac_ = stage;
      emit_ = kNone;
      return false;
    }
    fac_ = add_factor(t, {stage}, p);
    emit_ = add_emit(t, fac_, p);
    units_ = 1;
    return true;
  }

  /// Adds step k (updates by Q_k plus the factorization of tile k+1) and
  /// advances. Returns false once every tile is factored.
  bool add_step() override {
    if (k_ >= tiles_ - 1) return false;
    const index_t k = k_;
    const index_t wk = width(k);
    std::vector<TaskId> q_readers;
    TaskId next_fac = kNone;
    TaskId next_emit = kNone;
    for (index_t j = k + 1; j < tiles_; ++j) {
      const bool resident = j == k + 1;
      const std::int64_t p = prio(k, resident ? 1 : 3);
      const index_t wj = width(j);

      // Move-in of tile j. WAR edges: the resident destination held
      // Q_{k-1}, so wait its readers; a streaming slot waits the move-out
      // that last drained it. Host-order edge: the previous step's
      // writeback of tile j must land before this re-read.
      DeviceMatrixRef dst;
      std::vector<TaskId> in_deps;
      size_t far_slot = 0;
      if (resident) {
        dst = tile_buf(j);
        in_deps = prev_q_readers_;
      } else {
        far_slot = stream_.acquire();
        dst = DeviceMatrixRef(stream_.bufs[far_slot].get())
                  .block(0, 0, m_, wj);
        stream_.depend(far_slot, in_deps);
      }
      if (out_a_.count(j) > 0) in_deps.push_back(out_a_[j]);
      const TaskId in = g_.add(
          TaskStage::MoveIn, job_.label + "in " + idx(k, j),
          [this, dst, j](TaskCtx& c) {
            c.h2d(dst, host_tile_const(j),
                  job_.label + "h2d tile " + std::to_string(j));
          },
          std::move(in_deps), p);

      // Block-MGS update: R_kj = Q_k^T A_j, then A_j -= Q_k R_kj.
      const size_t rs = rtiles_.acquire();
      const DeviceMatrixRef rt =
          DeviceMatrixRef(rtiles_.bufs[rs].get()).block(0, 0, wk, wj);
      std::vector<TaskId> upd_deps{in, fac_};
      rtiles_.depend(rs, upd_deps);
      const DeviceMatrixRef q = tile_buf(k);
      const TaskId upd = g_.add(
          TaskStage::Compute, job_.label + "upd " + idx(k, j),
          [this, q, dst, rt, k, j](TaskCtx& c) {
            c.gemm(blas::Op::Trans, blas::Op::NoTrans, 1.0f, q, dst, 0.0f,
                   rt, job_.label + "gemm qta " + idx(k, j));
            c.gemm(blas::Op::NoTrans, blas::Op::NoTrans, -1.0f, q, rt, 1.0f,
                   dst, job_.label + "gemm upd " + idx(k, j));
          },
          std::move(upd_deps), p);
      q_readers.push_back(upd);

      // R row writeback.
      const TaskId outr = g_.add(
          TaskStage::MoveOut, job_.label + "outR " + idx(k, j),
          [this, rt, k, j](TaskCtx& c) {
            c.d2h(ooc::host_block(r_, offset(k), offset(j), rt.rows, rt.cols),
                  rt, job_.label + "d2h R " + idx(k, j));
          },
          {upd}, p);
      rtiles_.use(rs, {outr});

      if (resident) {
        // The tile that just absorbed its update factors in place — the
        // lookahead: priority (k, 2) beats the far updates' (k, 3), so the
        // panel runs on the compute engine while they stream.
        const std::int64_t pf = prio(k, 2);
        next_fac = add_factor(j, {upd}, pf);
        next_emit = add_emit(j, next_fac, pf);
      } else {
        const TaskId outa = g_.add(
            TaskStage::MoveOut, job_.label + "outA " + idx(k, j),
            [this, dst, j](TaskCtx& c) {
              c.d2h(host_tile(j), dst,
                    job_.label + "d2h tile " + std::to_string(j));
            },
            {upd}, p);
        stream_.use(far_slot, {outa});
        out_a_[j] = outa;
      }
    }
    prev_q_readers_ = std::move(q_readers);
    if (emit_ != kNone) prev_q_readers_.push_back(emit_);
    fac_ = next_fac;
    emit_ = next_emit;
    ++k_;
    units_ = k_ + 1;
    return true;
  }

 private:
  index_t width(index_t t) const { return std::min(b_, n_ - t * b_); }
  index_t offset(index_t t) const { return t * b_; }
  DeviceMatrixRef tile_buf(index_t t) {
    return DeviceMatrixRef(big_.bufs[static_cast<size_t>(t) & 1].get())
        .block(0, 0, m_, width(t));
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

  TaskId add_factor(index_t t, std::vector<TaskId> deps, std::int64_t p) {
    const size_t rs = rtiles_.acquire();
    rtiles_.depend(rs, deps);
    const index_t w = width(t);
    fac_r_slot_ = rs;
    fac_r_ref_ = DeviceMatrixRef(rtiles_.bufs[rs].get()).block(0, 0, w, w);
    const DeviceMatrixRef aq = tile_buf(t);
    const DeviceMatrixRef rt = fac_r_ref_;
    return g_.add(
        TaskStage::Compute, job_.label + "fac " + std::to_string(t),
        [this, aq, rt](TaskCtx& c) {
          panel_qr_device(c.device(), aq, rt, c.stream(), job_.opts,
                          job_.label);
        },
        std::move(deps), p);
  }

  TaskId add_emit(index_t t, TaskId fac, std::int64_t p) {
    const index_t w = width(t);
    const DeviceMatrixRef rt = fac_r_ref_;
    const DeviceMatrixRef q = tile_buf(t);
    const TaskId id = g_.add(
        TaskStage::MoveOut, job_.label + "emit " + std::to_string(t),
        [this, rt, q, t, w](TaskCtx& c) {
          c.d2h(ooc::host_block(r_, offset(t), offset(t), w, w), rt,
                job_.label + "d2h R " + idx(t, t));
          c.d2h(host_tile(t), q,
                job_.label + "d2h Q " + std::to_string(t));
        },
        {fac}, p);
    rtiles_.use(fac_r_slot_, {id});
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
  DeviceMatrixRef fac_r_ref_;
  std::vector<TaskId> prev_q_readers_;
  std::map<index_t, TaskId> out_a_;
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
class BlockingProgram : public Program {
 public:
  BlockingProgram(TaskGraph& graph, const BatchJob& job)
      : Program(graph, job), a_(job.a), r_(job.r) {
    m_ = a_.rows;
    n_ = a_.cols;
    ROCQR_CHECK(m_ >= n_ && n_ >= 1, "blocking batch: need m >= n >= 1");
    ROCQR_CHECK(r_.rows == n_ && r_.cols == n_,
                "blocking batch: R must be n x n");
    b_ = std::min(job.opts.blocksize, n_);
    panels_ = (n_ + b_ - 1) / b_;
  }

  const char* driver_tag() const override { return "blocking"; }
  index_t units_done() const override { return units_; }
  index_t columns_done() const override { return std::min(units_ * b_, n_); }

  /// Working set: a panel double buffer, streaming slots for the trailing
  /// panels' inner-product input (GEMM storage width) and outer-product
  /// accumulator (fp32), and a rotating pool of b x b R tiles.
  void allocate(Device& dev) override {
    const std::string& l = job_.label;
    const StoragePrecision in_prec =
        ooc::detail::input_storage(gemm_options(job_.opts));
    const index_t panel_slots = std::min<index_t>(2, panels_);
    for (index_t s = 0; s < panel_slots; ++s) {
      panel_.add(ScopedMatrix(dev, m_, b_, StoragePrecision::FP32,
                              l + "blk panel " + std::to_string(s)));
    }
    const index_t trail_slots = std::min<index_t>(2, panels_ - 1);
    for (index_t s = 0; s < trail_slots; ++s) {
      bstream_.add(ScopedMatrix(dev, m_, b_, in_prec,
                                l + "blk b " + std::to_string(s)));
      cstream_.add(ScopedMatrix(dev, m_, b_, StoragePrecision::FP32,
                                l + "blk c " + std::to_string(s)));
    }
    const index_t r_slots = std::min<index_t>(4, panels_ + 1);
    for (index_t s = 0; s < r_slots; ++s) {
      rtiles_.add(ScopedMatrix(dev, b_, b_, StoragePrecision::FP32,
                               l + "blk r " + std::to_string(s)));
    }
  }

  /// Resume positioning only: the skipped panels' Q columns and R rows
  /// were restored onto the host, and right-looking trailing updates for
  /// completed units are already applied there — nothing to stage.
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
    const index_t w = width(i);
    const std::string& l = job_.label;
    const std::int64_t p = prio(i, 0);

    // Panel move-in. WAR edge: this slot held panel i-2, wait its readers.
    // Host-order edge: panel i's columns were last written by the previous
    // iteration's trailing writeback.
    const size_t ps = static_cast<size_t>(i) % panel_.bufs.size();
    const DeviceMatrixRef pd =
        DeviceMatrixRef(panel_.bufs[ps].get()).block(0, 0, m_, w);
    std::vector<TaskId> in_deps;
    panel_.depend(ps, in_deps);
    if (out_a_.count(i) > 0) in_deps.push_back(out_a_[i]);
    const TaskId inp = g_.add(
        TaskStage::MoveIn, l + "inP " + std::to_string(i),
        [this, pd, i](TaskCtx& c) {
          c.h2d(pd, host_panel_const(i),
                job_.label + "h2d panel " + std::to_string(i));
        },
        std::move(in_deps), p);

    // In-core panel factorization (recursive CGS on the device), R_ii into
    // a rotating b x b tile, then the Q panel and R_ii writebacks.
    const size_t rs = rtiles_.acquire();
    const DeviceMatrixRef rii =
        DeviceMatrixRef(rtiles_.bufs[rs].get()).block(0, 0, w, w);
    std::vector<TaskId> fac_deps{inp};
    rtiles_.depend(rs, fac_deps);
    const TaskId fac = g_.add(
        TaskStage::Compute, l + "fac " + std::to_string(i),
        [this, pd, rii](TaskCtx& c) {
          panel_qr_device(c.device(), pd, rii, c.stream(), job_.opts,
                          job_.label);
        },
        std::move(fac_deps), p);
    const TaskId emit = g_.add(
        TaskStage::MoveOut, l + "emit " + std::to_string(i),
        [this, rii, pd, i, w](TaskCtx& c) {
          c.d2h(ooc::host_block(r_, offset(i), offset(i), w, w), rii,
                job_.label + "d2h Rii " + std::to_string(i));
          c.d2h(host_panel(i), pd,
                job_.label + "d2h Q " + std::to_string(i));
        },
        {fac}, p);
    rtiles_.use(rs, {emit});
    std::vector<TaskId> panel_readers{emit};

    // Trailing updates, one panel-width column slab at a time.
    for (index_t j = i + 1; j < panels_; ++j) {
      const index_t wj = width(j);
      const std::int64_t pt = prio(i, 1);

      // Inner-product input slab (GEMM storage width — fp16 on the
      // TensorCore path, halving the streamed bytes like the solo engine).
      const size_t bs = bstream_.acquire();
      const DeviceMatrixRef bd =
          DeviceMatrixRef(bstream_.bufs[bs].get()).block(0, 0, m_, wj);
      std::vector<TaskId> inb_deps;
      bstream_.depend(bs, inb_deps);
      if (out_a_.count(j) > 0) inb_deps.push_back(out_a_[j]);
      const TaskId inb = g_.add(
          TaskStage::MoveIn, l + "inB " + idx(i, j),
          [this, bd, j](TaskCtx& c) {
            c.h2d(bd, host_panel_const(j),
                  job_.label + "h2d b " + std::to_string(j));
          },
          std::move(inb_deps), pt);

      // R12 = Q^T B over the full column height (k = m).
      const size_t rs2 = rtiles_.acquire();
      const DeviceMatrixRef r12 =
          DeviceMatrixRef(rtiles_.bufs[rs2].get()).block(0, 0, w, wj);
      std::vector<TaskId> u1_deps{inb, fac};
      rtiles_.depend(rs2, u1_deps);
      const TaskId upd1 = g_.add(
          TaskStage::Compute, l + "inner " + idx(i, j),
          [this, pd, bd, r12, i, j](TaskCtx& c) {
            c.gemm(blas::Op::Trans, blas::Op::NoTrans, 1.0f, pd, bd, 0.0f,
                   r12, job_.label + "gemm qtb " + idx(i, j));
          },
          std::move(u1_deps), pt);
      bstream_.use(bs, {upd1});
      const TaskId outr = g_.add(
          TaskStage::MoveOut, l + "outR " + idx(i, j),
          [this, r12, i, j](TaskCtx& c) {
            c.d2h(ooc::host_block(r_, offset(i), offset(j), r12.rows,
                                  r12.cols),
                  r12, job_.label + "d2h R " + idx(i, j));
          },
          {upd1}, pt);

      // Fresh fp32 read of the same slab as the beta = 1 accumulator —
      // the solo engines' double-streaming, byte for byte.
      const size_t cs = cstream_.acquire();
      const DeviceMatrixRef cd =
          DeviceMatrixRef(cstream_.bufs[cs].get()).block(0, 0, m_, wj);
      std::vector<TaskId> inc_deps;
      cstream_.depend(cs, inc_deps);
      if (out_a_.count(j) > 0) inc_deps.push_back(out_a_[j]);
      const TaskId inc = g_.add(
          TaskStage::MoveIn, l + "inC " + idx(i, j),
          [this, cd, j](TaskCtx& c) {
            c.h2d(cd, host_panel_const(j),
                  job_.label + "h2d c " + std::to_string(j));
          },
          std::move(inc_deps), pt);
      const TaskId upd2 = g_.add(
          TaskStage::Compute, l + "outer " + idx(i, j),
          [this, pd, r12, cd, i, j](TaskCtx& c) {
            c.gemm(blas::Op::NoTrans, blas::Op::NoTrans, -1.0f, pd, r12,
                   1.0f, cd, job_.label + "gemm upd " + idx(i, j));
          },
          {inc, upd1}, pt);
      rtiles_.use(rs2, {outr, upd2});
      const TaskId outa = g_.add(
          TaskStage::MoveOut, l + "outA " + idx(i, j),
          [this, cd, j](TaskCtx& c) {
            c.d2h(host_panel(j), cd,
                  job_.label + "d2h tile " + std::to_string(j));
          },
          {upd2}, pt);
      cstream_.use(cs, {outa});
      out_a_[j] = outa;
      panel_readers.push_back(upd2);
    }
    panel_.use(ps, std::move(panel_readers));
    ++i_;
    units_ = i_;
    return true;
  }

 private:
  index_t width(index_t t) const { return std::min(b_, n_ - t * b_); }
  index_t offset(index_t t) const { return t * b_; }
  sim::HostConstRef host_panel_const(index_t t) const {
    return ooc::host_block(sim::as_const(a_), 0, offset(t), m_, width(t));
  }
  sim::HostMutRef host_panel(index_t t) const {
    return ooc::host_block(a_, 0, offset(t), m_, width(t));
  }
  /// Priority key: (panel, phase) with phase 0 = panel move-in/factor/emit
  /// and 1 = the trailing updates, so colocated jobs interleave per panel.
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
  SlotPool bstream_;
  SlotPool cstream_;
  SlotPool rtiles_;
  std::map<index_t, TaskId> out_a_;
};

/// Lazy-projection (left-looking) CGS as a node program: panel i moves in
/// once, absorbs every previous panel's projection (Q_j streamed back in
/// GEMM storage width, R(j,i) = Q_j^T P with k = m then P -= Q_j R(j,i)
/// with k = w_j), factors, and writes Q_i / R_ii out. Same fixed k-extents
/// and elementwise fp16 conversions as the solo driver, so the arithmetic
/// is bitwise identical (resume tag "left"). One unit = one panel.
class LeftLookingProgram : public Program {
 public:
  LeftLookingProgram(TaskGraph& graph, const BatchJob& job)
      : Program(graph, job), a_(job.a), r_(job.r) {
    m_ = a_.rows;
    n_ = a_.cols;
    ROCQR_CHECK(m_ >= n_ && n_ >= 1, "left batch: need m >= n >= 1");
    ROCQR_CHECK(r_.rows == n_ && r_.cols == n_,
                "left batch: R must be n x n");
    b_ = std::min(job.opts.blocksize, n_);
    panels_ = (n_ + b_ - 1) / b_;
  }

  const char* driver_tag() const override { return "left"; }
  index_t units_done() const override { return units_; }
  index_t columns_done() const override { return std::min(units_ * b_, n_); }

  /// Working set: a panel double buffer, a streamed-Q ring of
  /// opts.pipeline_depth slots in GEMM storage width, and single shared
  /// R-block / R_ii scratches (the projection chain serializes on them,
  /// exactly like the solo driver's single-slot compute fence).
  void allocate(Device& dev) override {
    const std::string& l = job_.label;
    const StoragePrecision q_prec =
        ooc::detail::input_storage(gemm_options(job_.opts));
    const index_t panel_slots = std::min<index_t>(2, panels_);
    for (index_t s = 0; s < panel_slots; ++s) {
      panel_.add(ScopedMatrix(dev, m_, b_, StoragePrecision::FP32,
                              l + "ll panel " + std::to_string(s)));
    }
    const int depth = std::max(1, job_.opts.pipeline_depth);
    for (int s = 0; s < depth; ++s) {
      qring_.add(ScopedMatrix(dev, m_, b_, q_prec,
                              l + "ll q " + std::to_string(s)));
    }
    rblk_.add(ScopedMatrix(dev, b_, b_, StoragePrecision::FP32,
                           l + "ll rblk"));
    rii_.add(ScopedMatrix(dev, b_, b_, StoragePrecision::FP32,
                          l + "ll rii"));
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
    const index_t w = width(i);
    const std::string& l = job_.label;

    // The panel's columns are still ORIGINAL data (left-looking writes
    // each column block exactly once), so the move-in has no host-order
    // edge — only the WAR edge on the double-buffer slot.
    const size_t ps = static_cast<size_t>(i) % panel_.bufs.size();
    const DeviceMatrixRef pd =
        DeviceMatrixRef(panel_.bufs[ps].get()).block(0, 0, m_, w);
    std::vector<TaskId> in_deps;
    panel_.depend(ps, in_deps);
    const TaskId inp = g_.add(
        TaskStage::MoveIn, l + "inP " + std::to_string(i),
        [this, pd, i](TaskCtx& c) {
          c.h2d(pd, host_panel_const(i),
                job_.label + "h2d panel " + std::to_string(i));
        },
        std::move(in_deps), prio(i, 0));

    // Lazy application of every previous panel's projection. The single
    // shared R scratch chains them: projection j+1's beta = 0 GEMM waits
    // for projection j's R writeback to drain.
    TaskId last_proj = kNone;
    for (index_t j = 0; j < i; ++j) {
      const index_t wj = width(j);
      const std::int64_t pt = prio(i, 1);
      const size_t qs = qring_.acquire();
      const DeviceMatrixRef qd =
          DeviceMatrixRef(qring_.bufs[qs].get()).block(0, 0, m_, wj);
      std::vector<TaskId> inq_deps;
      qring_.depend(qs, inq_deps);
      // Q_j must have landed on the host — a real graph edge from its
      // emit. A resume-restored panel has none: its data is already there.
      if (emit_[static_cast<size_t>(j)] != kNone) {
        inq_deps.push_back(emit_[static_cast<size_t>(j)]);
      }
      const TaskId inq = g_.add(
          TaskStage::MoveIn, l + "inQ " + idx(i, j),
          [this, qd, j](TaskCtx& c) {
            c.h2d(qd, host_panel_const(j),
                  job_.label + "h2d Q" + std::to_string(j));
          },
          std::move(inq_deps), pt);

      // R(j, i) = Q_j^T P ; P -= Q_j R(j, i) — the skinny GEMM pair.
      const DeviceMatrixRef rb =
          DeviceMatrixRef(rblk_.bufs[0].get()).block(0, 0, wj, w);
      std::vector<TaskId> proj_deps{inq, inp};
      rblk_.depend(0, proj_deps);
      const TaskId proj = g_.add(
          TaskStage::Compute, l + "proj " + idx(i, j),
          [this, qd, pd, rb, i, j](TaskCtx& c) {
            c.gemm(blas::Op::Trans, blas::Op::NoTrans, 1.0f, qd, pd, 0.0f,
                   rb, job_.label + "proj R " + idx(i, j));
            c.gemm(blas::Op::NoTrans, blas::Op::NoTrans, -1.0f, qd, rb,
                   1.0f, pd, job_.label + "proj update " + idx(i, j));
          },
          std::move(proj_deps), pt);
      qring_.use(qs, {proj});
      const TaskId outr = g_.add(
          TaskStage::MoveOut, l + "outR " + idx(i, j),
          [this, rb, i, j](TaskCtx& c) {
            c.d2h(ooc::host_block(r_, offset(j), offset(i), rb.rows,
                                  rb.cols),
                  rb, job_.label + "d2h R block " + idx(i, j));
          },
          {proj}, pt);
      rblk_.use(0, {outr});
      last_proj = proj;
    }

    // In-core factorization of the fully projected panel, then the Q / Rii
    // writebacks. The shared Rii scratch's WAR edge is the previous emit.
    const DeviceMatrixRef rd =
        DeviceMatrixRef(rii_.bufs[0].get()).block(0, 0, w, w);
    std::vector<TaskId> fac_deps{inp};
    if (last_proj != kNone) fac_deps.push_back(last_proj);
    rii_.depend(0, fac_deps);
    const TaskId fac = g_.add(
        TaskStage::Compute, l + "fac " + std::to_string(i),
        [this, pd, rd](TaskCtx& c) {
          panel_qr_device(c.device(), pd, rd, c.stream(), job_.opts,
                          job_.label);
        },
        std::move(fac_deps), prio(i, 2));
    const TaskId emit = g_.add(
        TaskStage::MoveOut, l + "emit " + std::to_string(i),
        [this, rd, pd, i, w](TaskCtx& c) {
          c.d2h(ooc::host_block(r_, offset(i), offset(i), w, w), rd,
                job_.label + "d2h Rii " + std::to_string(i));
          c.d2h(host_panel(i), pd,
                job_.label + "d2h Q " + std::to_string(i));
        },
        {fac}, prio(i, 2));
    rii_.use(0, {emit});
    panel_.use(ps, {emit});
    emit_[static_cast<size_t>(i)] = emit;
    ++i_;
    units_ = i_;
    return true;
  }

 private:
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

/// Rotating pool of K-wide buffer slots for the fused batch: one slot holds
/// one buffer PER JOB (the jobs advance in lockstep, so a slot's K buffers
/// are always acquired and released together), with the shared node-level
/// WAR bookkeeping of SlotPool.
struct FusedSlotPool {
  std::vector<std::vector<ScopedMatrix>> slots; // [slot][job]

  void add(std::vector<ScopedMatrix> per_job) {
    slots.push_back(std::move(per_job));
    last_uses_.emplace_back();
  }
  size_t acquire() {
    const size_t s = next_;
    next_ = (next_ + 1) % slots.size();
    return s;
  }
  void depend(size_t s, std::vector<TaskId>& deps) const {
    deps.insert(deps.end(), last_uses_[s].begin(), last_uses_[s].end());
  }
  void use(size_t s, std::vector<TaskId> ids) {
    last_uses_[s] = std::move(ids);
  }

 private:
  std::vector<std::vector<TaskId>> last_uses_;
  size_t next_ = 0;
};

/// The fused-batch builder: BlockingProgram's exact node topology and
/// priority keys, with every node body issuing ONE batched device op whose
/// K entries are the solo bodies of the K jobs (see run_fused_batch in
/// tiled_qr.hpp for the contract).
class FusedBlocking {
 public:
  FusedBlocking(TaskGraph& graph, const std::vector<BatchJob>& jobs)
      : g_(graph), jobs_(jobs), opts_(jobs.front().opts) {
    m_ = jobs.front().a.rows;
    n_ = jobs.front().a.cols;
    ROCQR_CHECK(m_ >= n_ && n_ >= 1, "fused batch: need m >= n >= 1");
    b_ = std::min(opts_.blocksize, n_);
    panels_ = (n_ + b_ - 1) / b_;
  }

  index_t units_done() const { return units_; }
  index_t columns_done() const { return std::min(units_ * b_, n_); }

  /// K copies of BlockingProgram's working set, slot-pooled together.
  void allocate(Device& dev) {
    const StoragePrecision in_prec =
        ooc::detail::input_storage(gemm_options(opts_));
    const size_t nj = jobs_.size();
    const auto pool = [&](FusedSlotPool& p, index_t slots, index_t rows,
                          index_t cols, StoragePrecision prec,
                          const char* role) {
      for (index_t s = 0; s < slots; ++s) {
        std::vector<ScopedMatrix> per_job;
        per_job.reserve(nj);
        for (size_t k = 0; k < nj; ++k) {
          per_job.emplace_back(dev, rows, cols, prec,
                               "fused " + std::string(role) + " " +
                                   std::to_string(s) + "." +
                                   std::to_string(k));
        }
        p.add(std::move(per_job));
      }
    };
    pool(panel_, std::min<index_t>(2, panels_), m_, b_,
         StoragePrecision::FP32, "panel");
    pool(bstream_, std::min<index_t>(2, panels_ - 1), m_, b_, in_prec, "b");
    pool(cstream_, std::min<index_t>(2, panels_ - 1), m_, b_,
         StoragePrecision::FP32, "c");
    pool(rtiles_, std::min<index_t>(4, panels_ + 1), b_, b_,
         StoragePrecision::FP32, "r");
  }

  /// Resume positioning only (every job shares one resume_units — the
  /// coalescer only fuses jobs at the same checkpoint boundary).
  void begin() {
    i_ = std::min(opts_.resume_units, panels_);
    units_ = i_;
  }

  /// Adds fused panel iteration i: one batched move-in + batched panel
  /// kernel + batched emit, then one batched inner/outer update pair per
  /// trailing panel.
  bool add_step() {
    if (i_ >= panels_) return false;
    const index_t i = i_;
    const index_t w = width(i);
    const std::int64_t p = prio(i, 0);

    const size_t ps = static_cast<size_t>(i) % panel_.slots.size();
    std::vector<DeviceMatrixRef> pd = slot_refs(panel_, ps, m_, w);
    std::vector<TaskId> in_deps;
    panel_.depend(ps, in_deps);
    if (out_a_.count(i) > 0) in_deps.push_back(out_a_[i]);
    const TaskId inp = g_.add(
        TaskStage::MoveIn, "fused inP " + std::to_string(i),
        [this, pd, i](TaskCtx& c) {
          std::vector<sim::Device::H2dBatchEntry> es;
          es.reserve(pd.size());
          for (size_t k = 0; k < pd.size(); ++k) {
            es.push_back({pd[k], host_panel_const(k, i)});
          }
          c.h2d_batched(es, "fused h2d panel " + std::to_string(i));
        },
        std::move(in_deps), p);

    const size_t rs = rtiles_.acquire();
    std::vector<DeviceMatrixRef> rii = slot_refs(rtiles_, rs, w, w);
    std::vector<TaskId> fac_deps{inp};
    rtiles_.depend(rs, fac_deps);
    const TaskId fac = g_.add(
        TaskStage::Compute, "fused fac " + std::to_string(i),
        [this, pd, rii, w](TaskCtx& c) {
          std::vector<PanelBatchEntry> es;
          es.reserve(pd.size());
          for (size_t k = 0; k < pd.size(); ++k) {
            es.push_back({pd[k], rii[k]});
          }
          panel_qr_device_batched(c.device(), es, c.stream(), opts_,
                                  "fused panel_qr " + std::to_string(m_) +
                                      "x" + std::to_string(w) + " x" +
                                      std::to_string(es.size()));
        },
        std::move(fac_deps), p);
    const TaskId emit = g_.add(
        TaskStage::MoveOut, "fused emit " + std::to_string(i),
        [this, rii, pd, i, w](TaskCtx& c) {
          std::vector<sim::Device::D2hBatchEntry> es;
          es.reserve(2 * pd.size());
          for (size_t k = 0; k < pd.size(); ++k) {
            es.push_back({ooc::host_block(jobs_[k].r, offset(i), offset(i),
                                          w, w),
                          rii[k]});
            es.push_back({host_panel(k, i), pd[k]});
          }
          c.d2h_batched(es, "fused d2h RiiQ " + std::to_string(i));
        },
        {fac}, p);
    rtiles_.use(rs, {emit});
    std::vector<TaskId> panel_readers{emit};

    for (index_t j = i + 1; j < panels_; ++j) {
      const index_t wj = width(j);
      const std::int64_t pt = prio(i, 1);

      const size_t bs = bstream_.acquire();
      std::vector<DeviceMatrixRef> bd = slot_refs(bstream_, bs, m_, wj);
      std::vector<TaskId> inb_deps;
      bstream_.depend(bs, inb_deps);
      if (out_a_.count(j) > 0) inb_deps.push_back(out_a_[j]);
      const TaskId inb = g_.add(
          TaskStage::MoveIn, "fused inB " + idx(i, j),
          [this, bd, j](TaskCtx& c) {
            std::vector<sim::Device::H2dBatchEntry> es;
            es.reserve(bd.size());
            for (size_t k = 0; k < bd.size(); ++k) {
              es.push_back({bd[k], host_panel_const(k, j)});
            }
            c.h2d_batched(es, "fused h2d b " + std::to_string(j));
          },
          std::move(inb_deps), pt);

      const size_t rs2 = rtiles_.acquire();
      std::vector<DeviceMatrixRef> r12 = slot_refs(rtiles_, rs2, w, wj);
      std::vector<TaskId> u1_deps{inb, fac};
      rtiles_.depend(rs2, u1_deps);
      const TaskId upd1 = g_.add(
          TaskStage::Compute, "fused inner " + idx(i, j),
          [this, pd, bd, r12, i, j](TaskCtx& c) {
            std::vector<sim::Device::GemmBatchEntry> es;
            es.reserve(pd.size());
            for (size_t k = 0; k < pd.size(); ++k) {
              es.push_back({blas::Op::Trans, blas::Op::NoTrans, 1.0f, pd[k],
                            bd[k], 0.0f, r12[k]});
            }
            c.gemm_batched(es, "fused gemm qtb " + idx(i, j));
          },
          std::move(u1_deps), pt);
      bstream_.use(bs, {upd1});
      const TaskId outr = g_.add(
          TaskStage::MoveOut, "fused outR " + idx(i, j),
          [this, r12, i, j, w, wj](TaskCtx& c) {
            std::vector<sim::Device::D2hBatchEntry> es;
            es.reserve(r12.size());
            for (size_t k = 0; k < r12.size(); ++k) {
              es.push_back({ooc::host_block(jobs_[k].r, offset(i), offset(j),
                                            w, wj),
                            r12[k]});
            }
            c.d2h_batched(es, "fused d2h R " + idx(i, j));
          },
          {upd1}, pt);

      const size_t cs = cstream_.acquire();
      std::vector<DeviceMatrixRef> cd = slot_refs(cstream_, cs, m_, wj);
      std::vector<TaskId> inc_deps;
      cstream_.depend(cs, inc_deps);
      if (out_a_.count(j) > 0) inc_deps.push_back(out_a_[j]);
      const TaskId inc = g_.add(
          TaskStage::MoveIn, "fused inC " + idx(i, j),
          [this, cd, j](TaskCtx& c) {
            std::vector<sim::Device::H2dBatchEntry> es;
            es.reserve(cd.size());
            for (size_t k = 0; k < cd.size(); ++k) {
              es.push_back({cd[k], host_panel_const(k, j)});
            }
            c.h2d_batched(es, "fused h2d c " + std::to_string(j));
          },
          std::move(inc_deps), pt);
      const TaskId upd2 = g_.add(
          TaskStage::Compute, "fused outer " + idx(i, j),
          [this, pd, r12, cd, i, j](TaskCtx& c) {
            std::vector<sim::Device::GemmBatchEntry> es;
            es.reserve(pd.size());
            for (size_t k = 0; k < pd.size(); ++k) {
              es.push_back({blas::Op::NoTrans, blas::Op::NoTrans, -1.0f,
                            pd[k], r12[k], 1.0f, cd[k]});
            }
            c.gemm_batched(es, "fused gemm upd " + idx(i, j));
          },
          {inc, upd1}, pt);
      rtiles_.use(rs2, {outr, upd2});
      const TaskId outa = g_.add(
          TaskStage::MoveOut, "fused outA " + idx(i, j),
          [this, cd, j](TaskCtx& c) {
            std::vector<sim::Device::D2hBatchEntry> es;
            es.reserve(cd.size());
            for (size_t k = 0; k < cd.size(); ++k) {
              es.push_back({host_panel(k, j), cd[k]});
            }
            c.d2h_batched(es, "fused d2h tile " + std::to_string(j));
          },
          {upd2}, pt);
      cstream_.use(cs, {outa});
      out_a_[j] = outa;
      panel_readers.push_back(upd2);
    }
    panel_.use(ps, std::move(panel_readers));
    ++i_;
    units_ = i_;
    return true;
  }

 private:
  index_t width(index_t t) const { return std::min(b_, n_ - t * b_); }
  index_t offset(index_t t) const { return t * b_; }
  sim::HostConstRef host_panel_const(size_t k, index_t t) const {
    return ooc::host_block(sim::as_const(jobs_[k].a), 0, offset(t), m_,
                           width(t));
  }
  sim::HostMutRef host_panel(size_t k, index_t t) const {
    return ooc::host_block(jobs_[k].a, 0, offset(t), m_, width(t));
  }
  std::int64_t prio(index_t i, std::int64_t phase) const {
    return 4 * static_cast<std::int64_t>(i) + phase;
  }
  std::vector<DeviceMatrixRef> slot_refs(FusedSlotPool& pool, size_t s,
                                         index_t rows, index_t cols) {
    std::vector<DeviceMatrixRef> refs;
    refs.reserve(pool.slots[s].size());
    for (ScopedMatrix& buf : pool.slots[s]) {
      refs.push_back(DeviceMatrixRef(buf.get()).block(0, 0, rows, cols));
    }
    return refs;
  }

  TaskGraph& g_;
  const std::vector<BatchJob>& jobs_;
  const QrOptions& opts_;
  index_t m_ = 0;
  index_t n_ = 0;
  index_t b_ = 0;
  index_t panels_ = 0;
  index_t i_ = 0;
  index_t units_ = 0;
  FusedSlotPool panel_;
  FusedSlotPool bstream_;
  FusedSlotPool cstream_;
  FusedSlotPool rtiles_;
  std::map<index_t, TaskId> out_a_;
};

std::unique_ptr<Program> make_program(TaskGraph& graph, const BatchJob& job) {
  if (job.algorithm == "tiled") {
    return std::make_unique<TiledProgram>(graph, job);
  }
  if (job.algorithm == "blocking") {
    return std::make_unique<BlockingProgram>(graph, job);
  }
  if (job.algorithm == "left") {
    return std::make_unique<LeftLookingProgram>(graph, job);
  }
  throw InvalidArgument("run_batch: no node program for algorithm \"" +
                        job.algorithm + "\"");
}

} // namespace

std::vector<QrStats> run_batch(Device& dev,
                               const std::vector<BatchJob>& jobs) {
  ROCQR_CHECK(!jobs.empty(), "run_batch: no jobs");
  bool any_sink = false;
  bool all_tiled = true;
  for (const BatchJob& job : jobs) {
    job.opts.validate();
    any_sink = any_sink || job.opts.checkpoint_sink != nullptr;
    all_tiled = all_tiled && job.algorithm == "tiled";
    // The graph-level transfer/ABFT configuration comes from jobs[0]; a
    // precision mismatch would silently change another job's arithmetic.
    ROCQR_CHECK(job.opts.precision == jobs.front().opts.precision,
                "run_batch: colocated jobs must share a gemm precision");
  }

  const size_t window = dev.trace().size();
  sim::TraceSpan span(dev, all_tiled ? "tiled_qr" : "qr_batch");
  TaskGraph graph(dev, gemm_options(jobs.front().opts));

  std::vector<std::unique_ptr<Program>> progs;
  progs.reserve(jobs.size());
  for (const BatchJob& job : jobs) {
    progs.push_back(make_program(graph, job));
    progs.back()->allocate(dev);
  }

  if (!any_sink) {
    // No checkpoint boundaries: build the whole DAG and run it once —
    // maximum lookahead across every step (and every colocated job).
    for (auto& p : progs) p->begin();
    bool more = true;
    while (more) {
      more = false;
      for (auto& p : progs) more = p->add_step() || more;
    }
    graph.run();
  } else {
    // Checkpointed: run round-by-round so every boundary is a consistent
    // "u units factored" host snapshot. A round enqueues one segment of
    // EVERY job before the single graph.run(), so colocated jobs still
    // interleave on the engines between checkpoint syncs; only then does
    // each advanced job checkpoint (maybe_checkpoint synchronizes before
    // snapshotting, and is where a serve PreemptSink raises
    // PreemptRequest, unwinding the whole batch). With one job this is
    // exactly the segment-per-segment schedule resume replays.
    std::vector<char> advanced(progs.size(), 0);
    for (size_t i = 0; i < progs.size(); ++i) {
      advanced[i] = progs[i]->begin() ? 1 : 0;
    }
    graph.run();
    for (size_t i = 0; i < progs.size(); ++i) {
      if (!advanced[i]) continue; // resume staging: no new unit to record
      auto& p = progs[i];
      maybe_checkpoint(dev, p->driver_tag(), p->job().a, p->job().r,
                       p->job().opts, p->columns_done(), p->units_done());
    }
    bool more = true;
    while (more) {
      more = false;
      for (size_t i = 0; i < progs.size(); ++i) {
        advanced[i] = progs[i]->add_step() ? 1 : 0;
        more = more || advanced[i] != 0;
      }
      if (!more) break;
      graph.run();
      for (size_t i = 0; i < progs.size(); ++i) {
        if (!advanced[i]) continue;
        auto& p = progs[i];
        maybe_checkpoint(dev, p->driver_tag(), p->job().a, p->job().r,
                         p->job().opts, p->columns_done(), p->units_done());
      }
    }
  }

  dev.synchronize();
  std::vector<QrStats> stats;
  stats.reserve(progs.size());
  for (const auto& p : progs) {
    stats.push_back(stats_from_trace(dev.trace(), window, dev.memory_peak(),
                                     p->job().label));
  }
  return stats;
}

QrStats run_tiled(Device& dev, HostMutRef a, HostMutRef r,
                  const QrOptions& opts) {
  return run_batch(dev, {BatchJob{"tiled", a, r, opts, ""}}).front();
}

std::vector<QrStats> run_fused_batch(Device& dev,
                                     const std::vector<BatchJob>& jobs) {
  ROCQR_CHECK(!jobs.empty(), "run_fused_batch: no jobs");
  const BatchJob& j0 = jobs.front();
  bool any_sink = false;
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
    any_sink = any_sink || job.opts.checkpoint_sink != nullptr;
  }

  const size_t window = dev.trace().size();
  sim::TraceSpan span(dev, "qr_fused_batch x" + std::to_string(jobs.size()));
  TaskGraph graph(dev, gemm_options(j0.opts));
  FusedBlocking prog(graph, jobs);
  prog.allocate(dev);
  prog.begin();

  if (!any_sink) {
    while (prog.add_step()) {
    }
    graph.run();
  } else {
    // The jobs advance in lockstep, so one fused round is one checkpoint
    // boundary for every member: after each round's run() the device is
    // synchronized once and every job snapshots (a serve PreemptSink may
    // raise PreemptRequest there, unwinding the whole fused batch; each
    // member's checkpoint carries the solo "blocking" tag so it can resume
    // solo or in a different fusion).
    while (prog.add_step()) {
      graph.run();
      for (const BatchJob& job : jobs) {
        maybe_checkpoint(dev, "blocking", job.a, job.r, job.opts,
                         prog.columns_done(), prog.units_done());
      }
    }
  }

  dev.synchronize();
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
