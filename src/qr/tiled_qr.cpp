#include "qr/tiled_qr.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <type_traits>
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
           StoragePrecision prec, const std::string& label) {
    std::vector<ScopedMatrix> bufs;
    bufs.reserve(lanes);
    for (size_t k = 0; k < lanes; ++k) {
      bufs.emplace_back(dev, rows, cols, prec,
                        lanes == 1 ? label
                                   : label + "." + std::to_string(k));
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
  /// the new readers already depend on the old ones transitively).
  void use(size_t s, std::vector<TaskId> ids) {
    last_uses_[s] = std::move(ids);
  }

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
class Program {
 public:
  Program(TaskGraph& graph, std::span<const BatchJob> lanes)
      : g_(graph), lanes_(lanes), job_(lanes.front()) {}
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
  TaskGraph& g_;
  std::span<const BatchJob> lanes_;
  /// The first lane; every lane shares its shape and options.
  const BatchJob& job_;
};

/// Tiled CGS: step k streams every trailing tile through the device while
/// tile k+1 factors in place as soon as its own update lands (Buttari-style
/// lookahead via priority keys). One unit = one factored tile.
class TiledProgram : public Program {
 public:
  TiledProgram(TaskGraph& graph, const BatchJob& job)
      : Program(graph, {&job, 1}), a_(job.a), r_(job.r) {
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
    big_.add(dev, 1, m_, b_, StoragePrecision::FP32, l + "tiled tile a");
    if (tiles_ > 1) {
      big_.add(dev, 1, m_, b_, StoragePrecision::FP32, l + "tiled tile b");
    }
    const index_t far_slots = std::min<index_t>(2, tiles_ - 2);
    for (index_t s = 0; s < far_slots; ++s) {
      stream_.add(dev, 1, m_, b_, StoragePrecision::FP32,
                  l + "tiled stream " + std::to_string(s));
    }
    const index_t r_slots = std::min<index_t>(4, tiles_ + 1);
    for (index_t s = 0; s < r_slots; ++s) {
      rtiles_.add(dev, 1, b_, b_, StoragePrecision::FP32,
                  l + "tiled r " + std::to_string(s));
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
        dst = stream_.block(far_slot, m_, wj);
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
      const DeviceMatrixRef rt = rtiles_.block(rs, wk, wj);
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
    return big_.block(static_cast<size_t>(t) & 1, m_, width(t));
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
    fac_r_ref_ = rtiles_.block(rs, w, w);
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
                  std::string prefix)
      : Program(graph, lanes), prefix_(std::move(prefix)) {
    m_ = job_.a.rows;
    n_ = job_.a.cols;
    ROCQR_CHECK(m_ >= n_ && n_ >= 1, "blocking batch: need m >= n >= 1");
    ROCQR_CHECK(job_.r.rows == n_ && job_.r.cols == n_,
                "blocking batch: R must be n x n");
    b_ = std::min(job_.opts.blocksize, n_);
    panels_ = (n_ + b_ - 1) / b_;
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
                 prefix_ + role + std::to_string(s));
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
    const index_t w = width(i);
    const std::int64_t p = prio(i, 0);

    // Panel move-in. WAR edge: this slot held panel i-2, wait its readers.
    // Host-order edge: panel i's columns were last written by the previous
    // iteration's trailing writeback.
    const size_t ps = static_cast<size_t>(i) % panel_.size();
    std::vector<TaskId> in_deps;
    panel_.depend(ps, in_deps);
    if (out_a_.count(i) > 0) in_deps.push_back(out_a_[i]);
    const TaskId inp = move_in(
        "inP " + std::to_string(i), "h2d panel " + std::to_string(i),
        per_lane([&](size_t k) {
          return H2d{panel_.block(ps, m_, w, k), host_panel_const(k, i)};
        }),
        std::move(in_deps), p);

    // In-core panel factorization (recursive CGS on the device), R_ii into
    // a rotating b x b tile, then one writeback of R_ii and the Q panel.
    const size_t rs = rtiles_.acquire();
    std::vector<TaskId> fac_deps{inp};
    rtiles_.depend(rs, fac_deps);
    std::vector<PanelBatchEntry> fac_es = per_lane([&](size_t k) {
      return PanelBatchEntry{panel_.block(ps, m_, w, k),
                             rtiles_.block(rs, w, w, k)};
    });
    std::vector<D2h> emit_es;
    emit_es.reserve(2 * lanes_.size());
    for (size_t k = 0; k < lanes_.size(); ++k) {
      emit_es.push_back(
          {ooc::host_block(lanes_[k].r, offset(i), offset(i), w, w),
           fac_es[k].r});
      emit_es.push_back({host_panel(k, i), fac_es[k].aq});
    }
    std::string fac_op = prefix_ + "panel_qr " + std::to_string(m_) + "x" +
                         std::to_string(w);
    if (lanes_.size() > 1) fac_op += " x" + std::to_string(lanes_.size());
    const TaskId fac = g_.add(
        TaskStage::Compute, prefix_ + "fac " + std::to_string(i),
        [this, es = std::move(fac_es), op = std::move(fac_op)](TaskCtx& c) {
          panel_qr_device_batched(c.device(), es, c.stream(), job_.opts, op);
        },
        std::move(fac_deps), p);
    const TaskId emit =
        move_out("emit " + std::to_string(i), "d2h RiiQ " + std::to_string(i),
                 std::move(emit_es), {fac}, p);
    rtiles_.use(rs, {emit});
    std::vector<TaskId> panel_readers{emit};

    // Trailing updates, one panel-width column slab at a time.
    for (index_t j = i + 1; j < panels_; ++j) {
      const index_t wj = width(j);
      const std::int64_t pt = prio(i, 1);

      // Inner-product input slab (GEMM storage width — fp16 on the
      // TensorCore path, halving the streamed bytes like the solo engine).
      const size_t bs = bstream_.acquire();
      std::vector<TaskId> inb_deps;
      bstream_.depend(bs, inb_deps);
      if (out_a_.count(j) > 0) inb_deps.push_back(out_a_[j]);
      const TaskId inb = move_in(
          "inB " + idx(i, j), "h2d b " + std::to_string(j),
          per_lane([&](size_t k) {
            return H2d{bstream_.block(bs, m_, wj, k), host_panel_const(k, j)};
          }),
          std::move(inb_deps), pt);

      // R12 = Q^T B over the full column height (k = m).
      const size_t rs2 = rtiles_.acquire();
      std::vector<TaskId> u1_deps{inb, fac};
      rtiles_.depend(rs2, u1_deps);
      const TaskId upd1 = compute(
          "inner " + idx(i, j), "gemm qtb " + idx(i, j),
          per_lane([&](size_t k) {
            return Gemm{blas::Op::Trans, blas::Op::NoTrans, 1.0f,
                        panel_.block(ps, m_, w, k),
                        bstream_.block(bs, m_, wj, k), 0.0f,
                        rtiles_.block(rs2, w, wj, k)};
          }),
          std::move(u1_deps), pt);
      bstream_.use(bs, {upd1});
      const TaskId outr = move_out(
          "outR " + idx(i, j), "d2h R " + idx(i, j),
          per_lane([&](size_t k) {
            return D2h{
                ooc::host_block(lanes_[k].r, offset(i), offset(j), w, wj),
                rtiles_.block(rs2, w, wj, k)};
          }),
          {upd1}, pt);

      // Fresh fp32 read of the same slab as the beta = 1 accumulator —
      // the solo engines' double-streaming, byte for byte.
      const size_t cs = cstream_.acquire();
      std::vector<TaskId> inc_deps;
      cstream_.depend(cs, inc_deps);
      if (out_a_.count(j) > 0) inc_deps.push_back(out_a_[j]);
      const TaskId inc = move_in(
          "inC " + idx(i, j), "h2d c " + std::to_string(j),
          per_lane([&](size_t k) {
            return H2d{cstream_.block(cs, m_, wj, k), host_panel_const(k, j)};
          }),
          std::move(inc_deps), pt);
      const TaskId upd2 = compute(
          "outer " + idx(i, j), "gemm upd " + idx(i, j),
          per_lane([&](size_t k) {
            return Gemm{blas::Op::NoTrans, blas::Op::NoTrans, -1.0f,
                        panel_.block(ps, m_, w, k),
                        rtiles_.block(rs2, w, wj, k), 1.0f,
                        cstream_.block(cs, m_, wj, k)};
          }),
          {inc, upd1}, pt);
      rtiles_.use(rs2, {outr, upd2});
      const TaskId outa = move_out(
          "outA " + idx(i, j), "d2h tile " + std::to_string(j),
          per_lane([&](size_t k) {
            return D2h{host_panel(k, j), cstream_.block(cs, m_, wj, k)};
          }),
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
  using H2d = Device::H2dBatchEntry;
  using D2h = Device::D2hBatchEntry;
  using Gemm = Device::GemmBatchEntry;

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
  /// One entry per lane, in lane order.
  template <typename F>
  std::vector<std::invoke_result_t<F&, size_t>> per_lane(F entry) const {
    std::vector<std::invoke_result_t<F&, size_t>> es;
    es.reserve(lanes_.size());
    for (size_t k = 0; k < lanes_.size(); ++k) es.push_back(entry(k));
    return es;
  }
  // Nodes issuing one device op over their lanes' entries. Node labels and
  // op names both carry the program's prefix.
  TaskId move_in(const std::string& node, const std::string& op,
                 std::vector<H2d> es, std::vector<TaskId> deps,
                 std::int64_t p) {
    return g_.add(
        TaskStage::MoveIn, prefix_ + node,
        [es = std::move(es), op = prefix_ + op](TaskCtx& c) { c.h2d(es, op); },
        std::move(deps), p);
  }
  TaskId compute(const std::string& node, const std::string& op,
                 std::vector<Gemm> es, std::vector<TaskId> deps,
                 std::int64_t p) {
    return g_.add(
        TaskStage::Compute, prefix_ + node,
        [es = std::move(es), op = prefix_ + op](TaskCtx& c) { c.gemm(es, op); },
        std::move(deps), p);
  }
  TaskId move_out(const std::string& node, const std::string& op,
                  std::vector<D2h> es, std::vector<TaskId> deps,
                  std::int64_t p) {
    return g_.add(
        TaskStage::MoveOut, prefix_ + node,
        [es = std::move(es), op = prefix_ + op](TaskCtx& c) { c.d2h(es, op); },
        std::move(deps), p);
  }

  std::string prefix_;
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
      : Program(graph, {&job, 1}), a_(job.a), r_(job.r) {
    m_ = a_.rows;
    n_ = a_.cols;
    ROCQR_CHECK(m_ >= n_ && n_ >= 1, "left_looking_qr: need m >= n >= 1");
    ROCQR_CHECK(r_.rows == n_ && r_.cols == n_,
                "left_looking_qr: R must be n x n");
    b_ = std::min(job.opts.blocksize, n_);
    panels_ = (n_ + b_ - 1) / b_;
  }

  const char* driver_tag() const override { return "left"; }
  index_t units_done() const override { return units_; }
  index_t columns_done() const override { return std::min(units_ * b_, n_); }

  /// Working set: a panel double buffer, a streamed-Q ring of
  /// opts.pipeline_depth slots in GEMM storage width, and single shared
  /// R-block / R_ii scratches (the projection chain serializes on them).
  void allocate(Device& dev) override {
    const std::string& l = job_.label;
    const StoragePrecision q_prec =
        ooc::detail::input_storage(gemm_options(job_.opts));
    const index_t panel_slots = std::min<index_t>(2, panels_);
    for (index_t s = 0; s < panel_slots; ++s) {
      panel_.add(dev, 1, m_, b_, StoragePrecision::FP32,
                 l + "ll panel " + std::to_string(s));
    }
    const int depth = std::max(1, job_.opts.pipeline_depth);
    for (int s = 0; s < depth; ++s) {
      qring_.add(dev, 1, m_, b_, q_prec, l + "ll q " + std::to_string(s));
    }
    rblk_.add(dev, 1, b_, b_, StoragePrecision::FP32, l + "ll rblk");
    rii_.add(dev, 1, b_, b_, StoragePrecision::FP32, l + "ll rii");
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
    const size_t ps = static_cast<size_t>(i) % panel_.size();
    const DeviceMatrixRef pd = panel_.block(ps, m_, w);
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
      const DeviceMatrixRef qd = qring_.block(qs, m_, wj);
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
      const DeviceMatrixRef rb = rblk_.block(0, wj, w);
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
    const DeviceMatrixRef rd = rii_.block(0, w, w);
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
    const auto round = [&](bool first) {
      std::vector<const Program*> advanced;
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
  std::vector<QrStats> stats;
  stats.reserve(jobs.size());
  for (const BatchJob& job : jobs) {
    stats.push_back(stats_from_trace(dev.trace(), window, dev.memory_peak(),
                                     job.label));
  }
  return stats;
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
