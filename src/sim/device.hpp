// The simulated accelerator: memory, streams, events, async operations.
//
// Execution model (mirrors how a host thread drives a CUDA device):
//  - The host enqueues asynchronous operations on streams in program order.
//  - Each operation occupies exactly one engine: the H2D link, the D2H link,
//    or the compute engine (GEMM / panel kernels / device-to-device copies).
//  - An operation starts when (a) the previous op on its stream finished,
//    (b) every event it waits on has completed, (c) its engine is free, and
//    (d) the host had already enqueued it (host time advances only at
//    synchronize() calls — enqueueing is free, like CUDA async launches).
//  - Durations come from the PerfModel. Because the host enqueues in program
//    order and engines are FIFO, scheduling each op greedily at enqueue time
//    is exact (list scheduling == hardware behaviour).
//
// In ExecutionMode::Real, device matrices carry actual fp32 storage and every
// operation also executes numerically on the host, so the identical
// orchestration code is verifiable end to end. In ExecutionMode::Phantom,
// buffers are metadata-only and only the schedule is computed — this is how
// paper-scale (131072^2) experiments run on a laptop.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "blas/gemm.hpp"
#include "common/types.hpp"
#include "la/matrix.hpp"
#include "sim/memory.hpp"
#include "sim/perf_model.hpp"
#include "sim/trace.hpp"

namespace rocqr::sim {

enum class ExecutionMode {
  Real,    ///< buffers hold data; ops execute numerically
  Phantom, ///< metadata only; schedule/time/bytes are still exact
};

/// Element width of device-resident storage. The paper's code keeps GEMM
/// operands in fp16 on the device (that is what TensorCore consumes and what
/// makes the working set fit) while PCIe transfers carry fp32.
enum class StoragePrecision { FP32, FP16 };

inline bytes_t element_bytes(StoragePrecision p) {
  return p == StoragePrecision::FP32 ? 4 : 2;
}

/// Host-side matrix operand of a transfer. `data == nullptr` marks a phantom
/// host matrix (allowed only in ExecutionMode::Phantom).
struct HostConstRef {
  const float* data = nullptr;
  index_t rows = 0;
  index_t cols = 0;
  index_t ld = 1;

  HostConstRef() = default;
  HostConstRef(const float* d, index_t r, index_t c, index_t l)
      : data(d), rows(r), cols(c), ld(l) {}
  HostConstRef(la::ConstMatrixView v)
      : data(v.data()), rows(v.rows()), cols(v.cols()), ld(v.ld()) {}
  HostConstRef(la::MatrixView v)
      : data(v.data()), rows(v.rows()), cols(v.cols()), ld(v.ld()) {}

  /// Shape-only phantom host matrix.
  static HostConstRef phantom(index_t rows, index_t cols) {
    return HostConstRef(nullptr, rows, cols, rows > 0 ? rows : 1);
  }
};

struct HostMutRef {
  float* data = nullptr;
  index_t rows = 0;
  index_t cols = 0;
  index_t ld = 1;

  HostMutRef() = default;
  HostMutRef(float* d, index_t r, index_t c, index_t l)
      : data(d), rows(r), cols(c), ld(l) {}
  HostMutRef(la::MatrixView v)
      : data(v.data()), rows(v.rows()), cols(v.cols()), ld(v.ld()) {}

  static HostMutRef phantom(index_t rows, index_t cols) {
    return HostMutRef(nullptr, rows, cols, rows > 0 ? rows : 1);
  }
};

/// Read-only view of a mutable host ref.
inline HostConstRef as_const(const HostMutRef& m) {
  return HostConstRef(m.data, m.rows, m.cols, m.ld);
}

class Device;
class FaultInjector;
class FaultPlan;

/// Joins every device and aligns all their host clocks to the global
/// makespan — the multi-device barrier (cudaDeviceSynchronize over all
/// devices from the one orchestrating host thread).
void synchronize_all(const std::vector<Device*>& devices);

/// Opaque stream handle (FIFO of device operations).
struct Stream {
  int id = -1;
  bool valid() const { return id >= 0; }
};

/// Opaque event handle (cross-stream dependency marker).
struct Event {
  int id = -1;
  bool valid() const { return id >= 0; }
};

/// Handle to a device-resident matrix (column-major, ld == rows).
class DeviceMatrix {
 public:
  DeviceMatrix() = default;

  bool valid() const { return id_ >= 0; }
  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  StoragePrecision precision() const { return precision_; }
  std::int64_t id() const { return id_; }
  bytes_t bytes() const {
    return static_cast<bytes_t>(rows_) * cols_ * element_bytes(precision_);
  }

 private:
  friend class Device;
  std::int64_t id_ = -1;
  index_t rows_ = 0;
  index_t cols_ = 0;
  StoragePrecision precision_ = StoragePrecision::FP32;
};

/// A rectangular sub-block of a device matrix (what operations act on).
struct DeviceMatrixRef {
  DeviceMatrixRef() = default;
  /// Whole-matrix ref (implicit: ops take refs, callers usually have handles).
  DeviceMatrixRef(const DeviceMatrix& m)
      : matrix(m), row0(0), col0(0), rows(m.rows()), cols(m.cols()) {}
  DeviceMatrixRef(const DeviceMatrix& m, index_t i0, index_t j0, index_t r,
                  index_t c)
      : matrix(m), row0(i0), col0(j0), rows(r), cols(c) {}

  DeviceMatrixRef block(index_t i0, index_t j0, index_t r, index_t c) const {
    return DeviceMatrixRef(matrix, row0 + i0, col0 + j0, r, c);
  }

  DeviceMatrix matrix;
  index_t row0 = 0;
  index_t col0 = 0;
  index_t rows = 0;
  index_t cols = 0;
};

/// Host-side PCIe link state shared by several devices behind one root
/// complex / switch. Passing the same SharedHostLink to multiple Devices
/// serializes their host transfers per direction — the standard first-order
/// model of multi-GPU PCIe contention (the regime BLASX/cuBLASXt schedule
/// around, §2.2). Devices without a shared link own dedicated lanes.
struct SharedHostLink {
  sim_time_t h2d_free = 0;
  sim_time_t d2h_free = 0;
};

class Device {
 public:
  /// `recording` chooses what trace() keeps (sim/trace.hpp): every event,
  /// or only the totals a dry run reads.
  Device(DeviceSpec spec, ExecutionMode mode,
         std::shared_ptr<SharedHostLink> shared_link = nullptr,
         Recording recording = Recording::Events);

  const DeviceSpec& spec() const { return model_.spec(); }
  ExecutionMode mode() const { return mode_; }
  PerfModel& model() { return model_; }
  const PerfModel& model() const { return model_; }

  /// Installs a seeded fault-injection plan (sim/faults.hpp): subsequent
  /// allocate/copy/gemm calls consult it and fail or corrupt on command.
  /// An empty plan removes injection. The fault-free fast path stays a
  /// single null-pointer check, so schedules and byte counts are unchanged
  /// when no plan is installed.
  void install_faults(const FaultPlan& plan);
  FaultInjector* fault_injector() const { return faults_.get(); }

  /// True after a `fatal` fault fired: the device is permanently lost.
  /// Every subsequent enqueue (allocate/copy/gemm/trsm/custom_compute)
  /// throws rocqr::DeviceLost. free()/synchronize()/download stay usable so
  /// RAII cleanup and post-mortem inspection never throw from destructors.
  bool dead() const { return dead_; }

  /// Whether host buffers are treated as pinned (default) or pageable.
  /// Pageable transfers run at spec().pageable_bandwidth_factor of the link
  /// rate — the knob behind the paper's "pinned memory" remark (§3.3.1).
  void set_host_memory_pinned(bool pinned) { host_pinned_ = pinned; }
  bool host_memory_pinned() const { return host_pinned_; }

  // --- Memory --------------------------------------------------------------

  /// Allocates a rows x cols device matrix. Throws DeviceOutOfMemory.
  DeviceMatrix allocate(index_t rows, index_t cols,
                        StoragePrecision precision = StoragePrecision::FP32,
                        OpName label = {});
  void free(DeviceMatrix& m);

  bytes_t memory_used() const { return allocator_.used(); }
  bytes_t memory_peak() const { return allocator_.peak_used(); }
  bytes_t memory_capacity() const { return allocator_.capacity(); }
  int live_allocations() const { return allocator_.live_allocations(); }

  // --- Streams & events ----------------------------------------------------

  Stream create_stream();
  Event create_event();
  /// Event completes when all work enqueued on `s` so far completes.
  void record_event(Event e, Stream s);
  /// Future work on `s` waits for the event (which must have been recorded).
  void wait_event(Stream s, Event e);

  /// Host blocks until the stream drains (advances the simulated host clock).
  void synchronize(Stream s);
  /// Host blocks until the whole device drains.
  void synchronize();

  /// Advances this device's view of the host clock (used by multi-device
  /// drivers: the one host thread that just joined device A cannot enqueue
  /// on device B "in the past").
  void advance_host_clock(sim_time_t t) { host_time_ = std::max(host_time_, t); }

  /// Simulated host clock (seconds since Device construction).
  sim_time_t now() const { return host_time_; }
  /// Latest completion time over everything enqueued so far.
  sim_time_t makespan() const;

  // --- Operations (asynchronous, FIFO per stream) ---------------------------

  /// PCIe H2D transfer of an fp32 payload (rows*cols*4 bytes). If the
  /// destination storage is FP16, elements are rounded on arrival (the
  /// device-side convert kernel of the paper's pipeline). A one-entry
  /// copy_h2d_batched.
  void copy_h2d(DeviceMatrixRef dst, HostConstRef src, Stream s,
                OpName name = "h2d");

  /// PCIe D2H transfer; payload is fp32 (rows*cols*4 bytes). A one-entry
  /// copy_d2h_batched.
  void copy_d2h(HostMutRef dst, DeviceMatrixRef src, Stream s,
                OpName name = "d2h");

  /// On-device copy (staging-buffer trick). Runs on the compute engine.
  void copy_d2d(DeviceMatrixRef dst, DeviceMatrixRef src, Stream s,
                OpName name = "d2d");

  /// C = alpha * op(A)*op(B) + beta * C on the compute engine. Duration from
  /// the PerfModel; numerics executed in Real mode. A one-entry gemm_batched.
  void gemm(blas::Op opa, blas::Op opb, float alpha, DeviceMatrixRef a,
            DeviceMatrixRef b, float beta, DeviceMatrixRef c,
            blas::GemmPrecision precision, Stream s, OpName name = "gemm");

  /// Triangular-solve kinds used by the LU / Cholesky drivers and solvers.
  enum class TrsmKind {
    LeftLowerUnit,  ///< X := L⁻¹ B with L unit lower triangular (LU panels)
    LeftUpperTrans, ///< X := R⁻ᵀ B with R upper triangular (Cholesky panels)
    LeftUpper,      ///< X := U⁻¹ B with U upper triangular (back substitution)
  };

  /// In-place triangular solve on the compute engine: `b` (m x n) is
  /// overwritten with the solution against the m x m triangle `tri`.
  /// Precision selects the modeled rate; numerics run in fp32 (triangular
  /// solves are not TensorCore ops on real hardware either).
  void trsm(TrsmKind kind, DeviceMatrixRef tri, DeviceMatrixRef b,
            blas::GemmPrecision precision, Stream s, OpName name = "trsm");

  /// Generic compute-engine operation with caller-supplied cost and optional
  /// Real-mode body (used by the panel factorization in src/qr).
  void custom_compute(Stream s, sim_time_t seconds, flops_t flops, OpKind kind,
                      OpName name, const std::function<void()>& body = {});

  // --- Batched operations ---------------------------------------------------
  //
  // The one implementation of each copy direction and of the GEMM: an op is
  // one engine occupancy covering K >= 1 same-kind entries, and the solo
  // copy_h2d / copy_d2h / gemm above are one-entry calls. A fused serving
  // batch coalesces K same-shape jobs into a single H2D / compute / D2H
  // launch, paying the fixed per-op latency once instead of K times.
  // Duration is sum(solo durations) - (K-1) * latency; bytes and flops sum.
  // Real-mode numerics run the identical per-entry bodies in entry order, so
  // results are bit-identical to K solo operations. Entries are taken as a
  // span, so a solo op allocates nothing.

  /// One H2D sub-transfer of a batched move-in.
  struct H2dBatchEntry {
    DeviceMatrixRef dst;
    HostConstRef src;
  };

  /// One D2H sub-transfer of a batched move-out.
  struct D2hBatchEntry {
    HostMutRef dst;
    DeviceMatrixRef src;
  };

  /// One independent GEMM of a batched (block-diagonal) compute launch.
  struct GemmBatchEntry {
    blas::Op opa = blas::Op::NoTrans;
    blas::Op opb = blas::Op::NoTrans;
    float alpha = 1.0f;
    DeviceMatrixRef a;
    DeviceMatrixRef b;
    float beta = 0.0f;
    DeviceMatrixRef c;
  };

  /// Fused H2D transfer: one link occupancy, one fault site, K payloads.
  void copy_h2d_batched(std::span<const H2dBatchEntry> entries, Stream s,
                        OpName name = "h2d_batched");

  /// Fused D2H transfer (symmetric to copy_h2d_batched).
  void copy_d2h_batched(std::span<const D2hBatchEntry> entries, Stream s,
                        OpName name = "d2h_batched");

  /// Block-diagonal GEMM: K independent products in one compute-engine
  /// launch (one kernel-launch latency amortized across the batch). One
  /// compute fault site; a corrupting fault perturbs the first product. The
  /// sim.gemm_flops.* counters count only products the engine runs.
  void gemm_batched(std::span<const GemmBatchEntry> entries,
                    blas::GemmPrecision precision, Stream s,
                    OpName name = "gemm_batched");

  // --- Introspection ---------------------------------------------------------

  const Trace& trace() const { return trace_; }

  /// Host wall seconds the Real-mode bodies of this device's ops took,
  /// summed per op kind (a custom op counts under the kind it was enqueued
  /// with). One steady_clock pair per Real op; zero for every kind in
  /// Phantom mode, which runs no body.
  double host_seconds(OpKind kind) const {
    return host_seconds_[static_cast<size_t>(kind)];
  }

  /// Real-mode test/debug aids: immediate, not part of the simulation.
  /// (Also used as the numerical body of custom compute ops, e.g. the panel
  /// factorization, which download-compute-upload on enqueue.)
  la::Matrix download(const DeviceMatrix& m) const;
  la::Matrix download(const DeviceMatrixRef& ref) const;
  void upload(const DeviceMatrix& m, la::ConstMatrixView v);
  void upload(const DeviceMatrixRef& ref, la::ConstMatrixView v);

 private:
  struct Buffer {
    bytes_t offset = 0;
    index_t rows = 0;
    index_t cols = 0;
    StoragePrecision precision = StoragePrecision::FP32;
    std::vector<float> data; // Real mode only
    OpName label;
  };

  struct Resolved {
    float* ptr = nullptr; // null in Phantom mode
    index_t ld = 0;
  };

  /// Schedules an op: computes start/end, updates engine & stream clocks,
  /// records the trace event. Returns the op id.
  std::int64_t schedule(Resource resource, OpKind kind, Stream s,
                        sim_time_t duration, bytes_t bytes, flops_t flops,
                        const OpName& name);

  Buffer& buffer_for(const DeviceMatrix& m, const char* what);
  const Buffer& buffer_for(const DeviceMatrix& m, const char* what) const;
  Resolved resolve(const DeviceMatrixRef& ref, const char* what);
  void validate_stream(Stream s, const char* what) const;
  void round_fp16_block(const DeviceMatrixRef& ref);
  /// Adds the host wall since `start` to host_seconds(kind).
  void add_host_time(OpKind kind, std::chrono::steady_clock::time_point start) {
    host_seconds_[static_cast<size_t>(kind)] +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
  }
  /// Throws DeviceLost if the device is dead (every enqueue entry point).
  void ensure_alive(const char* what) const;
  /// Marks the device dead and throws DeviceLost for the op that killed it.
  [[noreturn]] void die(const char* site, std::string_view name);

  PerfModel model_;
  ExecutionMode mode_;
  DeviceAllocator allocator_;
  Trace trace_;

  std::unordered_map<std::int64_t, Buffer> buffers_;
  std::int64_t next_buffer_id_ = 0;
  std::int64_t next_op_id_ = 0;

  std::vector<sim_time_t> stream_tail_;
  std::vector<sim_time_t> event_time_;
  std::vector<bool> event_recorded_;
  sim_time_t engine_free_[3] = {0, 0, 0}; // indexed by Resource
  std::shared_ptr<SharedHostLink> shared_link_;
  std::shared_ptr<FaultInjector> faults_; // null when no plan is installed
  sim_time_t host_time_ = 0;
  std::array<double, static_cast<size_t>(OpKind::Custom) + 1> host_seconds_{};
  bool host_pinned_ = true;
  bool dead_ = false;
};

} // namespace rocqr::sim
