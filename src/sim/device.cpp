#include "sim/device.hpp"

#include <algorithm>
#include <cmath>

#include "blas/transform.hpp"
#include "blas/trsm.hpp"
#include "common/error.hpp"
#include "common/half.hpp"
#include "common/telemetry.hpp"
#include "sim/faults.hpp"

namespace rocqr::sim {

namespace {

void check_ref_bounds(const DeviceMatrixRef& ref, const char* what) {
  ROCQR_CHECK(ref.matrix.valid(), std::string(what) + ": invalid device matrix");
  ROCQR_CHECK(ref.row0 >= 0 && ref.col0 >= 0 && ref.rows >= 0 && ref.cols >= 0,
              std::string(what) + ": negative ref geometry");
  ROCQR_CHECK(ref.row0 + ref.rows <= ref.matrix.rows() &&
                  ref.col0 + ref.cols <= ref.matrix.cols(),
              std::string(what) + ": ref exceeds matrix bounds");
}

/// C (m x n) = op(A) (m x k) * op(B) (k x n).
struct GemmDims {
  index_t m, n, k;
};

GemmDims gemm_dims(const Device::GemmBatchEntry& e) {
  return {blas::op_rows(e.opa, e.a.rows, e.a.cols),
          blas::op_cols(e.opb, e.b.rows, e.b.cols),
          blas::op_cols(e.opa, e.a.rows, e.a.cols)};
}

/// The sim.gemm_flops.<class> counter of a product's shape class, resolved
/// once per class, on its first product.
telemetry::Counter& gemm_flops_counter(const GemmDims& d) {
  auto& reg = telemetry::MetricsRegistry::global();
  const index_t mn_max = std::max(d.m, d.n);
  if (d.k >= 4 * mn_max) {
    static telemetry::Counter& reduction =
        reg.counter("sim.gemm_flops.reduction");
    return reduction;
  }
  if (mn_max >= 4 * d.k) {
    static telemetry::Counter& outer = reg.counter("sim.gemm_flops.outer");
    return outer;
  }
  static telemetry::Counter& square = reg.counter("sim.gemm_flops.square");
  return square;
}

} // namespace

Device::Device(DeviceSpec spec, ExecutionMode mode,
               std::shared_ptr<SharedHostLink> shared_link,
               Recording recording)
    : model_(std::move(spec)), mode_(mode),
      allocator_(model_.spec().memory_capacity), trace_(recording),
      shared_link_(std::move(shared_link)) {}

void Device::install_faults(const FaultPlan& plan) {
  faults_ = plan.empty() ? nullptr : std::make_shared<FaultInjector>(plan);
}

void Device::ensure_alive(const char* what) const {
  if (dead_) {
    throw DeviceLost(std::string(what) +
                     ": device is dead (a fatal fault fired earlier)");
  }
}

void Device::die(const char* site, std::string_view name) {
  dead_ = true;
  std::string what = "injected fault: ";
  what += site;
  what += ":fatal on '";
  what += name;
  what += "' — device is permanently lost";
  throw DeviceLost(what);
}

DeviceMatrix Device::allocate(index_t rows, index_t cols,
                              StoragePrecision precision, OpName label) {
  ROCQR_CHECK(rows > 0 && cols > 0, "Device::allocate: dimensions must be positive");
  ensure_alive("Device::allocate");
  if (faults_ && faults_->fire(FaultSite::Alloc)) {
    if (faults_->last_fired_kind() == FaultKind::Fatal) die("alloc", label);
    throw DeviceOutOfMemory(
        "injected fault: alloc:oom at alloc op #" +
        std::to_string(faults_->ops_seen(FaultSite::Alloc)) +
        (label.empty() ? "" : " ('" + label.str() + "')"));
  }
  const bytes_t bytes = static_cast<bytes_t>(rows) * cols * element_bytes(precision);
  Buffer buf;
  buf.offset = allocator_.allocate(bytes);
  buf.rows = rows;
  buf.cols = cols;
  buf.precision = precision;
  buf.label = label;
  if (mode_ == ExecutionMode::Real) {
    buf.data.assign(static_cast<size_t>(rows) * static_cast<size_t>(cols), 0.0f);
  }
  DeviceMatrix m;
  m.id_ = next_buffer_id_++;
  m.rows_ = rows;
  m.cols_ = cols;
  m.precision_ = precision;
  buffers_.emplace(m.id_, std::move(buf));
  return m;
}

void Device::free(DeviceMatrix& m) {
  Buffer& buf = buffer_for(m, "Device::free");
  allocator_.free(buf.offset);
  buffers_.erase(m.id());
  m.id_ = -1;
}

Device::Buffer& Device::buffer_for(const DeviceMatrix& m, const char* what) {
  ROCQR_CHECK(m.valid(), std::string(what) + ": invalid device matrix handle");
  const auto it = buffers_.find(m.id());
  if (it == buffers_.end()) {
    throw ResourceError(std::string(what) + ": device matrix was freed");
  }
  return it->second;
}

const Device::Buffer& Device::buffer_for(const DeviceMatrix& m,
                                         const char* what) const {
  ROCQR_CHECK(m.valid(), std::string(what) + ": invalid device matrix handle");
  const auto it = buffers_.find(m.id());
  if (it == buffers_.end()) {
    throw ResourceError(std::string(what) + ": device matrix was freed");
  }
  return it->second;
}

Device::Resolved Device::resolve(const DeviceMatrixRef& ref, const char* what) {
  check_ref_bounds(ref, what);
  Buffer& buf = buffer_for(ref.matrix, what);
  Resolved r;
  r.ld = buf.rows;
  if (mode_ == ExecutionMode::Real) {
    r.ptr = buf.data.data() + ref.row0 + ref.col0 * buf.rows;
  }
  return r;
}

Stream Device::create_stream() {
  Stream s;
  s.id = static_cast<int>(stream_tail_.size());
  stream_tail_.push_back(host_time_);
  return s;
}

Event Device::create_event() {
  Event e;
  e.id = static_cast<int>(event_time_.size());
  event_time_.push_back(0);
  event_recorded_.push_back(false);
  return e;
}

void Device::validate_stream(Stream s, const char* what) const {
  ROCQR_CHECK(s.valid() && s.id < static_cast<int>(stream_tail_.size()),
              std::string(what) + ": invalid stream");
}

void Device::record_event(Event e, Stream s) {
  validate_stream(s, "record_event");
  ROCQR_CHECK(e.valid() && e.id < static_cast<int>(event_time_.size()),
              "record_event: invalid event");
  event_time_[static_cast<size_t>(e.id)] = stream_tail_[static_cast<size_t>(s.id)];
  event_recorded_[static_cast<size_t>(e.id)] = true;
}

void Device::wait_event(Stream s, Event e) {
  validate_stream(s, "wait_event");
  ROCQR_CHECK(e.valid() && e.id < static_cast<int>(event_time_.size()),
              "wait_event: invalid event");
  if (!event_recorded_[static_cast<size_t>(e.id)]) {
    throw ResourceError(
        "wait_event: event was never recorded (the simulator requires "
        "record-before-wait program order)");
  }
  auto& tail = stream_tail_[static_cast<size_t>(s.id)];
  tail = std::max(tail, event_time_[static_cast<size_t>(e.id)]);
}

void Device::synchronize(Stream s) {
  validate_stream(s, "synchronize");
  host_time_ = std::max(host_time_, stream_tail_[static_cast<size_t>(s.id)]);
}

void Device::synchronize() { host_time_ = std::max(host_time_, makespan()); }

sim_time_t Device::makespan() const {
  sim_time_t latest = host_time_;
  for (const sim_time_t t : stream_tail_) latest = std::max(latest, t);
  return latest;
}

std::int64_t Device::schedule(Resource resource, OpKind kind, Stream s,
                              sim_time_t duration, bytes_t bytes, flops_t flops,
                              const OpName& name) {
  validate_stream(s, "schedule");
  ROCQR_CHECK(duration >= 0, "schedule: negative duration");
  // Host transfers contend on the shared PCIe link when one is attached.
  sim_time_t* engine_ptr = &engine_free_[static_cast<int>(resource)];
  if (shared_link_ != nullptr) {
    if (resource == Resource::H2D) engine_ptr = &shared_link_->h2d_free;
    if (resource == Resource::D2H) engine_ptr = &shared_link_->d2h_free;
  }
  auto& engine = *engine_ptr;
  auto& tail = stream_tail_[static_cast<size_t>(s.id)];
  const sim_time_t start = std::max({host_time_, tail, engine});
  const sim_time_t end = start + duration;
  tail = end;
  engine = end;

  TraceEvent ev;
  ev.id = next_op_id_++;
  ev.name = name;
  ev.kind = kind;
  ev.resource = resource;
  ev.stream = s.id;
  ev.start = start;
  ev.end = end;
  ev.bytes = bytes;
  ev.flops = flops;
  trace_.add(ev);
  return next_op_id_ - 1;
}

void Device::round_fp16_block(const DeviceMatrixRef& ref) {
  const Resolved r = resolve(ref, "round_fp16_block");
  if (r.ptr == nullptr) return;
  blas::round_to_half(ref.rows, ref.cols, r.ptr, r.ld);
}

void Device::copy_d2d(DeviceMatrixRef dst, DeviceMatrixRef src, Stream s,
                      OpName name) {
  check_ref_bounds(dst, "copy_d2d");
  check_ref_bounds(src, "copy_d2d");
  ROCQR_CHECK(dst.rows == src.rows && dst.cols == src.cols,
              "copy_d2d: shape mismatch");
  if (src.rows == 0 || src.cols == 0) return;
  ensure_alive("copy_d2d");
  const bytes_t bytes = static_cast<bytes_t>(src.rows) * src.cols *
                        element_bytes(src.matrix.precision());
  schedule(Resource::Compute, OpKind::CopyD2D, s, model_.d2d_seconds(bytes),
           bytes, 0, name);
  if (mode_ == ExecutionMode::Real) {
    const auto t0 = std::chrono::steady_clock::now();
    const Resolved sv = resolve(src, "copy_d2d");
    const Resolved dv = resolve(dst, "copy_d2d");
    blas::copy_matrix(src.rows, src.cols, sv.ptr, sv.ld, dv.ptr, dv.ld);
    if (dst.matrix.precision() == StoragePrecision::FP16) {
      blas::round_to_half(dst.rows, dst.cols, dv.ptr, dv.ld);
    }
    add_host_time(OpKind::CopyD2D, t0);
  }
}

void Device::trsm(TrsmKind kind, DeviceMatrixRef tri, DeviceMatrixRef b,
                  blas::GemmPrecision precision, Stream s, OpName name) {
  check_ref_bounds(tri, "trsm");
  check_ref_bounds(b, "trsm");
  ROCQR_CHECK(tri.rows == tri.cols, "trsm: triangle must be square");
  ROCQR_CHECK(b.rows == tri.rows, "trsm: B row count must match triangle");
  if (b.rows == 0 || b.cols == 0) return;
  ensure_alive("trsm");

  const flops_t flops =
      static_cast<flops_t>(b.rows) * b.rows * b.cols;
  schedule(Resource::Compute, OpKind::Trsm, s,
           model_.trsm_seconds(b.rows, b.cols, precision), 0, flops,
           name);
  if (mode_ == ExecutionMode::Real) {
    const auto t0 = std::chrono::steady_clock::now();
    const Resolved tv = resolve(tri, "trsm");
    const Resolved bv = resolve(b, "trsm");
    switch (kind) {
      case TrsmKind::LeftLowerUnit:
        blas::trsm_left_lower(b.rows, b.cols, /*unit_diagonal=*/true, tv.ptr,
                              tv.ld, bv.ptr, bv.ld);
        break;
      case TrsmKind::LeftUpperTrans:
        blas::trsm_left_upper_trans(b.rows, b.cols, tv.ptr, tv.ld, bv.ptr,
                                    bv.ld);
        break;
      case TrsmKind::LeftUpper:
        blas::trsm_left_upper(b.rows, b.cols, tv.ptr, tv.ld, bv.ptr, bv.ld);
        break;
    }
    if (b.matrix.precision() == StoragePrecision::FP16) {
      blas::round_to_half(b.rows, b.cols, bv.ptr, bv.ld);
    }
    add_host_time(OpKind::Trsm, t0);
  }
}

void Device::custom_compute(Stream s, sim_time_t seconds, flops_t flops,
                            OpKind kind, OpName name,
                            const std::function<void()>& body) {
  ensure_alive("custom_compute");
  schedule(Resource::Compute, kind, s, seconds, 0, flops, name);
  if (mode_ == ExecutionMode::Real && body) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    add_host_time(kind, t0);
  }
}

// Every H2D copy, D2H copy and GEMM is a batch: the solo entry points are
// one-entry calls into the batched bodies below, so there is one
// implementation per op kind.

void Device::copy_h2d(DeviceMatrixRef dst, HostConstRef src, Stream s,
                      OpName name) {
  const H2dBatchEntry e{dst, src};
  copy_h2d_batched({&e, 1}, s, name);
}

void Device::copy_d2h(HostMutRef dst, DeviceMatrixRef src, Stream s,
                      OpName name) {
  const D2hBatchEntry e{dst, src};
  copy_d2h_batched({&e, 1}, s, name);
}

void Device::gemm(blas::Op opa, blas::Op opb, float alpha, DeviceMatrixRef a,
                  DeviceMatrixRef b, float beta, DeviceMatrixRef c,
                  blas::GemmPrecision precision, Stream s, OpName name) {
  const GemmBatchEntry e{opa, opb, alpha, a, b, beta, c};
  gemm_batched({&e, 1}, precision, s, name);
}

void Device::copy_h2d_batched(std::span<const H2dBatchEntry> entries,
                              Stream s, OpName name) {
  bytes_t bytes = 0;
  sim_time_t duration = 0;
  int live = 0;
  for (const H2dBatchEntry& e : entries) {
    check_ref_bounds(e.dst, "copy_h2d");
    ROCQR_CHECK(e.dst.rows == e.src.rows && e.dst.cols == e.src.cols,
                "copy_h2d: shape mismatch");
    if (e.dst.rows == 0 || e.dst.cols == 0) continue;
    // PCIe payload is fp32 regardless of device-resident precision.
    const bytes_t b = static_cast<bytes_t>(e.dst.rows) * e.dst.cols * 4;
    bytes += b;
    duration += model_.h2d_seconds(b);
    ++live;
  }
  if (live == 0) return;
  ensure_alive("copy_h2d");
  // One transfer is one fault site, thrown before schedule(): a failed
  // enqueue consumes no engine time (the caller's retry backoff models the
  // cost and replays every payload), and a fatal fault kills the device.
  if (faults_ && faults_->fire(FaultSite::H2D)) {
    if (faults_->last_fired_kind() == FaultKind::Fatal) die("h2d", name);
    throw TransferError("injected fault: h2d:transient on '" + name.str() +
                        "' (h2d op #" +
                        std::to_string(faults_->ops_seen(FaultSite::H2D)) +
                        ")");
  }
  // The fixed link-turnaround latency is paid once per transfer, not per
  // payload: sum(solo) - (K-1) * latency.
  duration -= static_cast<sim_time_t>(live - 1) * model_.spec().copy_latency_s;
  const double scale =
      host_pinned_ ? 1.0 : 1.0 / model_.spec().pageable_bandwidth_factor;
  schedule(Resource::H2D, OpKind::CopyH2D, s, duration * scale, bytes, 0,
           name);
  if (mode_ == ExecutionMode::Real) {
    const auto t0 = std::chrono::steady_clock::now();
    for (const H2dBatchEntry& e : entries) {
      if (e.dst.rows == 0 || e.dst.cols == 0) continue;
      if (e.src.data == nullptr) {
        throw PhantomDataError("copy_h2d: phantom host source in Real mode");
      }
      const Resolved d = resolve(e.dst, "copy_h2d");
      blas::copy_matrix(e.dst.rows, e.dst.cols, e.src.data, e.src.ld, d.ptr,
                        d.ld);
      if (e.dst.matrix.precision() == StoragePrecision::FP16) {
        blas::round_to_half(e.dst.rows, e.dst.cols, d.ptr, d.ld);
      }
    }
    add_host_time(OpKind::CopyH2D, t0);
  }
}

void Device::copy_d2h_batched(std::span<const D2hBatchEntry> entries,
                              Stream s, OpName name) {
  bytes_t bytes = 0;
  sim_time_t duration = 0;
  int live = 0;
  for (const D2hBatchEntry& e : entries) {
    check_ref_bounds(e.src, "copy_d2h");
    ROCQR_CHECK(e.dst.rows == e.src.rows && e.dst.cols == e.src.cols,
                "copy_d2h: shape mismatch");
    if (e.src.rows == 0 || e.src.cols == 0) continue;
    const bytes_t b = static_cast<bytes_t>(e.src.rows) * e.src.cols * 4;
    bytes += b;
    duration += model_.d2h_seconds(b);
    ++live;
  }
  if (live == 0) return;
  ensure_alive("copy_d2h");
  if (faults_ && faults_->fire(FaultSite::D2H)) {
    if (faults_->last_fired_kind() == FaultKind::Fatal) die("d2h", name);
    throw TransferError("injected fault: d2h:transient on '" + name.str() +
                        "' (d2h op #" +
                        std::to_string(faults_->ops_seen(FaultSite::D2H)) +
                        ")");
  }
  duration -= static_cast<sim_time_t>(live - 1) * model_.spec().copy_latency_s;
  const double scale =
      host_pinned_ ? 1.0 : 1.0 / model_.spec().pageable_bandwidth_factor;
  schedule(Resource::D2H, OpKind::CopyD2H, s, duration * scale, bytes, 0,
           name);
  if (mode_ == ExecutionMode::Real) {
    const auto t0 = std::chrono::steady_clock::now();
    for (const D2hBatchEntry& e : entries) {
      if (e.src.rows == 0 || e.src.cols == 0) continue;
      if (e.dst.data == nullptr) {
        throw PhantomDataError(
            "copy_d2h: phantom host destination in Real mode");
      }
      const Resolved sv = resolve(e.src, "copy_d2h");
      blas::copy_matrix(e.src.rows, e.src.cols, sv.ptr, sv.ld, e.dst.data,
                        e.dst.ld);
    }
    add_host_time(OpKind::CopyD2H, t0);
  }
}

void Device::gemm_batched(std::span<const GemmBatchEntry> entries,
                          blas::GemmPrecision precision, Stream s,
                          OpName name) {
  sim_time_t duration = 0;
  flops_t flops = 0;
  int live = 0;
  for (const GemmBatchEntry& e : entries) {
    check_ref_bounds(e.a, "gemm");
    check_ref_bounds(e.b, "gemm");
    check_ref_bounds(e.c, "gemm");
    const GemmDims d = gemm_dims(e);
    ROCQR_CHECK(blas::op_rows(e.opb, e.b.rows, e.b.cols) == d.k,
                "gemm: inner dimension mismatch");
    ROCQR_CHECK(e.c.rows == d.m && e.c.cols == d.n, "gemm: C shape mismatch");
    if (d.m == 0 || d.n == 0) continue;
    flops += blas::gemm_flops(d.m, d.n, d.k);
    duration += model_.gemm_seconds(e.opa, d.m, d.n, d.k, precision);
    ++live;
  }
  if (live == 0) return;
  ensure_alive("gemm");

  // Compute-site faults corrupt (rather than abort) the op: silent data
  // corruption is the failure mode ABFT checksums exist for. In Phantom
  // mode there is nothing to corrupt, but the op still counts and fires so
  // plans behave identically across modes. A fatal compute fault instead
  // kills the device before the op is scheduled.
  const bool fired = faults_ && faults_->fire(FaultSite::Compute);
  if (fired && faults_->last_fired_kind() == FaultKind::Fatal) {
    die("compute", name);
  }
  const bool corrupt =
      fired && faults_->last_fired_kind() == FaultKind::Corrupt;
  // Attribute the flops of every product the engine runs by problem shape:
  // the paper's engines live or die by whether their GEMMs are
  // reduction-dominated (k-split inner products), output-dominated
  // (outer-product updates) or near-square (peak-rate).
  for (const GemmBatchEntry& e : entries) {
    const GemmDims d = gemm_dims(e);
    if (d.m == 0 || d.n == 0) continue;
    gemm_flops_counter(d).add(blas::gemm_flops(d.m, d.n, d.k));
  }
  // One kernel-launch latency for the block-diagonal batch.
  duration -=
      static_cast<sim_time_t>(live - 1) * model_.spec().kernel_latency_s;
  schedule(Resource::Compute, OpKind::Gemm, s, duration, 0, flops,
           name);
  if (mode_ == ExecutionMode::Real) {
    const auto t0 = std::chrono::steady_clock::now();
    bool first = true;
    for (const GemmBatchEntry& e : entries) {
      const GemmDims d = gemm_dims(e);
      if (d.m == 0 || d.n == 0) continue;
      const Resolved av = resolve(e.a, "gemm");
      const Resolved bv = resolve(e.b, "gemm");
      const Resolved cv = resolve(e.c, "gemm");
      blas::gemm(e.opa, e.opb, d.m, d.n, d.k, e.alpha, av.ptr, av.ld, bv.ptr,
                 bv.ld, e.beta, cv.ptr, cv.ld, precision);
      if (e.c.matrix.precision() == StoragePrecision::FP16) {
        blas::round_to_half(e.c.rows, e.c.cols, cv.ptr, cv.ld);
      }
      if (corrupt && first) {
        // Perturb one output element by several orders of magnitude more
        // than the fp16-rounding noise an ABFT checksum must tolerate.
        Rng& rng = faults_->payload_rng();
        float& v = cv.ptr[rng.below(d.m) + rng.below(d.n) * cv.ld];
        v += 1.0e4f * (1.0f + std::fabs(v));
      }
      first = false;
    }
    add_host_time(OpKind::Gemm, t0);
  }
}

void synchronize_all(const std::vector<Device*>& devices) {
  sim_time_t latest = 0;
  for (Device* dev : devices) {
    ROCQR_CHECK(dev != nullptr, "synchronize_all: null device");
    dev->synchronize();
    latest = std::max(latest, dev->now());
  }
  for (Device* dev : devices) dev->advance_host_clock(latest);
}

la::Matrix Device::download(const DeviceMatrix& m) const {
  const Buffer& buf = buffer_for(m, "download");
  if (mode_ != ExecutionMode::Real) {
    throw PhantomDataError("download: device is in Phantom mode");
  }
  la::Matrix out(buf.rows, buf.cols);
  blas::copy_matrix(buf.rows, buf.cols, buf.data.data(), buf.rows, out.data(),
                    out.ld());
  return out;
}

void Device::upload(const DeviceMatrix& m, la::ConstMatrixView v) {
  upload(DeviceMatrixRef(m), v);
}

la::Matrix Device::download(const DeviceMatrixRef& ref) const {
  check_ref_bounds(ref, "download");
  const Buffer& buf = buffer_for(ref.matrix, "download");
  if (mode_ != ExecutionMode::Real) {
    throw PhantomDataError("download: device is in Phantom mode");
  }
  la::Matrix out(ref.rows, ref.cols);
  blas::copy_matrix(ref.rows, ref.cols,
                    buf.data.data() + ref.row0 + ref.col0 * buf.rows,
                    buf.rows, out.data(), out.ld());
  return out;
}

void Device::upload(const DeviceMatrixRef& ref, la::ConstMatrixView v) {
  check_ref_bounds(ref, "upload");
  Buffer& buf = buffer_for(ref.matrix, "upload");
  if (mode_ != ExecutionMode::Real) {
    throw PhantomDataError("upload: device is in Phantom mode");
  }
  ROCQR_CHECK(v.rows() == ref.rows && v.cols() == ref.cols,
              "upload: shape mismatch");
  float* dst = buf.data.data() + ref.row0 + ref.col0 * buf.rows;
  blas::copy_matrix(v.rows(), v.cols(), v.data(), v.ld(), dst, buf.rows);
  if (buf.precision == StoragePrecision::FP16) {
    blas::round_to_half(ref.rows, ref.cols, dst, buf.rows);
  }
}

} // namespace rocqr::sim
