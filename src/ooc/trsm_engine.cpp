#include "ooc/trsm_engine.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "ooc/engine_util.hpp"
#include "ooc/operand.hpp"
#include "ooc/pipeline.hpp"
#include "ooc/resilience.hpp"
#include "sim/scoped_matrix.hpp"
#include "sim/trace_export.hpp"

namespace rocqr::ooc {

using sim::Device;
using sim::DeviceMatrix;
using sim::DeviceMatrixRef;
using sim::Event;
using sim::HostConstRef;
using sim::HostMutRef;
using sim::ScopedMatrix;
using sim::StoragePrecision;

namespace {

/// Base case: the w x w triangle is resident; B's rows [j0, j0+w) stream in
/// column slabs through the device trsm kernel. Runs as a SlabPlan with no
/// streamed-input pool: the move-in fills the rotating B/X working pair's
/// slot directly, and that slot is the prefetch account. Returns the
/// completion event of the last move-out. Allocations all precede the
/// first d2h, so an injected OOM aborts before any host row has been
/// overwritten and the enclosing degradation wrapper may safely re-run
/// this node.
Event trsm_base_impl(Device& dev, TriSolveKind kind, HostConstRef t,
                     HostConstRef b_in, HostMutRef b_out, index_t j0,
                     index_t w, Event prev, const OocGemmOptions& opts) {
  const index_t nrhs = b_in.cols;
  TaskGraph graph(dev, opts, /*span_name=*/{}, {prev});

  ScopedMatrix tri(dev, w, w, StoragePrecision::FP32, "ooc_trsm.T");
  Event tri_ready =
      stage_resident(graph, tri.get(), host_block(t, j0, j0, w, w), "h2d T");

  const auto slabs = slab_partition(nrhs, std::max<index_t>(opts.blocksize, 1));
  const index_t max_w = max_slab_width(slabs);
  const index_t b_slots = opts.staging_buffer ? 2 : 1;
  std::vector<ScopedMatrix> buf_b;
  buf_b.reserve(static_cast<size_t>(b_slots));
  for (index_t i = 0; i < b_slots; ++i) {
    buf_b.emplace_back(dev, w, max_w, StoragePrecision::FP32, "ooc_trsm.B");
  }

  const Device::TrsmKind device_kind =
      kind == TriSolveKind::LowerUnit   ? Device::TrsmKind::LeftLowerUnit
      : kind == TriSolveKind::UpperTrans ? Device::TrsmKind::LeftUpperTrans
                                         : Device::TrsmKind::LeftUpper;

  SlabPlan plan;
  plan.label = "ooc_trsm.base";
  plan.steps = static_cast<index_t>(slabs.size());
  plan.input_slots = 0; // B streams into the output working pair directly
  plan.output_slots = b_slots;
  plan.resident_ready = {tri_ready};
  plan.move_in = [&](TaskCtx& ctx, index_t s) {
    const Slab slab = slabs[static_cast<size_t>(s)];
    const DeviceMatrix& bbuf = buf_b[static_cast<size_t>(s % b_slots)].get();
    ctx.h2d(DeviceMatrixRef(bbuf, 0, 0, w, slab.width),
            host_block(b_in, j0, slab.offset, w, slab.width),
            sim::op_name("h2d B[", s, "]"));
  };
  plan.compute = [&](TaskCtx& ctx, index_t s) {
    const Slab slab = slabs[static_cast<size_t>(s)];
    const DeviceMatrix& bbuf = buf_b[static_cast<size_t>(s % b_slots)].get();
    ctx.trsm(device_kind, tri.get(), DeviceMatrixRef(bbuf, 0, 0, w, slab.width),
             sim::op_name("trsm[", s, "]"));
  };
  plan.move_out = [&](TaskCtx& ctx, index_t s) {
    const Slab slab = slabs[static_cast<size_t>(s)];
    const DeviceMatrix& bbuf = buf_b[static_cast<size_t>(s % b_slots)].get();
    ctx.d2h(host_block(b_out, j0, slab.offset, w, slab.width),
            DeviceMatrixRef(bbuf, 0, 0, w, slab.width),
            sim::op_name("d2h X[", s, "]"));
  };

  const Event done = run_slab_plan(graph, plan).moved_out;

  for (auto& buf : buf_b) buf.reset();
  tri.reset();
  return done;
}

/// Each base-case node degrades independently on OOM (the recursion's panel
/// structure is fixed; only the streaming slab width shrinks). The nested
/// outer_product_colwise updates carry their own degradation wrapper.
Event trsm_base(Device& dev, TriSolveKind kind, HostConstRef t,
                HostConstRef b_in, HostMutRef b_out, index_t j0, index_t w,
                Event prev, const OocGemmOptions& opts) {
  return detail::with_oom_degradation(dev, opts, [&](const OocGemmOptions& o) {
    return trsm_base_impl(dev, kind, t, b_in, b_out, j0, w, prev, o);
  });
}

/// Recursive driver over the block rows [j0, j0+w) of the triangle.
Event trsm_recurse(Device& dev, TriSolveKind kind, HostConstRef t,
                   HostConstRef b_in, HostMutRef b_out, index_t j0, index_t w,
                   Event prev, const OocGemmOptions& opts) {
  const index_t bs = std::max<index_t>(opts.blocksize, 1);
  const index_t panels = (w + bs - 1) / bs;
  if (panels <= 1) {
    return trsm_base(dev, kind, t, b_in, b_out, j0, w, prev, opts);
  }
  const index_t h = (panels / 2) * bs;
  const index_t rest = w - h;
  const index_t nrhs = b_in.cols;

  if (kind == TriSolveKind::Upper) {
    // Back substitution runs bottom-up: solve the trailing block, update
    // the leading right-hand sides with U12·X_bottom, solve the top.
    Event bottom =
        trsm_recurse(dev, kind, t, b_in, b_out, j0 + h, rest, prev, opts);
    OocGemmOptions g = opts;
    g.host_input_ready.push_back(bottom);
    const auto update = outer_product_colwise(
        dev, Operand::on_host(host_block(t, j0, j0 + h, h, rest)),
        Operand::on_host(host_block(
            sim::HostConstRef(b_out.data, b_out.rows, b_out.cols, b_out.ld),
            j0 + h, 0, rest, nrhs)),
        host_block(sim::HostConstRef(b_out.data, b_out.rows, b_out.cols,
                                     b_out.ld),
                   j0, 0, h, nrhs),
        host_block(b_out, j0, 0, h, nrhs), g);
    return trsm_recurse(dev, kind, t, b_in, b_out, j0, h, update.done, opts);
  }

  Event top = trsm_recurse(dev, kind, t, b_in, b_out, j0, h, prev, opts);

  // B_bottom -= M · X_top with the off-diagonal block M resident.
  OocGemmOptions g = opts;
  g.outer_opa = kind == TriSolveKind::UpperTrans ? blas::Op::Trans
                                                 : blas::Op::NoTrans;
  g.host_input_ready.push_back(top); // X_top must have landed on the host
  const HostConstRef m_block =
      kind == TriSolveKind::UpperTrans
          ? host_block(t, j0, j0 + h, h, rest)   // R12, used transposed
          : host_block(t, j0 + h, j0, rest, h);  // L21
  const auto update = outer_product_colwise(
      dev, Operand::on_host(m_block),
      Operand::on_host(host_block(
          sim::HostConstRef(b_out.data, b_out.rows, b_out.cols, b_out.ld), j0,
          0, h, nrhs)),
      host_block(sim::HostConstRef(b_out.data, b_out.rows, b_out.cols,
                                   b_out.ld),
                 j0 + h, 0, rest, nrhs),
      host_block(b_out, j0 + h, 0, rest, nrhs), g);

  return trsm_recurse(dev, kind, t, b_in, b_out, j0 + h, rest, update.done,
                      opts);
}

} // namespace

OocGemmStats ooc_trsm(Device& dev, TriSolveKind kind, HostConstRef t,
                      HostConstRef b_in, HostMutRef b_out,
                      const OocGemmOptions& opts) {
  opts.validate();
  ROCQR_CHECK(t.rows == t.cols, "ooc_trsm: triangle must be square");
  ROCQR_CHECK(b_in.rows == t.rows && b_out.rows == t.rows &&
                  b_in.cols == b_out.cols,
              "ooc_trsm: B shape mismatch");
  ROCQR_CHECK(t.rows > 0 && b_in.cols > 0, "ooc_trsm: empty operand");
  // The recursion solves in place in b_out; phantom refs pass through, and
  // Real-mode aliased in/out is the common case. For distinct real buffers,
  // the caller must have copied b_in into b_out (checked cheaply here).
  if (b_in.data != nullptr && b_in.data != b_out.data) {
    throw InvalidArgument(
        "ooc_trsm: b_in and b_out must alias (in-place solve)");
  }

  OocGemmStats stats;
  stats.trace_begin = dev.trace().size();
  sim::TraceSpan span(dev, "ooc_trsm");
  Event done = trsm_recurse(dev, kind, t, b_in, b_out, 0, t.rows, Event{},
                            opts);

  stats.trace_end = dev.trace().size();
  stats.done = done;
  stats.device_result_ready = done;
  stats.steps = (t.rows + opts.blocksize - 1) / std::max<index_t>(opts.blocksize, 1);
  return stats;
}

} // namespace rocqr::ooc
