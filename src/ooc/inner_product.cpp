// Out-of-core "inner product" engines: C = Aᵀ·B (the R12 = Q1ᵀ·A2 step).
//
// Both engines are SlabPlans run on a TaskGraph (ooc/pipeline.hpp), whose
// slot keys give the pool and accumulator fences and whose graph owns the
// streams, retry/ABFT hooks and prefetch accounting; this file keeps what
// is genuinely engine-specific: operand shapes, buffer pools and their
// rotation, the beta=0-on-first-slab accumulation, and the stats. OOM
// re-planning still wraps the whole body — every device buffer is
// allocated before the first device-to-host write, so an abandoned attempt
// leaks nothing and has not touched host data.
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "ooc/engine_util.hpp"
#include "ooc/gemm_engines.hpp"
#include "ooc/pipeline.hpp"
#include "ooc/resilience.hpp"
#include "sim/scoped_matrix.hpp"

namespace rocqr::ooc {

using blas::GemmPrecision;
using blas::Op;
using sim::Device;
using sim::DeviceMatrix;
using sim::Event;
using sim::HostMutRef;
using sim::ScopedMatrix;
using sim::StoragePrecision;

namespace {

OocGemmStats inner_product_recursive_impl(Device& dev, const Operand& a,
                                          const Operand& b, HostMutRef c,
                                          const OocGemmOptions& opts,
                                          DeviceMatrix* keep_c) {
  ROCQR_CHECK(!a.is_resident() && !b.is_resident(),
              "inner_product_recursive: streams both inputs from the host");
  const index_t kk = a.rows();
  const index_t m = a.cols();
  const index_t n = b.cols();
  ROCQR_CHECK(b.rows() == kk, "inner_product_recursive: k mismatch");
  ROCQR_CHECK(c.rows == m && c.cols == n,
              "inner_product_recursive: C shape mismatch");
  ROCQR_CHECK(m > 0 && n > 0 && kk > 0,
              "inner_product_recursive: empty operand");

  // Column panels of C: the unsplit case (one panel) is the paper's scheme
  // where the full accumulator is resident and both inputs stream exactly
  // once; small-memory devices split n and re-stream A per panel.
  const index_t panel_cols = opts.c_panel_cols > 0 ? opts.c_panel_cols : n;
  const auto panels = slab_partition(n, panel_cols);
  ROCQR_CHECK(keep_c == nullptr || panels.size() == 1,
              "inner_product_recursive: keep_c requires an unsplit C");

  const auto kslabs =
      slab_partition(kk, opts.blocksize, opts.ramp_up, opts.ramp_start);
  const index_t max_kw = max_slab_width(kslabs);
  const index_t max_pw = max_slab_width(panels);
  const int depth = opts.pipeline_depth;

  TaskGraph graph(dev, opts, "inner_product_recursive");

  // Streamed-input buffer pool (fp16 on device, like the LATER pipeline).
  std::vector<ScopedMatrix> buf_a;
  std::vector<ScopedMatrix> buf_b;
  buf_a.reserve(static_cast<size_t>(depth));
  buf_b.reserve(static_cast<size_t>(depth));
  for (int d = 0; d < depth; ++d) {
    buf_a.emplace_back(dev, max_kw, m, detail::input_storage(opts),
                       "inner_rec.A");
    buf_b.emplace_back(dev, max_kw, max_pw, detail::input_storage(opts),
                       "inner_rec.B");
  }
  // Accumulator pool: one buffer when C is unsplit, two cycling buffers when
  // n is split so panel p+1 can accumulate while panel p drains to the host.
  const index_t c_slots = panels.size() > 1 ? 2 : 1;
  std::vector<ScopedMatrix> buf_c;
  buf_c.reserve(static_cast<size_t>(c_slots));
  for (index_t d = 0; d < c_slots; ++d) {
    buf_c.emplace_back(dev, m, max_pw, StoragePrecision::FP32, "inner_rec.C");
  }

  const index_t ks = static_cast<index_t>(kslabs.size());

  SlabPlan plan;
  plan.label = "inner_product_recursive";
  plan.steps = static_cast<index_t>(panels.size()) * ks;
  plan.steps_per_group = ks;
  plan.input_slots = depth;
  // The group's first (beta=0) GEMM overwrites the rotating accumulator
  // slot, so it waits the slot's previous drain.
  plan.output_slots = c_slots;
  plan.move_in = [&](TaskCtx& ctx, index_t step) {
    const Slab kslab = kslabs[static_cast<size_t>(step % ks)];
    const Slab panel = panels[static_cast<size_t>(step / ks)];
    const size_t slot = static_cast<size_t>(step % depth);
    const index_t s = step % ks;
    ctx.h2d(sim::DeviceMatrixRef(buf_a[slot].get(), 0, 0, kslab.width, m),
            host_block(a.host(), kslab.offset, 0, kslab.width, m),
            sim::op_name("h2d A[", s, "]"));
    ctx.h2d(sim::DeviceMatrixRef(buf_b[slot].get(), 0, 0, kslab.width,
                                 panel.width),
            host_block(b.host(), kslab.offset, panel.offset, kslab.width,
                       panel.width),
            sim::op_name("h2d B[", s, "]"));
  };
  plan.compute = [&](TaskCtx& ctx, index_t step) {
    const index_t s = step % ks;
    const Slab kslab = kslabs[static_cast<size_t>(s)];
    const Slab panel = panels[static_cast<size_t>(step / ks)];
    const size_t slot = static_cast<size_t>(step % depth);
    const DeviceMatrix& cd =
        buf_c[static_cast<size_t>((step / ks) % c_slots)].get();
    // beta=0 on the panel's first slab: the accumulator slot may hold a
    // previous panel's values.
    ctx.gemm(Op::Trans, Op::NoTrans, 1.0f,
             sim::DeviceMatrixRef(buf_a[slot].get(), 0, 0, kslab.width, m),
             sim::DeviceMatrixRef(buf_b[slot].get(), 0, 0, kslab.width,
                                  panel.width),
             s == 0 ? 0.0f : 1.0f,
             sim::DeviceMatrixRef(cd, 0, 0, m, panel.width),
             sim::op_name("gemm C+=A'B[", s, "]"));
  };
  // Single move-out of the accumulated panel.
  plan.move_out = [&](TaskCtx& ctx, index_t p) {
    const Slab panel = panels[static_cast<size_t>(p)];
    const DeviceMatrix& cd = buf_c[static_cast<size_t>(p % c_slots)].get();
    ctx.d2h(host_block(c, 0, panel.offset, m, panel.width),
            sim::DeviceMatrixRef(cd, 0, 0, m, panel.width),
            sim::op_name("d2h C panel ", p));
  };
  plan.output_region = [&](index_t p) {
    const Slab panel = panels[static_cast<size_t>(p)];
    return std::make_optional(
        std::make_pair(Slab{0, m}, Slab{panel.offset, panel.width}));
  };

  SlabRunResult run = run_slab_plan(graph, plan);

  // Release streamed-input buffers; their last reader has been enqueued.
  for (auto& buf : buf_a) buf.reset();
  for (auto& buf : buf_b) buf.reset();
  if (keep_c != nullptr) {
    *keep_c = buf_c[0].release();
  } else {
    for (auto& buf : buf_c) buf.reset();
  }

  OocGemmStats stats;
  stats.trace_begin = graph.window_begin();
  stats.trace_end = dev.trace().size();
  stats.steps = plan.steps;
  stats.output_ready = std::move(run.output_regions);
  stats.done = run.moved_out;
  stats.device_result_ready = run.computed;
  stats.steady_gemm_rate = dev.model().gemm_rate(
      Op::Trans, m, panel_cols, opts.blocksize, opts.precision);
  stats.slab_h2d_seconds =
      dev.model().h2d_seconds(4 * opts.blocksize * m) +
      dev.model().h2d_seconds(4 * opts.blocksize * panel_cols);
  stats.slab_gemm_seconds = dev.model().gemm_seconds(
      Op::Trans, m, panel_cols, opts.blocksize, opts.precision);
  stats.slab_d2h_seconds = dev.model().d2h_seconds(4 * m * panel_cols);
  return stats;
}

OocGemmStats inner_product_blocking_impl(Device& dev, const Operand& a,
                                         const Operand& b, HostMutRef c,
                                         const OocGemmOptions& opts,
                                         DeviceMatrix* keep_c) {
  ROCQR_CHECK(!b.is_resident(),
              "inner_product_blocking: B streams from the host");
  const index_t kk = a.rows();
  const index_t m = a.cols();
  const index_t n = b.cols();
  ROCQR_CHECK(b.rows() == kk, "inner_product_blocking: k mismatch");
  ROCQR_CHECK(c.rows == m && c.cols == n,
              "inner_product_blocking: C shape mismatch");
  ROCQR_CHECK(m > 0 && n > 0 && kk > 0, "inner_product_blocking: empty operand");

  const auto slabs =
      slab_partition(n, opts.blocksize, opts.ramp_up, opts.ramp_start);
  const index_t max_w = max_slab_width(slabs);
  const int depth = opts.pipeline_depth;

  TaskGraph graph(dev, opts, "inner_product_blocking");

  // The panel Q is resident — either it already lives on the device (QR-level
  // optimization) or it is moved in once here.
  ResidentInput ares = stage_operand(graph, a, "inner_blk.A", "h2d A (panel)");

  // Full C stays resident (m x n fp32): each slab's result both returns to
  // the host and remains available as the next outer product's B operand.
  ScopedMatrix cd(dev, m, n, StoragePrecision::FP32, "inner_blk.C");

  std::vector<ScopedMatrix> buf_b;
  buf_b.reserve(static_cast<size_t>(depth));
  for (int d = 0; d < depth; ++d) {
    buf_b.emplace_back(dev, kk, max_w, detail::input_storage(opts),
                       "inner_blk.B");
  }

  SlabPlan plan;
  plan.label = "inner_product_blocking";
  plan.steps = static_cast<index_t>(slabs.size());
  plan.input_slots = depth;
  // output_slots = 0: C stays resident and each slab writes its own
  // column block, so no output slot is reused.
  plan.resident_ready = {ares.ready};
  plan.input_region = [&](index_t s) {
    return std::make_optional(
        std::make_pair(Slab{0, kk}, slabs[static_cast<size_t>(s)]));
  };
  plan.move_in = [&](TaskCtx& ctx, index_t s) {
    const Slab slab = slabs[static_cast<size_t>(s)];
    const size_t slot = static_cast<size_t>(s % depth);
    ctx.h2d(sim::DeviceMatrixRef(buf_b[slot].get(), 0, 0, kk, slab.width),
            host_block(b.host(), 0, slab.offset, kk, slab.width),
            sim::op_name("h2d B[", s, "]"));
  };
  plan.compute = [&](TaskCtx& ctx, index_t s) {
    const Slab slab = slabs[static_cast<size_t>(s)];
    const size_t slot = static_cast<size_t>(s % depth);
    ctx.gemm(Op::Trans, Op::NoTrans, 1.0f, ares.ref,
             sim::DeviceMatrixRef(buf_b[slot].get(), 0, 0, kk, slab.width),
             0.0f,
             sim::DeviceMatrixRef(cd.get(), 0, slab.offset, m, slab.width),
             sim::op_name("gemm C=A'B[", s, "]"));
  };
  plan.move_out = [&](TaskCtx& ctx, index_t s) {
    const Slab slab = slabs[static_cast<size_t>(s)];
    ctx.d2h(host_block(c, 0, slab.offset, m, slab.width),
            sim::DeviceMatrixRef(cd.get(), 0, slab.offset, m, slab.width),
            sim::op_name("d2h C[", s, "]"));
  };
  plan.output_region = [&](index_t s) {
    const Slab slab = slabs[static_cast<size_t>(s)];
    return std::make_optional(
        std::make_pair(Slab{0, m}, Slab{slab.offset, slab.width}));
  };

  SlabRunResult run = run_slab_plan(graph, plan);

  for (auto& buf : buf_b) buf.reset();
  ares.owned.reset();
  if (keep_c != nullptr) {
    *keep_c = cd.release();
  } else {
    cd.reset();
  }

  OocGemmStats stats;
  stats.trace_begin = graph.window_begin();
  stats.trace_end = dev.trace().size();
  stats.steps = static_cast<index_t>(slabs.size());
  stats.done = run.moved_out;
  stats.output_ready = std::move(run.output_regions);
  stats.device_result_ready = run.computed;
  stats.steady_gemm_rate =
      dev.model().gemm_rate(Op::Trans, m, opts.blocksize, kk, opts.precision);
  stats.slab_h2d_seconds = dev.model().h2d_seconds(4 * kk * opts.blocksize);
  stats.slab_gemm_seconds =
      dev.model().gemm_seconds(Op::Trans, m, opts.blocksize, kk, opts.precision);
  stats.slab_d2h_seconds = dev.model().d2h_seconds(4 * m * opts.blocksize);
  return stats;
}

} // namespace

OocGemmStats inner_product_recursive(Device& dev, const Operand& a,
                                     const Operand& b, HostMutRef c,
                                     const OocGemmOptions& opts,
                                     DeviceMatrix* keep_c) {
  opts.validate();
  return detail::with_oom_degradation(dev, opts, [&](const OocGemmOptions& o) {
    return inner_product_recursive_impl(dev, a, b, c, o, keep_c);
  });
}

OocGemmStats inner_product_blocking(Device& dev, const Operand& a,
                                    const Operand& b, HostMutRef c,
                                    const OocGemmOptions& opts,
                                    DeviceMatrix* keep_c) {
  opts.validate();
  return detail::with_oom_degradation(dev, opts, [&](const OocGemmOptions& o) {
    return inner_product_blocking_impl(dev, a, b, c, o, keep_c);
  });
}

} // namespace rocqr::ooc
