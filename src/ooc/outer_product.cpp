// Out-of-core "outer product" engines: C -= A·B (the trailing update
// A2 -= Q1·R12), including the §4.1.2 staging-buffer optimization.
//
// Each engine is a SlabPlan run on a TaskGraph (ooc/pipeline.hpp): the
// plan's slot keys give the input-pool and §4.1.2 output-slot fences, and
// the graph owns streams, region waits, retry/ABFT and prefetch
// accounting; this file keeps the operand geometry, the rotating buffer
// pools, and the trapezoid/triangular filters. OOM re-planning wraps each
// body — every allocation precedes the first device-to-host write, so an
// abandoned attempt has not touched host data.
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

using blas::Op;
using sim::Device;
using sim::DeviceMatrix;
using sim::DeviceMatrixRef;
using sim::Event;
using sim::HostConstRef;
using sim::HostMutRef;
using sim::ScopedMatrix;
using sim::StoragePrecision;

namespace {

OocGemmStats outer_product_recursive_impl(Device& dev, const Operand& a,
                                          const Operand& b, HostConstRef c_in,
                                          HostMutRef c_out,
                                          const OocGemmOptions& opts) {
  ROCQR_CHECK(!a.is_resident(), "outer_product_recursive: A streams from host");
  const bool ta = opts.outer_opa == Op::Trans;
  const index_t m = ta ? a.cols() : a.rows();
  const index_t kk = ta ? a.rows() : a.cols();
  const bool tb = opts.outer_opb == Op::Trans;
  const index_t n = tb ? b.rows() : b.cols();
  ROCQR_CHECK((tb ? b.cols() : b.rows()) == kk,
              "outer_product_recursive: k mismatch");
  ROCQR_CHECK(c_in.rows == m && c_in.cols == n && c_out.rows == m &&
                  c_out.cols == n,
              "outer_product_recursive: C shape mismatch");
  ROCQR_CHECK(m > 0 && n > 0 && kk > 0, "outer_product_recursive: empty operand");
  ROCQR_CHECK(!opts.upper_trapezoid_slabs || m == n,
              "outer_product_recursive: trapezoid slabs need a square C");

  const auto slabs =
      slab_partition(m, opts.blocksize, opts.ramp_up, opts.ramp_start);
  const index_t max_w = max_slab_width(slabs);
  const int depth = opts.pipeline_depth;

  TaskGraph graph(dev, opts, "outer_product_recursive");

  // B (the R12 factor produced by the preceding inner product) is resident.
  ResidentInput bres =
      stage_operand(graph, b, "outer_rec.B", "h2d outer_rec.B");

  std::vector<ScopedMatrix> buf_a;
  buf_a.reserve(static_cast<size_t>(depth));
  for (int d = 0; d < depth; ++d) {
    // Slabs are stored in host orientation: m-rows x k when A streams by
    // rows, k x m-cols when the transposed operand streams by columns.
    buf_a.emplace_back(dev, ta ? kk : max_w, ta ? max_w : kk,
                       detail::input_storage(opts), "outer_rec.A");
  }
  // C slab working space. The paper's baseline keeps a single buffer ("the
  // same GPU memory space"), which serializes every move-in behind the
  // previous slab's move-out; §4.1.2's extra memory space removes that
  // serialization. We realize it as a rotating pair of working buffers —
  // the next slab prefetches into the second buffer while the current one
  // computes and drains — which is what achieves the paper's ideal bound
  // (first move-in + sum of GEMMs + last move-out, §5.1.2).
  const index_t c_slots = opts.staging_buffer ? 2 : 1;
  std::vector<ScopedMatrix> buf_c;
  buf_c.reserve(static_cast<size_t>(c_slots));
  for (index_t i = 0; i < c_slots; ++i) {
    buf_c.emplace_back(dev, max_w, n, StoragePrecision::FP32,
                       i == 0 ? "outer_rec.C" : "outer_rec.Cstage");
  }

  const bool trapezoid = opts.upper_trapezoid_slabs;
  // Trapezoid mode (symmetric updates): only columns at or right of the
  // slab's diagonal block are touched.
  const auto slab_col0 = [&](index_t s) {
    return trapezoid ? slabs[static_cast<size_t>(s)].offset : index_t{0};
  };

  SlabPlan plan;
  plan.label = "outer_product_recursive";
  plan.steps = static_cast<index_t>(slabs.size());
  plan.input_slots = depth;
  plan.output_slots = c_slots;
  plan.resident_ready = {bres.ready};
  plan.input_region = [&](index_t s) {
    const Slab slab = slabs[static_cast<size_t>(s)];
    const index_t col0 = slab_col0(s);
    return std::make_optional(
        ta ? std::make_pair(Slab{0, kk}, slab)
           : std::make_pair(slab, Slab{col0, n - col0}));
  };
  plan.move_in = [&](TaskCtx& ctx, index_t s) {
    const Slab slab = slabs[static_cast<size_t>(s)];
    const size_t slot = static_cast<size_t>(s % depth);
    const DeviceMatrixRef a_slab =
        ta ? DeviceMatrixRef(buf_a[slot].get(), 0, 0, kk, slab.width)
           : DeviceMatrixRef(buf_a[slot].get(), 0, 0, slab.width, kk);
    ctx.h2d(a_slab,
            ta ? host_block(a.host(), 0, slab.offset, kk, slab.width)
               : host_block(a.host(), slab.offset, 0, slab.width, kk),
            sim::op_name("h2d A[", s, "]"));
  };
  plan.move_in_output = [&](TaskCtx& ctx, index_t s) {
    if (opts.beta == 0.0f) return; // C is write-only, skip the move-in
    const Slab slab = slabs[static_cast<size_t>(s)];
    const index_t col0 = slab_col0(s);
    const DeviceMatrix& cbuf = buf_c[static_cast<size_t>(s % c_slots)].get();
    ctx.h2d(DeviceMatrixRef(cbuf, 0, 0, slab.width, n - col0),
            host_block(c_in, slab.offset, col0, slab.width, n - col0),
            sim::op_name("h2d C[", s, "]"));
  };
  plan.compute = [&](TaskCtx& ctx, index_t s) {
    const Slab slab = slabs[static_cast<size_t>(s)];
    const size_t slot = static_cast<size_t>(s % depth);
    const index_t col0 = slab_col0(s);
    const index_t cw = n - col0;
    const DeviceMatrix& cbuf = buf_c[static_cast<size_t>(s % c_slots)].get();
    const DeviceMatrixRef a_slab =
        ta ? DeviceMatrixRef(buf_a[slot].get(), 0, 0, kk, slab.width)
           : DeviceMatrixRef(buf_a[slot].get(), 0, 0, slab.width, kk);
    const DeviceMatrixRef b_ref =
        trapezoid ? (opts.outer_opb == Op::Trans
                         ? bres.ref.block(col0, 0, cw, kk)
                         : bres.ref.block(0, col0, kk, cw))
                  : bres.ref;
    ctx.gemm(opts.outer_opa, opts.outer_opb, opts.alpha, a_slab, b_ref,
             opts.beta, DeviceMatrixRef(cbuf, 0, 0, slab.width, cw),
             sim::op_name("gemm C[", s, "]"));
  };
  plan.move_out = [&](TaskCtx& ctx, index_t s) {
    const Slab slab = slabs[static_cast<size_t>(s)];
    const index_t col0 = slab_col0(s);
    const DeviceMatrix& cbuf = buf_c[static_cast<size_t>(s % c_slots)].get();
    ctx.d2h(host_block(c_out, slab.offset, col0, slab.width, n - col0),
            DeviceMatrixRef(cbuf, 0, 0, slab.width, n - col0),
            sim::op_name("d2h C[", s, "]"));
  };
  plan.output_region = [&](index_t s) {
    const Slab slab = slabs[static_cast<size_t>(s)];
    const index_t col0 = slab_col0(s);
    return std::make_optional(std::make_pair(Slab{slab.offset, slab.width},
                                             Slab{col0, n - col0}));
  };

  SlabRunResult run = run_slab_plan(graph, plan);

  for (auto& buf : buf_a) buf.reset();
  for (auto& buf : buf_c) buf.reset();
  bres.owned.reset();

  OocGemmStats stats;
  stats.trace_begin = graph.window_begin();
  stats.trace_end = dev.trace().size();
  stats.steps = static_cast<index_t>(slabs.size());
  stats.done = run.moved_out;
  stats.output_ready = std::move(run.output_regions);
  stats.device_result_ready = run.computed;
  stats.steady_gemm_rate = dev.model().gemm_rate(opts.outer_opa, opts.blocksize,
                                                 n, kk, opts.precision);
  stats.slab_h2d_seconds =
      dev.model().h2d_seconds(4 * opts.blocksize * kk) +
      dev.model().h2d_seconds(4 * opts.blocksize * n);
  stats.slab_gemm_seconds = dev.model().gemm_seconds(
      Op::NoTrans, opts.blocksize, n, kk, opts.precision);
  stats.slab_d2h_seconds = dev.model().d2h_seconds(4 * opts.blocksize * n);
  return stats;
}

OocGemmStats outer_product_colwise_impl(Device& dev, const Operand& a,
                                        const Operand& b, HostConstRef c_in,
                                        HostMutRef c_out,
                                        const OocGemmOptions& opts) {
  ROCQR_CHECK(!b.is_resident(), "outer_product_colwise: B streams from host");
  const bool ta = opts.outer_opa == Op::Trans;
  const index_t m = ta ? a.cols() : a.rows();
  const index_t kk = ta ? a.rows() : a.cols();
  const index_t n = b.cols();
  ROCQR_CHECK(b.rows() == kk, "outer_product_colwise: k mismatch");
  ROCQR_CHECK(opts.outer_opb == Op::NoTrans,
              "outer_product_colwise: op(B) not supported (B streams)");
  ROCQR_CHECK(c_in.rows == m && c_in.cols == n && c_out.rows == m &&
                  c_out.cols == n,
              "outer_product_colwise: C shape mismatch");
  ROCQR_CHECK(m > 0 && n > 0 && kk > 0, "outer_product_colwise: empty operand");

  const auto slabs =
      slab_partition(n, opts.blocksize, opts.ramp_up, opts.ramp_start);
  const index_t max_w = max_slab_width(slabs);
  const int depth = opts.pipeline_depth;

  TaskGraph graph(dev, opts, "outer_product_colwise");

  ResidentInput ares =
      stage_operand(graph, a, "outer_col.A", "h2d outer_col.A");
  const DeviceMatrixRef a_ref = ares.ref;

  std::vector<ScopedMatrix> buf_b;
  buf_b.reserve(static_cast<size_t>(depth));
  for (int d = 0; d < depth; ++d) {
    buf_b.emplace_back(dev, kk, max_w, detail::input_storage(opts),
                       "outer_col.B");
  }
  const index_t c_slots = opts.staging_buffer ? 2 : 1;
  std::vector<ScopedMatrix> buf_c;
  buf_c.reserve(static_cast<size_t>(c_slots));
  for (index_t i = 0; i < c_slots; ++i) {
    buf_c.emplace_back(dev, m, max_w, StoragePrecision::FP32,
                       i == 0 ? "outer_col.C" : "outer_col.Cstage");
  }

  SlabPlan plan;
  plan.label = "outer_product_colwise";
  plan.steps = static_cast<index_t>(slabs.size());
  plan.input_slots = depth;
  plan.output_slots = c_slots;
  plan.resident_ready = {ares.ready};
  plan.input_region = [&](index_t s) {
    return std::make_optional(
        std::make_pair(Slab{0, m}, slabs[static_cast<size_t>(s)]));
  };
  plan.move_in = [&](TaskCtx& ctx, index_t s) {
    const Slab slab = slabs[static_cast<size_t>(s)];
    const size_t slot = static_cast<size_t>(s % depth);
    ctx.h2d(DeviceMatrixRef(buf_b[slot].get(), 0, 0, kk, slab.width),
            host_block(b.host(), 0, slab.offset, kk, slab.width),
            sim::op_name("h2d B[", s, "]"));
  };
  plan.move_in_output = [&](TaskCtx& ctx, index_t s) {
    if (opts.beta == 0.0f) return;
    const Slab slab = slabs[static_cast<size_t>(s)];
    const DeviceMatrix& cbuf = buf_c[static_cast<size_t>(s % c_slots)].get();
    ctx.h2d(DeviceMatrixRef(cbuf, 0, 0, m, slab.width),
            host_block(c_in, 0, slab.offset, m, slab.width),
            sim::op_name("h2d C[", s, "]"));
  };
  plan.compute = [&](TaskCtx& ctx, index_t s) {
    const Slab slab = slabs[static_cast<size_t>(s)];
    const size_t slot = static_cast<size_t>(s % depth);
    const DeviceMatrix& cbuf = buf_c[static_cast<size_t>(s % c_slots)].get();
    ctx.gemm(opts.outer_opa, Op::NoTrans, opts.alpha, a_ref,
             DeviceMatrixRef(buf_b[slot].get(), 0, 0, kk, slab.width),
             opts.beta, DeviceMatrixRef(cbuf, 0, 0, m, slab.width),
             sim::op_name("gemm C[", s, "]"));
  };
  plan.move_out = [&](TaskCtx& ctx, index_t s) {
    const Slab slab = slabs[static_cast<size_t>(s)];
    const DeviceMatrix& cbuf = buf_c[static_cast<size_t>(s % c_slots)].get();
    ctx.d2h(host_block(c_out, 0, slab.offset, m, slab.width),
            DeviceMatrixRef(cbuf, 0, 0, m, slab.width),
            sim::op_name("d2h C[", s, "]"));
  };
  plan.output_region = [&](index_t s) {
    const Slab slab = slabs[static_cast<size_t>(s)];
    return std::make_optional(
        std::make_pair(Slab{0, m}, Slab{slab.offset, slab.width}));
  };

  SlabRunResult run = run_slab_plan(graph, plan);

  for (auto& buf : buf_b) buf.reset();
  for (auto& buf : buf_c) buf.reset();
  ares.owned.reset();

  OocGemmStats stats;
  stats.trace_begin = graph.window_begin();
  stats.trace_end = dev.trace().size();
  stats.steps = static_cast<index_t>(slabs.size());
  stats.done = run.moved_out;
  stats.output_ready = std::move(run.output_regions);
  stats.device_result_ready = run.computed;
  stats.steady_gemm_rate =
      dev.model().gemm_rate(opts.outer_opa, m, opts.blocksize, kk, opts.precision);
  stats.slab_h2d_seconds = dev.model().h2d_seconds(4 * opts.blocksize * kk) +
                           dev.model().h2d_seconds(4 * opts.blocksize * m);
  stats.slab_gemm_seconds = dev.model().gemm_seconds(
      opts.outer_opa, m, opts.blocksize, kk, opts.precision);
  stats.slab_d2h_seconds = dev.model().d2h_seconds(4 * opts.blocksize * m);
  return stats;
}

OocGemmStats outer_product_blocking_impl(Device& dev, const Operand& a,
                                         const Operand& b, HostConstRef c_in,
                                         HostMutRef c_out,
                                         const OocGemmOptions& opts) {
  const bool ta = opts.outer_opa == Op::Trans;
  const index_t m = ta ? a.cols() : a.rows();
  const index_t kk = ta ? a.rows() : a.cols();
  const bool tb = opts.outer_opb == Op::Trans;
  const index_t n = tb ? b.rows() : b.cols();
  ROCQR_CHECK((tb ? b.cols() : b.rows()) == kk,
              "outer_product_blocking: k mismatch");
  ROCQR_CHECK(c_in.rows == m && c_in.cols == n && c_out.rows == m &&
                  c_out.cols == n,
              "outer_product_blocking: C shape mismatch");
  ROCQR_CHECK(m > 0 && n > 0 && kk > 0, "outer_product_blocking: empty operand");

  const index_t b1 = opts.blocksize;
  const index_t b2 = opts.tile_cols > 0 ? opts.tile_cols : opts.blocksize;
  const auto row_tiles = slab_partition(m, b1);
  const auto col_tiles = slab_partition(n, b2);

  // Materialize the processed-tile list up front: the symmetric-update mode
  // skips tiles entirely below the diagonal, and the pipeline's step/fence
  // accounting runs over the tiles actually streamed.
  std::vector<std::pair<Slab, Slab>> tiles;
  tiles.reserve(row_tiles.size() * col_tiles.size());
  for (const Slab& rt : row_tiles) {
    for (const Slab& ct : col_tiles) {
      if (opts.upper_triangle_tiles_only && ct.offset + ct.width <= rt.offset) {
        continue;
      }
      tiles.emplace_back(rt, ct);
    }
  }
  ROCQR_CHECK(!tiles.empty(), "outer_product_blocking: no tiles processed");

  TaskGraph graph(dev, opts, "outer_product_blocking");

  // Both inputs are tall-and-skinny and stay resident (§3.3.2).
  ResidentInput ares =
      stage_operand(graph, a, "outer_blk.A", "h2d outer_blk.A");
  ResidentInput bres =
      stage_operand(graph, b, "outer_blk.B", "h2d outer_blk.B");

  // C tile working space: a rotating pair with the §4.1.2 optimization so
  // tile t+1 prefetches while tile t computes/drains; a single buffer — the
  // paper's baseline — serializes move-ins behind move-outs.
  const index_t c_slots = opts.staging_buffer ? 2 : 1;
  std::vector<ScopedMatrix> buf_c;
  buf_c.reserve(static_cast<size_t>(c_slots));
  for (index_t i = 0; i < c_slots; ++i) {
    buf_c.emplace_back(dev, b1, b2, StoragePrecision::FP32,
                       i == 0 ? "outer_blk.C" : "outer_blk.Cstage");
  }

  SlabPlan plan;
  plan.label = "outer_product_blocking";
  plan.steps = static_cast<index_t>(tiles.size());
  plan.input_slots = 0; // no streamed-input pool: A and B are resident
  plan.output_slots = c_slots;
  plan.resident_ready = {ares.ready, bres.ready};
  plan.input_region = [&](index_t t) {
    return std::make_optional(tiles[static_cast<size_t>(t)]);
  };
  plan.move_in_output = [&](TaskCtx& ctx, index_t t) {
    if (opts.beta == 0.0f) return;
    const auto& [rt, ct] = tiles[static_cast<size_t>(t)];
    const DeviceMatrix& cbuf = buf_c[static_cast<size_t>(t % c_slots)].get();
    ctx.h2d(DeviceMatrixRef(cbuf, 0, 0, rt.width, ct.width),
            host_block(c_in, rt.offset, ct.offset, rt.width, ct.width),
            sim::op_name("h2d C[", t, "]"));
  };
  plan.compute = [&](TaskCtx& ctx, index_t t) {
    const auto& [rt, ct] = tiles[static_cast<size_t>(t)];
    const DeviceMatrix& cbuf = buf_c[static_cast<size_t>(t % c_slots)].get();
    const DeviceMatrixRef a_tile =
        ta ? ares.ref.block(0, rt.offset, kk, rt.width)
           : ares.ref.block(rt.offset, 0, rt.width, kk);
    const DeviceMatrixRef b_tile =
        tb ? bres.ref.block(ct.offset, 0, ct.width, kk)
           : bres.ref.block(0, ct.offset, kk, ct.width);
    ctx.gemm(opts.outer_opa, opts.outer_opb, opts.alpha, a_tile, b_tile,
             opts.beta, DeviceMatrixRef(cbuf, 0, 0, rt.width, ct.width),
             sim::op_name("gemm C[", t, "]"));
  };
  plan.move_out = [&](TaskCtx& ctx, index_t t) {
    const auto& [rt, ct] = tiles[static_cast<size_t>(t)];
    const DeviceMatrix& cbuf = buf_c[static_cast<size_t>(t % c_slots)].get();
    ctx.d2h(host_block(c_out, rt.offset, ct.offset, rt.width, ct.width),
            DeviceMatrixRef(cbuf, 0, 0, rt.width, ct.width),
            sim::op_name("d2h C[", t, "]"));
  };
  plan.output_region = [&](index_t t) {
    return std::make_optional(tiles[static_cast<size_t>(t)]);
  };

  SlabRunResult run = run_slab_plan(graph, plan);

  for (auto& buf : buf_c) buf.reset();
  ares.owned.reset();
  bres.owned.reset();

  OocGemmStats stats;
  stats.trace_begin = graph.window_begin();
  stats.trace_end = dev.trace().size();
  stats.steps = static_cast<index_t>(tiles.size());
  stats.done = run.moved_out;
  stats.output_ready = std::move(run.output_regions);
  stats.device_result_ready = run.computed;
  stats.steady_gemm_rate =
      dev.model().gemm_rate(opts.outer_opa, b1, b2, kk, opts.precision);
  stats.slab_h2d_seconds = dev.model().h2d_seconds(4 * b1 * b2);
  stats.slab_gemm_seconds =
      dev.model().gemm_seconds(Op::NoTrans, b1, b2, kk, opts.precision);
  stats.slab_d2h_seconds = dev.model().d2h_seconds(4 * b1 * b2);
  return stats;
}

} // namespace

OocGemmStats outer_product_recursive(Device& dev, const Operand& a,
                                     const Operand& b, HostConstRef c_in,
                                     HostMutRef c_out,
                                     const OocGemmOptions& opts) {
  opts.validate();
  return detail::with_oom_degradation(dev, opts, [&](const OocGemmOptions& o) {
    return outer_product_recursive_impl(dev, a, b, c_in, c_out, o);
  });
}

OocGemmStats outer_product_colwise(Device& dev, const Operand& a,
                                   const Operand& b, HostConstRef c_in,
                                   HostMutRef c_out,
                                   const OocGemmOptions& opts) {
  opts.validate();
  return detail::with_oom_degradation(dev, opts, [&](const OocGemmOptions& o) {
    return outer_product_colwise_impl(dev, a, b, c_in, c_out, o);
  });
}

OocGemmStats outer_product_blocking(Device& dev, const Operand& a,
                                    const Operand& b, HostConstRef c_in,
                                    HostMutRef c_out,
                                    const OocGemmOptions& opts) {
  opts.validate();
  return detail::with_oom_degradation(dev, opts, [&](const OocGemmOptions& o) {
    return outer_product_blocking_impl(dev, a, b, c_in, c_out, o);
  });
}

} // namespace rocqr::ooc
