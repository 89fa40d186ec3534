#include "qr/tsqr_ooc.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "blas/gemm.hpp"
#include "common/error.hpp"
#include "la/matrix.hpp"
#include "ooc/gemm_engines.hpp"
#include "ooc/operand.hpp"
#include "ooc/resilience.hpp"
#include "qr/checkpoint.hpp"
#include "qr/driver_util.hpp"
#include "qr/incore.hpp"
#include "qr/recursive_qr.hpp"

namespace rocqr::qr {

using ooc::Operand;
using sim::Device;
using sim::DeviceMatrix;
using sim::HostConstRef;
using sim::HostMutRef;
using sim::StoragePrecision;
using sim::Stream;

namespace {

/// A reduction-tree node: where its R factor lives in the stacked workspace
/// (row offset slot*n), which device's clock/engines represent it, and the
/// simulated time its R factor reaches host memory — the DAG edge a parent
/// pair waits on (instead of a full-fleet barrier).
struct Node {
  index_t slot = 0;
  size_t dev = 0;
  sim_time_t ready = 0;
};

/// Row partition: leaf d gets rows [offsets[d], offsets[d+1]). Every leaf
/// has at least n rows because the leaf count is capped at m / n; the
/// remainder rows are spread one-per-leaf from the front (the analogue of
/// the in-core tsqr's short-tail absorption — no leaf is ever thinner
/// than n).
std::vector<index_t> leaf_offsets(index_t m, index_t leaves) {
  std::vector<index_t> offsets(static_cast<size_t>(leaves) + 1, 0);
  const index_t base = m / leaves;
  const index_t rem = m % leaves;
  for (index_t d = 0; d < leaves; ++d) {
    offsets[static_cast<size_t>(d) + 1] =
        offsets[static_cast<size_t>(d)] + base + (d < rem ? 1 : 0);
  }
  return offsets;
}

/// Copies workspace rows [slot*n, slot*n + n) x n into a dense host matrix.
void read_slot(const HostMutRef& work, index_t slot, index_t n,
               la::MatrixView dst, index_t dst_r0) {
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      dst(dst_r0 + i, j) = work.data[slot * n + i + j * work.ld];
    }
  }
}

} // namespace

namespace detail {

index_t tsqr_leaf_count(index_t m, index_t n, size_t fleet_size) {
  return std::min<index_t>(static_cast<index_t>(fleet_size), m / n);
}

QrStats run_tsqr(const std::vector<Device*>& devices, HostMutRef a,
                 HostMutRef r, const QrOptions& opts,
                 const std::vector<float>* resume_r_stack,
                 index_t resume_leaves) {
  ROCQR_CHECK(!devices.empty(), "tsqr_ooc_qr: no devices");
  for (Device* dev : devices) {
    ROCQR_CHECK(dev != nullptr, "tsqr_ooc_qr: null device");
  }
  opts.validate();
  const index_t m = a.rows;
  const index_t n = a.cols;
  ROCQR_CHECK(m >= n && n >= 1, "tsqr_ooc_qr: need m >= n >= 1");
  ROCQR_CHECK(r.rows == n && r.cols == n, "tsqr_ooc_qr: R must be n x n");
  // A resumed run keeps the checkpoint's leaf partition even if the fleet
  // shrank (device loss): leaves map onto the surviving devices round-robin
  // below, and since Real-mode numerics depend only on the row partition and
  // blocksize — never on which device hosts a leaf — the result stays
  // bit-identical to the uninterrupted run.
  const index_t leaves = resume_leaves > 0
                             ? resume_leaves
                             : tsqr_leaf_count(m, n, devices.size());
  ROCQR_CHECK(leaves <= m / n,
              "tsqr_ooc_qr: leaf count exceeds m / n (checkpoint from a "
              "different shape?)");
  ROCQR_CHECK(opts.resume_units <= leaves,
              "tsqr_ooc_qr: resume_units exceeds the leaf count (checkpoint "
              "from a different fleet size or shape?)");
  const bool phantom = a.data == nullptr;
  const std::vector<index_t> offsets = leaf_offsets(m, leaves);

  std::vector<size_t> windows;
  windows.reserve(devices.size());
  for (Device* dev : devices) windows.push_back(dev->trace().size());

  // The fleet-wide factorization begins at the latest device clock: a
  // device that idled earlier cannot start its leaf in the simulated past
  // (it matters when a scheduler hands over a fleet whose clocks diverged).
  double start = 0;
  for (Device* dev : devices) start = std::max(start, dev->now());
  for (Device* dev : devices) dev->advance_host_clock(start);

  // Stacked R workspace: leaf d's R factor lives in rows [d*n, (d+1)*n).
  // The reduction tree overwrites parent slots in place; checkpoints
  // snapshot the whole stack so a resume restores every completed leaf's R.
  la::Matrix work_storage;
  HostMutRef work = HostMutRef::phantom(leaves * n, n);
  if (!phantom) {
    work_storage = la::Matrix(leaves * n, n);
    work = HostMutRef(work_storage.view());
    if (opts.resume_units > 0) {
      ROCQR_CHECK(resume_r_stack != nullptr,
                  "tsqr_ooc_qr: Real-mode resume needs the checkpointed R "
                  "stack for the completed leaves");
      restore_host(work, *resume_r_stack);
    }
  }

  // --- Leaf factorizations --------------------------------------------------
  // Each device factors its row block with the recursive OOC driver; in
  // simulated time the leaves overlap (independent device clocks). Leaves
  // completed by a previous attempt (opts.resume_units) are skipped whole:
  // their Q rows and R slots were restored from the checkpoint.
  //
  // Without a checkpoint sink the run is a pure DAG: a leaf's R is "ready"
  // the moment its last R write-back lands on the host (d2h Rii / R12 /
  // streamed R blocks), typically well before the leaf's Q panels finish
  // draining — so a tree pair can fire while both children are still
  // writing Q. With a sink, each leaf ends on a synchronize so the
  // checkpoint is a consistent snapshot; that preserves PR 6's
  // bulk-synchronous schedule (and its bit-identical resume) exactly.
  const bool overlap = opts.checkpoint_sink == nullptr;
  std::vector<sim_time_t> leaf_r_time(static_cast<size_t>(leaves), start);
  std::vector<sim_time_t> leaf_end_time(static_cast<size_t>(leaves), start);
  QrOptions leaf_opts = opts;
  leaf_opts.checkpoint_sink = nullptr;
  leaf_opts.resume_units = 0;
  for (index_t d = opts.resume_units; d < leaves; ++d) {
    Device& dev = *devices[static_cast<size_t>(d) % devices.size()];
    const index_t r0 = offsets[static_cast<size_t>(d)];
    const index_t rows = offsets[static_cast<size_t>(d) + 1] - r0;
    HostMutRef a_d = ooc::host_block(a, r0, 0, rows, n);
    HostMutRef r_d = ooc::host_block(work, d * n, 0, n, n);
    const size_t w0 = dev.trace().size();
    detail::run_recursive(dev, a_d, r_d, leaf_opts, /*sync_at_end=*/!overlap);
    if (overlap) {
      const auto& events = dev.trace().events();
      sim_time_t r_t = start;
      sim_time_t end_t = start;
      for (size_t i = w0; i < events.size(); ++i) {
        const sim::TraceEvent& e = events[i];
        end_t = std::max(end_t, e.end);
        if (e.kind == sim::OpKind::CopyD2H &&
            !e.name.view().starts_with("d2h Q")) {
          r_t = std::max(r_t, e.end);
        }
      }
      leaf_r_time[static_cast<size_t>(d)] = r_t;
      leaf_end_time[static_cast<size_t>(d)] = end_t;
    } else {
      dev.synchronize();
      qr::detail::maybe_checkpoint(dev, "tsqr", a, work, opts,
                                   /*columns_done=*/0, /*units_done=*/d + 1,
                                   leaves);
      leaf_r_time[static_cast<size_t>(d)] = dev.now();
      leaf_end_time[static_cast<size_t>(d)] = dev.now();
    }
  }

  // --- Reduction tree -------------------------------------------------------
  // Pairwise QR of stacked R factors, mirroring the in-core qr::tsqr tree
  // (odd node passes through). Each pair is charged to the lower child's
  // device: its host clock first joins the sibling's clock (the cross-device
  // dependency), then the stacked 2n x n factor moves H2D — through the
  // shared link, if the fleet has one — the small Householder QR runs as a
  // panel-kind compute op, and the merged R moves back D2H into the parent
  // slot.
  std::vector<std::vector<Node>> levels(1);
  for (index_t d = 0; d < leaves; ++d) {
    levels[0].push_back(Node{d, static_cast<size_t>(d) % devices.size(),
                             leaf_r_time[static_cast<size_t>(d)]});
  }
  std::vector<std::vector<la::Matrix>> pair_qs; // per level, per parent node
  while (levels.back().size() > 1) {
    const std::vector<Node>& level = levels.back();
    std::vector<Node> next;
    std::vector<la::Matrix> qs;
    for (size_t i = 0; i + 1 < level.size(); i += 2) {
      const Node c0 = level[i];
      const Node c1 = level[i + 1];
      Device& dev = *devices[c0.dev];
      // The pair's only data dependency is both children's R factors being
      // on the host — join the host clock to that instant, not to the
      // sibling device's full drain.
      if (overlap) {
        dev.advance_host_clock(std::max(c0.ready, c1.ready));
      } else {
        dev.advance_host_clock(devices[c1.dev]->now());
      }

      la::Matrix stacked_host;
      HostConstRef stacked_ref = HostConstRef::phantom(2 * n, n);
      if (!phantom) {
        stacked_host = la::Matrix(2 * n, n);
        read_slot(work, c0.slot, n, stacked_host.view(), 0);
        read_slot(work, c1.slot, n, stacked_host.view(), n);
        stacked_ref = HostConstRef(stacked_host.view());
      }

      Stream s = dev.create_stream();
      DeviceMatrix stacked =
          dev.allocate(2 * n, n, StoragePrecision::FP32, "tsqr.rstack");
      DeviceMatrix merged =
          dev.allocate(n, n, StoragePrecision::FP32, "tsqr.rmerge");
      ooc::detail::copy_h2d_retry(dev, stacked, stacked_ref, s, "h2d R stack",
                                  opts.transfer_max_attempts,
                                  opts.transfer_backoff_seconds);
      la::Matrix pair_q;
      const auto nf = static_cast<double>(n);
      dev.custom_compute(
          s, dev.model().panel_seconds(2 * n, n),
          static_cast<flops_t>(4.0 * nf * nf * nf), sim::OpKind::Panel,
          sim::op_name("tsqr pair qr ", 2 * n, "x", n),
          [&]() {
            QrFactors f = householder(dev.download(stacked).view());
            pair_q = std::move(f.q);
            dev.upload(merged, f.r.view());
          });
      ooc::detail::copy_d2h_retry(dev,
                                  ooc::host_block(work, c0.slot * n, 0, n, n),
                                  merged, s, "d2h R merged",
                                  opts.transfer_max_attempts,
                                  opts.transfer_backoff_seconds);
      // The merged R is host-visible at the d2h's end; that timestamp is
      // the parent node's ready edge (no per-pair barrier in overlap mode).
      sim_time_t merged_ready = dev.trace().last_event_end();
      dev.free(stacked);
      dev.free(merged);
      if (!overlap) {
        dev.synchronize();
        merged_ready = dev.now();
      }
      qs.push_back(std::move(pair_q));
      next.push_back(Node{c0.slot, c0.dev, merged_ready});
    }
    if (level.size() % 2 == 1) {
      qs.push_back(la::Matrix()); // pass-through node: empty pair Q
      next.push_back(level.back());
    }
    pair_qs.push_back(std::move(qs));
    levels.push_back(std::move(next));
  }

  // The root R is the factorization's R.
  const Node root = levels.back().front();
  if (!phantom) {
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < n; ++i) {
        r.data[i + j * r.ld] = work.data[root.slot * n + i + j * work.ld];
      }
    }
  }

  // --- Reconstruction sweep -------------------------------------------------
  // Coefficient matrices C (n x n) walk back down the tree: each pair node
  // splits its parent's C through the two halves of its pair Q (two n^3
  // GEMMs, charged to the node's device; the children's clocks join it so
  // the leaf sweeps start only when their coefficients exist). Finally each
  // leaf forms its Q rows out of core: A_d := A_d * C_d streamed in row
  // slabs with C_d resident (beta = 0, so no C move-in).
  if (leaves > 1) {
    std::vector<la::Matrix> coef(1);
    std::vector<sim_time_t> coef_time(1, start);
    if (!phantom) coef[0] = la::identity(n);
    for (size_t lvl = pair_qs.size(); lvl-- > 0;) {
      const std::vector<Node>& child_nodes = levels[lvl];
      const std::vector<Node>& split_nodes = levels[lvl + 1];
      std::vector<la::Matrix> child_coef;
      std::vector<sim_time_t> child_time;
      size_t child = 0;
      for (size_t p = 0; p < pair_qs[lvl].size(); ++p) {
        const la::Matrix& pq = pair_qs[lvl][p];
        // Structural pass-through test (a lone trailing child), valid in
        // both modes — in Phantom every pair Q is an empty placeholder.
        const bool pass_through = child + 2 > child_nodes.size();
        if (pass_through) {
          if (!phantom) {
            child_coef.push_back(la::materialize(coef[p].view()));
          } else {
            child_coef.emplace_back();
          }
          child_time.push_back(coef_time[p]);
          ++child;
          continue;
        }
        const Node c0 = child_nodes[child];
        const Node c1 = child_nodes[child + 1];
        Device& dev = *devices[c0.dev];
        // The split needs the parent's coefficient and this pair's Q (both
        // host-side); the pair Q is covered by the pair node's ready edge.
        if (overlap) {
          dev.advance_host_clock(
              std::max(coef_time[p], split_nodes[p].ready));
        }
        const auto nf = static_cast<double>(n);
        dev.custom_compute(
            dev.create_stream(),
            2 * dev.model().gemm_seconds(blas::Op::NoTrans, n, n, n,
                                         blas::GemmPrecision::FP32),
            static_cast<flops_t>(4.0 * nf * nf * nf), sim::OpKind::Gemm,
            sim::op_name("tsqr coef split ", n, "x", n));
        sim_time_t split_done = dev.trace().last_event_end();
        if (!overlap) {
          dev.synchronize();
          devices[c1.dev]->advance_host_clock(dev.now());
          split_done = dev.now();
        }
        child_time.push_back(split_done);
        child_time.push_back(split_done);
        if (!phantom) {
          const la::Matrix& c = coef[p];
          la::Matrix top(n, n);
          la::Matrix bottom(n, n);
          blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, n, n, n, 1.0f,
                     pq.data(), pq.ld(), c.data(), c.ld(), 0.0f, top.data(),
                     top.ld());
          blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, n, n, n, 1.0f,
                     &pq(n, 0), pq.ld(), c.data(), c.ld(), 0.0f,
                     bottom.data(), bottom.ld());
          child_coef.push_back(std::move(top));
          child_coef.push_back(std::move(bottom));
        } else {
          child_coef.emplace_back();
          child_coef.emplace_back();
        }
        child += 2;
      }
      ROCQR_CHECK(child == child_nodes.size(),
                  "tsqr_ooc_qr: coefficient walk does not tile the level");
      coef = std::move(child_coef);
      coef_time = std::move(child_time);
    }
    ROCQR_CHECK(coef.size() == static_cast<size_t>(leaves),
                "tsqr_ooc_qr: reconstruction shape mismatch");

    for (index_t d = 0; d < leaves; ++d) {
      Device& dev = *devices[static_cast<size_t>(d) % devices.size()];
      // A leaf's sweep needs its coefficient and its own Q rows fully
      // drained to the host; in overlap mode neither implied a barrier, so
      // join the clock to both edges here.
      if (overlap) {
        dev.advance_host_clock(std::max(coef_time[static_cast<size_t>(d)],
                                        leaf_end_time[static_cast<size_t>(d)]));
      }
      const index_t r0 = offsets[static_cast<size_t>(d)];
      const index_t rows = offsets[static_cast<size_t>(d) + 1] - r0;
      HostMutRef q_d = ooc::host_block(a, r0, 0, rows, n);
      HostConstRef c_d =
          phantom ? HostConstRef::phantom(n, n)
                  : HostConstRef(coef[static_cast<size_t>(d)].view());
      ooc::OocGemmOptions go = qr::detail::gemm_options(opts);
      go.alpha = 1.0f;
      go.beta = 0.0f; // write-only C: the A slab move-in IS the Q-local read
      go.ramp_up = false;
      go.blocksize = std::min(opts.blocksize, rows);
      ooc::outer_product_recursive(dev, Operand::on_host(sim::as_const(q_d)),
                                   Operand::on_host(c_d), sim::as_const(q_d),
                                   q_d, go);
    }
  }

  sim::synchronize_all(devices);
  std::vector<QrStats> per_device;
  per_device.reserve(devices.size());
  for (size_t d = 0; d < devices.size(); ++d) {
    per_device.push_back(stats_from_trace(devices[d]->trace(), windows[d],
                                          devices[d]->memory_peak()));
  }
  return combine_device_stats(per_device);
}

} // namespace detail

} // namespace rocqr::qr
