// Tiled CGS QR on the TaskGraph executor (Buttari-style DAG lookahead),
// plus the mixed-algorithm batch front end serve colocation runs on. Solo
// tiled and left-looking QR are one-job batches of their node programs.
//
// The tiled driver splits the matrix into full-height column tiles of
// opts.blocksize. Step k streams every trailing tile A_j through the device
// and applies the block-MGS update R_kj = Q_k^T A_j; A_j -= Q_k R_kj —
// except tile k+1, which stays device-resident and factors in place the
// moment its own update lands (`panel_qr_device`). Expressed as a task
// graph, panel k+1's factorization carries a smaller priority key than step
// k's remaining far-tile updates, so it enqueues — and on the FIFO compute
// engine runs — while those updates are still moving in and draining out:
// the lookahead of Buttari et al. ("Parallel Tiled QR Factorization for
// Multicore Architectures"). Versus the bulk-synchronous recursive driver
// the tiled schedule also moves fewer bytes at small tile counts: the
// resident tile skips one host round trip per step and R rows leave the
// device directly (see bench/tiled_qr_lookahead, BENCH_tiled_qr.json).
//
// `run_batch` colocates SEVERAL factorizations — tiled, blocking, or
// left-looking, mixed freely — in ONE task graph on one device: every
// job's algorithm is expressed as a node program over the shared
// three-stream schedule, so one job's transfers overlap another's computes
// regardless of algorithm. A program wires no edge by hand: each node
// declares the device buffers and host column blocks of A it reads and
// writes, and the task graph derives the RAW, WAR and WAW edges from them.
// Solo blocking QR keeps its own driver over the OOC GEMM engines (the
// paper's Tables 3–4 baseline schedule); the blocking program performs
// bitwise the same arithmetic as that driver (same GEMM operand precisions
// and k-extents, elementwise fp16 conversions). So a job of any of the
// three algorithms preempted from a batch resumes solo — or vice versa —
// with bit-identical results (pinned by tests/qr_mixed_batch_test.cpp).
//
// The blocking program is K lanes wide: each node issues one device op
// over its lanes (solo device ops are one-entry batches, sim/device.hpp).
// A colocated blocking job is its one-lane form, with op names under the
// job label; `run_fused_batch` runs K same-shape blocking jobs as its
// K-lane form, with op names under "fused ". Both go through one
// round-and-checkpoint loop, so a one-job fusion and a one-job colocated
// batch are the same schedule (pinned by tests/qr_fused_batch_test.cpp).
//
// Checkpoints use the per-algorithm driver tags ("tiled", "blocking",
// "left"). Tiled unit u = "tiles 0..u-1 factored, with the trailing
// updates of steps 0..u-2 applied to host A"; blocking unit u = "u panels
// factored and their trailing updates applied"; left-looking unit u =
// "u panels projected and factored". With a sink installed the graph runs
// in per-round segments so every boundary is a consistent snapshot; resume
// (qr::resume, or a new batch with opts.resume_units) restores the host
// arrays and replays from the boundary — bit-identical, pinned by
// tests/qr_tiled_test.cpp and tests/qr_mixed_batch_test.cpp.
#pragma once

#include <string>
#include <vector>

#include "qr/options.hpp"
#include "sim/device.hpp"

namespace rocqr::qr::detail {

/// One factorization of a colocated batch. `algorithm` selects the node
/// program ("tiled", "blocking", or "left" — the qr::Algorithm string tags
/// of the single-device drivers). `label` prefixes every trace op name and
/// device-buffer label ("j0." ...), which is how per-job stats are
/// attributed when several jobs share one device (serve multi-tenancy).
struct BatchJob {
  std::string algorithm;
  sim::HostMutRef a;
  sim::HostMutRef r;
  QrOptions opts;
  sim::OpName label;
};

/// Runs `jobs` as ONE task graph on `dev`, interleaving their move-in /
/// compute / move-out nodes on the shared three-stream schedule so one
/// job's transfers overlap another's computes. The graph-level transfer
/// retry / ABFT configuration comes from jobs[0].opts — colocated jobs
/// must agree on precision and fault knobs (serve builds them from one
/// ServeConfig). Returns per-job stats (the trace window filtered by each
/// job's label, all jobs in one pass). Internal entry — solo callers go
/// through qr::factorize, which runs tiled and left-looking QR as one-job
/// batches.
std::vector<QrStats> run_batch(sim::Device& dev,
                               const std::vector<BatchJob>& jobs);

/// Fuses K same-shape, same-precision "blocking" jobs into the K lanes of
/// the blocking node program, whose every node is one block-diagonal
/// batched operation: per panel iteration the fused graph issues a single
/// batched move-in, one batched panel kernel, one batched inner/outer GEMM
/// pair per trailing panel and one batched move-out — each covering all K
/// jobs — instead of K per-job rounds, so the fixed per-op latencies (link
/// turnaround, kernel launch) are paid once per round. The per-entry
/// numerics are the exact solo bodies in job order, so every job's R (and
/// Q) is bit-identical to a solo run (pinned by
/// tests/qr_fused_batch_test.cpp), and checkpoints carry the solo "blocking"
/// driver tag: a job preempted from a fused batch resumes solo or fused.
/// Requires: every job algorithm "blocking", identical m/n/blocksize/
/// precision/panel algorithm, equal resume_units, abft off. Returned
/// per-job stats are an even 1/K split of the fused window's volume
/// aggregates (exact, since the jobs are identical in shape and arithmetic).
std::vector<QrStats> run_fused_batch(sim::Device& dev,
                                     const std::vector<BatchJob>& jobs);

/// One member's share of a fused window: the volume aggregates (busy
/// seconds, bytes, flops) divide by `members`; the span fields
/// (first_start/last_end/total_seconds), event and panel counts and the
/// device peak stay whole — the member occupied the device for the whole
/// window, as in the colocated per-member attribution.
QrStats split_fused_stats(QrStats whole, size_t members);

} // namespace rocqr::qr::detail
