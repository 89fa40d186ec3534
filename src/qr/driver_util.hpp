// Shared pieces of the OOC QR drivers.
#pragma once

#include <string>

#include "ooc/gemm_engines.hpp"
#include "ooc/pipeline.hpp"
#include "qr/checkpoint.hpp"
#include "qr/host_tracker.hpp"
#include "qr/options.hpp"
#include "sim/device.hpp"

namespace rocqr::qr::detail {

/// Moves the host panel columns `a_cols` (m x w) into the device matrix
/// `panel` from a task graph's move-in node (which supplies transfer retry
/// per opts — docs/FAULTS.md).
///
/// With opts.qr_level_opt and per-row-slab completion events available from
/// the previous trailing update, each row chunk of the panel waits only on
/// the move-outs it actually reads — so the head of the panel transfer
/// overlaps the tail of the update's move-out (§4.2, "the last move-out
/// operation can be overlapped by moving in the first few columns of the
/// panel"). Otherwise a coarse wait on all writers of those columns is used.
void move_in_panel(ooc::TaskCtx& ctx, const sim::DeviceMatrix& panel,
                   sim::HostConstRef a_cols, const HostWriteTracker& tracker,
                   index_t j0, index_t w, const QrOptions& opts);

/// Builds the per-call OOC GEMM options from the QR options (including the
/// fault-tolerance knobs, which pass through unchanged).
ooc::OocGemmOptions gemm_options(const QrOptions& opts);

/// Writes a panel-level checkpoint if opts.checkpoint_sink is set and
/// `units_done` is a multiple of opts.checkpoint_every. Synchronizes the
/// device first so the host A/R snapshots are consistent, then counts the
/// write on `checkpoints_written`. No-op (and zero-overhead) without a sink.
/// `leaves` (tsqr only) records the run's leaf partition so a shrunk-fleet
/// resume can pin it; other drivers pass 0.
void maybe_checkpoint(sim::Device& dev, const char* driver,
                      sim::HostMutRef a, sim::HostMutRef r,
                      const QrOptions& opts, index_t columns_done,
                      index_t units_done, index_t leaves = 0);

/// Largest power-of-two C tile edge for the blocking trailing update that
/// fits the memory left after the resident operands (double-buffered fp32
/// tiles at half the remaining budget).
index_t plan_tile_edge(const sim::Device& dev, bytes_t resident_bytes,
                       const QrOptions& opts);

} // namespace rocqr::qr::detail
