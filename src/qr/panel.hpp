// Device-side panel factorization (the in-core recursive CGS of the LATER
// project, which the paper uses unchanged for both algorithms).
#pragma once

#include <span>
#include <string_view>

#include "qr/options.hpp"
#include "sim/device.hpp"

namespace rocqr::qr {

/// One panel of a panel launch: the (m x w) panel block and its (w x w) R
/// destination.
struct PanelBatchEntry {
  sim::DeviceMatrixRef aq;
  sim::DeviceMatrixRef r;
};

/// Enqueues the in-core panel factorization of K >= 1 same-shape panels as
/// one compute-engine op on `stream`: for each entry, `aq` (m x w, fp32
/// device block) holds the panel on entry and Q on exit, and `r` (w x w,
/// fp32 device block) receives the panel's R factor. The cost is modeled by
/// PerfModel::panel_seconds per panel (the in-core solver saturates the
/// device, so its internals do not need to be scheduled individually), with
/// one kernel latency amortized across the batch. In Real mode the numerics
/// run via recursive_cgs_inplace with the selected GEMM precision, entry by
/// entry in entry order, so each panel's result is bit-identical to a
/// one-entry launch.
void panel_qr_device_batched(sim::Device& dev,
                             std::span<const PanelBatchEntry> entries,
                             sim::Stream stream, const QrOptions& opts,
                             sim::OpName name);

/// The one-entry launch, named `name_prefix` + "panel_qr <m>x<w>" — the
/// prefix is per-job attribution when several factorizations share one
/// device (qr/tiled_qr.hpp).
void panel_qr_device(sim::Device& dev, sim::DeviceMatrixRef aq,
                     sim::DeviceMatrixRef r, sim::Stream stream,
                     const QrOptions& opts,
                     std::string_view name_prefix = {});

} // namespace rocqr::qr
