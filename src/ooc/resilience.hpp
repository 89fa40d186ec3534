// Fault-tolerant execution primitives shared by the OOC engines and the QR
// drivers: transfer retry with bounded exponential backoff, graceful
// slab-size degradation on device OOM, and ABFT-checked GEMM. All three are
// zero-overhead when no fault plan is installed and the knobs are at their
// defaults: retries only engage on a thrown TransferError, degradation only
// on a thrown DeviceOutOfMemory, and the ABFT check is gated on opts.abft.
// Recovery semantics are documented in docs/FAULTS.md; every recovery
// action lands on a telemetry counter (transfer_retries, slab_degradations,
// abft_recomputes) and a trace span.
#pragma once

#include <algorithm>
#include <span>
#include <string>

#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "ooc/gemm_engines.hpp"
#include "sim/device.hpp"
#include "sim/trace_export.hpp"

namespace rocqr::ooc::detail {

/// Enqueues one H2D copy of `es` (a fused transfer of K payloads; a solo
/// copy is one entry), retrying injected transient failures. A transfer is
/// one fault site, so a retry replays every payload. Each retry advances
/// the simulated host clock by an exponentially growing backoff (the failed
/// enqueue itself consumed no engine time). Throws FaultBudgetExhausted
/// once `max_attempts` attempts all failed.
void copy_h2d_retry(sim::Device& dev,
                    std::span<const sim::Device::H2dBatchEntry> es,
                    sim::Stream s, sim::OpName name, int max_attempts,
                    double backoff_seconds);

/// D2H counterpart of copy_h2d_retry.
void copy_d2h_retry(sim::Device& dev,
                    std::span<const sim::Device::D2hBatchEntry> es,
                    sim::Stream s, sim::OpName name, int max_attempts,
                    double backoff_seconds);

/// One-entry forms.
inline void copy_h2d_retry(sim::Device& dev, sim::DeviceMatrixRef dst,
                           sim::HostConstRef src, sim::Stream s,
                           sim::OpName name, int max_attempts,
                           double backoff_seconds) {
  const sim::Device::H2dBatchEntry e{dst, src};
  copy_h2d_retry(dev, {&e, 1}, s, name, max_attempts, backoff_seconds);
}

inline void copy_d2h_retry(sim::Device& dev, sim::HostMutRef dst,
                           sim::DeviceMatrixRef src, sim::Stream s,
                           sim::OpName name, int max_attempts,
                           double backoff_seconds) {
  const sim::Device::D2hBatchEntry e{dst, src};
  copy_d2h_retry(dev, {&e, 1}, s, name, max_attempts, backoff_seconds);
}

/// dev.gemm_batched plus the opt-in ABFT check: in Real mode with
/// opts.abft, the result is verified against a column-sum check vector
/// computed in double precision from the operands; on mismatch C is
/// restored, the GEMM re-enqueued (visible in the trace as an
/// `abft_recompute` span), and a persistent mismatch throws NumericalError.
/// The check covers one product, so under abft `es` must hold one entry
/// (fused batches reject abft jobs up front). Phantom mode and abft=false
/// degenerate to a plain dev.gemm_batched call.
void checked_gemm(sim::Device& dev, const OocGemmOptions& opts,
                  std::span<const sim::Device::GemmBatchEntry> es,
                  sim::Stream s, sim::OpName name);

/// Halves the slab/tile knobs of `opts` one degradation step; returns false
/// when already at the floor (degradation must rethrow).
bool degrade_slab_options(OocGemmOptions& opts);

void count_slab_degradation();

/// Runs an engine body, degrading the slab schedule on DeviceOutOfMemory:
/// halve blocksize (and the dependent tile knobs) and re-run the body with
/// the smaller plan until it fits or degrade_min_blocksize is reached. The
/// retry is sound because engines allocate every device buffer up front —
/// an OOM can only fire before the first device-to-host write, so no host
/// data has been touched when the body is abandoned (its already-enqueued
/// move-ins stay in the trace as wasted work, which is realistic).
template <typename Fn>
auto with_oom_degradation(sim::Device& dev, const OocGemmOptions& opts,
                          Fn&& body) {
  OocGemmOptions cur = opts;
  bool degraded = false;
  for (;;) {
    try {
      if (!degraded) return body(static_cast<const OocGemmOptions&>(cur));
      sim::TraceSpan span(dev, "slab_degradation retry b=" +
                                   std::to_string(cur.blocksize));
      return body(static_cast<const OocGemmOptions&>(cur));
    } catch (const DeviceOutOfMemory&) {
      if (!cur.degrade_on_oom || !degrade_slab_options(cur)) throw;
      degraded = true;
      count_slab_degradation();
    }
  }
}

} // namespace rocqr::ooc::detail
