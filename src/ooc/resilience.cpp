#include "ooc/resilience.hpp"

#include <cmath>
#include <vector>

#include "sim/trace_export.hpp"

namespace rocqr::ooc::detail {

namespace {

telemetry::Counter& transfer_retries_counter() {
  return telemetry::MetricsRegistry::global().counter("transfer_retries");
}

telemetry::Counter& abft_recomputes_counter() {
  return telemetry::MetricsRegistry::global().counter("abft_recomputes");
}

/// Shared retry loop: `enqueue` performs one attempt (throwing TransferError
/// on an injected transient failure).
template <typename Enqueue>
void retry_transfer(sim::Device& dev, const sim::OpName& name,
                    int max_attempts, double backoff_seconds,
                    const Enqueue& enqueue) {
  ROCQR_CHECK(max_attempts >= 1, "transfer retry: max_attempts must be >= 1");
  double backoff = backoff_seconds;
  for (int attempt = 1;; ++attempt) {
    try {
      enqueue();
      return;
    } catch (const TransferError&) {
      if (attempt >= max_attempts) {
        throw FaultBudgetExhausted(
            "transfer retry budget exhausted (" + std::to_string(attempt) +
            " attempts) on '" + name.str() + "'");
      }
      transfer_retries_counter().increment();
      // The failed enqueue consumed no engine time; the backoff is the
      // modeled cost of detecting the failure and re-issuing the copy.
      sim::TraceSpan span(dev, "transfer_retry " + name.str());
      dev.advance_host_clock(dev.now() + backoff);
      backoff *= 2.0;
    }
  }
}

/// ABFT column-sum verification of C = beta*C0 + alpha*op(A)*op(B).
/// Compares the row sums of the computed C (the check vector C*ones) against
/// a double-precision reference from the downloaded operands, with a
/// tolerance scaled by the absolute-value sums — generous against fp16
/// rounding (~1e-3 relative), tight against injected corruption (>= 1e4).
bool abft_check_passes(sim::Device& dev, blas::Op opa, blas::Op opb,
                       float alpha, sim::DeviceMatrixRef a,
                       sim::DeviceMatrixRef b, float beta,
                       sim::DeviceMatrixRef c, const la::Matrix* c_before) {
  const la::Matrix am = dev.download(a);
  const la::Matrix bm = dev.download(b);
  const la::Matrix cm = dev.download(c);
  const index_t m = c.rows;
  const index_t n = c.cols;
  const index_t k = blas::op_cols(opa, a.rows, a.cols);

  // y = op(B)*ones, ya = |op(B)|*ones (length k).
  std::vector<double> y(static_cast<size_t>(k), 0.0);
  std::vector<double> ya(static_cast<size_t>(k), 0.0);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < k; ++i) {
      const double v = opb == blas::Op::NoTrans ? bm(i, j) : bm(j, i);
      y[static_cast<size_t>(i)] += v;
      ya[static_cast<size_t>(i)] += std::fabs(v);
    }
  }
  for (index_t i = 0; i < m; ++i) {
    double ref = 0.0;
    double scale = 0.0;
    for (index_t j = 0; j < k; ++j) {
      const double v = opa == blas::Op::NoTrans ? am(i, j) : am(j, i);
      ref += v * y[static_cast<size_t>(j)];
      scale += std::fabs(v) * ya[static_cast<size_t>(j)];
    }
    ref *= static_cast<double>(alpha);
    scale = static_cast<double>(std::fabs(alpha)) * scale;
    if (c_before != nullptr) {
      double c0 = 0.0;
      double c0a = 0.0;
      for (index_t j = 0; j < n; ++j) {
        c0 += static_cast<double>((*c_before)(i, j));
        c0a += static_cast<double>(std::fabs((*c_before)(i, j)));
      }
      ref += static_cast<double>(beta) * c0;
      scale += static_cast<double>(std::fabs(beta)) * c0a;
    }
    double row_sum = 0.0;
    for (index_t j = 0; j < n; ++j) row_sum += static_cast<double>(cm(i, j));
    // 5e-2 relative headroom over the ~1e-3 fp16 rounding drift, plus an
    // absolute floor for near-zero rows; injected corruption is >= 1e4.
    const double tol = 5e-2 * scale + 1e-3 * (1.0 + static_cast<double>(n));
    if (std::fabs(row_sum - ref) > tol) return false;
  }
  return true;
}

} // namespace

void copy_h2d_retry(sim::Device& dev,
                    std::span<const sim::Device::H2dBatchEntry> es,
                    sim::Stream s, sim::OpName name, int max_attempts,
                    double backoff_seconds) {
  retry_transfer(dev, name, max_attempts, backoff_seconds,
                 [&] { dev.copy_h2d_batched(es, s, name); });
}

void copy_d2h_retry(sim::Device& dev,
                    std::span<const sim::Device::D2hBatchEntry> es,
                    sim::Stream s, sim::OpName name, int max_attempts,
                    double backoff_seconds) {
  retry_transfer(dev, name, max_attempts, backoff_seconds,
                 [&] { dev.copy_d2h_batched(es, s, name); });
}

void checked_gemm(sim::Device& dev, const OocGemmOptions& opts,
                  std::span<const sim::Device::GemmBatchEntry> es,
                  sim::Stream s, sim::OpName name) {
  if (!opts.abft || dev.mode() != sim::ExecutionMode::Real) {
    dev.gemm_batched(es, opts.precision, s, name);
    return;
  }
  ROCQR_CHECK(es.size() == 1, "abft: the checksum covers one GEMM per launch");
  const sim::Device::GemmBatchEntry& e = es.front();
  // With beta != 0 the recompute needs the pre-GEMM C restored; snapshot it
  // through the immediate (non-scheduled) download path.
  la::Matrix c_before;
  const bool need_restore = e.beta != 0.0f;
  if (need_restore) c_before = dev.download(e.c);

  constexpr int kAbftMaxAttempts = 3;
  dev.gemm_batched(es, opts.precision, s, name);
  int attempt = 1;
  while (!abft_check_passes(dev, e.opa, e.opb, e.alpha, e.a, e.b, e.beta, e.c,
                            need_restore ? &c_before : nullptr)) {
    if (attempt >= kAbftMaxAttempts) {
      throw NumericalError("abft: checksum mismatch persisted after " +
                           std::to_string(attempt) + " attempts in '" +
                           name.str() + "'");
    }
    ++attempt;
    abft_recomputes_counter().increment();
    sim::TraceSpan span(dev, "abft_recompute " + name.str());
    if (need_restore) dev.upload(e.c, c_before.view());
    dev.gemm_batched(es, opts.precision, s, name);
  }
}

bool degrade_slab_options(OocGemmOptions& opts) {
  if (opts.blocksize <= opts.degrade_min_blocksize) return false;
  opts.blocksize = std::max(opts.degrade_min_blocksize, opts.blocksize / 2);
  if (opts.tile_cols > 1) opts.tile_cols = std::max<index_t>(1, opts.tile_cols / 2);
  if (opts.c_panel_cols > 1) {
    opts.c_panel_cols = std::max<index_t>(1, opts.c_panel_cols / 2);
  }
  if (opts.ramp_start > opts.blocksize) opts.ramp_start = opts.blocksize;
  return true;
}

void count_slab_degradation() {
  telemetry::MetricsRegistry::global().counter("slab_degradations").increment();
}

} // namespace rocqr::ooc::detail
