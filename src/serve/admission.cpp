#include "serve/admission.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "qr/autotune.hpp"
#include "qr/checkpoint.hpp"
#include "qr/tsqr_ooc.hpp"
#include "sim/device.hpp"

namespace rocqr::serve {

namespace {

/// The dry run mirrors the scheduler's checkpoint cadence but nobody reads
/// the snapshots (phantom checkpoints are schedule-only anyway).
class DiscardSink : public qr::CheckpointSink {
 public:
  void write(const qr::Checkpoint&) override {}
};

void hash_combine(std::size_t& seed, std::size_t value) {
  seed ^= value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

} // namespace

std::size_t QuoteKeyHash::operator()(const QuoteKey& key) const {
  std::size_t h = std::hash<index_t>{}(key.m);
  hash_combine(h, std::hash<index_t>{}(key.n));
  hash_combine(h, static_cast<std::size_t>(key.algorithm));
  hash_combine(h, static_cast<std::size_t>(key.options.precision));
  hash_combine(h, std::hash<index_t>{}(key.options.blocksize));
  hash_combine(h, std::hash<int>{}(key.devices));
  return h;
}

std::optional<QuoteKey> quote_key(const JobSpec& job,
                                  const AdmissionConfig& cfg,
                                  std::string* reason) {
  if (job.m < job.n || job.n < 1) {
    *reason = "invalid shape " + format_shape(job.m, job.n) +
              " (need m >= n >= 1)";
    return std::nullopt;
  }
  const std::optional<qr::Algorithm> alg = qr::parse_algorithm(job.algorithm);
  if (!alg) {
    *reason = "unknown algorithm '" + job.algorithm + "'";
    return std::nullopt;
  }
  QuoteKey key;
  key.m = job.m;
  key.n = job.n;
  key.algorithm = *alg;
  // The job's options minus what the scheduler owns in every attempt
  // (precision, blocksize, checkpointing, resume state) and any plan log:
  // admission's phantom graphs are not the caller's plan.
  key.options = job.options;
  key.options.precision = job.precision;
  key.options.blocksize = std::max<index_t>(job.blocksize, 0);
  key.options.checkpoint_sink = nullptr;
  key.options.checkpoint_every = cfg.checkpoint_every;
  key.options.resume_units = 0;
  key.options.plan_log = nullptr;
  if (*alg == qr::Algorithm::Tsqr) key.devices = cfg.devices;
  return key;
}

Quote dry_run(const QuoteKey& key, const AdmissionConfig& cfg) {
  Quote q;
  const bool tsqr = key.algorithm == qr::Algorithm::Tsqr;
  try {
    index_t b = key.options.blocksize;
    if (b == 0) {
      if (tsqr) {
        // Tune on the leaf shape: the per-device work is a recursive OOC
        // factorization of one row block (the widest leaf, rounding up).
        const index_t leaves = qr::detail::tsqr_leaf_count(
            key.m, key.n, static_cast<size_t>(key.devices));
        const index_t leaf_rows = (key.m + leaves - 1) / leaves;
        b = qr::tune_blocksize(cfg.spec, leaf_rows, key.n, true, key.options)
                .best_blocksize;
      } else {
        b = qr::tune_blocksize(cfg.spec, key.m, key.n,
                               key.algorithm == qr::Algorithm::Recursive,
                               key.options)
                .best_blocksize;
      }
    }
    q.blocksize = b;

    DiscardSink sink;
    qr::QrOptions opts = key.options;
    opts.blocksize = b;
    opts.checkpoint_sink = &sink;
    auto a = sim::HostMutRef::phantom(key.m, key.n);
    auto r = sim::HostMutRef::phantom(key.n, key.n);
    if (tsqr) {
      // Phantom replica of the whole fleet, link topology included, so the
      // predicted makespan prices the stacked-R transfers' contention.
      auto link = cfg.shared_link ? std::make_shared<sim::SharedHostLink>()
                                  : std::shared_ptr<sim::SharedHostLink>();
      std::vector<std::unique_ptr<sim::Device>> fleet;
      std::vector<sim::Device*> ptrs;
      for (int i = 0; i < key.devices; ++i) {
        fleet.push_back(std::make_unique<sim::Device>(
            cfg.spec, sim::ExecutionMode::Phantom, link,
            sim::Recording::Totals));
        if (cfg.paper_calibration) {
          fleet.back()->model().install_paper_calibration();
        }
        ptrs.push_back(fleet.back().get());
      }
      const qr::QrStats stats = qr::factorize(
          qr::QrProblem{ptrs, a, r, qr::Algorithm::Tsqr, opts});
      q.predicted_seconds = stats.total_seconds;
      for (const auto& dev : fleet) {
        q.predicted_peak_bytes += dev->memory_peak();
        q.budget_peak_bytes = std::max(q.budget_peak_bytes, dev->memory_peak());
      }
    } else {
      sim::Device dev(cfg.spec, sim::ExecutionMode::Phantom, nullptr,
                      sim::Recording::Totals);
      if (cfg.paper_calibration) dev.model().install_paper_calibration();
      const qr::QrStats stats =
          qr::factorize(qr::QrProblem{{&dev}, a, r, key.algorithm, opts});
      q.predicted_seconds = stats.total_seconds;
      q.predicted_peak_bytes = stats.peak_device_bytes;
      q.budget_peak_bytes = stats.peak_device_bytes;
    }
  } catch (const Error& e) {
    // Autotune found no feasible blocksize, the explicit blocksize OOMed,
    // or the options were invalid — all per-job rejections, not scheduler
    // failures. The predictions are only set once a run has finished, so
    // they stay 0 here.
    q.failure = e.what();
  }
  return q;
}

AdmissionDecision decide(const JobSpec& job, const Quote& quote,
                         const AdmissionConfig& cfg) {
  AdmissionDecision d;
  d.blocksize = quote.blocksize;
  if (!quote.failure.empty()) {
    d.reason = quote.failure;
    return d;
  }
  d.predicted_seconds = quote.predicted_seconds;
  d.predicted_peak_bytes = quote.predicted_peak_bytes;
  const auto budget = static_cast<bytes_t>(
      cfg.memory_fraction * static_cast<double>(cfg.spec.memory_capacity));
  if (quote.budget_peak_bytes > budget) {
    d.reason = std::string("predicted ") +
               (job.algorithm == "tsqr" ? "per-device peak " : "peak ") +
               format_bytes(quote.budget_peak_bytes) +
               " exceeds the admission budget " + format_bytes(budget) +
               " on " + cfg.spec.name;
    return d;
  }
  if (job.deadline_seconds > 0 &&
      quote.predicted_seconds > job.deadline_seconds) {
    d.reason = "predicted runtime " + format_seconds(quote.predicted_seconds) +
               " misses the deadline " + format_seconds(job.deadline_seconds);
    return d;
  }
  d.admitted = true;
  return d;
}

AdmissionDecision admit_job(const JobSpec& job, const AdmissionConfig& cfg) {
  AdmissionDecision d;
  const std::optional<QuoteKey> key = quote_key(job, cfg, &d.reason);
  if (!key) return d;
  return decide(job, dry_run(*key, cfg), cfg);
}

} // namespace rocqr::serve
