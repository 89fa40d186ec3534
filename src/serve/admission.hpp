// Phantom-mode admission control for the QR service (docs/SERVING.md).
//
// Admission is a dry run, not a heuristic: the candidate job is simulated
// on a phantom replica of the fleet's device spec — through the exact
// driver, blocksize and checkpoint cadence the scheduler would use — so the
// predicted runtime and peak device bytes are the schedule the device would
// execute, not an estimate. Jobs that cannot fit (every blocksize OOMs, or
// the peak exceeds the configured memory fraction) or that already miss
// their deadline are rejected with the reason in the decision.
//
// The dry run is a deterministic function of its QuoteKey — shape,
// algorithm, requested blocksize and the options it reads — so admission
// comes in two halves: dry_run() turns a key into a Quote, which
// serve::Scheduler memoizes so each distinct key is simulated once, and
// decide() applies the per-job checks (admission budget, deadline) to it.
// admit_job() is the two halves with no memo. The phantom devices record
// totals, not events (sim::Recording::Totals): a quote reads only the
// makespan, the peaks and the whole-run QrStats.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "qr/factorize.hpp"
#include "serve/job.hpp"
#include "sim/spec.hpp"

namespace rocqr::serve {

/// The slice of the scheduler configuration admission must mirror.
struct AdmissionConfig {
  sim::DeviceSpec spec;
  /// Fleet size. Single-device jobs dry-run on one phantom replica; a
  /// gang-scheduled "tsqr" job dry-runs on a phantom replica of the whole
  /// fleet (same size, same link topology) so the quote covers the
  /// cross-device reduction tree.
  int devices = 1;
  /// Mirror of ServeConfig::shared_link: the tsqr dry run routes its
  /// stacked-R transfers through one SharedHostLink so the predicted
  /// makespan includes the contention.
  bool shared_link = false;
  /// Checkpoint cadence of the fleet's workers. The dry run installs the
  /// same cadence because each checkpoint synchronizes the device, which is
  /// part of the schedule being predicted.
  index_t checkpoint_every = 1;
  /// Admit only jobs whose predicted peak stays within this fraction of
  /// device memory (head-room policy; 1.0 = anything that fits). For tsqr
  /// the check is against the max *per-device* peak; the decision's
  /// predicted_peak_bytes quotes the fleet-wide sum.
  double memory_fraction = 1.0;
  bool paper_calibration = true;
};

/// Everything the dry run reads of a job, given one AdmissionConfig: jobs
/// with equal keys get the same Quote. Name, priority, arrival, deadline
/// and the host buffers are not part of it.
struct QuoteKey {
  index_t m = 0;
  index_t n = 0;
  qr::Algorithm algorithm = qr::Algorithm::Recursive;
  /// The job's options after admission's overrides: the job's precision,
  /// its requested blocksize (0 = autotune), the fleet's checkpoint
  /// cadence, and no checkpoint sink, resume state or plan log.
  qr::QrOptions options;
  /// Size of the phantom fleet a tsqr job dry-runs on; 0 for every other
  /// algorithm, whose dry run uses one device whatever the fleet size.
  int devices = 0;

  bool operator==(const QuoteKey&) const = default;
};

/// Hashes the fields that tell jobs apart in practice (shape, algorithm,
/// precision, blocksize, fleet size); == compares the rest.
struct QuoteKeyHash {
  std::size_t operator()(const QuoteKey& key) const;
};

/// The dry run's result, shared by every job of one key.
struct Quote {
  /// The requested blocksize, or the autotuned winner.
  index_t blocksize = 0;
  double predicted_seconds = 0;
  /// The quoted peak: for tsqr the fleet-wide sum of per-device peaks.
  bytes_t predicted_peak_bytes = 0;
  /// The peak the admission budget is checked against: the max per-device
  /// peak (the quoted peak itself for single-device jobs).
  bytes_t budget_peak_bytes = 0;
  /// Non-empty iff the dry run failed: no feasible blocksize, an OOM at the
  /// requested one, or invalid options.
  std::string failure;
};

/// The dry run's key for `job` under `cfg`. A job admission cannot simulate
/// at all (invalid shape, unknown algorithm) has none: nullopt, with the
/// reason written to `*reason`.
std::optional<QuoteKey> quote_key(const JobSpec& job,
                                  const AdmissionConfig& cfg,
                                  std::string* reason);

/// Simulates the job `key` describes in Phantom mode: the autotune sweep
/// when the key's blocksize is 0, then one run at the chosen blocksize.
/// Per-job problems come back in Quote::failure; it does not throw for
/// them.
Quote dry_run(const QuoteKey& key, const AdmissionConfig& cfg);

/// The per-job half of admission: admits `job` on `quote` (the dry run of
/// its key) unless the dry run failed, the budget peak exceeds the
/// admission budget, or the prediction misses the job's deadline.
AdmissionDecision decide(const JobSpec& job, const Quote& quote,
                         const AdmissionConfig& cfg);

/// Decides admission for `job` with a fresh dry run (job_id is left for the
/// scheduler to fill). Infeasible or malformed jobs come back rejected with
/// a reason; this function does not throw for per-job problems.
AdmissionDecision admit_job(const JobSpec& job, const AdmissionConfig& cfg);

} // namespace rocqr::serve
