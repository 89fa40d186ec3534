// Job and report types of the multi-job QR service (docs/SERVING.md).
//
// A JobSpec describes one factorization request the way a client of a
// QR-as-a-service endpoint would: shape, precision, algorithm, priority and
// an optional deadline. The serve::Scheduler admits jobs against a device
// fleet via phantom-mode admission control and surfaces the outcome as one
// JobReport per job plus a fleet-wide makespan view.
#pragma once

#include <string>
#include <vector>

#include "blas/gemm.hpp"
#include "common/types.hpp"
#include "qr/options.hpp"
#include "sim/device.hpp"

namespace rocqr::serve {

/// One QR factorization request.
struct JobSpec {
  std::string name;
  index_t m = 0;
  index_t n = 0;
  /// OOC driver, by its qr::to_string tag (admission validates it with
  /// qr::parse_algorithm). A "tsqr" job is gang-scheduled — it acquires
  /// every device in the fleet atomically and runs the fleet-wide
  /// out-of-core TSQR. "tiled" jobs can be colocated on one device as a
  /// single task graph when ServeConfig::max_colocated_jobs > 1; same-shape
  /// "blocking" jobs can additionally be *fused* into block-diagonal
  /// batched operations when ServeConfig::max_fused_jobs > 1
  /// (docs/SERVING.md "Batched small-QR coalescing").
  std::string algorithm = "recursive";
  blas::GemmPrecision precision = blas::GemmPrecision::FP16_FP32;
  /// Panel width; 0 = autotune via phantom dry runs at admission time.
  index_t blocksize = 0;
  /// Higher runs first; equal priorities dispatch earliest-deadline-first,
  /// then in submission order.
  int priority = 0;
  /// Simulated-seconds budget for the job's device time; 0 = none. A job
  /// whose predicted runtime already misses the deadline is rejected.
  double deadline_seconds = 0;
  /// Batch arrival model: the job only becomes ready for dispatch once the
  /// fleet has completed this many panel units (0 = ready immediately).
  /// Lets a single batch exercise jobs that "arrive" mid-run.
  index_t arrival_after_units = 0;
  /// Real-mode payload: A (m x n, becomes Q) and R (n x n). Leave null for
  /// phantom fleets; required (and shape-checked) on Real-mode fleets.
  sim::HostMutRef a;
  sim::HostMutRef r;
  /// Base driver options. The scheduler overrides blocksize, precision and
  /// the checkpointing fields (it owns the per-job checkpoint sink).
  qr::QrOptions options;
};

enum class JobState {
  Rejected,  ///< failed admission control; never dispatched
  Queued,    ///< admitted, waiting for a device
  Running,   ///< currently on a device
  Preempted, ///< yielded at a checkpoint boundary; waiting to resume
  Completed, ///< factorization finished
  Failed,    ///< every retry exhausted
  Shed,      ///< load-shed after a fleet shrink: the re-quote against the
             ///< surviving devices can no longer meet the job's deadline.
             ///< Not a failure — the job itself never went wrong.
};

const char* to_string(JobState s);

/// Outcome of admission control for one submitted job.
struct AdmissionDecision {
  int job_id = -1;
  bool admitted = false;
  std::string reason; ///< non-empty iff rejected
  /// Chosen panel width (the job's own, or the autotuned winner).
  index_t blocksize = 0;
  /// Phantom dry-run prediction of the job as the scheduler will run it
  /// (same checkpoint cadence, dedicated device at rest).
  double predicted_seconds = 0;
  bytes_t predicted_peak_bytes = 0;
};

/// Per-job slice of the fleet report.
struct JobReport {
  int id = -1;
  std::string name;
  JobState state = JobState::Queued;
  int priority = 0;
  std::string algorithm;
  index_t m = 0;
  index_t n = 0;
  index_t blocksize = 0;
  double predicted_seconds = 0;
  bytes_t predicted_peak_bytes = 0;
  /// Rejection reason or the final error of a failed job.
  std::string failure;
  int attempts = 0;    ///< dispatches (1 + preemption resumes + retries)
  int preemptions = 0; ///< checkpoint-boundary yields to higher priority
  int retries = 0;     ///< fault-triggered restarts from the last checkpoint
  int migrations = 0;  ///< re-admissions onto a survivor after device loss
  int last_device = -1;
  /// Simulated time spent ready-but-waiting, summed over every queueing
  /// episode: each dispatch charges the gap between the instant the job
  /// became ready (arrival release, preemption park, or retry requeue) and
  /// the dispatching device's availability bound. Deterministic — two runs
  /// of the same batch report identical waits.
  double queue_wait_seconds = 0;
  /// deadline_seconds == 0, or the job completed within it (device time).
  bool deadline_met = true;
  /// Device-time statistics summed over the job's attempt trace windows:
  /// total_seconds is the simulated device time consumed (including work a
  /// preemption or retry discarded), not a single contiguous span.
  qr::QrStats stats;
};

/// Batch outcome: every job plus the fleet-wide aggregate.
struct FleetReport {
  int devices = 0;
  /// Whole-run trace statistics per device, in device order.
  std::vector<qr::QrStats> per_device;
  /// qr::combine_device_stats over per_device: sums plus the global span.
  qr::QrStats fleet;
  /// Fleet makespan == fleet.total_seconds (the global trace span).
  double makespan_seconds = 0;
  std::int64_t jobs_admitted = 0;
  std::int64_t jobs_rejected = 0;
  std::int64_t jobs_completed = 0;
  std::int64_t jobs_failed = 0;
  std::int64_t jobs_preempted = 0; ///< preemption events (not distinct jobs)
  std::int64_t job_retries = 0;
  std::int64_t units_completed = 0; ///< fleet-wide panel units
  /// Fleet-health outcome (docs/SERVING.md "Fleet failover & load shedding"):
  /// devices declared Dead during the run, checkpoint-driven job migrations
  /// onto survivors, and deadline jobs shed because the shrunken fleet's
  /// re-quote could no longer meet them.
  int devices_lost = 0;
  std::int64_t jobs_migrated = 0; ///< migration events (not distinct jobs)
  std::int64_t jobs_shed = 0;
  /// Final health of each device, in device order: "healthy", "suspect"
  /// or "dead".
  std::vector<std::string> device_health;
  /// Exact simulated queue wait of every dispatch (one entry per attempt,
  /// in dispatch order). The `serve.queue_wait_us` telemetry histogram
  /// quantizes the same waits into power-of-two buckets for live export;
  /// tail percentiles computed there are off by up to 2x, so reports use
  /// this exact record instead (docs/TELEMETRY.md).
  std::vector<double> queue_waits;
  /// Nearest-rank percentiles over `queue_waits` (0 when no dispatches).
  double queue_wait_p50 = 0;
  double queue_wait_p95 = 0;
  double queue_wait_p99 = 0;
  std::vector<JobReport> jobs;      ///< in submission order
};

} // namespace rocqr::serve
