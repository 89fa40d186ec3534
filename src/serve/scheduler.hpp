// Multi-job QR service scheduler over a simulated device fleet
// (docs/SERVING.md).
//
// The Scheduler owns N sim::Devices (optionally behind one SharedHostLink) and
// drives a batch of admitted JobSpecs to completion from one simulated-time
// event loop. Each device has a worker thread, but exactly one worker runs at a
// time: the one holding the baton. It runs its dispatch up to the next decision
// point (a checkpoint, or the end of the dispatch) and there hands the baton to
// the actor with the least (simulated availability bound, device index) — a
// dispatch parked at a checkpoint, or an idle device while a job is
// dispatchable — waking only that worker. The threads exist to give each
// synchronous driver a stack to park on between checkpoints; the fleet advances
// in simulated-time order and a run repeats exactly, device for device.
// Dispatch is a priority queue with backfill: the highest-priority ready job
// runs next on the earliest-available device, and jobs whose arrival gate has
// not opened yet are skipped so lower-priority ready work fills the idle
// devices. When every device is busy and a strictly higher-priority job becomes
// ready, the running job with the lowest priority (most remaining columns
// first) is preempted at its next panel checkpoint boundary — the driver's own
// CheckpointSink hook unwinds the attempt, and the job later resumes via
// qr::resume, bit-identical to an uninterrupted run. Faults installed on fleet
// devices are absorbed the same way: a failed attempt retries from the job's
// latest checkpoint up to max_job_retries times.
//
// Every attempt is one *dispatch* of one of four kinds — solo, colocated,
// fused or gang — claimed under the lock, run through one preparation and
// one unwind path, and released by one epilogue that attributes stats per
// kind and requeues, retries, fails or migrates every member. A device
// held by a live dispatch is never claimed by another.
//
// Single-device jobs (algorithms "tiled", "blocking", "left" — mixed freely)
// can be *colocated*: when max_colocated_jobs > 1 and the ready queue
// outnumbers the alive idle devices, a worker that picks such a job also claims
// up to that many further ready deadline-free single-device jobs (same
// precision, combined predicted peaks within the admission budget) and
// dispatches them as ONE task graph via qr::detail::run_batch — each algorithm
// lowers to its own node program, and their move-in / compute / move-out nodes
// interleave on the device's three engines, so one job's transfers overlap
// another's computes (DAG multi-tenancy instead of whole-device ownership).
// Per-job stats come from the shared trace window filtered by each job's
// "j<id>." op-name prefix. A preemption or fault unwinds the whole batch; every
// member requeues from its own latest checkpoint and resumes bit-identically —
// the batch programs' arithmetic matches the solo runs' bit for bit.
//
// Same-shape, same-precision "blocking" jobs go one step further: when
// max_fused_jobs > 1 the dispatcher *fuses* up to that many ready
// deadline-free members into ONE block-diagonal batched node program
// (qr::detail::run_fused_batch) — per panel round a single batched
// move-in, panel kernel, GEMM pair and move-out cover every member, so the
// fixed per-op latencies (link turnaround, kernel launch) are paid once
// per round instead of once per job. Members must also share blocksize,
// panel options and checkpoint position; per-member R (and Q) stays
// bit-identical to a solo run, and a preempted member resumes solo or in
// a different fusion. Fusion is tried before colocation.
//
// Jobs with algorithm "tsqr" are *gang-scheduled*: one job acquires every
// device in the fleet atomically and runs the TSQR driver across them.
// While a gang job is the top pick the fleet drains — idle workers stop
// backfilling lower-priority work (and, with preemption on, every running
// job of strictly lower priority is asked to yield) until the fleet is
// fully idle and the gang dispatches in one step, so backfill can never
// deadlock or starve it, and no worker starts other work on the gang's
// devices while it runs. A running gang checkpoints at leaf-factorization
// boundaries ("tsqr" driver tag), preempts and resumes like any other job,
// and its per-device trace windows roll up through
// qr::combine_device_stats.
//
// Fleet health (docs/SERVING.md "Fleet failover & load shedding"): every device
// carries a Healthy/Suspect/Dead state. A failed attempt marks its device
// Suspect; device_failure_threshold consecutive failures — or a DeviceLost
// error (injected `fatal` fault), or a simulated-clock watchdog trip (an op
// exceeding watchdog_timeout) — declare it Dead. A dead device's worker hands
// the baton on and exits, and its running job is *migrated*: re-quoted through
// the phantom admission path against the surviving fleet and requeued from its
// latest checkpoint (not charged against max_job_retries). A TSQR gang that
// loses a member re-plans on the survivors: the checkpoint pins the leaf
// partition, completed leaves keep their stacked R factors, and only the dead
// member's leaves re-factor (round-robin onto survivors) — the result stays
// bit-identical to an uninterrupted run at that leaf layout. After every fleet
// shrink, outstanding deadline jobs are re-quoted against the remaining
// capacity and the ones that can no longer make their deadline are load-shed
// (JobState::Shed — a distinct terminal state, not a failure).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "qr/checkpoint.hpp"
#include "serve/admission.hpp"
#include "serve/job.hpp"
#include "sim/device.hpp"

namespace rocqr::serve {

struct ServeConfig {
  sim::DeviceSpec spec = sim::DeviceSpec::v100_32gb();
  int devices = 1;
  sim::ExecutionMode mode = sim::ExecutionMode::Phantom;
  /// One PCIe root complex for the whole fleet (host transfers serialize).
  bool shared_link = false;
  bool paper_calibration = true;
  /// Per-device fault plan specs (sim::FaultPlan grammar); "" = clean, and
  /// devices beyond the vector's length are clean.
  std::vector<std::string> device_faults;
  /// Allow checkpoint-boundary preemption of lower-priority running jobs.
  bool preemption = true;
  /// Checkpoint cadence of every attempt (units between sink writes). Also
  /// the preemption latency: a job can only yield at a written checkpoint.
  index_t checkpoint_every = 1;
  /// Fault-triggered restarts per job before it is marked Failed.
  int max_job_retries = 2;
  /// Admission head-room: reject jobs predicted to exceed this fraction of
  /// device memory.
  double admission_memory_fraction = 1.0;
  /// Maximum single-device jobs (tiled/blocking/left) colocated on one
  /// device as a single task graph (DAG multi-tenancy). 1 = every job owns
  /// its device exclusively.
  /// Colocated extras must match the primary's precision and their summed
  /// predicted peaks must fit the admission budget.
  int max_colocated_jobs = 1;
  /// Maximum same-shape "blocking" jobs *fused* into one batched node
  /// program (qr::detail::run_fused_batch): per panel round the fused graph
  /// issues one batched move-in / panel kernel / GEMM pair / move-out
  /// covering all members, so the fixed per-op latencies are paid once per
  /// round instead of once per job — the batched small-QR serving path.
  /// 1 = off. Fused members must share m/n/blocksize/precision/panel
  /// options and checkpoint position, be deadline-free and abft-free, and
  /// their summed predicted peaks must fit the admission budget. Fusion is
  /// tried before colocation; per-member results stay bit-identical to solo
  /// runs (tests/qr_fused_batch_test.cpp).
  int max_fused_jobs = 1;
  /// Per-op watchdog (simulated seconds): at every checkpoint the scheduler
  /// scans the attempt's new trace events and treats any single operation
  /// longer than this as a hang — the attempt unwinds and the offending
  /// device takes a health strike (it need not have *thrown* anything).
  /// 0 = disabled.
  double watchdog_timeout = 0;
  /// Consecutive failed attempts (thrown faults or watchdog trips) on one
  /// device before it is declared Dead. The first strike marks it Suspect;
  /// a successful attempt clears the strikes. A DeviceLost error kills the
  /// device immediately regardless of this threshold.
  int device_failure_threshold = 3;
};

/// Per-device health state driven by the scheduler's failure accounting.
enum class DeviceHealth { Healthy, Suspect, Dead };

const char* to_string(DeviceHealth h);

class Scheduler {
 public:
  explicit Scheduler(ServeConfig cfg);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Admission control: phantom dry run of the job as the fleet would run
  /// it. Admitted jobs are queued for run(); rejected jobs are recorded
  /// (and reported) but never dispatched. Call before run(); safe to call
  /// from several threads. The dry run is memoized per QuoteKey for the
  /// Scheduler's lifetime, so a job whose key was quoted before (by an
  /// earlier submit or a failover re-quote) costs a lookup plus the
  /// per-job checks: the deadline and, on a Real-mode fleet, the host
  /// buffers. A miss dry-runs outside the lock.
  AdmissionDecision submit(const JobSpec& spec);

  /// Builds the fleet and drives every admitted job to a terminal state.
  /// Single-shot: a second call throws InvalidArgument.
  FleetReport run();

  const ServeConfig& config() const { return cfg_; }

  /// The fleet (populated by run(); empty before). Exposed so callers can
  /// export traces or derive their own aggregate views.
  const std::vector<std::unique_ptr<sim::Device>>& devices() const {
    return devices_;
  }

 private:
  struct Job;
  class PreemptSink;
  /// Internal unwind token thrown from the checkpoint sink. Deliberately
  /// not a rocqr::Error so no driver-level recovery path can swallow it.
  struct PreemptRequest {};
  /// Internal unwind token for a watchdog trip (an op exceeded
  /// ServeConfig::watchdog_timeout on `device`). Like PreemptRequest, not a
  /// rocqr::Error so nothing downstream can absorb it.
  struct WatchdogTrip {
    int device = -1;
  };
  /// Internal unwind token for a dispatch parked at a checkpoint when the
  /// loop ends early (another worker threw): its driver unwinds and its
  /// worker exits.
  struct LoopEnded {};
  /// How an attempt ended, for the device-health accounting: Clean resets
  /// the device's strikes, DeviceFailure adds one (Suspect, then Dead at
  /// the threshold), DeviceLoss kills the device outright.
  enum class AttemptOutcome { Clean, DeviceFailure, DeviceLoss };
  /// Solo: one job on one device (qr::resume, the paper-faithful driver).
  /// Colocated: several single-device jobs as one task graph
  /// (qr::detail::run_batch). Fused: same-shape "blocking" jobs as one
  /// batched node program (qr::detail::run_fused_batch). Gang: one TSQR job
  /// across every surviving device (qr::resume).
  enum class DispatchKind { Solo, Colocated, Fused, Gang };
  /// One attempt of its members on its devices: claimed atomically under
  /// the lock, released by finish_dispatch. No other dispatch touches its
  /// devices in between.
  struct Dispatch {
    DispatchKind kind = DispatchKind::Solo;
    /// The worker that runs it: the device whose turn claimed it, which for
    /// a gang need not be devices.front().
    int worker = -1;
    std::vector<Job*> members;
    std::vector<int> devices;
    /// Per device (indexed like `devices`): the trace size at dispatch,
    /// which opens the attempt's stats window, and the watchdog's scan
    /// cursor.
    std::vector<size_t> windows;
    std::vector<size_t> watch_from;
  };

  /// One device's thread: waits for the baton, starts the top pick on its
  /// device, runs it to the end and hands the baton on. Captures the first
  /// exception any worker throws and ends the loop.
  void worker(int device_index);
  /// Sets `members` to `primary` followed by further ready jobs
  /// `compatible` with it, in submission order, up to `limit` members —
  /// only while the ready queue outnumbers the alive idle devices and the
  /// summed predicted peaks fit the admission budget.
  void claim_locked(Job& primary, int limit,
                    const std::function<bool(const Job&)>& compatible,
                    std::vector<Job*>& members) const;
  void run_dispatch(Dispatch& d);
  void finish_dispatch(const Dispatch& d, JobState state,
                       const std::string& failure, AttemptOutcome outcome,
                       int struck_device);
  void record_outcome_locked(Job& job, JobState state,
                             const std::string& failure);
  /// The one place a job's state or arrival gate changes after submit:
  /// moves the job into or out of the ready index and the running set to
  /// match. (The arrival cursor needs no update: it skips jobs that left
  /// the queue while gated.)
  void set_state_locked(Job& job, JobState state, bool arrived);
  void on_unit_completed(Dispatch& d, Job& job, const qr::Checkpoint& cp);
  // --- Fleet health & failover ---------------------------------------------
  int alive_devices_locked() const;
  /// Adds a strike to the device; returns true if it just became Dead.
  bool note_device_failure_locked(int device_index);
  void note_device_success_locked(int device_index);
  /// Marks the device Dead (idempotent; returns true on the transition),
  /// then re-quotes outstanding deadline jobs against the shrunken fleet
  /// and fails stranded work if no device survives.
  bool declare_dead_locked(int device_index);
  /// Phantom re-admission of `job` on `alive` devices with its blocksize
  /// pinned (a resume must keep the checkpointed panel width), through the
  /// quote memo.
  AdmissionDecision requote_locked(const Job& job, int alive);
  void shed_locked(Job& job, const std::string& reason);
  void requote_outstanding_locked();
  /// Requeues a job whose device died: re-quoted onto the survivors, not
  /// charged against max_job_retries; sheds/fails it if no survivor can
  /// take it.
  void migrate_locked(Job& job, const std::string& failure);
  /// Scans the dispatch's new trace events for an op longer than the
  /// watchdog timeout; returns the offending device or -1. Advances the
  /// dispatch's scan cursors.
  int watchdog_tripped_locked(Dispatch& d);
  /// The actor with the least (availability bound, device index), or -1:
  /// a worker parked at a checkpoint (bound: its dispatch's trace end) or
  /// an idle alive device while a job is dispatchable (bound: its
  /// device_avail_).
  int next_actor_locked() const;
  /// Decision point of the baton holder: passes the baton to
  /// next_actor_locked() and wakes only that worker (no hand-off when it
  /// is the holder). With no actor, forces an arrival gate open while
  /// nothing runs, else ends the loop.
  void hand_on_locked();
  /// Ends the loop and wakes every worker so they exit.
  void end_loop_locked();
  /// Latest availability bound published by any alive device — the fleet's
  /// simulated "now" for queue-wait accounting.
  double sim_now_locked() const;
  /// Opens every arrival gate the fleet's completed units have reached.
  void release_arrivals_locked();
  /// Opens the earliest closed gate, if any.
  bool force_earliest_arrival_locked();
  /// The ready job to run next: the front of the ready index.
  Job* pick_locked() const;
  Job* dispatchable_locked() const;
  void maybe_preempt_locked();
  FleetReport build_report();

  ServeConfig cfg_;
  /// Admission's view of cfg_ (the whole fleet; re-quotes copy it with the
  /// survivor count).
  AdmissionConfig admission_;
  std::vector<std::unique_ptr<Job>> jobs_;
  std::vector<std::unique_ptr<sim::Device>> devices_;

  /// Per device: the thread that runs the dispatches this device's turns
  /// claim.
  struct Worker {
    /// Signalled when the baton passes to this worker or the loop ends.
    std::condition_variable turn;
    /// While its dispatch waits at a checkpoint: that checkpoint's bound.
    std::optional<double> parked;
  };

  std::mutex mutex_;
  std::vector<Worker> workers_;
  /// The one worker allowed to run (-1 before the first decision).
  int baton_ = -1;
  bool done_ = false;
  /// The first exception a worker threw; run() rethrows it.
  std::exception_ptr error_;
  /// Simulated-time availability bound per device: exact trace end while
  /// idle, the latest checkpoint's trace end while busy. An idle device's
  /// turn comes when its bound is the least of every actor's.
  std::vector<double> device_avail_;
  std::vector<char> device_busy_;
  index_t fleet_units_ = 0;
  /// Busy devices (a gang counts every device it holds).
  int running_ = 0;
  // Decision indexes, kept in step by set_state_locked, so that no decision
  // scans every job:
  /// The ready index: every Job::ready() job in pick order — higher
  /// priority first, then earliest deadline (none last), then submission.
  std::vector<Job*> ready_;
  /// The same jobs in submission order (claim_locked's member walk).
  std::vector<Job*> ready_by_id_;
  /// The arrival cursor: admitted jobs in (arrival_after_units, id) order.
  /// Every job before next_arrival_ has passed its gate or left the queue.
  std::vector<Job*> arrivals_;
  size_t next_arrival_ = 0;
  /// Running jobs in submission order.
  std::vector<Job*> running_jobs_;
  std::int64_t preempt_events_ = 0;
  std::int64_t retry_events_ = 0;
  /// Exact simulated queue wait of every dispatch, in dispatch order
  /// (FleetReport::queue_waits; exact percentiles come from here, the
  /// telemetry histogram only quantizes).
  std::vector<double> queue_waits_;
  std::vector<DeviceHealth> device_health_;
  /// Consecutive failed attempts per device (reset by a clean attempt).
  std::vector<int> device_failures_;
  int devices_lost_ = 0;
  std::int64_t migrate_events_ = 0;
  std::int64_t shed_events_ = 0;
  /// Admission's dry runs by key (under mutex_): submit() and the failover
  /// re-quotes simulate each distinct job once. Entries are never erased
  /// or changed, so a Quote found under the lock may be read after it.
  std::unordered_map<QuoteKey, Quote, QuoteKeyHash> quotes_;
  bool ran_ = false;
};

} // namespace rocqr::serve
