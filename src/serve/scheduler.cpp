#include "serve/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <thread>

#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "qr/factorize.hpp"
#include "qr/tiled_qr.hpp"
#include "sim/faults.hpp"
#include "sim/trace_export.hpp"

namespace rocqr::serve {

const char* to_string(JobState s) {
  switch (s) {
  case JobState::Rejected: return "rejected";
  case JobState::Queued: return "queued";
  case JobState::Running: return "running";
  case JobState::Preempted: return "preempted";
  case JobState::Completed: return "completed";
  case JobState::Failed: return "failed";
  case JobState::Shed: return "shed";
  }
  return "?";
}

const char* to_string(DeviceHealth h) {
  switch (h) {
  case DeviceHealth::Healthy: return "healthy";
  case DeviceHealth::Suspect: return "suspect";
  case DeviceHealth::Dead: return "dead";
  }
  return "?";
}

namespace {

/// A metric name as a template argument, so that every name gets its own
/// function-local static in counter() below.
template <size_t N>
struct MetricName {
  constexpr MetricName(const char (&name)[N]) { std::copy_n(name, N, text); }
  char text[N];
};

/// The counter `Name`, resolved on its first use and held after that: a
/// registry lookup is a map walk under a mutex, and reset() keeps the
/// object.
template <MetricName Name>
telemetry::Counter& counter() {
  static telemetry::Counter& c =
      telemetry::MetricsRegistry::global().counter(Name.text);
  return c;
}

/// Algorithms the colocation packer may fuse into one task graph:
/// single-device node programs of qr::detail::run_batch. Recursive jobs
/// keep whole-device ownership, TSQR gangs the whole fleet.
bool colocatable_algorithm(const std::string& algorithm) {
  return algorithm == "tiled" || algorithm == "blocking" ||
         algorithm == "left";
}

/// Folds one attempt's trace window into the job's running total. The
/// busy/volume fields sum; total_seconds accumulates the attempt spans
/// (device time consumed, including work a preemption discarded) rather
/// than re-deriving last_end - first_start across attempts, which would
/// count the queued gaps between them.
void accumulate_stats(qr::QrStats& into, const qr::QrStats& s) {
  qr::merge_stats(into, s);
  into.total_seconds += s.total_seconds;
}

} // namespace

struct Scheduler::Job {
  JobSpec spec;
  int id = 0;
  /// "j<id>.": the prefix of the job's op names and buffer labels in a
  /// colocated dispatch, which attributes the shared trace window.
  sim::OpName label() const { return sim::op_name("j", id, "."); }
  JobState state = JobState::Queued;
  /// Gang-scheduled: acquires the whole fleet atomically (algorithm "tsqr").
  bool gang = false;
  index_t blocksize = 0;
  double predicted_seconds = 0;
  bytes_t predicted_peak_bytes = 0;
  std::string failure;
  int attempts = 0;
  int preemptions = 0;
  int retries = 0;
  int migrations = 0;
  int last_device = -1;
  /// Arrival gate opened (arrival_after_units reached).
  bool arrived = false;
  /// Set under the scheduler mutex; the job's sink observes it at its next
  /// checkpoint write and unwinds the attempt.
  bool preempt_requested = false;
  bool has_checkpoint = false;
  /// Latest consistent state: the initial snapshot before the first
  /// dispatch, then every checkpoint the driver writes. All attempts start
  /// from here via qr::resume (or, colocated and fused, a batch with
  /// resume_units).
  qr::Checkpoint checkpoint;
  qr::QrStats stats{};
  double queue_wait_seconds = 0;
  /// Simulated instant the job last became ready (arrival release,
  /// preemption park, retry requeue, or migration) — the fleet's latest
  /// published availability bound at that moment. Dispatch charges
  /// max(0, device bound - ready_sim) as the queueing episode's exact wait.
  double ready_sim = 0;

  bool ready() const {
    return (state == JobState::Queued && arrived) ||
           state == JobState::Preempted;
  }
  /// The ready index's order: higher priority first, then earliest
  /// deadline (none last), then submission order.
  static bool picks_before(const Job* a, const Job* b) {
    if (a->spec.priority != b->spec.priority) {
      return a->spec.priority > b->spec.priority;
    }
    const double da = a->deadline_key();
    const double db = b->deadline_key();
    if (da != db) return da < db;
    return a->id < b->id;
  }
  static bool submitted_before(const Job* a, const Job* b) {
    return a->id < b->id;
  }
  double deadline_key() const {
    return spec.deadline_seconds > 0 ? spec.deadline_seconds
                                     : std::numeric_limits<double>::infinity();
  }
  index_t units_done() const {
    return has_checkpoint ? checkpoint.units_done : 0;
  }
  /// run_fused_batch's contract: deadline- and abft-free "blocking" jobs
  /// (the batched GEMM carries no per-job checksum) of one shape,
  /// blocksize, precision, panel options and checkpoint position.
  bool fuses_with(const Job& o) const {
    return spec.algorithm == "blocking" && o.spec.algorithm == "blocking" &&
           spec.deadline_seconds <= 0 && o.spec.deadline_seconds <= 0 &&
           !spec.options.abft && !o.spec.options.abft && spec.m == o.spec.m &&
           spec.n == o.spec.n && blocksize == o.blocksize &&
           spec.precision == o.spec.precision &&
           spec.options.panel_algorithm == o.spec.options.panel_algorithm &&
           spec.options.panel_base == o.spec.options.panel_base &&
           units_done() == o.units_done();
  }
  /// run_batch's contract: single-device node programs (tiled, blocking or
  /// left, mixed freely) of one precision — the graph-level knobs come
  /// from one options set. Deadline jobs keep a dedicated device: their
  /// admission prediction assumed one.
  bool colocates_with(const Job& o) const {
    return colocatable_algorithm(spec.algorithm) &&
           colocatable_algorithm(o.spec.algorithm) &&
           spec.deadline_seconds <= 0 && o.spec.deadline_seconds <= 0 &&
           spec.precision == o.spec.precision;
  }
};

namespace {

/// Inserts `job` into `index`, which `before` keeps sorted.
template <typename T, typename Before>
void index_insert(std::vector<T*>& index, T* job, Before before) {
  index.insert(std::upper_bound(index.begin(), index.end(), job, before), job);
}

/// Removes `job` from `index`, which `before` keeps sorted.
template <typename T, typename Before>
void index_erase(std::vector<T*>& index, T* job, Before before) {
  const auto it = std::lower_bound(index.begin(), index.end(), job, before);
  ROCQR_CHECK(it != index.end() && *it == job,
              "serve::Scheduler: a job is missing from a decision index");
  index.erase(it);
}

} // namespace

/// Per-attempt checkpoint sink: records progress on the job and doubles as
/// the preemption point (the only place an attempt can safely unwind — the
/// driver has just synchronized the device and the snapshot is a consistent
/// prefix).
class Scheduler::PreemptSink : public qr::CheckpointSink {
 public:
  PreemptSink(Scheduler& sched, Dispatch& dispatch, Job& job)
      : sched_(sched), dispatch_(dispatch), job_(job) {}
  void write(const qr::Checkpoint& cp) override {
    sched_.on_unit_completed(dispatch_, job_, cp);
  }

 private:
  Scheduler& sched_;
  Dispatch& dispatch_;
  Job& job_;
};

Scheduler::Scheduler(ServeConfig cfg) : cfg_(std::move(cfg)) {
  admission_.spec = cfg_.spec;
  admission_.devices = cfg_.devices;
  admission_.shared_link = cfg_.shared_link;
  admission_.checkpoint_every = cfg_.checkpoint_every;
  admission_.memory_fraction = cfg_.admission_memory_fraction;
  admission_.paper_calibration = cfg_.paper_calibration;
  ROCQR_CHECK(cfg_.devices >= 1, "serve::Scheduler: need at least 1 device");
  ROCQR_CHECK(cfg_.checkpoint_every >= 1,
              "serve::Scheduler: checkpoint_every must be >= 1");
  ROCQR_CHECK(cfg_.max_job_retries >= 0,
              "serve::Scheduler: max_job_retries must be >= 0");
  ROCQR_CHECK(cfg_.admission_memory_fraction > 0 &&
                  cfg_.admission_memory_fraction <= 1.0,
              "serve::Scheduler: admission_memory_fraction must be in (0,1]");
  ROCQR_CHECK(cfg_.max_colocated_jobs >= 1,
              "serve::Scheduler: max_colocated_jobs must be >= 1");
  ROCQR_CHECK(cfg_.max_fused_jobs >= 1,
              "serve::Scheduler: max_fused_jobs must be >= 1");
  ROCQR_CHECK(cfg_.watchdog_timeout >= 0,
              "serve::Scheduler: watchdog_timeout must be >= 0");
  ROCQR_CHECK(cfg_.device_failure_threshold >= 1,
              "serve::Scheduler: device_failure_threshold must be >= 1");
}

Scheduler::~Scheduler() = default;

AdmissionDecision Scheduler::submit(const JobSpec& spec) {
  AdmissionDecision d;
  std::optional<QuoteKey> key = quote_key(spec, admission_, &d.reason);
  std::optional<Quote> fresh;
  if (key) {
    const Quote* quote = nullptr;
    {
      std::lock_guard<std::mutex> lk(mutex_);
      const auto it = quotes_.find(*key);
      if (it != quotes_.end()) quote = &it->second;
    }
    if (quote == nullptr) {
      // A miss dry-runs outside the lock: other submitters and the workers'
      // re-quotes are not held up by it.
      fresh = dry_run(*key, admission_);
      counter<"serve.admission_dry_runs">().increment();
      quote = &*fresh;
    }
    d = decide(spec, *quote, admission_);
  }

  if (d.admitted && cfg_.mode == sim::ExecutionMode::Real) {
    if (spec.a.data == nullptr || spec.r.data == nullptr) {
      d.admitted = false;
      d.reason = "a Real-mode fleet needs host A and R buffers on the job";
    } else if (spec.a.rows != spec.m || spec.a.cols != spec.n ||
               spec.r.rows != spec.n || spec.r.cols != spec.n) {
      d.admitted = false;
      d.reason = "host buffer shapes do not match the job's m x n";
    }
  }

  std::lock_guard<std::mutex> lk(mutex_);
  ROCQR_CHECK(!ran_, "serve::Scheduler: submit after run()");
  // A racing submit of the same key may have stored an equal quote first.
  if (fresh) quotes_.try_emplace(std::move(*key), std::move(*fresh));
  auto job = std::make_unique<Job>();
  job->spec = spec;
  job->gang = spec.algorithm == "tsqr";
  job->id = static_cast<int>(jobs_.size());
  d.job_id = job->id;
  if (d.admitted) {
    job->state = JobState::Queued;
    job->blocksize = d.blocksize;
    job->predicted_seconds = d.predicted_seconds;
    job->predicted_peak_bytes = d.predicted_peak_bytes;
    counter<"serve.jobs_admitted">().increment();
  } else {
    job->state = JobState::Rejected;
    job->failure = d.reason;
    counter<"serve.jobs_rejected">().increment();
  }
  jobs_.push_back(std::move(job));
  return d;
}

FleetReport Scheduler::run() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    ROCQR_CHECK(!ran_, "serve::Scheduler: run() is single-shot");
    ran_ = true;
  }

  auto link = cfg_.shared_link ? std::make_shared<sim::SharedHostLink>()
                               : std::shared_ptr<sim::SharedHostLink>();
  for (int i = 0; i < cfg_.devices; ++i) {
    devices_.push_back(
        std::make_unique<sim::Device>(cfg_.spec, cfg_.mode, link));
    if (cfg_.paper_calibration) {
      devices_.back()->model().install_paper_calibration();
    }
    if (static_cast<size_t>(i) < cfg_.device_faults.size() &&
        !cfg_.device_faults[static_cast<size_t>(i)].empty()) {
      devices_.back()->install_faults(
          sim::FaultPlan::parse(cfg_.device_faults[static_cast<size_t>(i)]));
    }
  }

  {
    std::lock_guard<std::mutex> lk(mutex_);
    device_avail_.assign(static_cast<size_t>(cfg_.devices), 0.0);
    device_busy_.assign(static_cast<size_t>(cfg_.devices), 0);
    device_health_.assign(static_cast<size_t>(cfg_.devices),
                          DeviceHealth::Healthy);
    device_failures_.assign(static_cast<size_t>(cfg_.devices), 0);
    // Every admitted job waits at its arrival gate: the cursor walks them
    // in (gate, id) order.
    for (const auto& job : jobs_) {
      if (job->state == JobState::Queued) arrivals_.push_back(job.get());
    }
    std::stable_sort(arrivals_.begin(), arrivals_.end(),
                     [](const Job* a, const Job* b) {
                       return a->spec.arrival_after_units <
                              b->spec.arrival_after_units;
                     });
    release_arrivals_locked();
  }
  if (!arrivals_.empty()) {
    // One worker per device, whatever the host's core count: only the
    // baton holder runs, so the threads are stacks for the parked drivers,
    // and a Real-mode holder's kernels use ThreadPool::global(). The
    // calling thread is device 0's worker rather than idling in join(), so
    // its heap recycles what device 0's dispatches free for the caller's
    // next allocations (with every worker on a new thread, perfbench
    // serve_mix setup_s rose 20-40% in two pairs); the others are plain
    // threads.
    workers_ = std::vector<Worker>(static_cast<size_t>(cfg_.devices));
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(cfg_.devices - 1));
    try {
      for (int w = 1; w < cfg_.devices; ++w) {
        threads.emplace_back([this, w] { worker(w); });
      }
      // The first decision: every device is idle at 0, so the least one
      // with a dispatchable job takes the baton.
      std::lock_guard<std::mutex> lk(mutex_);
      hand_on_locked();
    } catch (...) {
      std::lock_guard<std::mutex> lk(mutex_);
      if (!error_) error_ = std::current_exception();
      end_loop_locked();
    }
    worker(0);
    for (std::thread& t : threads) t.join();
    if (error_) std::rethrow_exception(error_);
  }
  return build_report();
}

double Scheduler::sim_now_locked() const {
  double now = 0;
  for (int e = 0; e < cfg_.devices; ++e) {
    const auto eu = static_cast<size_t>(e);
    if (device_health_[eu] == DeviceHealth::Dead) continue;
    now = std::max(now, device_avail_[eu]);
  }
  return now;
}

void Scheduler::release_arrivals_locked() {
  const double now = sim_now_locked();
  for (; next_arrival_ < arrivals_.size(); ++next_arrival_) {
    Job& job = *arrivals_[next_arrival_];
    if (job.spec.arrival_after_units > fleet_units_) return;
    // A job shed or stranded behind its gate has left the queue.
    if (job.state != JobState::Queued || job.arrived) continue;
    set_state_locked(job, JobState::Queued, true);
    job.ready_sim = now;
  }
}

bool Scheduler::force_earliest_arrival_locked() {
  while (next_arrival_ < arrivals_.size()) {
    Job& job = *arrivals_[next_arrival_++];
    if (job.state != JobState::Queued || job.arrived) continue;
    set_state_locked(job, JobState::Queued, true);
    job.ready_sim = sim_now_locked();
    return true;
  }
  return false;
}

Scheduler::Job* Scheduler::pick_locked() const {
  return ready_.empty() ? nullptr : ready_.front();
}

void Scheduler::set_state_locked(Job& job, JobState state, bool arrived) {
  const bool was_ready = job.ready();
  const bool was_running = job.state == JobState::Running;
  job.state = state;
  job.arrived = arrived;
  if (job.ready() != was_ready) {
    if (was_ready) {
      index_erase(ready_, &job, Job::picks_before);
      index_erase(ready_by_id_, &job, Job::submitted_before);
    } else {
      index_insert(ready_, &job, Job::picks_before);
      index_insert(ready_by_id_, &job, Job::submitted_before);
    }
  }
  const bool running = state == JobState::Running;
  if (running != was_running) {
    if (was_running) {
      index_erase(running_jobs_, &job, Job::submitted_before);
    } else {
      index_insert(running_jobs_, &job, Job::submitted_before);
    }
  }
}

Scheduler::Job* Scheduler::dispatchable_locked() const {
  // The job an idle worker could legally start right now. A gang top pick
  // drains the fleet: until every device is idle nothing dispatches — not
  // the gang (it needs all devices) and not lower-priority backfill (which
  // would starve it).
  Job* top = pick_locked();
  if (top == nullptr) return nullptr;
  if (top->gang && running_ > 0) return nullptr;
  return top;
}

int Scheduler::next_actor_locked() const {
  // Every dispatch but the holder's is parked at a checkpoint, so the
  // actors are the parked workers and the idle devices. An idle device
  // acts only while a job is dispatchable, not merely ready: while a gang
  // pick drains the fleet, idle devices cannot act. A dead device never
  // acts again. Scanning in device order with a strict `<` breaks ties
  // toward the lower index.
  int next = -1;
  double least = 0;
  std::optional<bool> dispatchable;
  for (int e = 0; e < cfg_.devices; ++e) {
    const auto eu = static_cast<size_t>(e);
    double bound = 0;
    if (workers_[eu].parked) {
      bound = *workers_[eu].parked;
    } else if (device_busy_[eu] == 0 &&
               device_health_[eu] != DeviceHealth::Dead) {
      if (!dispatchable) dispatchable = dispatchable_locked() != nullptr;
      if (!*dispatchable) continue;
      bound = device_avail_[eu];
    } else {
      continue;
    }
    if (next < 0 || bound < least) {
      next = e;
      least = bound;
    }
  }
  return next;
}

void Scheduler::hand_on_locked() {
  for (;;) {
    const int next = next_actor_locked();
    if (next >= 0) {
      if (next != baton_) {
        baton_ = next;
        workers_[static_cast<size_t>(next)].turn.notify_one();
      }
      return;
    }
    // No actor: nothing runs (a running dispatch would be parked, hence an
    // actor) and nothing is dispatchable. Jobs still pending can only be
    // behind arrival gates that no completing unit will open, so force the
    // earliest gate and decide again; with none left the batch is done.
    if (running_ == 0 && force_earliest_arrival_locked()) continue;
    end_loop_locked();
    return;
  }
}

void Scheduler::end_loop_locked() {
  done_ = true;
  for (Worker& w : workers_) w.turn.notify_one();
}

int Scheduler::alive_devices_locked() const {
  int alive = 0;
  for (const DeviceHealth h : device_health_) {
    alive += h != DeviceHealth::Dead;
  }
  return alive;
}

bool Scheduler::note_device_failure_locked(int device_index) {
  const auto du = static_cast<size_t>(device_index);
  if (device_health_[du] == DeviceHealth::Dead) return false;
  if (++device_failures_[du] >= cfg_.device_failure_threshold) {
    return declare_dead_locked(device_index);
  }
  device_health_[du] = DeviceHealth::Suspect;
  return false;
}

void Scheduler::note_device_success_locked(int device_index) {
  const auto du = static_cast<size_t>(device_index);
  if (device_health_[du] == DeviceHealth::Dead) return;
  device_failures_[du] = 0;
  device_health_[du] = DeviceHealth::Healthy;
}

bool Scheduler::declare_dead_locked(int device_index) {
  const auto du = static_cast<size_t>(device_index);
  if (device_health_[du] == DeviceHealth::Dead) return false;
  device_health_[du] = DeviceHealth::Dead;
  ++devices_lost_;
  counter<"serve.devices_lost">().increment();
  if (alive_devices_locked() == 0) {
    // Nothing left to migrate onto: every non-terminal job is stranded.
    for (const auto& up : jobs_) {
      Job& job = *up;
      if (job.state == JobState::Queued || job.state == JobState::Preempted) {
        set_state_locked(job, JobState::Failed, job.arrived);
        job.failure = "no surviving devices in the fleet";
        counter<"serve.jobs_failed">().increment();
      }
    }
  } else {
    // Graceful degradation: the fleet shrank, so every outstanding deadline
    // job's quote is stale — re-quote now and shed what can no longer make
    // it (better an honest early shed than a missed deadline later).
    requote_outstanding_locked();
  }
  return true;
}

AdmissionDecision Scheduler::requote_locked(const Job& job, int alive) {
  AdmissionConfig acfg = admission_;
  acfg.devices = alive;
  JobSpec pinned = job.spec;
  // A resume must keep the checkpointed panel width — no re-autotuning.
  pinned.blocksize = job.blocksize;
  AdmissionDecision d;
  const std::optional<QuoteKey> key = quote_key(pinned, acfg, &d.reason);
  if (!key) return d;
  auto it = quotes_.find(*key);
  if (it == quotes_.end()) {
    it = quotes_.emplace(*key, dry_run(*key, acfg)).first;
    counter<"serve.admission_dry_runs">().increment();
  }
  return decide(pinned, it->second, acfg);
}

void Scheduler::shed_locked(Job& job, const std::string& reason) {
  set_state_locked(job, JobState::Shed, job.arrived);
  job.preempt_requested = false;
  job.failure = reason;
  ++shed_events_;
  counter<"serve.jobs_shed">().increment();
}

void Scheduler::requote_outstanding_locked() {
  const int alive = alive_devices_locked();
  for (const auto& up : jobs_) {
    Job& job = *up;
    if (job.spec.deadline_seconds <= 0) continue;
    if (job.state != JobState::Queued && job.state != JobState::Preempted) {
      continue;
    }
    const AdmissionDecision d = requote_locked(job, alive);
    if (!d.admitted) {
      shed_locked(job, "load-shed after device loss: " + d.reason);
    } else if (job.stats.total_seconds + d.predicted_seconds >
               job.spec.deadline_seconds) {
      shed_locked(job,
                  "load-shed after device loss: " +
                      std::to_string(job.stats.total_seconds +
                                     d.predicted_seconds) +
                      "s predicted on " + std::to_string(alive) +
                      " surviving device(s) exceeds the " +
                      std::to_string(job.spec.deadline_seconds) + "s deadline");
    } else {
      job.predicted_seconds = d.predicted_seconds;
      job.predicted_peak_bytes = d.predicted_peak_bytes;
    }
  }
}

void Scheduler::migrate_locked(Job& job, const std::string& failure) {
  const int alive = alive_devices_locked();
  if (alive == 0) {
    set_state_locked(job, JobState::Failed, job.arrived);
    job.failure = failure + " (no surviving devices to migrate to)";
    counter<"serve.jobs_failed">().increment();
    return;
  }
  const AdmissionDecision d = requote_locked(job, alive);
  if (!d.admitted) {
    shed_locked(job, "load-shed after device loss: " + d.reason);
    return;
  }
  if (job.spec.deadline_seconds > 0 &&
      job.stats.total_seconds + d.predicted_seconds >
          job.spec.deadline_seconds) {
    shed_locked(job,
                "load-shed after device loss: remaining work no longer fits "
                "the deadline on " +
                    std::to_string(alive) + " surviving device(s)");
    return;
  }
  // Checkpoint-driven migration: requeue from the latest checkpoint. Not a
  // retry — the job did nothing wrong, its device did.
  set_state_locked(job, JobState::Queued, job.arrived);
  job.preempt_requested = false;
  job.predicted_seconds = d.predicted_seconds;
  job.predicted_peak_bytes = d.predicted_peak_bytes;
  job.failure = failure;
  ++job.migrations;
  ++migrate_events_;
  counter<"serve.jobs_migrated">().increment();
  if (job.gang && job.has_checkpoint &&
      job.checkpoint.leaves > job.checkpoint.units_done) {
    // Leaf re-hosting accounting: the leaves not yet factored re-plan onto
    // the survivors when the gang resumes.
    counter<"serve.tsqr_leaves_rehosted">()
        .add(job.checkpoint.leaves - job.checkpoint.units_done);
  }
  job.ready_sim = sim_now_locked();
}

int Scheduler::watchdog_tripped_locked(Dispatch& d) {
  if (cfg_.watchdog_timeout <= 0) return -1;
  for (size_t g = 0; g < d.devices.size(); ++g) {
    const auto& events =
        devices_[static_cast<size_t>(d.devices[g])]->trace().events();
    size_t& from = d.watch_from[g];
    for (; from < events.size(); ++from) {
      if (events[from].end - events[from].start > cfg_.watchdog_timeout) {
        ++from;
        return d.devices[g];
      }
    }
  }
  return -1;
}

void Scheduler::maybe_preempt_locked() {
  if (!cfg_.preemption) return;
  Job* top = pick_locked();
  if (top == nullptr) return;
  if (top->gang) {
    // A gang needs the whole fleet, so even one lower-priority running job
    // blocks it: ask every strictly-lower-priority running job (possibly a
    // running gang) to yield at its next checkpoint. Equal-or-higher
    // priority work finishes first and the drain completes naturally.
    for (Job* job : running_jobs_) {
      if (job->spec.priority < top->spec.priority) {
        job->preempt_requested = true;
      }
    }
    return;
  }
  if (running_ < cfg_.devices) return; // an idle device will take it
  // Victim: a running job of strictly lower priority, preferring the one
  // with the most columns still to factor (least completed work thrown
  // away, and — since its progress is bounded by the fleet's — its next
  // checkpoint cannot be its last, so the yield actually happens).
  Job* victim = nullptr;
  index_t victim_remaining = 0;
  for (Job* job : running_jobs_) {
    if (job->preempt_requested) continue;
    if (job->spec.priority >= top->spec.priority) continue;
    const index_t done =
        job->has_checkpoint ? job->checkpoint.columns_done : 0;
    const index_t remaining = job->spec.n - done;
    if (victim == nullptr || remaining > victim_remaining) {
      victim = job;
      victim_remaining = remaining;
    }
  }
  if (victim != nullptr) victim->preempt_requested = true;
}

void Scheduler::on_unit_completed(Dispatch& d, Job& job,
                                  const qr::Checkpoint& cp) {
  bool unwind = false;
  int wd = -1;
  {
    std::unique_lock<std::mutex> lk(mutex_);
    // The driver synchronized before checkpointing, so each trace end is
    // that device's simulated "now". Publish the new bounds first (arrivals
    // released before our turn read them), then park at the latest one and
    // wait for our turn in global simulated-time order before acting on
    // the event.
    double t = 0;
    for (const int e : d.devices) {
      const auto eu = static_cast<size_t>(e);
      device_avail_[eu] =
          std::max(device_avail_[eu], devices_[eu]->trace().makespan());
      t = std::max(t, device_avail_[eu]);
    }
    // The sink contract requires a copy (the driver reuses its buffers).
    // Assigning into the job's checkpoint reuses the previous snapshot's
    // storage instead of allocating a fresh Real-mode copy each unit; only
    // the baton holder runs, so copying under the lock delays no one.
    job.checkpoint = cp;
    job.has_checkpoint = true;
    Worker& self = workers_[static_cast<size_t>(d.worker)];
    self.parked = t;
    hand_on_locked();
    self.turn.wait(lk, [&] { return baton_ == d.worker || done_; });
    self.parked.reset();
    if (done_) throw LoopEnded{};
    ++fleet_units_;
    release_arrivals_locked();
    maybe_preempt_locked();
    // Never yield on the final checkpoint: the factorization is complete,
    // preempting would only discard a finished job. (tsqr checkpoints are
    // per-leaf with columns_done == 0, so a gang always yields: the
    // reduction tree and reconstruction sweep still lie ahead.)
    unwind = job.preempt_requested && cp.columns_done < cp.n;
    wd = watchdog_tripped_locked(d);
  }
  counter<"serve.units_completed">().increment();
  // A watchdog trip outranks a preemption: the attempt must unwind as a
  // device failure, not park as resumable-by-priority.
  if (wd >= 0) throw WatchdogTrip{wd};
  if (unwind) throw PreemptRequest{};
}

void Scheduler::worker(int device_index) {
  const auto du = static_cast<size_t>(device_index);
  try {
    // One Dispatch serves every attempt this worker runs. Its buffers are
    // allocated here, before the first turn, so that the thread takes its
    // malloc arena at start (glibc hands a thread an arena at its first
    // allocation, reusing those of exited threads first). The workers thus
    // get the arenas an earlier fleet's threads left, ahead of the
    // ThreadPool::global() threads that the first Real-mode kernel starts.
    // Allocating at the first dispatch instead left those arenas to the
    // pool and grew fresh ones for the workers: perfbench serve_mix's peak
    // RSS read 50-58 MiB instead of 45 (three seeds; glibc 2.36, 4-vCPU
    // VM).
    Dispatch d;
    d.worker = device_index;
    d.devices.reserve(static_cast<size_t>(cfg_.devices));
    d.windows.reserve(static_cast<size_t>(cfg_.devices));
    d.watch_from.reserve(static_cast<size_t>(cfg_.devices));
    std::unique_lock<std::mutex> lk(mutex_);
    for (;;) {
      workers_[du].turn.wait(
          lk, [&] { return baton_ == device_index || done_; });
      if (done_) return;
      // This device's turn as an idle actor: hand_on_locked chose it while
      // a job was dispatchable, and nothing has run since.
      Job* job = dispatchable_locked();
      ROCQR_CHECK(job != nullptr,
                  "serve::Scheduler: an idle device's turn found no job");
      d.kind = DispatchKind::Solo;
      d.members.assign(1, job);
      d.devices.assign(1, device_index);
      if (job->gang) {
        // Atomic acquisition of the surviving fleet: dispatchable_locked
        // only returned the gang with every device idle. Dead devices are
        // excluded — a re-planned gang runs on the survivors.
        d.kind = DispatchKind::Gang;
        d.devices.clear();
        for (int e = 0; e < cfg_.devices; ++e) {
          if (device_health_[static_cast<size_t>(e)] != DeviceHealth::Dead) {
            d.devices.push_back(e);
          }
        }
      } else {
        // Batched small-QR fusion is tried before colocation.
        claim_locked(
            *job, cfg_.max_fused_jobs,
            [job](const Job& x) { return job->fuses_with(x); }, d.members);
        if (d.members.size() > 1) {
          d.kind = DispatchKind::Fused;
        } else {
          claim_locked(
              *job, cfg_.max_colocated_jobs,
              [job](const Job& x) { return job->colocates_with(x); },
              d.members);
          if (d.members.size() > 1) d.kind = DispatchKind::Colocated;
        }
      }
      for (Job* member : d.members) {
        set_state_locked(*member, JobState::Running, member->arrived);
        member->preempt_requested = false;
        ++member->attempts;
        member->last_device = device_index;
        // Exact simulated queue wait of this episode: the dispatching
        // device's availability bound is the dispatch instant. Recorded
        // exactly (FleetReport percentiles) and quantized into the live
        // power-of-two-bucket histogram.
        const double waited =
            std::max(0.0, device_avail_[du] - member->ready_sim);
        member->queue_wait_seconds += waited;
        queue_waits_.push_back(waited);
        static telemetry::Histogram& wait_us =
            telemetry::MetricsRegistry::global().histogram(
                "serve.queue_wait_us");
        wait_us.observe(static_cast<std::int64_t>(waited * 1e6));
      }
      for (const int e : d.devices) device_busy_[static_cast<size_t>(e)] = 1;
      running_ += static_cast<int>(d.devices.size());
      lk.unlock();
      run_dispatch(d);
      lk.lock();
      // The dispatch ended: pass the baton on. A dead device never hosts
      // work again, so its worker retires; the survivors drain the queue,
      // including whatever migrated off this device.
      hand_on_locked();
      if (device_health_[du] == DeviceHealth::Dead) return;
    }
  } catch (const LoopEnded&) {
    // Parked at a checkpoint when another worker's exception ended the
    // loop: the driver has unwound, and run() rethrows that exception.
  } catch (...) {
    std::lock_guard<std::mutex> lk(mutex_);
    if (!error_) error_ = std::current_exception();
    end_loop_locked();
  }
}

void Scheduler::claim_locked(Job& primary, int limit,
                             const std::function<bool(const Job&)>& compatible,
                             std::vector<Job*>& members) const {
  members.assign(1, &primary);
  if (limit <= 1 || !compatible(primary)) return;
  // Pack only while the ready queue outnumbers the idle devices — with a
  // free device per ready job, exclusive ownership is strictly faster. A
  // dead device is not idle capacity.
  auto surplus = static_cast<std::ptrdiff_t>(ready_.size());
  for (size_t e = 0; e < device_busy_.size(); ++e) {
    surplus -= device_busy_[e] == 0 && device_health_[e] != DeviceHealth::Dead
                   ? 1
                   : 0;
  }
  const auto budget = static_cast<bytes_t>(
      cfg_.admission_memory_fraction *
      static_cast<double>(cfg_.spec.memory_capacity));
  bytes_t used = primary.predicted_peak_bytes;
  for (Job* extra : ready_by_id_) {
    if (static_cast<int>(members.size()) >= limit || surplus <= 0) break;
    if (extra == &primary || !compatible(*extra)) continue;
    if (used + extra->predicted_peak_bytes > budget) continue;
    used += extra->predicted_peak_bytes;
    --surplus;
    members.push_back(extra);
  }
}

void Scheduler::run_dispatch(Dispatch& d) {
  std::vector<sim::Device*> fleet;
  for (const int e : d.devices) {
    fleet.push_back(devices_[static_cast<size_t>(e)].get());
  }
  std::vector<qr::detail::BatchJob> jobs;
  std::string names;
  for (const Job* member : d.members) {
    const JobSpec& spec = member->spec;
    jobs.push_back(qr::detail::BatchJob{
        spec.algorithm,
        spec.a.data != nullptr ? spec.a
                               : sim::HostMutRef::phantom(spec.m, spec.n),
        spec.r.data != nullptr ? spec.r
                               : sim::HostMutRef::phantom(spec.n, spec.n),
        spec.options, member->label()});
    names += (names.empty() ? "" : "+") + spec.name;
  }
  // Per-member sinks: each member checkpoints (and can be preempted) under
  // its own identity even when it shares a task graph or batched ops.
  std::vector<std::unique_ptr<PreemptSink>> sinks;
  const bool batched =
      d.kind == DispatchKind::Colocated || d.kind == DispatchKind::Fused;
  qr::Checkpoint start; // qr::resume's starting point (solo and gang)
  {
    std::lock_guard<std::mutex> lk(mutex_);
    d.windows.clear();
    for (const sim::Device* dev : fleet) {
      d.windows.push_back(dev->trace().size());
    }
    d.watch_from = d.windows;
    for (size_t i = 0; i < d.members.size(); ++i) {
      Job& job = *d.members[i];
      // Every attempt — including the first — starts from the job's latest
      // consistent state, so preemption resumes, fault retries and
      // migrations share one path. The unit-0 "checkpoint" snapshots the
      // pristine inputs: a Real-mode retry must not re-factor a
      // half-mutated A.
      if (!job.has_checkpoint) {
        qr::Checkpoint cp0;
        cp0.driver = job.spec.algorithm;
        cp0.m = job.spec.m;
        cp0.n = job.spec.n;
        cp0.blocksize = job.blocksize;
        cp0.columns_done = 0;
        cp0.units_done = 0;
        cp0.a = qr::snapshot_host(jobs[i].a);
        cp0.r = qr::snapshot_host(jobs[i].r);
        job.checkpoint = std::move(cp0);
        job.has_checkpoint = true;
      }
      if (batched) {
        // qr::detail::run_batch and run_fused_batch, unlike qr::resume,
        // take already-restored host data plus resume_units.
        qr::restore_host(jobs[i].a, job.checkpoint.a);
        qr::restore_host(jobs[i].r, job.checkpoint.r);
      } else {
        start = job.checkpoint;
      }
      sinks.push_back(std::make_unique<PreemptSink>(*this, d, job));
      qr::QrOptions& opts = jobs[i].opts;
      opts.blocksize = job.blocksize;
      opts.precision = job.spec.precision;
      opts.checkpoint_sink = sinks.back().get();
      opts.checkpoint_every = cfg_.checkpoint_every;
      opts.resume_units = job.checkpoint.units_done;
    }
  }
  std::string span;
  switch (d.kind) {
  case DispatchKind::Solo:
  case DispatchKind::Gang:
    span = "serve.job " + names + " attempt " +
           std::to_string(d.members.front()->attempts);
    break;
  case DispatchKind::Colocated:
    span = "serve.batch " + names;
    break;
  case DispatchKind::Fused:
    span = "serve.fused " + names;
    break;
  }

  JobState state = JobState::Completed;
  std::string failure;
  AttemptOutcome outcome = AttemptOutcome::Clean;
  int struck = -1;
  try {
    std::vector<std::unique_ptr<sim::TraceSpan>> spans;
    for (const sim::Device* dev : fleet) {
      spans.push_back(std::make_unique<sim::TraceSpan>(*dev, span));
    }
    switch (d.kind) {
    case DispatchKind::Solo:
    case DispatchKind::Gang:
      qr::resume(qr::QrProblem{fleet, jobs[0].a, jobs[0].r,
                               *qr::parse_algorithm(jobs[0].algorithm),
                               jobs[0].opts},
                 start);
      break;
    case DispatchKind::Colocated:
      qr::detail::run_batch(*fleet[0], jobs);
      break;
    case DispatchKind::Fused:
      qr::detail::run_fused_batch(*fleet[0], jobs);
      break;
    }
  } catch (const PreemptRequest&) {
    // A member's sink threw right after a checkpoint write; RAII unwound
    // every driver allocation. Every member requeues from its own latest
    // checkpoint — one that had already finished resumes into a no-op.
    state = JobState::Preempted;
  } catch (const WatchdogTrip& w) {
    state = JobState::Queued;
    failure = "watchdog: an operation exceeded the " +
              std::to_string(cfg_.watchdog_timeout) + "s simulated timeout";
    outcome = AttemptOutcome::DeviceFailure;
    struck = w.device;
  } catch (const Error& e) {
    // A dead device makes this a device loss. Otherwise the dispatch's
    // only device takes the strike; a gang's error is unattributable.
    state = JobState::Queued;
    failure = e.what();
    outcome = AttemptOutcome::DeviceFailure;
    struck = d.kind == DispatchKind::Gang ? -1 : d.devices.front();
    for (size_t g = 0; g < fleet.size(); ++g) {
      if (fleet[g]->dead()) {
        outcome = AttemptOutcome::DeviceLoss;
        struck = d.devices[g];
        break;
      }
    }
  }
  // Dead-device RAII contract: free/synchronize stay usable after a fatal
  // fault, so this unwind leaks nothing even on a lost device.
  if (state != JobState::Completed) sim::synchronize_all(fleet);
  finish_dispatch(d, state, failure, outcome, struck);
}

void Scheduler::finish_dispatch(const Dispatch& d, JobState state,
                                const std::string& failure,
                                AttemptOutcome outcome, int struck_device) {
  std::lock_guard<std::mutex> lk(mutex_);
  std::vector<qr::QrStats> per_device;
  // A colocated window is attributed in one pass: the device total (the
  // empty prefix), then member i's share (its "j<id>." op-name prefix) at
  // colocated[i + 1].
  std::vector<qr::QrStats> colocated;
  if (d.kind == DispatchKind::Colocated) {
    const sim::Device& dev = *devices_[static_cast<size_t>(d.devices[0])];
    std::vector<sim::OpName> labels;
    labels.reserve(d.members.size());
    for (const Job* member : d.members) labels.push_back(member->label());
    std::vector<std::string_view> prefixes(1);
    prefixes.insert(prefixes.end(), labels.begin(), labels.end());
    colocated = qr::stats_by_prefix(dev.trace(), d.windows[0],
                                    dev.memory_peak(), prefixes);
    per_device.push_back(colocated[0]);
  } else {
    for (size_t g = 0; g < d.devices.size(); ++g) {
      const sim::Device& dev = *devices_[static_cast<size_t>(d.devices[g])];
      per_device.push_back(
          qr::stats_from_trace(dev.trace(), d.windows[g], dev.memory_peak()));
    }
  }
  // Per-member attribution: a solo job takes its whole window, a gang its
  // per-device windows rolled up, a colocated member its share of the
  // shared window, and a fused member an even 1/K split (the batched ops
  // carry no per-job prefix).
  for (size_t i = 0; i < d.members.size(); ++i) {
    Job* member = d.members[i];
    switch (d.kind) {
    case DispatchKind::Solo:
      accumulate_stats(member->stats, per_device[0]);
      break;
    case DispatchKind::Gang:
      accumulate_stats(member->stats, qr::combine_device_stats(per_device));
      break;
    case DispatchKind::Colocated:
      accumulate_stats(member->stats, colocated[i + 1]);
      break;
    case DispatchKind::Fused:
      accumulate_stats(member->stats, qr::detail::split_fused_stats(
                                          per_device[0], d.members.size()));
      break;
    }
  }
  for (size_t g = 0; g < d.devices.size(); ++g) {
    const auto e = static_cast<size_t>(d.devices[g]);
    if (per_device[g].events > 0) {
      device_avail_[e] = std::max(device_avail_[e], per_device[g].last_end);
    }
    device_busy_[e] = 0;
  }
  running_ -= static_cast<int>(d.devices.size());
  bool newly_dead = false;
  switch (outcome) {
  case AttemptOutcome::DeviceLoss:
    newly_dead = declare_dead_locked(struck_device);
    break;
  case AttemptOutcome::DeviceFailure:
    if (struck_device >= 0) {
      newly_dead = note_device_failure_locked(struck_device);
    }
    break;
  case AttemptOutcome::Clean:
    for (const int e : d.devices) note_device_success_locked(e);
    break;
  }
  for (Job* member : d.members) {
    if (newly_dead && state != JobState::Completed &&
        state != JobState::Preempted) {
      // The device died under this dispatch: every member migrates
      // (re-quote + requeue from its latest checkpoint), not a retry. A
      // gang's checkpoint pins its leaf layout, so on the survivors it
      // reproduces the clean result bit for bit.
      migrate_locked(*member, failure);
    } else {
      record_outcome_locked(*member, state, failure);
    }
  }
}

void Scheduler::record_outcome_locked(Job& job, JobState state,
                                      const std::string& failure) {
  // A fault retry past the cap fails the job instead.
  if (state == JobState::Queued && job.retries >= cfg_.max_job_retries) {
    state = JobState::Failed;
  }
  set_state_locked(job, state, job.arrived);
  job.preempt_requested = false;
  switch (state) {
  case JobState::Completed:
    counter<"serve.jobs_completed">().increment();
    break;
  case JobState::Preempted:
    ++job.preemptions;
    ++preempt_events_;
    counter<"serve.jobs_preempted">().increment();
    job.ready_sim = sim_now_locked();
    break;
  case JobState::Queued: // fault retry
    ++job.retries;
    ++retry_events_;
    counter<"serve.job_retries">().increment();
    job.failure = failure; // latest error; cleared on completion
    job.ready_sim = sim_now_locked();
    break;
  default:
    job.failure = failure;
    counter<"serve.jobs_failed">().increment();
    break;
  }
  if (state == JobState::Completed) job.failure.clear();
}

FleetReport Scheduler::build_report() {
  FleetReport rep;
  rep.devices = cfg_.devices;
  for (const auto& dev : devices_) {
    rep.per_device.push_back(
        qr::stats_from_trace(dev->trace(), 0, dev->memory_peak()));
  }
  rep.fleet = qr::combine_device_stats(rep.per_device);
  rep.makespan_seconds = rep.fleet.total_seconds;
  rep.units_completed = fleet_units_;
  rep.jobs_preempted = preempt_events_;
  rep.job_retries = retry_events_;
  rep.devices_lost = devices_lost_;
  rep.jobs_migrated = migrate_events_;
  rep.jobs_shed = shed_events_;
  for (const DeviceHealth h : device_health_) {
    rep.device_health.emplace_back(to_string(h));
  }
  // Exact tail latency from the per-dispatch record (nearest-rank): the
  // telemetry histogram's power-of-two buckets would be off by up to 2x.
  rep.queue_waits = queue_waits_;
  if (!queue_waits_.empty()) {
    std::vector<double> sorted = queue_waits_;
    std::sort(sorted.begin(), sorted.end());
    const auto pct = [&sorted](double p) {
      const auto rank = static_cast<size_t>(
          std::ceil(p * static_cast<double>(sorted.size())));
      return sorted[std::max<size_t>(rank, 1) - 1];
    };
    rep.queue_wait_p50 = pct(0.50);
    rep.queue_wait_p95 = pct(0.95);
    rep.queue_wait_p99 = pct(0.99);
  }
  for (const auto& up : jobs_) {
    const Job& job = *up;
    JobReport jr;
    jr.id = job.id;
    jr.name = job.spec.name;
    jr.state = job.state;
    jr.priority = job.spec.priority;
    jr.algorithm = job.spec.algorithm;
    jr.m = job.spec.m;
    jr.n = job.spec.n;
    jr.blocksize = job.blocksize;
    jr.predicted_seconds = job.predicted_seconds;
    jr.predicted_peak_bytes = job.predicted_peak_bytes;
    jr.failure = job.failure;
    jr.attempts = job.attempts;
    jr.preemptions = job.preemptions;
    jr.retries = job.retries;
    jr.migrations = job.migrations;
    jr.last_device = job.last_device;
    jr.queue_wait_seconds = job.queue_wait_seconds;
    jr.deadline_met =
        job.spec.deadline_seconds <= 0 ||
        (job.state == JobState::Completed &&
         job.stats.total_seconds <= job.spec.deadline_seconds);
    jr.stats = job.stats;
    rep.jobs.push_back(std::move(jr));
    switch (job.state) {
    case JobState::Rejected: ++rep.jobs_rejected; break;
    case JobState::Completed:
      ++rep.jobs_admitted;
      ++rep.jobs_completed;
      break;
    case JobState::Failed:
      ++rep.jobs_admitted;
      ++rep.jobs_failed;
      break;
    default: ++rep.jobs_admitted; break;
    }
  }
  return rep;
}

} // namespace rocqr::serve
