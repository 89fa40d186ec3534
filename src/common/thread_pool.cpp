#include "common/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/telemetry.hpp"

namespace rocqr {

namespace {

/// Pool occupancy metrics, interned once (the registry lookup is too heavy
/// for the per-round path).
struct PoolMetrics {
  telemetry::Counter& rounds;
  telemetry::Counter& nested_serial_rounds;
  telemetry::Histogram& round_width;

  static PoolMetrics& get() {
    auto& reg = telemetry::MetricsRegistry::global();
    static PoolMetrics* m = new PoolMetrics{
        reg.counter("pool.rounds"), reg.counter("pool.nested_serial_rounds"),
        reg.histogram("pool.round_width")};
    return *m;
  }
};

using SpinClock = std::chrono::steady_clock;

/// How long an idle worker, or a caller joining its round, polls before it
/// parks (see the wake protocol in the header).
constexpr auto kSpinBudget = std::chrono::microseconds(100);
/// A yield() that returns later than this ran another thread on this CPU:
/// the host is oversubscribed. An uncontended yield takes about a
/// microsecond; a contended one, a scheduler time slice (milliseconds).
constexpr auto kStalledYield = std::chrono::microseconds(200);
/// How long every thread parks at once rather than polls after any thread
/// saw a stalled yield. On an oversubscribed CPU the scheduler runs a
/// yielding poller only once per time slice, so every round would wait
/// milliseconds for each poller, while a parked thread is woken and run at
/// once. On a 4-vCPU VM running four CPU-bound processes, a 4096 x 128 fp16
/// panel took 0.8 s with polling alone, 36-38 ms with this rule and 51-52 ms
/// when every round parks.
constexpr auto kParkOnlyAfterStall = std::chrono::milliseconds(50);

/// End of the current park-only period, in SpinClock ticks. Process-wide, so
/// the threads back off together and threads started meanwhile (a new
/// pool's workers) do not each probe the contended CPUs again.
std::atomic<SpinClock::rep> g_park_only_until{0};

/// Polls `ready` until it holds or kSpinBudget has passed, yielding between
/// polls so an oversubscribed host still runs its other threads; in a
/// park-only period, checks once. Returns whether `ready` held; on false the
/// caller parks.
template <class Ready>
bool spin_until(const Ready& ready) {
  auto now = SpinClock::now();
  if (now.time_since_epoch().count() <
      g_park_only_until.load(std::memory_order_relaxed)) {
    return ready();
  }
  const auto deadline = now + kSpinBudget;
  while (!ready()) {
    std::this_thread::yield();
    const auto polled = now;
    now = SpinClock::now();
    if (now - polled > kStalledYield) {
      g_park_only_until.store(
          (now + kParkOnlyAfterStall).time_since_epoch().count(),
          std::memory_order_relaxed);
      return ready();
    }
    if (now >= deadline) return false;
  }
  return true;
}

/// Set while the current thread executes a parallel_for body — on the
/// caller's own chunk as much as on a worker's. Any parallel_for issued with
/// the flag set is nested and must not touch pool state: the outer round
/// owns tasks_/pending_/generation_, and a worker blocking on a second round
/// would deadlock the pool against itself.
thread_local bool tl_in_pool_body = false;

struct BodyRegionGuard {
  bool prev;
  BodyRegionGuard() : prev(tl_in_pool_body) { tl_in_pool_body = true; }
  ~BodyRegionGuard() { tl_in_pool_body = prev; }
};

} // namespace

bool ThreadPool::in_parallel_region() { return tl_in_pool_body; }

bool ThreadPool::oversubscribed() {
  return SpinClock::now().time_since_epoch().count() <
         g_park_only_until.load(std::memory_order_relaxed);
}

ThreadPool::ThreadPool(unsigned threads) {
  unsigned n = threads != 0 ? threads : std::thread::hardware_concurrency();
  if (n == 0) n = 1;
  // The calling thread participates in every parallel_for, so spawn n-1.
  workers_.reserve(n - 1);
  tasks_.resize(n > 1 ? n - 1 : 0);
  for (unsigned i = 0; i + 1 < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_.store(true, std::memory_order_release);
  }
  work_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::parallel_for(index_t n,
                              const std::function<void(index_t, index_t)>& body) {
  if (n <= 0) return;
  const index_t parts = static_cast<index_t>(size());
  // One round at a time: a second host thread submitting concurrently would
  // otherwise race on tasks_/generation_ and strand workers mid-round. A
  // caller that finds another thread's round open runs inline instead of
  // waiting for it: that round may be waiting for this very caller (a body
  // that starts threads and joins them, such as a serve fleet's workers).
  std::unique_lock<std::mutex> submit(submit_mutex_, std::defer_lock);
  if (tl_in_pool_body || parts == 1 || n == 1 || !submit.try_lock()) {
    // Nested, concurrent or trivially serial call: run the whole range
    // inline. The guard still marks the region so doubly-nested calls stay
    // serial too.
    PoolMetrics::get().nested_serial_rounds.increment();
    BodyRegionGuard guard;
    body(0, n);
    return;
  }
  PoolMetrics::get().rounds.increment();
  PoolMetrics::get().round_width.observe(n);
  const index_t chunk = (n + parts - 1) / parts;
  for (index_t w = 0; w < static_cast<index_t>(tasks_.size()); ++w) {
    // The caller takes [0, chunk).
    const index_t begin = std::min(n, (w + 1) * chunk);
    const index_t end = std::min(n, (w + 2) * chunk);
    tasks_[static_cast<size_t>(w)] = Task{&body, begin, end};
  }
  pending_.store(static_cast<unsigned>(workers_.size()),
                 std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    first_error_ = nullptr;
    generation_.fetch_add(1, std::memory_order_release);
  }
  work_ready_.notify_all();

  // The caller runs the first chunk itself.
  std::exception_ptr caller_error;
  try {
    BodyRegionGuard guard;
    body(0, std::min(n, chunk));
  } catch (...) {
    caller_error = std::current_exception();
  }

  const auto done = [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  };
  if (!spin_until(done)) {
    std::unique_lock<std::mutex> lock(mutex_);
    work_done_.wait(lock, done);
  }
  // Every worker's write of first_error_ happened before its check-in, and
  // none writes again before the next round, which this caller starts.
  if (caller_error) std::rethrow_exception(caller_error);
  if (first_error_) std::rethrow_exception(first_error_);
}

void ThreadPool::parallel_for_2d(
    index_t m, index_t n,
    const std::function<void(index_t, index_t, index_t, index_t)>& body) {
  if (m <= 0 || n <= 0) return;
  const index_t parts = static_cast<index_t>(size());
  if (tl_in_pool_body || parts == 1 || (m == 1 && n == 1)) {
    BodyRegionGuard guard;
    body(0, m, 0, n);
    return;
  }
  // Split the grid so tiles ~= pool size, biased toward the longer
  // dimension: pm/pn ~= m/n with pm*pn >= parts, each capped by the extent.
  index_t pm = static_cast<index_t>(std::lround(std::sqrt(
      static_cast<double>(parts) * static_cast<double>(m) /
      static_cast<double>(n))));
  pm = std::clamp<index_t>(pm, 1, std::min<index_t>(parts, m));
  index_t pn = std::min<index_t>(n, (parts + pm - 1) / pm);
  const index_t tile_m = (m + pm - 1) / pm;
  const index_t tile_n = (n + pn - 1) / pn;
  pm = (m + tile_m - 1) / tile_m; // drop tiles made empty by rounding
  pn = (n + tile_n - 1) / tile_n;

  parallel_for(pm * pn, [&](index_t t0, index_t t1) {
    for (index_t t = t0; t < t1; ++t) {
      const index_t ti = t % pm;
      const index_t tj = t / pm;
      body(ti * tile_m, std::min(m, (ti + 1) * tile_m), tj * tile_n,
           std::min(n, (tj + 1) * tile_n));
    }
  });
}

void ThreadPool::worker_loop(unsigned worker_index) {
  std::uint64_t seen_generation = 0;
  const auto woken = [&] {
    return shutting_down_.load(std::memory_order_acquire) ||
           generation_.load(std::memory_order_acquire) != seen_generation;
  };
  while (true) {
    if (!spin_until(woken)) {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, woken);
    }
    if (shutting_down_.load(std::memory_order_acquire)) return;
    // A round cannot start before every worker checked in to the last one,
    // so this is exactly the next generation and tasks_ holds its slices.
    seen_generation = generation_.load(std::memory_order_acquire);
    const Task task = tasks_[worker_index];
    if (task.begin < task.end) {
      try {
        BodyRegionGuard guard;
        (*task.body)(task.begin, task.end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!first_error_) first_error_ = std::current_exception();
      }
    }
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last check-in. The count drops outside mutex_, but taking mutex_
      // before notifying orders the notify after a parked caller's
      // predicate check, so the wake-up cannot be lost; a caller still
      // polling just sees the zero. (A flag set under mutex_ instead would
      // be wrong: a polling caller may start its next round before this
      // thread gets here, and the late flag would then end that round's
      // wait early.)
      std::lock_guard<std::mutex> lock(mutex_);
      work_done_.notify_one();
    }
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

} // namespace rocqr
