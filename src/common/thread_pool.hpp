// Minimal work-sharing thread pool for host BLAS kernels.
//
// The pool exposes two collective operations, parallel_for and
// parallel_for_2d, which is all the blocked kernels need. Work is divided
// into contiguous ranges (one per worker) rather than a task queue: for
// dense kernels, static partitioning has lower overhead and better locality
// than work stealing.
//
// Wake protocol (spin, then park): a round is published by bumping an
// atomic generation counter, and joined through an atomic count of workers
// yet to check in. Every worker checks in once per round, empty slice or
// not, so no worker still reads the round's slices when the next round
// rewrites them. An idle worker, and a caller waiting for its round to
// finish, polls its atomic for a fixed ~100 µs of steady_clock time,
// yielding between polls; only then does it park on a condition variable.
// Back-to-back rounds (a panel issues hundreds, microseconds apart) thus
// never pay a futex wake-up, while an idle pool stops using its cores
// within the budget and yields them to any runnable thread before that.
// The budget is a constant of the pool, not an option. A yield that
// returns only after a scheduler time slice means the host is
// oversubscribed; once any thread sees one, every thread of the process
// parks at once for the next 50 ms, because there each poll waits a time
// slice while a parked thread is woken at once. A spinning worker also
// watches the shutdown flag, so destroying a pool does not wait out the
// spin.
//
// Reentrancy contract (v2):
//  - Nested calls (parallel_for issued from inside a parallel_for body, on
//    any pool) detect the situation through a thread-local flag and run the
//    body serially on the calling thread. Kernels may therefore call each
//    other freely — e.g. gemm from inside a caller's parallel_for — without
//    deadlocking or corrupting pool state.
//  - One round runs at a time. A top-level call from a thread that finds
//    another thread's round open (the submission mutex is held) runs its
//    body serially on the calling thread, like a nested call, instead of
//    waiting: the open round may be waiting for that thread. A serve fleet
//    started from inside a round body is the case — its worker threads are
//    joined by the body, so a worker blocked on the round's mutex would
//    deadlock it. Dense kernels give bit-identical results whatever the
//    partition, and overlapping rounds would only fight for cores.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hpp"

namespace rocqr {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()) + 1; }

  /// Runs body(begin, end) over a partition of [0, n) across all workers
  /// plus the calling thread. Blocks until every range completes.
  /// Exceptions from body are rethrown (first one wins) on the caller.
  /// Safe to call from inside another parallel_for body (runs serially) and
  /// from multiple host threads at once (a call that finds another
  /// thread's round open runs serially).
  void parallel_for(index_t n,
                    const std::function<void(index_t, index_t)>& body);

  /// Runs body(i0, i1, j0, j1) over a tile partition of [0, m) x [0, n).
  /// The grid is chosen so the tile count roughly matches the pool size,
  /// with the split biased toward the longer dimension; kernels that are
  /// short in one dimension (tall-skinny GEMM panels) still get full
  /// parallelism from the other. Same reentrancy rules as parallel_for.
  void parallel_for_2d(
      index_t m, index_t n,
      const std::function<void(index_t, index_t, index_t, index_t)>& body);

  /// True while the calling thread is executing inside a parallel_for /
  /// parallel_for_2d body (on any pool). Kernels can use this to skip
  /// parallel setup they know will degrade to serial.
  static bool in_parallel_region();

  /// True during a park-only period: some pool thread recently saw a yield
  /// return only after another thread's time slice, so the host has fewer
  /// free CPUs than runnable threads (see the wake protocol above). Kernels
  /// whose threads hand work to each other at a fine grain can run serially
  /// meanwhile.
  static bool oversubscribed();

  /// Process-wide default pool (lazily constructed, never destroyed before
  /// exit). Kernels use this unless handed an explicit pool.
  static ThreadPool& global();

 private:
  struct Task {
    const std::function<void(index_t, index_t)>* body = nullptr;
    index_t begin = 0;
    index_t end = 0;
  };

  void worker_loop(unsigned worker_index);

  /// Held for a whole parallel_for round, so tasks_ and first_error_'s
  /// reset are only ever written by one submitting thread at a time. Only
  /// ever try-locked: a caller that cannot take it runs inline.
  std::mutex submit_mutex_;
  /// Parks idle workers (work_ready_) and a caller joining its round
  /// (work_done_). generation_ and shutting_down_ change only under it, so
  /// a worker cannot miss a bump between its predicate check and its wait;
  /// it also guards first_error_ against concurrent failing workers.
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  std::vector<Task> tasks_; // one slot per worker, published by generation_
  std::exception_ptr first_error_;
  /// Bumped (release) once per round, after tasks_ is written.
  alignas(64) std::atomic<std::uint64_t> generation_{0};
  /// Workers yet to check in this round. On its own cache line: every
  /// check-in writes it, while idle workers poll generation_.
  alignas(64) std::atomic<unsigned> pending_{0};
  std::atomic<bool> shutting_down_{false};
  /// Declared last: the threads use every member above.
  std::vector<std::thread> workers_;
};

} // namespace rocqr
