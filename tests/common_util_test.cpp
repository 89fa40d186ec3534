// Rng, ThreadPool, strings, timer, error machinery.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"

namespace rocqr {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.uniform(-3.0, 7.0);
    EXPECT_GE(d, -3.0);
    EXPECT_LT(d, 7.0);
  }
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(11);
  const int n = 50000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(13);
  std::set<index_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const index_t v = rng.below(10);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 10);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u); // all values hit over 1000 draws
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(ThreadPool, CoversFullRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](index_t b, index_t e) {
    for (index_t i = b; i < e; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyAndSingleElementRanges) {
  ThreadPool pool(3);
  int calls = 0;
  pool.parallel_for(0, [&](index_t, index_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> total{0};
  pool.parallel_for(1, [&](index_t b, index_t e) {
    total += static_cast<int>(e - b);
  });
  EXPECT_EQ(total.load(), 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](index_t b, index_t) {
                                   if (b >= 0) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool stays usable after an exception round.
  std::atomic<int> total{0};
  pool.parallel_for(50, [&](index_t b, index_t e) {
    total += static_cast<int>(e - b);
  });
  EXPECT_EQ(total.load(), 50);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> total{0};
  pool.parallel_for(10, [&](index_t b, index_t e) {
    total += static_cast<int>(e - b);
  });
  EXPECT_EQ(total.load(), 10);
}

TEST(ThreadPool, GlobalPoolIsReusable) {
  std::atomic<int> total{0};
  ThreadPool::global().parallel_for(256, [&](index_t b, index_t e) {
    total += static_cast<int>(e - b);
  });
  EXPECT_EQ(total.load(), 256);
}

TEST(ThreadPool, InParallelRegionFlagTracksBodyExecution) {
  EXPECT_FALSE(ThreadPool::in_parallel_region());
  ThreadPool pool(3);
  std::atomic<int> observed{0};
  pool.parallel_for(6, [&](index_t, index_t) {
    if (ThreadPool::in_parallel_region()) ++observed;
  });
  EXPECT_GT(observed.load(), 0); // every executed chunk saw the flag
  EXPECT_FALSE(ThreadPool::in_parallel_region());
}

// Regression: on the seed pool a nested parallel_for re-entered the round
// state (tasks_/pending_/generation_) and deadlocked or corrupted the count.
// Nested calls must degrade to serial execution and still cover the range.
TEST(ThreadPool, NestedParallelForRunsSeriallyAndCompletes) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](index_t b, index_t e) {
    for (index_t i = b; i < e; ++i) {
      std::atomic<int> chunks{0};
      pool.parallel_for(100, [&](index_t ib, index_t ie) {
        ++chunks;
        total += static_cast<int>(ie - ib);
      });
      EXPECT_EQ(chunks.load(), 1); // degraded to one serial chunk
    }
  });
  EXPECT_EQ(total.load(), 800);
}

TEST(ThreadPool, DoublyNestedStaysSerial) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(4, [&](index_t b, index_t e) {
    for (index_t i = b; i < e; ++i) {
      pool.parallel_for(4, [&](index_t, index_t) {
        pool.parallel_for(10, [&](index_t ib, index_t ie) {
          total += static_cast<int>(ie - ib);
        });
      });
    }
  });
  EXPECT_EQ(total.load(), 4 * 10);
}

// Stress for the spin-then-park wake protocol: rounds issued back to back,
// so workers are caught in every phase (polling, parking, checking in) when
// the next round is published. Run under ThreadSanitizer in CI.
constexpr int kStressRounds = 50000;

/// Round r's size: alternately below the pool size (so some workers get an
/// empty slice) and far above it.
index_t stress_round_size(int r) {
  return r % 2 == 0 ? 2 + (r / 2) % 3 : 3000 + r % 7;
}

/// Sum over [0, n) of (i + r % 11): the checksum round r must produce.
long stress_checksum(int r, index_t n) {
  return static_cast<long>(n * (n - 1) / 2 + n * (r % 11));
}

// Regression: two host threads submitting to one pool raced on tasks_ and
// generation_; rounds no longer overlap (a call that finds the other
// thread's round open runs inline), and every round still produces its
// own checksum. 2500 back-to-back rounds per thread.
TEST(ThreadPool, ConcurrentSubmissionsFromTwoHostThreads) {
  ThreadPool pool(4);
  std::atomic<int> bad_sums{0};
  auto hammer = [&](int offset) {
    for (int r = offset; r < kStressRounds / 10; r += 2) {
      const index_t n = stress_round_size(r);
      std::atomic<long> sum{0};
      pool.parallel_for(n, [&](index_t b, index_t e) {
        long local = 0;
        for (index_t i = b; i < e; ++i) local += i + r % 11;
        sum += local;
      });
      if (sum.load() != stress_checksum(r, n)) ++bad_sums;
    }
  };
  std::thread t1(hammer, 0);
  std::thread t2(hammer, 1);
  t1.join();
  t2.join();
  EXPECT_EQ(bad_sums.load(), 0);
}

TEST(ThreadPool, StressBackToBackTinyRoundsWithExceptions) {
  ThreadPool pool(4);
  int bad_sums = 0;
  int missed_throws = 0;
  for (int r = 0; r < kStressRounds; ++r) {
    const index_t n = stress_round_size(r);
    std::atomic<long> sum{0};
    // Every 97th round throws, from the caller's chunk or from the chunk
    // holding the last index (a worker's), in turn; the rounds after it
    // must run clean.
    const bool fail = r % 97 == 0;
    const index_t bad = (r / 97) % 2 == 0 ? 0 : n - 1;
    try {
      pool.parallel_for(n, [&](index_t b, index_t e) {
        if (fail && b <= bad && bad < e) throw std::runtime_error("round");
        long local = 0;
        for (index_t i = b; i < e; ++i) local += i + r % 11;
        sum += local;
      });
      if (fail) ++missed_throws;
      if (!fail && sum.load() != stress_checksum(r, n)) ++bad_sums;
    } catch (const std::runtime_error&) {
      if (!fail) ++bad_sums;
    }
  }
  EXPECT_EQ(bad_sums, 0);
  EXPECT_EQ(missed_throws, 0);
}

TEST(ThreadPool, StressConstructOneRoundDestroy) {
  // Each pool is destroyed while its workers still poll for the next round,
  // so they must see the shutdown flag there; a lost wake-up would hang
  // here. The bound only catches a hang: 1000 pools take ~0.1-3 s.
  const auto start = std::chrono::steady_clock::now();
  for (int it = 0; it < 1000; ++it) {
    ThreadPool pool(4);
    std::atomic<long> sum{0};
    pool.parallel_for(64, [&](index_t b, index_t e) {
      sum += static_cast<long>(e - b);
    });
    ASSERT_EQ(sum.load(), 64);
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(seconds, 30.0);
}

TEST(ThreadPool, SimultaneousCallerAndWorkerExceptions) {
  ThreadPool pool(4);
  // Every chunk throws: the caller's own chunk and all worker chunks race to
  // fail. Exactly one exception must surface and the pool must stay usable.
  EXPECT_THROW(pool.parallel_for(4,
                                 [&](index_t, index_t) {
                                   throw std::runtime_error("all chunks");
                                 }),
               std::runtime_error);
  // Worker-only failure (the caller's chunk [0, chunk) succeeds).
  EXPECT_THROW(pool.parallel_for(4,
                                 [&](index_t b, index_t) {
                                   if (b > 0) throw std::runtime_error("w");
                                 }),
               std::runtime_error);
  std::atomic<int> total{0};
  pool.parallel_for(64, [&](index_t b, index_t e) {
    total += static_cast<int>(e - b);
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, ExceptionInsideNestedCallPropagates) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(3,
                                 [&](index_t, index_t) {
                                   pool.parallel_for(2, [&](index_t, index_t) {
                                     throw std::runtime_error("nested");
                                   });
                                 }),
               std::runtime_error);
  std::atomic<int> total{0};
  pool.parallel_for(9, [&](index_t b, index_t e) {
    total += static_cast<int>(e - b);
  });
  EXPECT_EQ(total.load(), 9);
}

TEST(ThreadPool, ParallelFor2dCoversGridExactlyOnce) {
  ThreadPool pool(4);
  constexpr index_t kM = 37;
  constexpr index_t kN = 23;
  std::vector<std::atomic<int>> hits(kM * kN);
  pool.parallel_for_2d(kM, kN, [&](index_t i0, index_t i1, index_t j0,
                                   index_t j1) {
    EXPECT_TRUE(ThreadPool::in_parallel_region());
    for (index_t j = j0; j < j1; ++j) {
      for (index_t i = i0; i < i1; ++i) {
        hits[static_cast<size_t>(i + j * kM)]++;
      }
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelFor2dDegenerateShapes) {
  ThreadPool pool(3);
  int calls = 0;
  pool.parallel_for_2d(0, 5, [&](index_t, index_t, index_t, index_t) {
    ++calls;
  });
  pool.parallel_for_2d(5, 0, [&](index_t, index_t, index_t, index_t) {
    ++calls;
  });
  EXPECT_EQ(calls, 0);
  std::atomic<int> cells{0};
  pool.parallel_for_2d(1, 1, [&](index_t i0, index_t i1, index_t j0,
                                 index_t j1) {
    cells += static_cast<int>((i1 - i0) * (j1 - j0));
  });
  EXPECT_EQ(cells.load(), 1);
  // Skinny grids must still cover everything.
  std::atomic<int> tall{0};
  pool.parallel_for_2d(97, 1, [&](index_t i0, index_t i1, index_t j0,
                                  index_t j1) {
    tall += static_cast<int>((i1 - i0) * (j1 - j0));
  });
  EXPECT_EQ(tall.load(), 97);
}

TEST(ThreadPool, ParallelFor2dOnPoolOfOneRunsInline) {
  ThreadPool pool(1);
  int calls = 0;
  index_t cells = 0;
  pool.parallel_for_2d(12, 7, [&](index_t i0, index_t i1, index_t j0,
                                  index_t j1) {
    ++calls;
    cells += (i1 - i0) * (j1 - j0);
  });
  EXPECT_EQ(calls, 1); // single inline tile
  EXPECT_EQ(cells, 12 * 7);
}

TEST(ThreadPool, ParallelFor2dNestedRunsSerially) {
  ThreadPool pool(4);
  std::atomic<int> cells{0};
  pool.parallel_for(4, [&](index_t, index_t) {
    pool.parallel_for_2d(6, 5, [&](index_t i0, index_t i1, index_t j0,
                                   index_t j1) {
      EXPECT_EQ(i0, 0); // nested: one tile spanning the whole grid
      EXPECT_EQ(j0, 0);
      cells += static_cast<int>((i1 - i0) * (j1 - j0));
    });
  });
  EXPECT_EQ(cells.load(), 4 * 6 * 5);
}

TEST(Strings, FormatBytes) {
  EXPECT_EQ(format_bytes(12), "12 B");
  EXPECT_EQ(format_bytes(1536), "1.50 KiB");
  EXPECT_EQ(format_bytes(32LL << 30), "32.00 GiB");
}

TEST(Strings, FormatSeconds) {
  EXPECT_EQ(format_seconds(1.408), "1.41 s");
  EXPECT_EQ(format_seconds(0.693), "693.0 ms");
  EXPECT_EQ(format_seconds(12e-6), "12.0 us");
  EXPECT_EQ(format_seconds(3e-9), "3.0 ns");
}

TEST(Strings, FormatFlopsRate) {
  EXPECT_EQ(format_flops_rate(99.9e12), "99.9 TFLOP/s");
  EXPECT_EQ(format_flops_rate(5e9), "5.0 GFLOP/s");
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_left("ab", 5), "   ab");
  EXPECT_EQ(pad_right("ab", 5), "ab   ");
  EXPECT_EQ(pad_left("abcdef", 3), "abcdef");
  EXPECT_EQ(format_shape(65536, 131072), "65536x131072");
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
}

TEST(Timer, MeasuresElapsedTime) {
  WallTimer t;
  const double a = t.seconds();
  EXPECT_GE(a, 0.0);
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  const double b = t.seconds();
  EXPECT_GE(b, a);
  t.reset();
  EXPECT_LT(t.seconds(), b + 1.0);
}

TEST(Error, CheckMacroThrowsWithContext) {
  try {
    ROCQR_CHECK(1 == 2, "one is not two");
    FAIL() << "expected throw";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("one is not two"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

TEST(Error, HierarchyIsCatchableAsBase) {
  EXPECT_THROW(throw DeviceOutOfMemory("x"), Error);
  EXPECT_THROW(throw ResourceError("x"), Error);
  EXPECT_THROW(throw PhantomDataError("x"), Error);
  EXPECT_THROW(throw InvalidArgument("x"), Error);
}

} // namespace
} // namespace rocqr
