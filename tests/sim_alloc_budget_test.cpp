// Heap-allocation budget of the Phantom hot path. A Phantom factorization
// runs no host kernel, so its host cost is the simulator, the task-graph
// executor and the drivers; per-op heap traffic there is what the paper_sim
// and serve_mix benchmarks' wall times measure. This binary replaces the
// global operator new / operator new[] with counting versions (hence its
// own executable) and pins allocations per trace event for the paper's two
// streaming drivers at 131072^2, b = 1024, with the paper_sim benchmark's
// options, and for the node programs a serve fleet runs (colocated and
// fused batches that checkpoint as serve_mix's do). It also counts
// allocations of 4 MiB or more: a blocksize sweep makes none, since its
// candidates record totals, not events.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "qr/autotune.hpp"
#include "qr/checkpoint.hpp"
#include "qr/factorize.hpp"
#include "qr/tiled_qr.hpp"
#include "sim/device.hpp"

namespace {

std::atomic<std::int64_t> g_allocations{0};
/// Allocations of at least kLarge bytes (multi-MiB trace event buffers).
std::atomic<std::int64_t> g_large_allocations{0};
constexpr std::size_t kLarge = std::size_t{4} << 20;

void* counted_malloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size >= kLarge) {
    g_large_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

} // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace rocqr {
namespace {

constexpr index_t kN = 131072;
constexpr index_t kBlocksize = 1024;

/// paper_sim's recursive options: every level streams (no resident
/// subtrees), as in the paper's measured runs.
qr::QrOptions recursive_options(index_t blocksize) {
  qr::QrOptions opts;
  opts.blocksize = blocksize;
  opts.resident_subtrees = false;
  return opts;
}

/// Heap allocations per trace event of `run` on a fresh Phantom
/// paper-calibrated V100, which must record at least `min_events`.
template <typename Run>
double allocations_per_event(size_t min_events, Run run) {
  sim::Device dev(sim::DeviceSpec::v100_32gb(), sim::ExecutionMode::Phantom);
  dev.model().install_paper_calibration();
  const std::int64_t before = g_allocations.load(std::memory_order_relaxed);
  run(dev);
  const std::int64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;
  const size_t events = dev.trace().size();
  EXPECT_GE(events, min_events);
  const double per_event =
      static_cast<double>(allocations) / static_cast<double>(events);
  std::printf("%lld allocations over %zu trace events: %.3f per event\n",
              static_cast<long long>(allocations), events, per_event);
  return per_event;
}

/// One Phantom factorization at 131072^2.
double allocations_per_event(qr::Algorithm algorithm,
                             const qr::QrOptions& opts) {
  return allocations_per_event(10000, [&](sim::Device& dev) {
    const auto a = sim::HostMutRef::phantom(kN, kN);
    const auto r = sim::HostMutRef::phantom(kN, kN);
    qr::factorize(qr::QrProblem{{&dev}, a, r, algorithm, opts});
  });
}

/// A sink that drops every checkpoint: the batch runs round by round and
/// snapshots as a serve dispatch does, at no cost of its own.
class DiscardingSink : public qr::CheckpointSink {
 public:
  void write(const qr::Checkpoint&) override {}
};

/// One job of a batch, labelled and checkpointed every 4 units like a
/// serve_mix dispatch member.
qr::detail::BatchJob batch_job(const char* algorithm, index_t m, index_t n,
                               index_t b, size_t id,
                               qr::CheckpointSink& sink) {
  qr::QrOptions opts;
  opts.blocksize = b;
  opts.checkpoint_sink = &sink;
  opts.checkpoint_every = 4;
  std::string label = "j";
  label += std::to_string(id);
  label += ".";
  return {algorithm, sim::HostMutRef::phantom(m, n),
          sim::HostMutRef::phantom(n, n), opts, std::move(label)};
}

TEST(SimAllocBudget, CountingAllocatorSeesHeapAllocations) {
  // Guards the budgets below against passing vacuously. The volatile sink
  // keeps the compiler from eliding the new/delete pair.
  static void* volatile sink = nullptr;
  const std::int64_t before = g_allocations.load(std::memory_order_relaxed);
  sink = ::operator new(64);
  ::operator delete(sink);
  EXPECT_GE(g_allocations.load(std::memory_order_relaxed) - before, 1);
}

TEST(SimAllocBudget, RecursiveQrAllocatesAtMostOncePerTraceEvent) {
  // Op names and buffer labels allocate nothing (sim::OpName), so what is
  // left is per-recursion-node setup (spans, graphs, buffers) and array
  // growth: 0.171 per event (0.188 while a slab loop's graph grew its node
  // array by doubling; 0.238 while each engine call also formatted its
  // plan text and kept per-step event vectors; 0.54 with std::string
  // names).
  EXPECT_LE(allocations_per_event(qr::Algorithm::Recursive,
                                  recursive_options(kBlocksize)),
            0.2);
}

TEST(SimAllocBudget, BlockingQrAllocatesAtMostOncePerTraceEvent) {
  // paper_sim's blocking baseline: no staging buffer. Each of its ~256
  // engine calls still builds its own graph and buffers: 0.575 per event
  // (0.631 with node arrays grown by doubling; 0.851 with per-call plan
  // text and per-step event vectors).
  qr::QrOptions opts;
  opts.blocksize = kBlocksize;
  opts.staging_buffer = false;
  EXPECT_LE(allocations_per_event(qr::Algorithm::Blocking, opts), 0.6);
}

/// A colocated batch of `jobs`, as a serve dispatch runs it.
double batch_allocations_per_event(
    const std::vector<qr::detail::BatchJob>& jobs) {
  return allocations_per_event(
      1000, [&](sim::Device& dev) { qr::detail::run_batch(dev, jobs); });
}

TEST(SimAllocBudget, ColocatedBlockingJobsAllocateAtMostOncePerEvent) {
  DiscardingSink sink;
  // 0.19-0.21 per event (0.41 with std::string names).
  EXPECT_LE(batch_allocations_per_event(
                {batch_job("blocking", 16384, 8192, 512, 0, sink),
                 batch_job("blocking", 16384, 8192, 512, 1, sink)}),
            0.3);
}

TEST(SimAllocBudget, ColocatedTiledAndLeftJobsAllocateAtMostOncePerEvent) {
  DiscardingSink sink;
  // 0.19-0.22 per event (0.58 with std::string names).
  EXPECT_LE(batch_allocations_per_event(
                {batch_job("tiled", 16384, 8192, 512, 0, sink),
                 batch_job("left", 16384, 8192, 512, 1, sink)}),
            0.3);
}

TEST(SimAllocBudget, FusedBlockingBatchAllocatesAtMostOneAndAHalfPerEvent) {
  // Fused op names ("fused gemm upd 3,7") are inline OpNames; the fused
  // program's per-round lane entries and checkpoints are what is left:
  // 0.56-0.60 per event (1.25 with std::string names).
  DiscardingSink sink;
  std::vector<qr::detail::BatchJob> jobs;
  for (size_t k = 0; k < 8; ++k) {
    jobs.push_back(batch_job("blocking", 4096, 2048, 128, k, sink));
  }
  const auto run = [&](sim::Device& dev) {
    qr::detail::run_fused_batch(dev, jobs);
  };
  EXPECT_LE(allocations_per_event(500, run), 0.75);
}

TEST(SimAllocBudget, TuneSweepMakesNoMultiMebibyteAllocation) {
  // paper_sim's sweep: 131072^2, b = 1024 ... 65536. Its b = 1024
  // candidate adds 130,560 events, which an event-keeping trace stores in
  // 5.8 and 11.5 MB buffers; the sweep's devices keep totals only, so not
  // even the first sweep allocates that much.
  const std::int64_t before =
      g_large_allocations.load(std::memory_order_relaxed);
  const qr::TuneResult r = qr::tune_blocksize(
      sim::DeviceSpec::v100_32gb(), kN, kN, true, recursive_options(16384));
  EXPECT_EQ(r.sweep.size(), 7u);
  EXPECT_EQ(g_large_allocations.load(std::memory_order_relaxed) - before, 0);
}

} // namespace
} // namespace rocqr
