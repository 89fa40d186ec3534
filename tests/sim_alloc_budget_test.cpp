// Heap-allocation budget of the Phantom hot path. A Phantom factorization
// runs no host kernel, so its host cost is the simulator, the task-graph
// executor and the drivers; per-op heap traffic there is what the paper_sim
// benchmark's wall time measures. This binary replaces the global
// operator new / operator new[] with counting versions (hence its own
// executable) and pins at most one allocation per trace event for the
// paper's two streaming drivers at 131072^2, b = 1024, with the paper_sim
// benchmark's options.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "qr/factorize.hpp"
#include "sim/device.hpp"

namespace {

std::atomic<std::int64_t> g_allocations{0};

void* counted_malloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
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

/// Heap allocations per trace event of one Phantom factorization on a
/// paper-calibrated V100.
double allocations_per_event(qr::Algorithm algorithm,
                             const qr::QrOptions& opts) {
  sim::Device dev(sim::DeviceSpec::v100_32gb(), sim::ExecutionMode::Phantom);
  dev.model().install_paper_calibration();
  const auto a = sim::HostMutRef::phantom(kN, kN);
  const auto r = sim::HostMutRef::phantom(kN, kN);
  const std::int64_t before = g_allocations.load(std::memory_order_relaxed);
  qr::factorize(qr::QrProblem{{&dev}, a, r, algorithm, opts});
  const std::int64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;
  const size_t events = dev.trace().size();
  EXPECT_GT(events, 10000u);
  const double per_event =
      static_cast<double>(allocations) / static_cast<double>(events);
  std::printf("%lld allocations over %zu trace events: %.3f per event\n",
              static_cast<long long>(allocations), events, per_event);
  return per_event;
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
  // paper_sim's recursive options: every level streams (no resident
  // subtrees), as in the paper's measured runs.
  qr::QrOptions opts;
  opts.blocksize = kBlocksize;
  opts.resident_subtrees = false;
  EXPECT_LE(allocations_per_event(qr::Algorithm::Recursive, opts), 1.0);
}

TEST(SimAllocBudget, BlockingQrAllocatesAtMostOncePerTraceEvent) {
  // paper_sim's blocking baseline: no staging buffer.
  qr::QrOptions opts;
  opts.blocksize = kBlocksize;
  opts.staging_buffer = false;
  EXPECT_LE(allocations_per_event(qr::Algorithm::Blocking, opts), 1.0);
}

} // namespace
} // namespace rocqr
