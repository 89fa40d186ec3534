// The fault-injection subsystem (sim/faults.hpp): spec grammar, injector
// determinism, and the Device entry points that consult the plan.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "la/generate.hpp"
#include "leak_check.hpp"
#include "ooc/resilience.hpp"
#include "qr/factorize.hpp"
#include "sim/device.hpp"
#include "sim/faults.hpp"
#include "sim/scoped_matrix.hpp"

namespace rocqr {
namespace {

using sim::Device;
using sim::DeviceMatrixRef;
using sim::ExecutionMode;
using sim::FaultKind;
using sim::FaultPlan;
using sim::FaultSite;
using sim::ScopedMatrix;
using sim::StoragePrecision;

sim::DeviceSpec small_spec(bytes_t capacity = 64LL << 20) {
  sim::DeviceSpec s = sim::DeviceSpec::v100_32gb();
  s.memory_capacity = capacity;
  return s;
}

TEST(FaultPlanParse, SingleClauses) {
  const FaultPlan p = FaultPlan::parse("h2d:transient:p=0.25");
  ASSERT_EQ(p.rules.size(), 1u);
  EXPECT_EQ(p.rules[0].site, FaultSite::H2D);
  EXPECT_EQ(p.rules[0].kind, FaultKind::Transient);
  EXPECT_DOUBLE_EQ(p.rules[0].probability, 0.25);
  EXPECT_EQ(p.rules[0].first_op, -1);

  const FaultPlan q = FaultPlan::parse("alloc:oom:after=3");
  ASSERT_EQ(q.rules.size(), 1u);
  EXPECT_EQ(q.rules[0].site, FaultSite::Alloc);
  EXPECT_EQ(q.rules[0].kind, FaultKind::Oom);
  EXPECT_EQ(q.rules[0].first_op, 4); // after=N is sugar for op=N+1

  const FaultPlan r = FaultPlan::parse("compute:corrupt:op=12,count=2");
  ASSERT_EQ(r.rules.size(), 1u);
  EXPECT_EQ(r.rules[0].site, FaultSite::Compute);
  EXPECT_EQ(r.rules[0].kind, FaultKind::Corrupt);
  EXPECT_EQ(r.rules[0].first_op, 12);
  EXPECT_EQ(r.rules[0].count, 2);
}

TEST(FaultPlanParse, MultiClauseAndSeed) {
  const FaultPlan p =
      FaultPlan::parse("h2d:transient:p=0.01;alloc:oom:after=3;seed=42");
  ASSERT_EQ(p.rules.size(), 2u);
  EXPECT_EQ(p.seed, 42u);
}

TEST(FaultPlanParse, RoundTripsThroughToString) {
  for (const char* spec :
       {"h2d:transient:p=0.01;alloc:oom:after=3;compute:corrupt:op=12",
        "d2h:transient:op=2,count=3;seed=7", "h2d:transient:p=1",
        "compute:corrupt:p=0.5,count=4"}) {
    const FaultPlan p = FaultPlan::parse(spec);
    const FaultPlan q = FaultPlan::parse(p.to_string());
    EXPECT_EQ(p.to_string(), q.to_string()) << spec;
    EXPECT_EQ(p.seed, q.seed) << spec;
    ASSERT_EQ(p.rules.size(), q.rules.size()) << spec;
  }
}

TEST(FaultPlanParse, FatalValidAtEverySite) {
  // `fatal` models hard device loss and, unlike oom/corrupt, is meaningful
  // at all four sites.
  for (const char* spec : {"h2d:fatal:op=1", "d2h:fatal:after=2",
                           "alloc:fatal:count=1,op=3", "compute:fatal:p=0.5"}) {
    const FaultPlan p = FaultPlan::parse(spec);
    ASSERT_EQ(p.rules.size(), 1u) << spec;
    EXPECT_EQ(p.rules[0].kind, FaultKind::Fatal) << spec;
    // Round-trips through to_string (spelling stays "fatal").
    const FaultPlan q = FaultPlan::parse(p.to_string());
    EXPECT_EQ(p.to_string(), q.to_string()) << spec;
    EXPECT_NE(p.to_string().find("fatal"), std::string::npos) << spec;
  }
}

TEST(FaultPlanParse, RejectsMalformedSpecs) {
  for (const char* bad :
       {"gpu:transient:p=0.5",    // unknown site
        "h2d:oom:p=0.5",          // kind incompatible with site
        "alloc:transient:op=1",   // kind incompatible with site
        "h2d:transient:p=1.5",    // probability out of range
        "h2d:transient:p=-0.1",   // probability out of range
        "h2d:transient:op=0",     // ordinals are 1-based
        "h2d:transient",          // no trigger at all
        "h2d:transient:p=0.5,op=3", // two triggers
        "h2d:transient:p=abc",    // unparseable number
        "seed=",                  // empty seed
        ":::", "h2d"}) {
    EXPECT_THROW(FaultPlan::parse(bad), InvalidArgument) << bad;
  }
}

TEST(FaultInjector, DeterministicAcrossIdenticalRuns) {
  const FaultPlan plan =
      FaultPlan::parse("h2d:transient:p=0.3;compute:corrupt:p=0.1;seed=99");
  sim::FaultInjector a(plan);
  sim::FaultInjector b(plan);
  for (int i = 0; i < 200; ++i) {
    const FaultSite site = i % 3 == 0 ? FaultSite::Compute : FaultSite::H2D;
    EXPECT_EQ(a.fire(site), b.fire(site)) << "op " << i;
  }
  EXPECT_EQ(a.faults_fired(), b.faults_fired());
  EXPECT_GT(a.faults_fired(), 0); // p=0.3 over ~133 ops: essentially certain
}

TEST(FaultInjector, DeterministicRuleFiresExactWindow) {
  sim::FaultInjector inj(FaultPlan::parse("d2h:transient:op=3,count=2"));
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) fired.push_back(inj.fire(FaultSite::D2H));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, true, false, false}));
  EXPECT_EQ(inj.faults_fired(), 2);
}

TEST(DeviceFaults, TransientH2dThrowsTransferError) {
  Device dev(small_spec(), ExecutionMode::Real);
  dev.install_faults(FaultPlan::parse("h2d:transient:op=1"));
  ScopedMatrix m(dev, 8, 8);
  la::Matrix host = la::random_normal(8, 8, 1);
  sim::Stream s = dev.create_stream();
  EXPECT_THROW(dev.copy_h2d(DeviceMatrixRef(m.get()), host.view(), s),
               TransferError);
  // op=1 fired once; the re-enqueue is op 2 and succeeds.
  dev.copy_h2d(DeviceMatrixRef(m.get()), host.view(), s);
  dev.synchronize();
}

TEST(DeviceFaults, AllocOomAfterBudget) {
  Device dev(small_spec(), ExecutionMode::Phantom);
  dev.install_faults(FaultPlan::parse("alloc:oom:after=2"));
  ScopedMatrix a(dev, 16, 16);
  ScopedMatrix b(dev, 16, 16);
  EXPECT_THROW(ScopedMatrix(dev, 16, 16), DeviceOutOfMemory);
  // count defaults to 1 for deterministic rules: the next alloc succeeds.
  ScopedMatrix c(dev, 16, 16);
  EXPECT_EQ(dev.live_allocations(), 3);
}

TEST(DeviceFaults, ComputeCorruptPerturbsOneGemmElement) {
  const index_t n = 8;
  la::Matrix ha = la::random_normal(n, n, 2);
  la::Matrix hb = la::random_normal(n, n, 3);

  const auto run = [&](const char* spec) {
    Device dev(small_spec(), ExecutionMode::Real);
    if (spec != nullptr) dev.install_faults(FaultPlan::parse(spec));
    ScopedMatrix a(dev, n, n);
    ScopedMatrix b(dev, n, n);
    ScopedMatrix c(dev, n, n);
    dev.upload(a.get(), ha.view());
    dev.upload(b.get(), hb.view());
    sim::Stream s = dev.create_stream();
    dev.gemm(blas::Op::NoTrans, blas::Op::NoTrans, 1.0f,
             DeviceMatrixRef(a.get()), DeviceMatrixRef(b.get()), 0.0f,
             DeviceMatrixRef(c.get()), blas::GemmPrecision::FP32, s);
    dev.synchronize();
    return dev.download(c.get());
  };

  const la::Matrix clean = run(nullptr);
  const la::Matrix dirty = run("compute:corrupt:op=1");
  int diffs = 0;
  double worst = 0.0;
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      const double d = std::fabs(static_cast<double>(clean(i, j)) -
                                 static_cast<double>(dirty(i, j)));
      if (d > 0.0) ++diffs;
      worst = std::max(worst, d);
    }
  }
  EXPECT_EQ(diffs, 1);      // exactly one element perturbed
  EXPECT_GT(worst, 1.0e3);  // by an unmistakable amount
}

TEST(DeviceFaults, InjectedCounterTracksFires) {
  telemetry::Counter& injected =
      telemetry::MetricsRegistry::global().counter("faults_injected");
  injected.reset();
  Device dev(small_spec(), ExecutionMode::Phantom);
  dev.install_faults(FaultPlan::parse("h2d:transient:op=1,count=2"));
  ScopedMatrix m(dev, 8, 8);
  sim::Stream s = dev.create_stream();
  const auto h = sim::HostConstRef::phantom(8, 8);
  EXPECT_THROW(dev.copy_h2d(DeviceMatrixRef(m.get()), h, s), TransferError);
  EXPECT_THROW(dev.copy_h2d(DeviceMatrixRef(m.get()), h, s), TransferError);
  dev.copy_h2d(DeviceMatrixRef(m.get()), h, s);
  dev.synchronize();
  EXPECT_EQ(injected.value(), 2);
  ASSERT_NE(dev.fault_injector(), nullptr);
  EXPECT_EQ(dev.fault_injector()->faults_fired(), 2);
}

TEST(DeviceFaults, EmptyPlanRemovesInjection) {
  Device dev(small_spec(), ExecutionMode::Phantom);
  dev.install_faults(FaultPlan::parse("h2d:transient:p=1"));
  ASSERT_NE(dev.fault_injector(), nullptr);
  dev.install_faults(FaultPlan{});
  EXPECT_EQ(dev.fault_injector(), nullptr);
  ScopedMatrix m(dev, 8, 8);
  sim::Stream s = dev.create_stream();
  dev.copy_h2d(DeviceMatrixRef(m.get()), sim::HostConstRef::phantom(8, 8), s);
  dev.synchronize();
}

TEST(DeviceFaults, FatalComputeKillsDeviceAndSubsequentOpsThrow) {
  Device dev(small_spec(), ExecutionMode::Real);
  dev.install_faults(FaultPlan::parse("compute:fatal:op=1"));
  EXPECT_FALSE(dev.dead());
  const index_t n = 8;
  {
    ScopedMatrix a(dev, n, n);
    ScopedMatrix b(dev, n, n);
    ScopedMatrix c(dev, n, n);
    dev.upload(a.get(), la::random_normal(n, n, 4).view());
    dev.upload(b.get(), la::random_normal(n, n, 5).view());
    sim::Stream s = dev.create_stream();
    EXPECT_THROW(dev.gemm(blas::Op::NoTrans, blas::Op::NoTrans, 1.0f,
                          DeviceMatrixRef(a.get()), DeviceMatrixRef(b.get()),
                          0.0f, DeviceMatrixRef(c.get()),
                          blas::GemmPrecision::FP32, s),
                 DeviceLost);
    EXPECT_TRUE(dev.dead());
    // Every subsequent enqueue entry point refuses with DeviceLost; the
    // fault only had count=1, so the refusal comes from dead(), not the plan.
    EXPECT_THROW(dev.copy_h2d(DeviceMatrixRef(a.get()),
                              la::random_normal(n, n, 6).view(), s),
                 DeviceLost);
    EXPECT_THROW(dev.gemm(blas::Op::NoTrans, blas::Op::NoTrans, 1.0f,
                          DeviceMatrixRef(a.get()), DeviceMatrixRef(b.get()),
                          0.0f, DeviceMatrixRef(c.get()),
                          blas::GemmPrecision::FP32, s),
                 DeviceLost);
    EXPECT_THROW((ScopedMatrix(dev, n, n)), DeviceLost);
    // free()/synchronize() stay usable so RAII unwind does not leak
    // (ScopedMatrix destructors run as this scope exits).
    dev.synchronize();
  }
  EXPECT_EQ(dev.live_allocations(), 0);
}

TEST(DeviceFaults, FatalAllocReportsLastFiredKind) {
  Device dev(small_spec(), ExecutionMode::Phantom);
  dev.install_faults(FaultPlan::parse("alloc:fatal:after=1"));
  ScopedMatrix a(dev, 8, 8);
  EXPECT_THROW(ScopedMatrix(dev, 8, 8), DeviceLost);
  ASSERT_NE(dev.fault_injector(), nullptr);
  EXPECT_EQ(dev.fault_injector()->last_fired_kind(), FaultKind::Fatal);
  EXPECT_TRUE(dev.dead());
}

/// The DeviceLost message of a Phantom 4096x2048 b=256 factorization that
/// hits the fatal fault `faults` (bench::recursive_options: every recursion
/// level streams).
std::string device_lost_message(qr::Algorithm algorithm,
                                const std::string& faults) {
  Device dev(sim::DeviceSpec::v100_32gb(), ExecutionMode::Phantom);
  dev.install_faults(FaultPlan::parse(faults));
  qr::QrOptions opts;
  opts.blocksize = 256;
  opts.resident_subtrees = false;
  const auto a = sim::HostMutRef::phantom(4096, 2048);
  const auto r = sim::HostMutRef::phantom(2048, 2048);
  try {
    qr::factorize(qr::QrProblem{{&dev}, a, r, algorithm, opts});
  } catch (const DeviceLost& e) {
    return e.what();
  }
  return "no DeviceLost";
}

TEST(DeviceLostAttribution, NamesTheTaskGraphNodeThatHitTheFault) {
  // A hard loss is attributed to the node being enqueued: slab steps of the
  // streaming engines ("comp <engine> s<step>", "out <engine> g<group>")
  // and the tiled program's tile nodes.
  const struct {
    qr::Algorithm algorithm;
    const char* faults;
    const char* suffix;
  } cases[] = {
      {qr::Algorithm::Recursive, "compute:fatal:op=3",
       "[task \"comp inner_product_recursive s2\"]"},
      {qr::Algorithm::Blocking, "compute:fatal:op=3",
       "[task \"comp inner_product_blocking s2\"]"},
      {qr::Algorithm::Tiled, "compute:fatal:op=3", "[task \"upd 0,2\"]"},
      {qr::Algorithm::Recursive, "d2h:fatal:op=7",
       "[task \"out outer_product_recursive g3\"]"},
      {qr::Algorithm::Blocking, "d2h:fatal:op=7",
       "[task \"out inner_product_blocking g4\"]"},
      {qr::Algorithm::Tiled, "d2h:fatal:op=7", "[task \"outA 0,2\"]"},
  };
  for (const auto& c : cases) {
    const std::string what = device_lost_message(c.algorithm, c.faults);
    EXPECT_TRUE(what.ends_with(c.suffix))
        << qr::to_string(c.algorithm) << " " << c.faults << ": " << what;
  }
}

TEST(OomDegradation, HalvesToFloorThenRethrowsOriginal) {
  // A body that never fits: the helper must walk 256 -> 128 -> 64 -> 32,
  // stop at degrade_min_blocksize, and rethrow the body's own exception
  // instead of looping forever or wrapping it.
  Device dev(small_spec(), ExecutionMode::Phantom);
  ooc::OocGemmOptions opts;
  opts.blocksize = 256;
  opts.degrade_min_blocksize = 32;
  int calls = 0;
  std::vector<index_t> tried;
  try {
    ooc::detail::with_oom_degradation(
        dev, opts, [&](const ooc::OocGemmOptions& cur) -> int {
          ++calls;
          tried.push_back(cur.blocksize);
          throw DeviceOutOfMemory("synthetic body OOM");
        });
    FAIL() << "expected DeviceOutOfMemory";
  } catch (const DeviceOutOfMemory& e) {
    EXPECT_STREQ(e.what(), "synthetic body OOM");
  }
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(tried, (std::vector<index_t>{256, 128, 64, 32}));
}

TEST(OomDegradation, AtFloorRethrowsWithoutRetry) {
  Device dev(small_spec(), ExecutionMode::Phantom);
  ooc::OocGemmOptions opts;
  opts.blocksize = 32;
  opts.degrade_min_blocksize = 32;
  int calls = 0;
  EXPECT_THROW(ooc::detail::with_oom_degradation(
                   dev, opts,
                   [&](const ooc::OocGemmOptions&) -> int {
                     ++calls;
                     throw DeviceOutOfMemory("floor");
                   }),
               DeviceOutOfMemory);
  EXPECT_EQ(calls, 1);
}

TEST(OomDegradation, DisabledRethrowsWithoutRetry) {
  Device dev(small_spec(), ExecutionMode::Phantom);
  ooc::OocGemmOptions opts;
  opts.blocksize = 256;
  opts.degrade_on_oom = false;
  int calls = 0;
  EXPECT_THROW(ooc::detail::with_oom_degradation(
                   dev, opts,
                   [&](const ooc::OocGemmOptions&) -> int {
                     ++calls;
                     throw DeviceOutOfMemory("disabled");
                   }),
               DeviceOutOfMemory);
  EXPECT_EQ(calls, 1);
}

TEST(OomDegradation, SucceedsAfterDegradationAndCounts) {
  Device dev(small_spec(), ExecutionMode::Phantom);
  telemetry::Counter& degradations =
      telemetry::MetricsRegistry::global().counter("slab_degradations");
  const std::int64_t before = degradations.value();
  ooc::OocGemmOptions opts;
  opts.blocksize = 256;
  opts.degrade_min_blocksize = 32;
  const index_t got = ooc::detail::with_oom_degradation(
      dev, opts, [&](const ooc::OocGemmOptions& cur) -> index_t {
        if (cur.blocksize > 64) throw DeviceOutOfMemory("still too big");
        return cur.blocksize;
      });
  EXPECT_EQ(got, 64);
  EXPECT_EQ(degradations.value(), before + 2); // 256 -> 128 -> 64
}

TEST(ScopedMatrixLeaks, FailedFreeRecordedOnCounter) {
  telemetry::Counter& leaked =
      rocqr::testing::DeviceLeakCheckEnvironment::counter();
  const std::int64_t before = leaked.value();
  {
    Device dev(small_spec(), ExecutionMode::Phantom);
    ScopedMatrix m(dev, 8, 8);
    sim::DeviceMatrix alias = m.get();
    dev.free(alias); // invalidate the handle behind the RAII wrapper's back
    m.reset();       // the double free must be counted, not thrown
  }
  EXPECT_EQ(leaked.value(), before + 1);
  leaked.reset(); // deliberate leak: keep the global environment check green
}

} // namespace
} // namespace rocqr
