// The simulated device: allocation, streams, events, the scheduling rules
// (FIFO engines, program order, overlap), and Real-mode numerics.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "blas/gemm.hpp"
#include "common/error.hpp"
#include "common/half.hpp"
#include "common/telemetry.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"
#include "sim/device.hpp"
#include "sim/faults.hpp"

namespace rocqr::sim {
namespace {

using blas::GemmPrecision;
using blas::Op;

DeviceSpec tiny_spec() {
  DeviceSpec s = DeviceSpec::v100_32gb();
  s.memory_capacity = 64LL << 20; // 64 MiB, plenty for test matrices
  return s;
}

TEST(Device, AllocateFreeAccounting) {
  Device dev(tiny_spec(), ExecutionMode::Real);
  DeviceMatrix a = dev.allocate(100, 50);
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a.bytes(), 100 * 50 * 4);
  EXPECT_GE(dev.memory_used(), a.bytes());
  DeviceMatrix h = dev.allocate(100, 50, StoragePrecision::FP16);
  EXPECT_EQ(h.bytes(), 100 * 50 * 2);
  dev.free(a);
  dev.free(h);
  EXPECT_EQ(dev.memory_used(), 0);
  EXPECT_FALSE(a.valid()); // handle invalidated
  EXPECT_EQ(dev.live_allocations(), 0);
}

TEST(Device, OutOfMemoryThrows) {
  DeviceSpec s = tiny_spec();
  s.memory_capacity = 1 << 10;
  Device dev(s, ExecutionMode::Phantom);
  EXPECT_THROW(dev.allocate(1024, 1024), DeviceOutOfMemory);
}

TEST(Device, UseAfterFreeThrows) {
  Device dev(tiny_spec(), ExecutionMode::Real);
  DeviceMatrix a = dev.allocate(4, 4);
  DeviceMatrix copy = a; // stale handle
  dev.free(a);
  Stream st = dev.create_stream();
  la::Matrix host(4, 4);
  EXPECT_THROW(dev.copy_h2d(copy, host.view(), st), ResourceError);
  EXPECT_THROW(dev.free(copy), ResourceError);
  EXPECT_THROW(dev.download(copy), ResourceError);
}

TEST(Device, H2dD2hRoundTripReal) {
  Device dev(tiny_spec(), ExecutionMode::Real);
  la::Matrix host = la::random_uniform(20, 12, 1);
  DeviceMatrix d = dev.allocate(20, 12);
  Stream st = dev.create_stream();
  dev.copy_h2d(d, host.view(), st);
  la::Matrix back(20, 12);
  dev.copy_d2h(back.view(), d, st);
  dev.synchronize();
  EXPECT_EQ(la::relative_difference(back.view(), host.view()), 0.0);
}

TEST(Device, Fp16StorageRoundsOnArrival) {
  Device dev(tiny_spec(), ExecutionMode::Real);
  la::Matrix host(2, 2);
  host(0, 0) = 1.0009765625f + 0x1.0p-12f; // not an fp16 value
  DeviceMatrix d = dev.allocate(2, 2, StoragePrecision::FP16);
  Stream st = dev.create_stream();
  dev.copy_h2d(d, host.view(), st);
  la::Matrix back(2, 2);
  dev.copy_d2h(back.view(), d, st);
  EXPECT_EQ(back(0, 0), float(half(host(0, 0))));
  EXPECT_NE(back(0, 0), host(0, 0));
}

TEST(Device, SubBlockTransfers) {
  Device dev(tiny_spec(), ExecutionMode::Real);
  la::Matrix host = la::random_uniform(8, 8, 2);
  DeviceMatrix d = dev.allocate(8, 8);
  Stream st = dev.create_stream();
  dev.copy_h2d(d, host.view(), st);
  // Overwrite an interior block from a different host matrix.
  la::Matrix patch = la::random_uniform(3, 2, 3);
  dev.copy_h2d(DeviceMatrixRef(d, 2, 4, 3, 2), patch.view(), st);
  la::Matrix back(8, 8);
  dev.copy_d2h(back.view(), d, st);
  for (index_t j = 0; j < 8; ++j) {
    for (index_t i = 0; i < 8; ++i) {
      const bool in_patch = i >= 2 && i < 5 && j >= 4 && j < 6;
      EXPECT_FLOAT_EQ(back(i, j),
                      in_patch ? patch(i - 2, j - 4) : host(i, j));
    }
  }
  EXPECT_THROW(dev.copy_h2d(DeviceMatrixRef(d, 6, 0, 3, 1), patch.view(), st),
               InvalidArgument);
}

TEST(Device, GemmRealMatchesHostBlas) {
  Device dev(tiny_spec(), ExecutionMode::Real);
  la::Matrix a = la::random_uniform(16, 8, 1);
  la::Matrix b = la::random_uniform(16, 12, 2);
  DeviceMatrix da = dev.allocate(16, 8);
  DeviceMatrix db = dev.allocate(16, 12);
  DeviceMatrix dc = dev.allocate(8, 12);
  Stream st = dev.create_stream();
  dev.copy_h2d(da, a.view(), st);
  dev.copy_h2d(db, b.view(), st);
  dev.gemm(Op::Trans, Op::NoTrans, 1.0f, da, db, 0.0f, dc,
           GemmPrecision::FP32, st);
  la::Matrix got(8, 12);
  dev.copy_d2h(got.view(), dc, st);

  la::Matrix expected(8, 12);
  blas::gemm(Op::Trans, Op::NoTrans, 8, 12, 16, 1.0f, a.data(), a.ld(),
             b.data(), b.ld(), 0.0f, expected.data(), expected.ld());
  EXPECT_LT(la::relative_difference(got.view(), expected.view()), 1e-6);
}

TEST(Device, GemmValidatesShapes) {
  Device dev(tiny_spec(), ExecutionMode::Phantom);
  DeviceMatrix a = dev.allocate(16, 8);
  DeviceMatrix b = dev.allocate(12, 16); // wrong inner dim for NoTrans
  DeviceMatrix c = dev.allocate(16, 16);
  Stream st = dev.create_stream();
  EXPECT_THROW(dev.gemm(Op::NoTrans, Op::NoTrans, 1.0f, a, b, 0.0f, c,
                        GemmPrecision::FP32, st),
               InvalidArgument);
}

TEST(Device, GemmFlopCountersCountOnlyScheduledOps) {
  // sim.gemm_flops.* attribute the flops the compute engine ran. A GEMM
  // refused by a fatal fault, or by a device that is already dead, never
  // reaches the engine and must count nothing.
  const auto gemm_flops = [] {
    telemetry::MetricsRegistry& reg = telemetry::MetricsRegistry::global();
    return reg.counter("sim.gemm_flops.reduction").value() +
           reg.counter("sim.gemm_flops.outer").value() +
           reg.counter("sim.gemm_flops.square").value();
  };
  const auto entries = [](Device& dev) {
    const DeviceMatrix a = dev.allocate(64, 64);
    const DeviceMatrix b = dev.allocate(64, 64);
    const DeviceMatrix c = dev.allocate(64, 64);
    return std::vector<Device::GemmBatchEntry>{
        {Op::NoTrans, Op::NoTrans, 1.0f, a, b, 0.0f, c}};
  };

  Device dev(tiny_spec(), ExecutionMode::Phantom);
  const std::vector<Device::GemmBatchEntry> es = entries(dev);
  Stream st = dev.create_stream();
  dev.install_faults(FaultPlan::parse("compute:fatal:op=1"));
  const std::int64_t before = gemm_flops();
  EXPECT_THROW(dev.gemm_batched(es, GemmPrecision::FP32, st), DeviceLost);
  EXPECT_TRUE(dev.dead());
  EXPECT_THROW(dev.gemm_batched(es, GemmPrecision::FP32, st), DeviceLost);
  const Device::GemmBatchEntry& e = es.front();
  EXPECT_THROW(dev.gemm(e.opa, e.opb, e.alpha, e.a, e.b, e.beta, e.c,
                        GemmPrecision::FP32, st),
               DeviceLost);
  EXPECT_EQ(gemm_flops(), before);
  EXPECT_TRUE(dev.trace().empty());

  // A scheduled GEMM counts exactly the flops its trace event carries.
  Device live(tiny_spec(), ExecutionMode::Phantom);
  const std::vector<Device::GemmBatchEntry> ok = entries(live);
  Stream ls = live.create_stream();
  const std::int64_t live_before = gemm_flops();
  live.gemm_batched(ok, GemmPrecision::FP32, ls);
  ASSERT_EQ(live.trace().size(), 1u);
  EXPECT_EQ(gemm_flops() - live_before, live.trace().events().front().flops);
  EXPECT_EQ(live.trace().events().front().flops, blas::gemm_flops(64, 64, 64));
}

TEST(Device, PhantomModeRejectsDataAccess) {
  Device dev(tiny_spec(), ExecutionMode::Phantom);
  DeviceMatrix d = dev.allocate(4, 4);
  Stream st = dev.create_stream();
  // Phantom host refs are fine in phantom mode.
  dev.copy_h2d(d, HostConstRef::phantom(4, 4), st);
  HostMutRef out = HostMutRef::phantom(4, 4);
  dev.copy_d2h(out, d, st);
  EXPECT_THROW(dev.download(d), PhantomDataError);
  la::Matrix m(4, 4);
  EXPECT_THROW(dev.upload(d, m.view()), PhantomDataError);
}

TEST(Device, RealModeRejectsPhantomRefs) {
  Device dev(tiny_spec(), ExecutionMode::Real);
  DeviceMatrix d = dev.allocate(4, 4);
  Stream st = dev.create_stream();
  EXPECT_THROW(dev.copy_h2d(d, HostConstRef::phantom(4, 4), st),
               PhantomDataError);
  HostMutRef out = HostMutRef::phantom(4, 4);
  EXPECT_THROW(dev.copy_d2h(out, d, st), PhantomDataError);
}

// --- Scheduling semantics ---------------------------------------------------

TEST(Schedule, StreamOrderIsSequential) {
  Device dev(tiny_spec(), ExecutionMode::Phantom);
  Stream st = dev.create_stream();
  DeviceMatrix d = dev.allocate(1024, 1024);
  dev.copy_h2d(d, HostConstRef::phantom(1024, 1024), st);
  dev.gemm(Op::NoTrans, Op::NoTrans, 1.0f, d, d, 0.0f, d,
           GemmPrecision::FP16_FP32, st);
  HostMutRef out = HostMutRef::phantom(1024, 1024);
  dev.copy_d2h(out, d, st);
  const auto& ev = dev.trace().events();
  ASSERT_EQ(ev.size(), 3u);
  EXPECT_GE(ev[1].start, ev[0].end);
  EXPECT_GE(ev[2].start, ev[1].end);
}

TEST(Schedule, IndependentStreamsOverlapAcrossEngines) {
  Device dev(tiny_spec(), ExecutionMode::Phantom);
  Stream s1 = dev.create_stream();
  Stream s2 = dev.create_stream();
  DeviceMatrix a = dev.allocate(1024, 1024);
  DeviceMatrix b = dev.allocate(1024, 1024);
  // Long H2D on s1 and a gemm on s2: different engines, no dependency.
  dev.copy_h2d(a, HostConstRef::phantom(1024, 1024), s1);
  dev.gemm(Op::NoTrans, Op::NoTrans, 1.0f, b, b, 0.0f, b,
           GemmPrecision::FP16_FP32, s2);
  const auto& ev = dev.trace().events();
  EXPECT_DOUBLE_EQ(ev[0].start, 0.0);
  EXPECT_DOUBLE_EQ(ev[1].start, 0.0); // starts concurrently
}

TEST(Schedule, SameEngineSerializesAcrossStreams) {
  Device dev(tiny_spec(), ExecutionMode::Phantom);
  Stream s1 = dev.create_stream();
  Stream s2 = dev.create_stream();
  DeviceMatrix a = dev.allocate(512, 512);
  dev.copy_h2d(a, HostConstRef::phantom(512, 512), s1);
  dev.copy_h2d(a, HostConstRef::phantom(512, 512), s2);
  const auto& ev = dev.trace().events();
  // One H2D link: the second transfer queues behind the first.
  EXPECT_GE(ev[1].start, ev[0].end);
}

TEST(Schedule, EventsCreateCrossStreamDependencies) {
  Device dev(tiny_spec(), ExecutionMode::Phantom);
  Stream s1 = dev.create_stream();
  Stream s2 = dev.create_stream();
  DeviceMatrix a = dev.allocate(2048, 2048);
  DeviceMatrix b = dev.allocate(2048, 2048);
  dev.copy_h2d(a, HostConstRef::phantom(2048, 2048), s1);
  Event e = dev.create_event();
  dev.record_event(e, s1);
  dev.wait_event(s2, e);
  dev.gemm(Op::NoTrans, Op::NoTrans, 1.0f, a, a, 0.0f, b,
           GemmPrecision::FP16_FP32, s2);
  const auto& ev = dev.trace().events();
  EXPECT_GE(ev[1].start, ev[0].end); // gemm waits for the upload
}

TEST(Schedule, WaitBeforeRecordThrows) {
  Device dev(tiny_spec(), ExecutionMode::Phantom);
  Stream st = dev.create_stream();
  Event e = dev.create_event();
  EXPECT_THROW(dev.wait_event(st, e), ResourceError);
  EXPECT_THROW(dev.record_event(Event{}, st), InvalidArgument);
  EXPECT_THROW(dev.record_event(e, Stream{}), InvalidArgument);
}

TEST(Schedule, SynchronizeAdvancesHostClock) {
  Device dev(tiny_spec(), ExecutionMode::Phantom);
  Stream st = dev.create_stream();
  DeviceMatrix a = dev.allocate(4096, 4096);
  dev.copy_h2d(a, HostConstRef::phantom(4096, 4096), st);
  EXPECT_DOUBLE_EQ(dev.now(), 0.0); // async enqueue is free
  dev.synchronize(st);
  EXPECT_GT(dev.now(), 0.0);
  EXPECT_DOUBLE_EQ(dev.now(), dev.makespan());
  // Ops enqueued after a sync start no earlier than the host clock.
  dev.copy_h2d(a, HostConstRef::phantom(4096, 4096), st);
  const auto& ev = dev.trace().events();
  EXPECT_GE(ev[1].start, dev.now());
}

TEST(Schedule, SyncVersusAsyncMakespan) {
  // The canonical pipeline: N x (h2d, gemm). Async should approach
  // max(copy, compute) while sync pays copy + compute, the Tables 1/2
  // "Synchronous vs Asynchronous" contrast.
  const auto run = [&](bool synchronous) {
    Device dev(tiny_spec(), ExecutionMode::Phantom);
    Stream in = dev.create_stream();
    Stream comp = dev.create_stream();
    DeviceMatrix buf[2] = {dev.allocate(1024, 1024),
                           dev.allocate(1024, 1024)};
    DeviceMatrix c = dev.allocate(1024, 1024);
    for (int i = 0; i < 8; ++i) {
      DeviceMatrix& slab = buf[i % 2];
      dev.copy_h2d(slab, HostConstRef::phantom(1024, 1024), in);
      if (synchronous) dev.synchronize();
      Event e = dev.create_event();
      dev.record_event(e, in);
      dev.wait_event(comp, e);
      dev.gemm(Op::NoTrans, Op::NoTrans, 1.0f, slab, slab, 1.0f, c,
               GemmPrecision::FP16_FP32, comp);
      if (synchronous) dev.synchronize();
    }
    dev.synchronize();
    return dev.makespan();
  };
  const sim_time_t sync = run(true);
  const sim_time_t async = run(false);
  EXPECT_LT(async, sync * 0.75);
}

TEST(Schedule, EngineIntervalsNeverOverlap) {
  // Random-ish workload, then verify the fundamental resource invariant.
  Device dev(tiny_spec(), ExecutionMode::Phantom);
  Stream s1 = dev.create_stream();
  Stream s2 = dev.create_stream();
  Stream s3 = dev.create_stream();
  DeviceMatrix m1 = dev.allocate(1500, 1500);
  DeviceMatrix m2 = dev.allocate(1500, 1500);
  HostMutRef out = HostMutRef::phantom(1500, 1500);
  for (int i = 0; i < 20; ++i) {
    Stream st = i % 3 == 0 ? s1 : (i % 3 == 1 ? s2 : s3);
    switch (i % 4) {
      case 0: dev.copy_h2d(m1, HostConstRef::phantom(1500, 1500), st); break;
      case 1:
        dev.gemm(Op::NoTrans, Op::NoTrans, 1.0f, m1, m2, 0.0f, m1,
                 GemmPrecision::FP16_FP32, st);
        break;
      case 2: dev.copy_d2h(out, m2, st); break;
      case 3: dev.copy_d2d(m2, m1, st); break;
    }
  }
  std::map<Resource, std::vector<std::pair<sim_time_t, sim_time_t>>> lanes;
  for (const auto& e : dev.trace().events()) {
    lanes[e.resource].push_back({e.start, e.end});
  }
  for (auto& [res, intervals] : lanes) {
    std::sort(intervals.begin(), intervals.end());
    for (size_t i = 1; i < intervals.size(); ++i) {
      EXPECT_GE(intervals[i].first, intervals[i - 1].second)
          << "engine " << to_string(res) << " double-booked";
    }
  }
}

TEST(Schedule, D2dRunsOnComputeEngine) {
  Device dev(tiny_spec(), ExecutionMode::Phantom);
  Stream st = dev.create_stream();
  DeviceMatrix a = dev.allocate(256, 256);
  DeviceMatrix b = dev.allocate(256, 256);
  dev.copy_d2d(b, a, st);
  const auto& e = dev.trace().events().front();
  EXPECT_EQ(e.resource, Resource::Compute);
  EXPECT_EQ(e.kind, OpKind::CopyD2D);
  EXPECT_EQ(e.bytes, 256 * 256 * 4);
}

TEST(Schedule, TransferBytesAreFp32EvenForFp16Storage) {
  Device dev(tiny_spec(), ExecutionMode::Phantom);
  Stream st = dev.create_stream();
  DeviceMatrix h = dev.allocate(128, 128, StoragePrecision::FP16);
  dev.copy_h2d(h, HostConstRef::phantom(128, 128), st);
  EXPECT_EQ(dev.trace().bytes_h2d(), 128 * 128 * 4);
  // But on-device staging copies move the stored width.
  DeviceMatrix h2 = dev.allocate(128, 128, StoragePrecision::FP16);
  dev.copy_d2d(h2, h, st);
  EXPECT_EQ(dev.trace().bytes_d2d(), 128 * 128 * 2);
}

TEST(Schedule, CustomComputeOpRunsBodyAndCharges) {
  Device dev(tiny_spec(), ExecutionMode::Real);
  Stream st = dev.create_stream();
  bool ran = false;
  dev.custom_compute(st, 0.25, 1000, OpKind::Panel, "test panel",
                     [&]() { ran = true; });
  EXPECT_TRUE(ran);
  const auto& e = dev.trace().events().front();
  EXPECT_EQ(e.kind, OpKind::Panel);
  EXPECT_DOUBLE_EQ(e.end - e.start, 0.25);
  EXPECT_EQ(e.flops, 1000);
  // Phantom mode skips the body.
  Device ph(tiny_spec(), ExecutionMode::Phantom);
  Stream st2 = ph.create_stream();
  bool ran2 = false;
  ph.custom_compute(st2, 0.1, 0, OpKind::Custom, "skip", [&]() { ran2 = true; });
  EXPECT_FALSE(ran2);
}

TEST(Schedule, EmptyRefOpsAreNoops) {
  Device dev(tiny_spec(), ExecutionMode::Phantom);
  Stream st = dev.create_stream();
  DeviceMatrix a = dev.allocate(8, 8);
  dev.copy_h2d(DeviceMatrixRef(a, 0, 0, 0, 8), HostConstRef::phantom(0, 8), st);
  EXPECT_TRUE(dev.trace().empty());
}

TEST(Device, TrsmKindsSolveCorrectly) {
  Device dev(tiny_spec(), ExecutionMode::Real);
  Stream st = dev.create_stream();
  const index_t n = 12;
  const index_t nrhs = 3;

  // Build an upper triangle with safe diagonal and a unit-lower triangle.
  la::Matrix upper = la::random_uniform(n, n, 31);
  for (index_t j = 0; j < n; ++j) {
    upper(j, j) = 2.0f + std::abs(upper(j, j));
    for (index_t i = j + 1; i < n; ++i) upper(i, j) = 0.0f;
  }
  la::Matrix x_true = la::random_uniform(n, nrhs, 32);

  // LeftUpper: U x = b.
  la::Matrix b(n, nrhs);
  blas::gemm(Op::NoTrans, Op::NoTrans, n, nrhs, n, 1.0f, upper.data(),
             upper.ld(), x_true.data(), x_true.ld(), 0.0f, b.data(), b.ld());
  auto tri = dev.allocate(n, n);
  dev.upload(tri, upper.view());
  auto rhs = dev.allocate(n, nrhs);
  dev.upload(rhs, b.view());
  dev.trsm(Device::TrsmKind::LeftUpper, tri, rhs, blas::GemmPrecision::FP32,
           st);
  la::Matrix got = dev.download(rhs);
  EXPECT_LT(la::relative_difference(got.view(), x_true.view()), 1e-4);

  // LeftUpperTrans: Uᵀ x = b2.
  la::Matrix b2(n, nrhs);
  blas::gemm(Op::Trans, Op::NoTrans, n, nrhs, n, 1.0f, upper.data(),
             upper.ld(), x_true.data(), x_true.ld(), 0.0f, b2.data(),
             b2.ld());
  dev.upload(rhs, b2.view());
  dev.trsm(Device::TrsmKind::LeftUpperTrans, tri, rhs,
           blas::GemmPrecision::FP32, st);
  got = dev.download(rhs);
  EXPECT_LT(la::relative_difference(got.view(), x_true.view()), 1e-4);

  // Shape validation and cost model.
  auto bad = dev.allocate(n + 1, nrhs);
  EXPECT_THROW(dev.trsm(Device::TrsmKind::LeftUpper, tri, bad,
                        blas::GemmPrecision::FP32, st),
               InvalidArgument);
  const auto& e = dev.trace().events().back();
  EXPECT_EQ(e.kind, OpKind::Trsm);
  EXPECT_EQ(e.flops, static_cast<flops_t>(n) * n * nrhs);
}

TEST(Schedule, UploadDownloadTestAids) {
  Device dev(tiny_spec(), ExecutionMode::Real);
  DeviceMatrix d = dev.allocate(5, 5, StoragePrecision::FP16);
  la::Matrix m = la::random_uniform(5, 5, 9);
  dev.upload(d, m.view());
  la::Matrix back = dev.download(d);
  for (index_t j = 0; j < 5; ++j) {
    for (index_t i = 0; i < 5; ++i) {
      EXPECT_EQ(back(i, j), float(half(m(i, j)))); // fp16 storage rounding
    }
  }
  // No simulated time was consumed.
  EXPECT_TRUE(dev.trace().empty());
}

} // namespace
} // namespace rocqr::sim
