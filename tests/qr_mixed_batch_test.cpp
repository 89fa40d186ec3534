// Mixed-algorithm colocation through qr::detail::run_batch: Tiled,
// Blocking and LeftLooking jobs fused into one per-device task graph.
// Pins the batch-vs-solo bitwise numerics contract for every algorithm
// (solo tiled and left-looking runs are one-job batches themselves; only
// blocking is bitwise the same as its separate solo engine-call driver),
// the colocated-makespan win over serial execution, per-job stats
// attribution, and checkpoint-boundary preemption with bit-identical
// resume through qr::resume.
#include <gtest/gtest.h>

#include "leak_check.hpp"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"
#include "qr/checkpoint.hpp"
#include "qr/factorize.hpp"
#include "qr/tiled_qr.hpp"
#include "sim/device.hpp"
#include "sim/faults.hpp"
#include "stats_equal.hpp"

namespace rocqr {
namespace {

using rocqr::testing::expect_same_stats;
using sim::Device;
using sim::ExecutionMode;

sim::DeviceSpec test_spec(bytes_t capacity = 512LL << 20) {
  sim::DeviceSpec s = sim::DeviceSpec::v100_32gb();
  s.memory_capacity = capacity;
  return s;
}

qr::QrOptions base_options(index_t blocksize) {
  qr::QrOptions opts;
  opts.blocksize = blocksize;
  opts.panel_base = 8;
  opts.precision = blas::GemmPrecision::FP32;
  return opts;
}

bool bitwise_equal(const la::Matrix& x, const la::Matrix& y) {
  for (index_t j = 0; j < x.cols(); ++j) {
    for (index_t i = 0; i < x.rows(); ++i) {
      if (x(i, j) != y(i, j)) return false;
    }
  }
  return true;
}

struct SoloRun {
  la::Matrix q;
  la::Matrix r;
};

/// Uninterrupted single-job reference through the public driver API.
SoloRun run_solo(const la::Matrix& a, qr::Algorithm alg,
                 const qr::QrOptions& opts) {
  Device dev(test_spec(), ExecutionMode::Real);
  SoloRun run{la::materialize(a.view()), la::Matrix(a.cols(), a.cols())};
  qr::QrProblem p{{&dev}, run.q.view(), run.r.view(), alg, opts};
  qr::factorize(p);
  return run;
}

class MixedBatchSoloEquivalence
    : public ::testing::TestWithParam<qr::Algorithm> {};

TEST_P(MixedBatchSoloEquivalence, SingleJobBatchMatchesSoloBitwise) {
  // A labelled one-job batch must reproduce the solo factorization bit for
  // bit — not approximately. Solo tiled and left runs are the unlabelled
  // one-job batch; the blocking program issues the same GEMMs with the same
  // k-extents as the solo blocking driver.
  const qr::Algorithm alg = GetParam();
  const char* name = qr::to_string(alg);
  const index_t m = 96, n = 48;
  la::Matrix a = la::random_normal(m, n, 301);
  const qr::QrOptions opts = base_options(16);
  const SoloRun ref = run_solo(a, alg, opts);

  la::Matrix q = la::materialize(a.view());
  la::Matrix r(n, n);
  Device dev(test_spec(), ExecutionMode::Real);
  qr::detail::run_batch(dev,
                        {qr::detail::BatchJob{name, q.view(), r.view(), opts,
                                              "j0."}});
  EXPECT_TRUE(bitwise_equal(q, ref.q)) << name;
  EXPECT_TRUE(bitwise_equal(r, ref.r)) << name;
}

// Named tiled, blocking and left. The parameter is the bare enum: a
// parameter holding a pointer prints its address into the discovered test
// name, which then changes with every build.
INSTANTIATE_TEST_SUITE_P(
    Algorithms, MixedBatchSoloEquivalence,
    ::testing::Values(qr::Algorithm::Tiled, qr::Algorithm::Blocking,
                      qr::Algorithm::LeftLooking),
    [](const auto& param_info) {
      return std::string(qr::to_string(param_info.param));
    });

TEST(MixedBatch, ColocationDoesNotPerturbAnyJobsNumerics) {
  // The strong form of the contract: colocated with *other* algorithms'
  // interleaved nodes, each job still matches its solo run bitwise —
  // interleaving reorders independent operations, never an accumulation.
  const index_t m = 96;
  la::Matrix a0 = la::random_normal(m, 48, 311);
  la::Matrix a1 = la::random_normal(m, 64, 312);
  la::Matrix a2 = la::random_normal(m, 32, 313);
  const qr::QrOptions opts = base_options(16);
  const SoloRun ref0 = run_solo(a0, qr::Algorithm::Tiled, opts);
  const SoloRun ref1 = run_solo(a1, qr::Algorithm::Blocking, opts);
  const SoloRun ref2 = run_solo(a2, qr::Algorithm::LeftLooking, opts);

  la::Matrix q0 = la::materialize(a0.view()), r0(48, 48);
  la::Matrix q1 = la::materialize(a1.view()), r1(64, 64);
  la::Matrix q2 = la::materialize(a2.view()), r2(32, 32);
  Device dev(test_spec(), ExecutionMode::Real);
  const std::vector<qr::QrStats> stats = qr::detail::run_batch(
      dev,
      {qr::detail::BatchJob{"tiled", q0.view(), r0.view(), opts, "j0."},
       qr::detail::BatchJob{"blocking", q1.view(), r1.view(), opts, "j1."},
       qr::detail::BatchJob{"left", q2.view(), r2.view(), opts, "j2."}});
  EXPECT_EQ(dev.live_allocations(), 0);

  EXPECT_TRUE(bitwise_equal(q0, ref0.q));
  EXPECT_TRUE(bitwise_equal(r0, ref0.r));
  EXPECT_TRUE(bitwise_equal(q1, ref1.q));
  EXPECT_TRUE(bitwise_equal(r1, ref1.r));
  EXPECT_TRUE(bitwise_equal(q2, ref2.q));
  EXPECT_TRUE(bitwise_equal(r2, ref2.r));

  // Per-job attribution: the label prefix splits the shared trace.
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[0].panels, 3); // 48 cols at b=16
  EXPECT_EQ(stats[1].panels, 4); // 64 cols at b=16
  EXPECT_EQ(stats[2].panels, 2); // 32 cols at b=16
  for (const qr::QrStats& s : stats) {
    EXPECT_GT(s.bytes_h2d, 0);
    EXPECT_GT(s.total_seconds, 0.0);
  }
}

TEST(MixedBatch, OnePassAttributionEqualsPerLabelDerivation) {
  // run_batch and the serve scheduler attribute a colocated window to its
  // members in one pass over the trace. Every member's stats must equal the
  // per-label derivation bit for bit, including when one label is a prefix
  // of another ("a" also takes every "ab" event, as a per-label scan does).
  const qr::QrOptions opts = base_options(256);
  Device dev(test_spec(4LL << 30), ExecutionMode::Phantom);
  const auto job = [&opts](const char* algorithm, index_t m, index_t n,
                           const char* label) {
    return qr::detail::BatchJob{algorithm, sim::HostMutRef::phantom(m, n),
                                sim::HostMutRef::phantom(n, n), opts, label};
  };
  for (const auto& labels :
       {std::vector<const char*>{"j0.", "j1.", "j2."},
        std::vector<const char*>{"a", "ab", "j2."}}) {
    const size_t window = dev.trace().size();
    const std::vector<qr::QrStats> stats = qr::detail::run_batch(
        dev, {job("tiled", 4096, 1024, labels[0]),
              job("blocking", 4096, 2048, labels[1]),
              job("left", 2048, 1024, labels[2])});
    ASSERT_EQ(stats.size(), 3u);
    std::vector<std::string_view> prefixes = {""};
    for (size_t i = 0; i < 3; ++i) {
      SCOPED_TRACE(labels[i]);
      const qr::QrStats per_label = qr::stats_from_trace(
          dev.trace(), window, dev.memory_peak(), labels[i]);
      EXPECT_GT(per_label.events, 0);
      expect_same_stats(stats[i], per_label);
      prefixes.push_back(labels[i]);
    }
    // The scheduler's form: the device total (empty prefix) with them.
    const std::vector<qr::QrStats> with_total = qr::stats_by_prefix(
        dev.trace(), window, dev.memory_peak(), prefixes);
    expect_same_stats(with_total[0], qr::stats_from_trace(dev.trace(), window,
                                                          dev.memory_peak()));
    for (size_t i = 0; i < 3; ++i) {
      expect_same_stats(with_total[i + 1], stats[i]);
    }
  }
}

TEST(MixedBatch, ColocatedTiledPlusBlockingBeatsSerial) {
  // The point of mixed colocation: one job's transfers overlap the other's
  // compute, so the fused graph's makespan beats running the two jobs back
  // to back on the same device.
  qr::QrOptions opts;
  opts.blocksize = 1 << 12;

  const auto solo = [&](const char* algorithm) {
    Device dev(sim::DeviceSpec::v100_32gb(), ExecutionMode::Phantom);
    auto a = sim::HostMutRef::phantom(1 << 15, 1 << 14);
    auto r = sim::HostMutRef::phantom(1 << 14, 1 << 14);
    qr::detail::run_batch(
        dev, {qr::detail::BatchJob{algorithm, a, r, opts, ""}});
    dev.synchronize();
    return dev.makespan();
  };
  const double serial = solo("tiled") + solo("blocking");

  Device dev(sim::DeviceSpec::v100_32gb(), ExecutionMode::Phantom);
  auto a0 = sim::HostMutRef::phantom(1 << 15, 1 << 14);
  auto r0 = sim::HostMutRef::phantom(1 << 14, 1 << 14);
  auto a1 = sim::HostMutRef::phantom(1 << 15, 1 << 14);
  auto r1 = sim::HostMutRef::phantom(1 << 14, 1 << 14);
  qr::detail::run_batch(
      dev, {qr::detail::BatchJob{"tiled", a0, r0, opts, "j0."},
            qr::detail::BatchJob{"blocking", a1, r1, opts, "j1."}});
  dev.synchronize();
  const double colocated = dev.makespan();

  EXPECT_LT(colocated, serial);
}

/// Models serve::Scheduler's preemption: the sink that raises out of the
/// driver at a checkpoint boundary, after the snapshot has been taken.
struct PreemptAfter : qr::CheckpointSink {
  explicit PreemptAfter(int limit) : limit_(limit) {}
  void write(const qr::Checkpoint& cp) override {
    last = cp;
    if (++count >= limit_) throw std::runtime_error("preempted");
  }
  qr::Checkpoint last;
  int count = 0;

 private:
  int limit_;
};

TEST(MixedBatch, PreemptAtCheckpointBoundaryResumesBitIdentical) {
  // A blocking job colocated with a tiled job is preempted at its first
  // checkpoint boundary; resuming the snapshot solo through qr::resume
  // must land on the uninterrupted solo result bit for bit — the batch
  // prefix and the solo suffix compose exactly.
  const index_t m = 96, n = 64;
  la::Matrix a0 = la::random_normal(m, n, 321);     // blocking, preempted
  la::Matrix a1 = la::random_normal(m, 48, 322);    // tiled, along for the ride
  const qr::QrOptions opts = base_options(16);
  const SoloRun ref = run_solo(a0, qr::Algorithm::Blocking, opts);

  PreemptAfter sink(2); // let two panels land, preempt at the second
  qr::QrOptions cp_opts = opts;
  cp_opts.checkpoint_sink = &sink;
  la::Matrix q0 = la::materialize(a0.view()), r0(n, n);
  la::Matrix q1 = la::materialize(a1.view()), r1(48, 48);
  {
    Device dev(test_spec(), ExecutionMode::Real);
    EXPECT_THROW(
        qr::detail::run_batch(
            dev,
            {qr::detail::BatchJob{"blocking", q0.view(), r0.view(), cp_opts,
                                  "j0."},
             qr::detail::BatchJob{"tiled", q1.view(), r1.view(), opts,
                                  "j1."}}),
        std::runtime_error);
  }
  ASSERT_EQ(sink.count, 2);
  EXPECT_EQ(sink.last.driver, "blocking");
  EXPECT_EQ(sink.last.units_done, 2);

  la::Matrix q_res(m, n), r_res(n, n);
  Device dev(test_spec(), ExecutionMode::Real);
  qr::QrProblem p{{&dev}, q_res.view(), r_res.view(), qr::Algorithm::Blocking,
                  opts};
  qr::resume(p, sink.last);
  EXPECT_TRUE(bitwise_equal(q_res, ref.q));
  EXPECT_TRUE(bitwise_equal(r_res, ref.r));
}

TEST(MixedBatch, ResumeUnitsSkipsTheCompletedPrefixInBatch) {
  // The other direction of the serve flow: a checkpointed solo job is
  // re-dispatched *into* a colocated batch with resume_units set; the
  // batch replays only the remaining panels and finishes bit-identically.
  const index_t m = 96, n = 64;
  la::Matrix a0 = la::random_normal(m, n, 331);
  la::Matrix a1 = la::random_normal(m, 32, 332);
  const qr::QrOptions opts = base_options(16);
  const SoloRun ref = run_solo(a0, qr::Algorithm::Blocking, opts);

  struct KeepAll : qr::CheckpointSink {
    void write(const qr::Checkpoint& cp) override { all.push_back(cp); }
    std::vector<qr::Checkpoint> all;
  } sink;
  qr::QrOptions cp_opts = opts;
  cp_opts.checkpoint_sink = &sink;
  cp_opts.checkpoint_every = 2;
  {
    la::Matrix q = la::materialize(a0.view()), r(n, n);
    Device dev(test_spec(), ExecutionMode::Real);
    qr::QrProblem p{{&dev}, q.view(), r.view(), qr::Algorithm::Blocking,
                    cp_opts};
    qr::factorize(p);
  }
  ASSERT_GE(sink.all.size(), 2u); // units 2 and 4 at checkpoint_every=2
  const qr::Checkpoint& cp = sink.all.front(); // a strict prefix: 2 of 4
  ASSERT_EQ(cp.units_done, 2);

  // Restore the host prefix as the serve::Scheduler does, then hand the
  // job to a mixed batch with resume_units.
  la::Matrix q0(m, n), r0(n, n);
  qr::restore_host(q0.view(), cp.a);
  qr::restore_host(r0.view(), cp.r);
  qr::QrOptions res_opts = opts;
  res_opts.resume_units = cp.units_done;
  la::Matrix q1 = la::materialize(a1.view()), r1(32, 32);
  Device dev(test_spec(), ExecutionMode::Real);
  qr::detail::run_batch(
      dev, {qr::detail::BatchJob{"blocking", q0.view(), r0.view(), res_opts,
                                 "j0."},
            qr::detail::BatchJob{"tiled", q1.view(), r1.view(), opts,
                                 "j1."}});
  EXPECT_TRUE(bitwise_equal(q0, ref.q));
  EXPECT_TRUE(bitwise_equal(r0, ref.r));
  EXPECT_LT(la::qr_residual(a1.view(), q1.view(), r1.view()), 1e-4);
}

TEST(MixedBatch, ColocatedBlockingAbftRepairsComputeCorruption) {
  // Colocated GEMMs keep the opt-in ABFT check: a blocking and a tiled job
  // share one graph under injected output corruption, every corrupted GEMM
  // is caught and recomputed, and both jobs land on the clean run bit for
  // bit.
  const index_t m = 96;
  la::Matrix a0 = la::random_normal(m, 64, 341); // blocking
  la::Matrix a1 = la::random_normal(m, 48, 342); // tiled
  qr::QrOptions opts = base_options(16);
  opts.abft = true;

  struct Run {
    la::Matrix q0, r0, q1, r1;
  };
  const auto run = [&](const std::string& faults) {
    Run out{la::materialize(a0.view()), la::Matrix(64, 64),
            la::materialize(a1.view()), la::Matrix(48, 48)};
    Device dev(test_spec(), ExecutionMode::Real);
    if (!faults.empty()) dev.install_faults(sim::FaultPlan::parse(faults));
    qr::detail::run_batch(
        dev, {qr::detail::BatchJob{"blocking", out.q0.view(), out.r0.view(),
                                   opts, "j0."},
              qr::detail::BatchJob{"tiled", out.q1.view(), out.r1.view(),
                                   opts, "j1."}});
    EXPECT_EQ(dev.live_allocations(), 0);
    return out;
  };

  const Run clean = run("");
  telemetry::Counter& recomputes =
      telemetry::MetricsRegistry::global().counter("abft_recomputes");
  const std::int64_t before = recomputes.value();
  const Run repaired = run(
      "compute:corrupt:op=2;compute:corrupt:op=7;compute:corrupt:op=15");
  EXPECT_GT(recomputes.value(), before);
  EXPECT_TRUE(bitwise_equal(repaired.q0, clean.q0));
  EXPECT_TRUE(bitwise_equal(repaired.r0, clean.r0));
  EXPECT_TRUE(bitwise_equal(repaired.q1, clean.q1));
  EXPECT_TRUE(bitwise_equal(repaired.r1, clean.r1));
}

TEST(MixedBatch, RejectsUnknownAlgorithmAndMixedPrecision) {
  Device dev(test_spec(), ExecutionMode::Phantom);
  auto a = sim::HostMutRef::phantom(64, 32);
  auto r = sim::HostMutRef::phantom(32, 32);
  const qr::QrOptions opts = base_options(16);

  // No node program lowers the fleet/recursive drivers (yet).
  EXPECT_THROW(qr::detail::run_batch(
                   dev, {qr::detail::BatchJob{"recursive", a, r, opts, ""}}),
               InvalidArgument);

  // Colocated jobs share one graph and therefore one gemm precision.
  qr::QrOptions fp16 = opts;
  fp16.precision = blas::GemmPrecision::FP16_FP32;
  EXPECT_THROW(
      qr::detail::run_batch(
          dev, {qr::detail::BatchJob{"tiled", a, r, opts, "j0."},
                qr::detail::BatchJob{"tiled", a, r, fp16, "j1."}}),
      InvalidArgument);
}

} // namespace
} // namespace rocqr
