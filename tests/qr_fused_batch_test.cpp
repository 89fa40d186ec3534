// Batched small-QR fusion through qr::detail::run_fused_batch: K
// same-shape "blocking" jobs lowered to ONE node program of block-diagonal
// batched operations (one batched move-in / panel kernel / GEMM pair /
// move-out per fused round). Pins the fused-vs-solo bitwise numerics
// contract, the latency-amortization makespan win, the even per-job stats
// split, checkpoint-boundary preemption with bit-identical solo resume,
// resume INTO a new fusion, and the fusion-contract rejections.
#include <gtest/gtest.h>

#include "leak_check.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "la/generate.hpp"
#include "qr/checkpoint.hpp"
#include "qr/factorize.hpp"
#include "qr/tiled_qr.hpp"
#include "sim/device.hpp"

namespace rocqr {
namespace {

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
SoloRun run_solo(const la::Matrix& a, const qr::QrOptions& opts) {
  Device dev(test_spec(), ExecutionMode::Real);
  SoloRun run{la::materialize(a.view()), la::Matrix(a.cols(), a.cols())};
  qr::QrProblem p{{&dev}, run.q.view(), run.r.view(),
                  qr::Algorithm::Blocking, opts};
  qr::factorize(p);
  return run;
}

TEST(FusedBatch, SingleJobFusedBatchMatchesSoloBitwise) {
  // The degenerate K=1 fusion issues batched ops of one entry each; the
  // per-entry bodies are the solo bodies, so the result is the solo result
  // bit for bit — not approximately.
  const index_t m = 96, n = 48;
  la::Matrix a = la::random_normal(m, n, 401);
  const qr::QrOptions opts = base_options(16);
  const SoloRun ref = run_solo(a, opts);

  la::Matrix q = la::materialize(a.view());
  la::Matrix r(n, n);
  Device dev(test_spec(), ExecutionMode::Real);
  qr::detail::run_fused_batch(
      dev, {qr::detail::BatchJob{"blocking", q.view(), r.view(), opts,
                                 "j0."}});
  EXPECT_TRUE(bitwise_equal(q, ref.q));
  EXPECT_TRUE(bitwise_equal(r, ref.r));
}

TEST(FusedBatch, FusionDoesNotPerturbAnyJobsNumerics) {
  // The tentpole contract: three same-shape jobs with different payloads
  // fused into block-diagonal batched ops each land exactly on their solo
  // result — the fused bodies run the identical per-entry arithmetic in
  // entry order, and the jobs' buffers are disjoint.
  const index_t m = 96, n = 64;
  la::Matrix a0 = la::random_normal(m, n, 411);
  la::Matrix a1 = la::random_normal(m, n, 412);
  la::Matrix a2 = la::random_normal(m, n, 413);
  const qr::QrOptions opts = base_options(16);
  const SoloRun ref0 = run_solo(a0, opts);
  const SoloRun ref1 = run_solo(a1, opts);
  const SoloRun ref2 = run_solo(a2, opts);

  la::Matrix q0 = la::materialize(a0.view()), r0(n, n);
  la::Matrix q1 = la::materialize(a1.view()), r1(n, n);
  la::Matrix q2 = la::materialize(a2.view()), r2(n, n);
  Device dev(test_spec(), ExecutionMode::Real);
  const std::vector<qr::QrStats> stats = qr::detail::run_fused_batch(
      dev,
      {qr::detail::BatchJob{"blocking", q0.view(), r0.view(), opts, "j0."},
       qr::detail::BatchJob{"blocking", q1.view(), r1.view(), opts, "j1."},
       qr::detail::BatchJob{"blocking", q2.view(), r2.view(), opts,
                            "j2."}});
  EXPECT_EQ(dev.live_allocations(), 0);

  EXPECT_TRUE(bitwise_equal(q0, ref0.q));
  EXPECT_TRUE(bitwise_equal(r0, ref0.r));
  EXPECT_TRUE(bitwise_equal(q1, ref1.q));
  EXPECT_TRUE(bitwise_equal(r1, ref1.r));
  EXPECT_TRUE(bitwise_equal(q2, ref2.q));
  EXPECT_TRUE(bitwise_equal(r2, ref2.r));

  // Even 1/K attribution: identical jobs, identical shares.
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[0].flops, stats[1].flops);
  EXPECT_EQ(stats[1].flops, stats[2].flops);
  EXPECT_EQ(stats[0].bytes_h2d, stats[1].bytes_h2d);
  for (const qr::QrStats& s : stats) {
    EXPECT_GT(s.bytes_h2d, 0);
    EXPECT_GT(s.total_seconds, 0.0);
  }
}

TEST(FusedBatch, FusionBeatsSerialSmallJobs) {
  // The point of fusing: one fused round pays each fixed per-op latency
  // (link turnaround, kernel launch) once instead of once per job, so the
  // fused makespan is strictly below running the same K jobs back to back
  // on the same device.
  qr::QrOptions opts;
  opts.blocksize = 64;
  const index_t m = 2048, n = 512;
  const int k = 4;

  double serial = 0;
  for (int i = 0; i < k; ++i) {
    Device dev(sim::DeviceSpec::v100_32gb(), ExecutionMode::Phantom);
    auto a = sim::HostMutRef::phantom(m, n);
    auto r = sim::HostMutRef::phantom(n, n);
    qr::detail::run_fused_batch(
        dev, {qr::detail::BatchJob{"blocking", a, r, opts, ""}});
    dev.synchronize();
    serial += dev.makespan();
  }

  Device dev(sim::DeviceSpec::v100_32gb(), ExecutionMode::Phantom);
  std::vector<qr::detail::BatchJob> jobs;
  for (int i = 0; i < k; ++i) {
    jobs.push_back(qr::detail::BatchJob{
        "blocking", sim::HostMutRef::phantom(m, n),
        sim::HostMutRef::phantom(n, n), opts, sim::op_name("j", i, ".")});
  }
  qr::detail::run_fused_batch(dev, jobs);
  dev.synchronize();
  EXPECT_LT(dev.makespan(), serial);
}

TEST(FusedBatch, OneLaneProgramIsTheColocatedProgram) {
  // Colocation and fusion run one blocking node program: a colocated job is
  // its one-lane form, named under the job label, and a fusion its K-lane
  // form, named under "fused ". With one job the two are the same schedule
  // event for event, and the same op names once the prefix is stripped.
  qr::QrOptions opts;
  opts.blocksize = 64;
  const auto run = [&](bool fused) {
    Device dev(sim::DeviceSpec::v100_32gb(), ExecutionMode::Phantom);
    const std::vector<qr::detail::BatchJob> jobs{qr::detail::BatchJob{
        "blocking", sim::HostMutRef::phantom(2048, 512),
        sim::HostMutRef::phantom(512, 512), opts, "j0."}};
    if (fused) {
      qr::detail::run_fused_batch(dev, jobs);
    } else {
      qr::detail::run_batch(dev, jobs);
    }
    dev.synchronize();
    return dev.trace().events();
  };
  const std::vector<sim::TraceEvent> colocated = run(false);
  const std::vector<sim::TraceEvent> fused = run(true);
  ASSERT_EQ(colocated.size(), fused.size());
  const auto unprefixed = [](std::string_view name, std::string_view prefix) {
    EXPECT_EQ(name.rfind(prefix, 0), 0u) << name;
    return name.substr(prefix.size());
  };
  for (size_t i = 0; i < fused.size(); ++i) {
    const sim::TraceEvent& c = colocated[i];
    const sim::TraceEvent& f = fused[i];
    EXPECT_EQ(unprefixed(c.name, "j0."), unprefixed(f.name, "fused "))
        << "op " << i;
    EXPECT_EQ(c.kind, f.kind) << c.name;
    EXPECT_EQ(c.resource, f.resource) << c.name;
    EXPECT_EQ(c.start, f.start) << c.name;
    EXPECT_EQ(c.end, f.end) << c.name;
    EXPECT_EQ(c.bytes, f.bytes) << c.name;
    EXPECT_EQ(c.flops, f.flops) << c.name;
  }
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

struct KeepAll : qr::CheckpointSink {
  void write(const qr::Checkpoint& cp) override { last = cp; }
  qr::Checkpoint last;
};

TEST(FusedBatch, PreemptAtFusedRoundBoundaryResumesSoloBitIdentical) {
  // A member preempted out of a fused batch carries the solo "blocking"
  // checkpoint tag: resuming it solo through qr::resume lands on the
  // uninterrupted solo result bit for bit — the fused prefix and the solo
  // suffix compose exactly.
  const index_t m = 96, n = 64;
  la::Matrix a0 = la::random_normal(m, n, 421);
  la::Matrix a1 = la::random_normal(m, n, 422);
  const qr::QrOptions opts = base_options(16);
  const SoloRun ref = run_solo(a0, opts);

  PreemptAfter sink(2); // two fused rounds land, preempt at the second
  qr::QrOptions cp_opts = opts;
  cp_opts.checkpoint_sink = &sink;
  la::Matrix q0 = la::materialize(a0.view()), r0(n, n);
  la::Matrix q1 = la::materialize(a1.view()), r1(n, n);
  {
    Device dev(test_spec(), ExecutionMode::Real);
    EXPECT_THROW(
        qr::detail::run_fused_batch(
            dev,
            {qr::detail::BatchJob{"blocking", q0.view(), r0.view(), cp_opts,
                                  "j0."},
             qr::detail::BatchJob{"blocking", q1.view(), r1.view(), opts,
                                  "j1."}}),
        std::runtime_error);
  }
  ASSERT_EQ(sink.count, 2);
  EXPECT_EQ(sink.last.driver, "blocking");
  EXPECT_EQ(sink.last.units_done, 2);

  la::Matrix q_res(m, n), r_res(n, n);
  Device dev(test_spec(), ExecutionMode::Real);
  qr::QrProblem p{{&dev}, q_res.view(), r_res.view(),
                  qr::Algorithm::Blocking, opts};
  qr::resume(p, sink.last);
  EXPECT_TRUE(bitwise_equal(q_res, ref.q));
  EXPECT_TRUE(bitwise_equal(r_res, ref.r));
}

TEST(FusedBatch, PreemptedMembersResumeIntoNewFusionBitIdentical) {
  // The other direction of the serve flow: both members checkpoint at the
  // same fused round (the members advance in lockstep), so after the
  // preemption they re-fuse with resume_units set and finish exactly where
  // their solo runs would have.
  const index_t m = 96, n = 64;
  la::Matrix a0 = la::random_normal(m, n, 431);
  la::Matrix a1 = la::random_normal(m, n, 432);
  const qr::QrOptions opts = base_options(16);
  const SoloRun ref0 = run_solo(a0, opts);
  const SoloRun ref1 = run_solo(a1, opts);

  // The thrower is the LAST member, so every member's round-2 checkpoint
  // has already been written when the unwind starts.
  KeepAll keep;
  PreemptAfter thrower(2);
  qr::QrOptions opts0 = opts;
  opts0.checkpoint_sink = &keep;
  qr::QrOptions opts1 = opts;
  opts1.checkpoint_sink = &thrower;
  la::Matrix q0 = la::materialize(a0.view()), r0(n, n);
  la::Matrix q1 = la::materialize(a1.view()), r1(n, n);
  {
    Device dev(test_spec(), ExecutionMode::Real);
    EXPECT_THROW(
        qr::detail::run_fused_batch(
            dev,
            {qr::detail::BatchJob{"blocking", q0.view(), r0.view(), opts0,
                                  "j0."},
             qr::detail::BatchJob{"blocking", q1.view(), r1.view(), opts1,
                                  "j1."}}),
        std::runtime_error);
  }
  ASSERT_EQ(keep.last.units_done, 2);
  ASSERT_EQ(thrower.last.units_done, 2);

  // Restore both host prefixes exactly as serve does, then re-fuse.
  const auto restore = [m, n](la::Matrix& q, la::Matrix& r,
                              const qr::Checkpoint& cp) {
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < m; ++i) {
        q(i, j) = cp.a[static_cast<size_t>(i) + static_cast<size_t>(j) * m];
      }
    }
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < n; ++i) {
        r(i, j) = cp.r[static_cast<size_t>(i) + static_cast<size_t>(j) * n];
      }
    }
  };
  restore(q0, r0, keep.last);
  restore(q1, r1, thrower.last);
  qr::QrOptions res_opts = opts;
  res_opts.resume_units = 2;
  Device dev(test_spec(), ExecutionMode::Real);
  qr::detail::run_fused_batch(
      dev,
      {qr::detail::BatchJob{"blocking", q0.view(), r0.view(), res_opts,
                            "j0."},
       qr::detail::BatchJob{"blocking", q1.view(), r1.view(), res_opts,
                            "j1."}});
  EXPECT_TRUE(bitwise_equal(q0, ref0.q));
  EXPECT_TRUE(bitwise_equal(r0, ref0.r));
  EXPECT_TRUE(bitwise_equal(q1, ref1.q));
  EXPECT_TRUE(bitwise_equal(r1, ref1.r));
}

TEST(FusedBatch, RejectsContractViolations) {
  Device dev(test_spec(), ExecutionMode::Phantom);
  auto a = sim::HostMutRef::phantom(64, 32);
  auto r = sim::HostMutRef::phantom(32, 32);
  const qr::QrOptions opts = base_options(16);

  // Only "blocking" jobs lower to the fused node program.
  EXPECT_THROW(
      qr::detail::run_fused_batch(
          dev, {qr::detail::BatchJob{"tiled", a, r, opts, ""}}),
      InvalidArgument);

  // Fused jobs share one block-diagonal panel: shapes must match.
  auto a2 = sim::HostMutRef::phantom(64, 48);
  auto r2 = sim::HostMutRef::phantom(48, 48);
  EXPECT_THROW(
      qr::detail::run_fused_batch(
          dev, {qr::detail::BatchJob{"blocking", a, r, opts, "j0."},
                qr::detail::BatchJob{"blocking", a2, r2, opts, "j1."}}),
      InvalidArgument);

  // One batched GEMM per round: blocksize and precision must agree.
  qr::QrOptions other_b = opts;
  other_b.blocksize = 8;
  EXPECT_THROW(
      qr::detail::run_fused_batch(
          dev, {qr::detail::BatchJob{"blocking", a, r, opts, "j0."},
                qr::detail::BatchJob{"blocking", a, r, other_b, "j1."}}),
      InvalidArgument);
  qr::QrOptions fp16 = opts;
  fp16.precision = blas::GemmPrecision::FP16_FP32;
  EXPECT_THROW(
      qr::detail::run_fused_batch(
          dev, {qr::detail::BatchJob{"blocking", a, r, opts, "j0."},
                qr::detail::BatchJob{"blocking", a, r, fp16, "j1."}}),
      InvalidArgument);

  // The batched GEMM carries no per-job checksum: abft jobs cannot fuse.
  qr::QrOptions abft = opts;
  abft.abft = true;
  EXPECT_THROW(
      qr::detail::run_fused_batch(
          dev, {qr::detail::BatchJob{"blocking", a, r, abft, ""}}),
      InvalidArgument);

  // Lockstep rounds: every member resumes from the same unit.
  qr::QrOptions resumed = opts;
  resumed.resume_units = 1;
  EXPECT_THROW(
      qr::detail::run_fused_batch(
          dev, {qr::detail::BatchJob{"blocking", a, r, opts, "j0."},
                qr::detail::BatchJob{"blocking", a, r, resumed, "j1."}}),
      InvalidArgument);
}

} // namespace
} // namespace rocqr
