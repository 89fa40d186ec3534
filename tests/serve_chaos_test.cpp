// Chaos test for the QR service: drive a Real-mode fleet whose devices
// inject transient transfer faults and a mid-run allocation OOM, and
// require every admitted job to complete with a numerically correct
// factorization, no leaked device allocations, and a coherent fleet report.
// Fused and colocated dispatches that fail retry every member under the
// retry cap.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/telemetry.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"
#include "leak_check.hpp"
#include "qr/incore.hpp"
#include "serve/scheduler.hpp"
#include "sim/device.hpp"

namespace rocqr {
namespace {

using serve::AdmissionDecision;
using serve::FleetReport;
using serve::JobReport;
using serve::JobSpec;
using serve::JobState;
using serve::Scheduler;
using serve::ServeConfig;

TEST(ServeChaos, FaultyFleetCompletesEveryJob) {
  constexpr index_t kM = 96;
  constexpr index_t kN = 72;
  constexpr index_t kB = 24;
  constexpr int kJobs = 8;

  telemetry::Counter& faults =
      telemetry::MetricsRegistry::global().counter("faults_injected");
  const std::int64_t faults_before = faults.value();

  ServeConfig cfg;
  cfg.devices = 4;
  cfg.mode = sim::ExecutionMode::Real;
  // Device 0 drops H2D transfers at random (retried inside the drivers);
  // device 2 OOMs an allocation mid-run (absorbed by slab degradation or,
  // failing that, a scheduler retry from the last checkpoint).
  cfg.device_faults = {"h2d:transient:p=0.05;seed=3", "",
                       "alloc:oom:after=6", ""};
  Scheduler sched(cfg);

  qr::QrOptions base;
  base.blocksize = kB;
  base.precision = blas::GemmPrecision::FP32;
  base.panel_base = 8;

  const char* algos[] = {"recursive", "blocking", "left"};
  std::vector<la::Matrix> as;
  std::vector<la::Matrix> rs;
  as.reserve(kJobs);
  rs.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    as.push_back(la::random_normal(kM, kN, 700 + i));
    rs.emplace_back(kN, kN);
    JobSpec job;
    job.name = "chaos" + std::to_string(i);
    job.m = kM;
    job.n = kN;
    job.algorithm = algos[i % 3];
    job.blocksize = kB;
    job.precision = blas::GemmPrecision::FP32;
    job.priority = i % 2;
    job.options = base;
    job.a = as.back().view();
    job.r = rs.back().view();
    const AdmissionDecision d = sched.submit(job);
    ASSERT_TRUE(d.admitted) << job.name << ": " << d.reason;
  }

  const FleetReport rep = sched.run();
  EXPECT_EQ(rep.jobs_admitted, kJobs);
  EXPECT_EQ(rep.jobs_completed, kJobs);
  EXPECT_EQ(rep.jobs_failed, 0);
  EXPECT_DOUBLE_EQ(rep.makespan_seconds, rep.fleet.total_seconds);
  EXPECT_GT(faults.value(), faults_before);

  // Bitwise comparison would be too strong here: an OOM-degraded slab
  // schedule changes the GEMM summation order. Check the factorizations
  // numerically against a dense Householder reference instead.
  for (int i = 0; i < kJobs; ++i) {
    const JobReport& j = rep.jobs[static_cast<size_t>(i)];
    EXPECT_EQ(j.state, JobState::Completed) << j.name;
    la::Matrix a0 = la::random_normal(kM, kN, 700 + i);
    const qr::QrFactors ref = qr::householder(a0.view());
    EXPECT_LT(la::relative_difference(as[static_cast<size_t>(i)].view(),
                                      ref.q.view()),
              2e-3)
        << j.name;
    EXPECT_LT(la::qr_residual(a0.view(), as[static_cast<size_t>(i)].view(),
                              rs[static_cast<size_t>(i)].view()),
              1e-4)
        << j.name;
    EXPECT_LT(la::orthogonality_error(as[static_cast<size_t>(i)].view()),
              1e-3)
        << j.name;
  }

  // Every fleet device drained its allocations (ScopedMatrix leaks are
  // caught suite-wide by leak_check.hpp; live allocations here).
  for (const auto& dev : sched.devices()) {
    EXPECT_EQ(dev->live_allocations(), 0u);
  }
}

// Fault epilogues of the batched dispatch kinds: a failed fused or
// colocated dispatch requeues (or, past the retry cap, fails) every member.
enum class Batching { Fused, Colocated };

/// Eight 2048x512 jobs at b=64 on a fleet that packs up to four per
/// dispatch: same-shape "blocking" jobs fuse, a tiled/left/blocking mix
/// colocates.
FleetReport run_batched(Batching kind, ServeConfig cfg) {
  if (kind == Batching::Fused) {
    cfg.max_fused_jobs = 4;
  } else {
    cfg.max_colocated_jobs = 4;
  }
  Scheduler sched(cfg);
  const char* mix[] = {"tiled", "left", "blocking"};
  for (int i = 0; i < 8; ++i) {
    JobSpec job;
    job.name = "batched" + std::to_string(i);
    job.m = 2048;
    job.n = 512;
    job.blocksize = 64;
    job.algorithm = kind == Batching::Fused ? "blocking" : mix[i % 3];
    EXPECT_TRUE(sched.submit(job).admitted) << job.name;
  }
  FleetReport rep = sched.run();
  for (const auto& dev : sched.devices()) {
    EXPECT_EQ(dev->live_allocations(), 0u);
  }
  return rep;
}

/// One device whose first four H2D copies fail: the first dispatch (jobs
/// 0-3) exhausts the copy-retry budget (4 attempts) once and unwinds.
ServeConfig exhausted_copy_retries() {
  ServeConfig cfg;
  cfg.devices = 1;
  cfg.device_faults = {"h2d:transient:p=1,count=4"};
  return cfg;
}

void expect_batch_retried_once(Batching kind) {
  const FleetReport rep = run_batched(kind, exhausted_copy_retries());
  EXPECT_EQ(rep.jobs_completed, 8);
  EXPECT_EQ(rep.jobs_failed, 0);
  EXPECT_EQ(rep.job_retries, 4);
  for (size_t i = 0; i < rep.jobs.size(); ++i) {
    const JobReport& j = rep.jobs[i];
    EXPECT_EQ(j.state, JobState::Completed) << j.name;
    EXPECT_EQ(j.attempts, i < 4 ? 2 : 1) << j.name;
    EXPECT_EQ(j.retries, i < 4 ? 1 : 0) << j.name;
  }
}

void expect_batch_failed_at_retry_cap(Batching kind) {
  ServeConfig cfg = exhausted_copy_retries();
  cfg.max_job_retries = 0;
  const FleetReport rep = run_batched(kind, cfg);
  EXPECT_EQ(rep.jobs_failed, 4);
  EXPECT_EQ(rep.jobs_completed, 4);
  EXPECT_EQ(rep.job_retries, 0);
  for (size_t i = 0; i < rep.jobs.size(); ++i) {
    const JobReport& j = rep.jobs[i];
    EXPECT_EQ(j.state, i < 4 ? JobState::Failed : JobState::Completed)
        << j.name;
    EXPECT_EQ(j.attempts, 1) << j.name;
    if (i < 4) {
      EXPECT_FALSE(j.failure.empty()) << j.name;
    }
  }
}

TEST(ServeChaos, FusedBatchRetriesEveryMember) {
  expect_batch_retried_once(Batching::Fused);
}

TEST(ServeChaos, ColocatedBatchRetriesEveryMember) {
  expect_batch_retried_once(Batching::Colocated);
}

TEST(ServeChaos, FusedBatchFailsEveryMemberAtRetryCap) {
  expect_batch_failed_at_retry_cap(Batching::Fused);
}

TEST(ServeChaos, ColocatedBatchFailsEveryMemberAtRetryCap) {
  expect_batch_failed_at_retry_cap(Batching::Colocated);
}

} // namespace
} // namespace rocqr
