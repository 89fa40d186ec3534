// Gang-scheduled fleet-wide TSQR jobs in the serve scheduler: admission
// quotes the whole phantom fleet (sum of per-device peaks, shared-link
// contention priced in), dispatch acquires every device atomically without
// deadlocking against backfill, a preempted gang resumes bit-identically,
// and per-device stats roll up through qr::combine_device_stats.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "la/generate.hpp"
#include "leak_check.hpp"
#include "qr/factorize.hpp"
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
using sim::Device;
using sim::ExecutionMode;

bool bitwise_equal(const la::Matrix& x, const la::Matrix& y) {
  for (index_t j = 0; j < x.cols(); ++j) {
    for (index_t i = 0; i < x.rows(); ++i) {
      if (x(i, j) != y(i, j)) return false;
    }
  }
  return true;
}

JobSpec tsqr_job(const std::string& name, index_t m, index_t n,
                 index_t blocksize) {
  JobSpec job;
  job.name = name;
  job.algorithm = "tsqr";
  job.m = m;
  job.n = n;
  job.blocksize = blocksize;
  return job;
}

TEST(ServeTsqrAdmission, QuotesFleetWidePeakAndMatchesExecution) {
  ServeConfig cfg;
  cfg.devices = 4;
  Scheduler sched(cfg);
  const AdmissionDecision d =
      sched.submit(tsqr_job("big", 262144, 8192, 8192));
  ASSERT_TRUE(d.admitted) << d.reason;
  EXPECT_GT(d.predicted_seconds, 0);
  EXPECT_GT(d.predicted_peak_bytes, 0);

  const FleetReport rep = sched.run();
  const JobReport& j = rep.jobs.at(static_cast<size_t>(d.job_id));
  ASSERT_EQ(j.state, JobState::Completed);
  EXPECT_EQ(j.attempts, 1);
  // The admission dry run replays on an identical phantom fleet, so a solo
  // gang job's makespan matches the quote exactly.
  EXPECT_NEAR(j.stats.total_seconds, d.predicted_seconds,
              1e-9 * d.predicted_seconds);
  // The quote is the fleet-wide sum of per-device peaks: with 4 leaves in
  // flight it must exceed any single device's contribution (the rollup's
  // max), while the per-device check kept each within the spec.
  EXPECT_GT(d.predicted_peak_bytes, j.stats.peak_device_bytes);
  EXPECT_LE(d.predicted_peak_bytes,
            4 * static_cast<bytes_t>(j.stats.peak_device_bytes));
}

TEST(ServeTsqrAdmission, SharedLinkRaisesThePredictedMakespan) {
  const JobSpec job = tsqr_job("linked", 262144, 8192, 8192);
  double predicted[2] = {0, 0};
  for (int shared = 0; shared < 2; ++shared) {
    ServeConfig cfg;
    cfg.devices = 4;
    cfg.shared_link = shared == 1;
    Scheduler sched(cfg);
    const AdmissionDecision d = sched.submit(job);
    ASSERT_TRUE(d.admitted) << d.reason;
    predicted[shared] = d.predicted_seconds;
  }
  EXPECT_GT(predicted[1], predicted[0]);
}

TEST(ServeTsqrAdmission, PerDeviceBudgetStillRejects) {
  ServeConfig cfg;
  cfg.devices = 4;
  cfg.admission_memory_fraction = 0.0001;
  Scheduler sched(cfg);
  const AdmissionDecision d =
      sched.submit(tsqr_job("hog", 262144, 8192, 8192));
  EXPECT_FALSE(d.admitted);
  EXPECT_NE(d.reason.find("per-device peak"), std::string::npos) << d.reason;
}

TEST(ServeTsqr, GangDrainsAgainstBackfillWithoutPreemption) {
  // Deadlock/starvation regression for the drain barrier: both devices are
  // busy with low-priority work when the gang becomes the top pick, and a
  // third low-priority job is queued as backfill bait. With preemption off
  // the gang must still run (after the running jobs finish naturally) and
  // the bait must not starve it. The old "ready job" event-ordering gate
  // deadlocked here: one device going idle could neither dispatch (fleet
  // not idle) nor be waited out by the still-running job.
  ServeConfig cfg;
  cfg.devices = 2;
  cfg.preemption = false;
  Scheduler sched(cfg);

  std::vector<AdmissionDecision> lows;
  for (int i = 0; i < 3; ++i) {
    JobSpec low;
    low.name = "low" + std::to_string(i);
    low.m = low.n = 32768;
    low.blocksize = 8192;
    low.priority = 1;
    lows.push_back(sched.submit(low));
    ASSERT_TRUE(lows.back().admitted) << lows.back().reason;
  }
  JobSpec gang = tsqr_job("gang", 131072, 8192, 8192);
  gang.priority = 5;
  gang.arrival_after_units = 1;
  const AdmissionDecision gd = sched.submit(gang);
  ASSERT_TRUE(gd.admitted) << gd.reason;

  const FleetReport rep = sched.run();
  EXPECT_EQ(rep.jobs_completed, 4);
  EXPECT_EQ(rep.jobs_failed, 0);
  EXPECT_EQ(rep.jobs_preempted, 0);
  const JobReport& gj = rep.jobs.at(static_cast<size_t>(gd.job_id));
  EXPECT_EQ(gj.state, JobState::Completed);
  EXPECT_EQ(gj.attempts, 1);
}

TEST(ServeTsqr, PreemptedGangResumesBitIdentical) {
  // Real mode, 2 devices: the gang starts first, a late high-priority
  // single-device job forces it to yield at a leaf checkpoint, and the
  // resumed gang must reproduce an uninterrupted fleet factorization bit
  // for bit.
  constexpr index_t kM = 192;
  constexpr index_t kN = 48;
  constexpr index_t kB = 24;

  ServeConfig cfg;
  cfg.devices = 2;
  cfg.mode = ExecutionMode::Real;
  Scheduler sched(cfg);

  qr::QrOptions base;
  base.blocksize = kB;
  base.panel_base = 8;
  base.precision = blas::GemmPrecision::FP32;

  la::Matrix gang_a = la::random_normal(kM, kN, 71);
  la::Matrix gang_a0 = la::materialize(gang_a.view());
  la::Matrix gang_r(kN, kN);
  JobSpec gang = tsqr_job("gang", kM, kN, kB);
  gang.priority = 1;
  gang.precision = blas::GemmPrecision::FP32;
  gang.options = base;
  gang.a = gang_a.view();
  gang.r = gang_r.view();
  const AdmissionDecision gd = sched.submit(gang);
  ASSERT_TRUE(gd.admitted) << gd.reason;

  la::Matrix urgent_a = la::random_normal(kM, kN, 72);
  la::Matrix urgent_r(kN, kN);
  JobSpec urgent;
  urgent.name = "urgent";
  urgent.m = kM;
  urgent.n = kN;
  urgent.algorithm = "recursive";
  urgent.blocksize = kB;
  urgent.precision = blas::GemmPrecision::FP32;
  urgent.priority = 5;
  urgent.arrival_after_units = 1; // opens at the gang's first leaf checkpoint
  urgent.options = base;
  urgent.a = urgent_a.view();
  urgent.r = urgent_r.view();
  const AdmissionDecision ud = sched.submit(urgent);
  ASSERT_TRUE(ud.admitted) << ud.reason;

  const FleetReport rep = sched.run();
  EXPECT_EQ(rep.jobs_completed, 2);
  const JobReport& gj = rep.jobs.at(static_cast<size_t>(gd.job_id));
  ASSERT_EQ(gj.state, JobState::Completed);
  EXPECT_GE(gj.preemptions, 1);
  EXPECT_GE(gj.attempts, 2);
  EXPECT_GE(rep.jobs_preempted, 1);

  // Uninterrupted reference on an identical fresh fleet.
  la::Matrix q_ref = la::materialize(gang_a0.view());
  la::Matrix r_ref(kN, kN);
  std::vector<std::unique_ptr<Device>> fleet;
  std::vector<Device*> ptrs;
  for (int i = 0; i < cfg.devices; ++i) {
    fleet.push_back(std::make_unique<Device>(cfg.spec, ExecutionMode::Real));
    fleet.back()->model().install_paper_calibration();
    ptrs.push_back(fleet.back().get());
  }
  qr::factorize(qr::QrProblem{
      ptrs, q_ref.view(), r_ref.view(), qr::Algorithm::Tsqr, base});
  EXPECT_TRUE(bitwise_equal(gang_a, q_ref));
  EXPECT_TRUE(bitwise_equal(gang_r, r_ref));
}

TEST(ServeTsqr, GangsShareTheQueueWithFusedAndColocatedWork) {
  // Gangs among fused and colocated work, everything behind staggered
  // arrival gates: work keeps arriving while a gang holds the whole fleet,
  // and no worker may start it on a device the gang is using (two threads
  // would append to one device trace). Five runs of the same mix must
  // agree on every preemption, every queue wait and every job's device.
  auto run = []() {
    ServeConfig cfg;
    cfg.devices = 4;
    cfg.max_fused_jobs = 8;
    cfg.max_colocated_jobs = 4;
    Scheduler sched(cfg);
    for (int i = 0; i < 48; ++i) {
      JobSpec job;
      job.name = "small" + std::to_string(i);
      job.algorithm = "blocking";
      job.m = 2048;
      job.n = 512;
      job.blocksize = 64;
      job.arrival_after_units = 4 * i;
      EXPECT_TRUE(sched.submit(job).admitted) << job.name;
    }
    for (int i = 0; i < 6; ++i) {
      JobSpec job;
      job.name = "medium" + std::to_string(i);
      job.algorithm = i % 2 == 0 ? "tiled" : "left";
      job.m = 8192;
      job.n = 2048;
      job.blocksize = 512;
      job.arrival_after_units = 30 * i;
      EXPECT_TRUE(sched.submit(job).admitted) << job.name;
    }
    for (int i = 0; i < 3; ++i) {
      JobSpec gang = tsqr_job("gang" + std::to_string(i), 65536, 2048, 512);
      gang.priority = 1;
      gang.arrival_after_units = 20 + 60 * i;
      EXPECT_TRUE(sched.submit(gang).admitted) << gang.name;
    }
    return sched.run();
  };

  const FleetReport first = run();
  for (int k = 0; k < 5; ++k) {
    const FleetReport rep = k == 0 ? first : run();
    EXPECT_EQ(rep.jobs_completed, 57) << "run " << k;
    EXPECT_EQ(rep.jobs_failed, 0) << "run " << k;
    EXPECT_EQ(rep.jobs_preempted, first.jobs_preempted) << "run " << k;
    EXPECT_EQ(rep.queue_waits, first.queue_waits) << "run " << k;
    ASSERT_EQ(rep.jobs.size(), first.jobs.size()) << "run " << k;
    for (size_t i = 0; i < rep.jobs.size(); ++i) {
      EXPECT_EQ(rep.jobs[i].last_device, first.jobs[i].last_device)
          << "run " << k << ", " << rep.jobs[i].name;
    }
  }
  EXPECT_GT(first.jobs_preempted, 0);
}

TEST(ServeTsqr, MixedBatchWithGangCompletes) {
  // A gang mid-batch among single-device jobs: everything completes and
  // the gang's stats cover more than one device's trace window.
  ServeConfig cfg;
  cfg.devices = 4;
  Scheduler sched(cfg);

  for (int i = 0; i < 4; ++i) {
    JobSpec low;
    low.name = "single" + std::to_string(i);
    low.m = low.n = 32768;
    low.blocksize = 8192;
    ASSERT_TRUE(sched.submit(low).admitted);
  }
  JobSpec gang = tsqr_job("gang", 262144, 8192, 8192);
  gang.priority = 2;
  gang.arrival_after_units = 2;
  const AdmissionDecision gd = sched.submit(gang);
  ASSERT_TRUE(gd.admitted) << gd.reason;

  const FleetReport rep = sched.run();
  EXPECT_EQ(rep.jobs_completed, 5);
  EXPECT_EQ(rep.jobs_failed, 0);
  const JobReport& gj = rep.jobs.at(static_cast<size_t>(gd.job_id));
  EXPECT_EQ(gj.state, JobState::Completed);
  EXPECT_GT(gj.stats.events, 0);
}

} // namespace
} // namespace rocqr
