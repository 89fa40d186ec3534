// Multi-job QR service scheduler (docs/SERVING.md): phantom admission
// control matches fleet execution, a 4-device fleet drains a batch of
// concurrent jobs, a late high-priority job preempts a running one at a
// checkpoint boundary and the preempted job resumes bit-identical to an
// uninterrupted run, and the fleet report's makespan equals the global
// trace span.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "common/thread_pool.hpp"
#include "la/generate.hpp"
#include "leak_check.hpp"
#include "ooc/gemm_engines.hpp"
#include "qr/checkpoint.hpp"
#include "qr/factorize.hpp"
#include "qr/tiled_qr.hpp"
#include "serve/scheduler.hpp"
#include "sim/device.hpp"
#include "stats_equal.hpp"

namespace rocqr {
namespace {

using rocqr::testing::expect_same_stats;
using serve::AdmissionDecision;
using serve::FleetReport;
using serve::JobReport;
using serve::JobSpec;
using serve::JobState;
using serve::Scheduler;
using serve::ServeConfig;
using sim::Device;
using sim::ExecutionMode;

qr::QrStats run_driver(const std::string& driver, Device& dev,
                       sim::HostMutRef a, sim::HostMutRef r,
                       const qr::QrOptions& opts) {
  return qr::factorize(
      qr::QrProblem{{&dev}, a, r, *qr::parse_algorithm(driver), opts});
}

bool bitwise_equal(const la::Matrix& x, const la::Matrix& y) {
  for (index_t j = 0; j < x.cols(); ++j) {
    for (index_t i = 0; i < x.rows(); ++i) {
      if (x(i, j) != y(i, j)) return false;
    }
  }
  return true;
}

/// Global trace span of the fleet, derived independently of the report.
double fleet_span(const Scheduler& sched) {
  double first = 0;
  double last = 0;
  bool any = false;
  for (const auto& dev : sched.devices()) {
    const qr::QrStats s = qr::stats_from_trace(dev->trace(), 0, 0);
    if (s.events == 0) continue;
    first = any ? std::min(first, s.first_start) : s.first_start;
    last = any ? std::max(last, s.last_end) : s.last_end;
    any = true;
  }
  return last - first;
}

const JobReport& report_for(const FleetReport& rep, int job_id) {
  return rep.jobs.at(static_cast<size_t>(job_id));
}

std::int64_t admission_dry_runs() {
  return telemetry::MetricsRegistry::global()
      .counter("serve.admission_dry_runs")
      .value();
}

/// The admission view a Scheduler takes of `cfg`.
serve::AdmissionConfig admission_config(const ServeConfig& cfg) {
  serve::AdmissionConfig acfg;
  acfg.spec = cfg.spec;
  acfg.devices = cfg.devices;
  acfg.shared_link = cfg.shared_link;
  acfg.checkpoint_every = cfg.checkpoint_every;
  acfg.memory_fraction = cfg.admission_memory_fraction;
  acfg.paper_calibration = cfg.paper_calibration;
  return acfg;
}

/// A submit()'s decision against a fresh admit_job() of the same job: equal
/// field for field (job_id aside), predicted_seconds bit for bit.
void expect_same_decision(const AdmissionDecision& got,
                          const AdmissionDecision& fresh,
                          const std::string& what) {
  EXPECT_EQ(got.admitted, fresh.admitted) << what;
  EXPECT_EQ(got.reason, fresh.reason) << what;
  EXPECT_EQ(got.blocksize, fresh.blocksize) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.predicted_seconds),
            std::bit_cast<std::uint64_t>(fresh.predicted_seconds))
      << what;
  EXPECT_EQ(got.predicted_peak_bytes, fresh.predicted_peak_bytes) << what;
}

JobSpec memo_job(const char* algorithm, index_t m, index_t n,
                 index_t blocksize) {
  JobSpec job;
  job.algorithm = algorithm;
  job.m = m;
  job.n = n;
  job.blocksize = blocksize;
  return job;
}

TEST(ServeAdmission, RejectsInfeasibleJobs) {
  ServeConfig cfg;
  cfg.devices = 1;
  Scheduler sched(cfg);

  JobSpec bad_shape;
  bad_shape.name = "wide";
  bad_shape.m = 64;
  bad_shape.n = 128;
  AdmissionDecision d = sched.submit(bad_shape);
  EXPECT_FALSE(d.admitted);
  EXPECT_NE(d.reason.find("invalid shape"), std::string::npos) << d.reason;

  JobSpec bad_algo;
  bad_algo.name = "mystery";
  bad_algo.m = bad_algo.n = 4096;
  bad_algo.algorithm = "lattice";
  d = sched.submit(bad_algo);
  EXPECT_FALSE(d.admitted);
  EXPECT_NE(d.reason.find("unknown algorithm"), std::string::npos) << d.reason;
  bad_algo.name = "retired";
  bad_algo.algorithm = "multi_gpu";
  d = sched.submit(bad_algo);
  EXPECT_FALSE(d.admitted);
  EXPECT_NE(d.reason.find("unknown algorithm"), std::string::npos) << d.reason;

  JobSpec late;
  late.name = "late";
  late.m = late.n = 32768;
  late.blocksize = 4096;
  late.deadline_seconds = 1e-9;
  d = sched.submit(late);
  EXPECT_FALSE(d.admitted);
  EXPECT_NE(d.reason.find("deadline"), std::string::npos) << d.reason;

  const FleetReport rep = sched.run();
  EXPECT_EQ(rep.jobs_rejected, 4);
  EXPECT_EQ(rep.jobs_admitted, 0);
  EXPECT_EQ(rep.jobs_completed, 0);
  for (const JobReport& j : rep.jobs) {
    EXPECT_EQ(j.state, JobState::Rejected);
    EXPECT_FALSE(j.failure.empty());
  }
}

TEST(ServeAdmission, MemoryHeadroomPolicyRejects) {
  ServeConfig cfg;
  cfg.devices = 1;
  cfg.admission_memory_fraction = 0.01;
  Scheduler sched(cfg);
  JobSpec job;
  job.name = "hog";
  job.m = job.n = 32768;
  job.blocksize = 8192;
  const AdmissionDecision d = sched.submit(job);
  EXPECT_FALSE(d.admitted);
  EXPECT_NE(d.reason.find("admission budget"), std::string::npos) << d.reason;
  EXPECT_GT(d.predicted_peak_bytes, 0);
}

TEST(ServeAdmission, DryRunLeavesThePlanLogEmpty) {
  // A job's plan log is for its own factorization: admission's phantom
  // graphs (the tune sweep's included) must not land in it.
  ServeConfig cfg;
  Scheduler sched(cfg);
  ooc::PlanLog log;
  for (const index_t b : {index_t{64}, index_t{0}}) {
    JobSpec job = memo_job("blocking", 2048, 512, b);
    job.name = "explained";
    job.options.plan_log = &log;
    const AdmissionDecision d = sched.submit(job);
    ASSERT_TRUE(d.admitted) << d.reason;
  }
  EXPECT_TRUE(log.text.empty()) << log.text;
  EXPECT_TRUE(log.dot.empty());
}

TEST(ServeAdmission, DryRunsOpenNoSpans) {
  // Admission's phantom devices keep totals only, so a serve process keeps
  // no span of any quote, autotuned or tsqr.
  serve::AdmissionConfig cfg;
  cfg.spec = sim::DeviceSpec::v100_32gb();
  cfg.devices = 2;
  auto& log = telemetry::SpanLog::global();
  const size_t before = log.snapshot().size();
  const JobSpec jobs[] = {memo_job("recursive", 16384, 4096, 0),
                          memo_job("tiled", 8192, 4096, 0),
                          memo_job("tsqr", 65536, 2048, 0)};
  for (const JobSpec& job : jobs) {
    const AdmissionDecision d = serve::admit_job(job, cfg);
    EXPECT_TRUE(d.admitted) << job.algorithm << ": " << d.reason;
  }
  EXPECT_EQ(log.snapshot().size(), before);
}

TEST(ServeAdmissionMemo, DecisionsMatchFreshDryRuns) {
  // 200 jobs over five quote keys, with names, priorities and arrivals
  // varied per job: an explicit blocksize, an autotuned job, a tsqr gang, a
  // kind over the admission budget, and one key whose jobs differ only in
  // their deadline, met and missed in turn. The Scheduler dry-runs each key
  // once, and every decision is the one a fresh dry run gives.
  ServeConfig cfg;
  cfg.devices = 4;
  cfg.admission_memory_fraction = 0.05;
  const serve::AdmissionConfig acfg = admission_config(cfg);

  JobSpec deadline_kind = memo_job("blocking", 4096, 1024, 256);
  const AdmissionDecision probe = serve::admit_job(deadline_kind, acfg);
  ASSERT_TRUE(probe.admitted) << probe.reason;
  const std::vector<JobSpec> kinds = {
      memo_job("blocking", 2048, 512, 64),
      memo_job("recursive", 8192, 2048, 0),
      memo_job("tsqr", 16384, 1024, 256),
      memo_job("recursive", 32768, 32768, 8192),
      deadline_kind,
  };

  Scheduler sched(cfg);
  const std::int64_t before = admission_dry_runs();
  std::vector<JobSpec> jobs;
  std::vector<AdmissionDecision> got;
  for (int i = 0; i < 200; ++i) {
    JobSpec job = kinds[static_cast<size_t>(i) % kinds.size()];
    job.name = "memo";
    job.name += std::to_string(i);
    job.priority = i % 7;
    job.arrival_after_units = i % 3;
    if (i % 5 == 4) {
      const double slack = i % 10 == 4 ? 2.0 : 0.5;
      job.deadline_seconds = slack * probe.predicted_seconds;
    }
    got.push_back(sched.submit(job));
    jobs.push_back(job);
  }
  EXPECT_EQ(admission_dry_runs() - before,
            static_cast<std::int64_t>(kinds.size()));

  int budget_rejections = 0;
  int deadline_rejections = 0;
  int tuned = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(got[i].job_id, static_cast<int>(i));
    expect_same_decision(got[i], serve::admit_job(jobs[i], acfg), jobs[i].name);
    budget_rejections +=
        got[i].reason.find("admission budget") != std::string::npos;
    deadline_rejections += got[i].reason.find("deadline") != std::string::npos;
    tuned += jobs[i].blocksize == 0 && got[i].blocksize > 0;
  }
  EXPECT_EQ(budget_rejections, 40);
  EXPECT_EQ(deadline_rejections, 20);
  EXPECT_EQ(tuned, 40);
}

TEST(ServeAdmissionMemo, KeysOnWhatTheDryRunReads) {
  // Fields the scheduler overrides in every attempt share the base job's
  // dry run; a field the dry run reads, or the job's precision, gets one
  // of its own.
  ServeConfig cfg;
  const serve::AdmissionConfig acfg = admission_config(cfg);
  Scheduler sched(cfg);
  const JobSpec base = memo_job("blocking", 2048, 512, 64);
  qr::MemoryCheckpointSink sink;

  std::vector<JobSpec> shared(5, base);
  shared[0].options.precision = blas::GemmPrecision::FP32;
  shared[1].options.blocksize = 4096;
  shared[2].options.checkpoint_sink = &sink;
  shared[3].options.checkpoint_every = 7;
  shared[4].options.resume_units = 3;
  std::vector<JobSpec> own(3, base);
  own[0].options.staging_buffer = false;
  own[1].options.memory_budget_fraction = 0.5;
  own[2].precision = blas::GemmPrecision::FP32;

  const std::int64_t before = admission_dry_runs();
  expect_same_decision(sched.submit(base), serve::admit_job(base, acfg),
                       "base");
  for (size_t i = 0; i < shared.size(); ++i) {
    expect_same_decision(sched.submit(shared[i]),
                         serve::admit_job(shared[i], acfg),
                         "shared " + std::to_string(i));
    EXPECT_EQ(admission_dry_runs() - before, 1) << "shared " << i;
  }
  for (size_t i = 0; i < own.size(); ++i) {
    expect_same_decision(sched.submit(own[i]), serve::admit_job(own[i], acfg),
                         "own " + std::to_string(i));
    EXPECT_EQ(admission_dry_runs() - before, static_cast<std::int64_t>(i + 2))
        << "own " << i;
  }
  EXPECT_FALSE(sink.has_checkpoint());
}

TEST(ServeAdmissionMemo, ConcurrentSubmitsShareTheMemo) {
  // Two host threads submit 300 jobs each over three keys. Job ids stay
  // unique, every decision is the fresh dry run's, and a key is dry-run at
  // most once per thread (two racing misses both simulate; one is kept).
  ServeConfig cfg;
  cfg.devices = 2;
  const serve::AdmissionConfig acfg = admission_config(cfg);
  const std::vector<JobSpec> kinds = {
      memo_job("blocking", 2048, 512, 64),
      memo_job("tiled", 2048, 512, 128),
      memo_job("left", 4096, 512, 128),
  };
  std::vector<AdmissionDecision> fresh;
  for (const JobSpec& k : kinds) fresh.push_back(serve::admit_job(k, acfg));

  Scheduler sched(cfg);
  const std::int64_t before = admission_dry_runs();
  constexpr int kPerThread = 300;
  std::vector<std::vector<AdmissionDecision>> got(2);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        JobSpec job = kinds[static_cast<size_t>(i + t) % kinds.size()];
        job.name = t == 0 ? "first" : "second";
        job.priority = i % 4;
        got[static_cast<size_t>(t)].push_back(sched.submit(job));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  const std::int64_t dry_runs = admission_dry_runs() - before;
  EXPECT_GE(dry_runs, static_cast<std::int64_t>(kinds.size()));
  EXPECT_LE(dry_runs, static_cast<std::int64_t>(2 * kinds.size()));
  std::vector<int> ids;
  for (int t = 0; t < 2; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const AdmissionDecision& d = got[static_cast<size_t>(t)][i];
      ids.push_back(d.job_id);
      expect_same_decision(d, fresh[static_cast<size_t>(i + t) % kinds.size()],
                           "thread " + std::to_string(t));
    }
  }
  std::sort(ids.begin(), ids.end());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], static_cast<int>(i));
  }
}

TEST(ServeScheduler, PredictionMatchesSingleJobExecution) {
  ServeConfig cfg;
  cfg.devices = 1;
  Scheduler sched(cfg);
  JobSpec job;
  job.name = "solo";
  job.m = 65536;
  job.n = 32768;
  job.blocksize = 8192;
  const AdmissionDecision d = sched.submit(job);
  ASSERT_TRUE(d.admitted) << d.reason;
  EXPECT_GT(d.predicted_seconds, 0);
  EXPECT_GT(d.predicted_peak_bytes, 0);

  const FleetReport rep = sched.run();
  const JobReport& j = report_for(rep, d.job_id);
  ASSERT_EQ(j.state, JobState::Completed);
  EXPECT_EQ(j.attempts, 1);
  // The admission dry run IS the schedule the worker executes (same driver,
  // blocksize and checkpoint cadence on an identical phantom device).
  EXPECT_NEAR(j.stats.total_seconds, d.predicted_seconds,
              1e-9 * d.predicted_seconds);
  EXPECT_EQ(j.stats.peak_device_bytes, d.predicted_peak_bytes);
  EXPECT_DOUBLE_EQ(rep.makespan_seconds, fleet_span(sched));
}

TEST(ServeAdmission, QuotesTheNodeProgramColocationDispatches) {
  // Tiled and left-looking jobs run solo and colocated on one node program,
  // so admission's dry run must quote that program's footprint and time:
  // a colocated job's one-job batch, checkpointing at the fleet's cadence
  // (the shape and cadence of perfbench serve_mix's tiled and left jobs).
  class DiscardSink : public qr::CheckpointSink {
   public:
    void write(const qr::Checkpoint&) override {}
  };
  for (const char* algorithm : {"left", "tiled"}) {
    ServeConfig cfg;
    cfg.devices = 1;
    cfg.checkpoint_every = 4;
    Scheduler sched(cfg);
    JobSpec job;
    job.name = algorithm;
    job.m = 8192;
    job.n = 2048;
    job.algorithm = algorithm;
    job.blocksize = 512;
    const AdmissionDecision d = sched.submit(job);
    ASSERT_TRUE(d.admitted) << algorithm << ": " << d.reason;

    Device dev(cfg.spec, ExecutionMode::Phantom);
    dev.model().install_paper_calibration();
    DiscardSink sink;
    qr::QrOptions opts;
    opts.blocksize = job.blocksize;
    opts.precision = job.precision;
    opts.checkpoint_sink = &sink;
    opts.checkpoint_every = cfg.checkpoint_every;
    const auto a = sim::HostMutRef::phantom(job.m, job.n);
    const auto r = sim::HostMutRef::phantom(job.n, job.n);
    const qr::QrStats run =
        qr::detail::run_batch(dev, {{algorithm, a, r, opts, "j0."}}).front();
    EXPECT_EQ(d.predicted_peak_bytes, dev.memory_peak()) << algorithm;
    EXPECT_DOUBLE_EQ(d.predicted_seconds, run.total_seconds) << algorithm;
  }
}

TEST(ServeScheduler, PhantomFleetDrainsConcurrentBatch) {
  ServeConfig cfg;
  cfg.devices = 4;
  Scheduler sched(cfg);

  const char* algos[] = {"recursive", "blocking", "left"};
  std::vector<AdmissionDecision> decisions;
  double predicted_sum = 0;
  for (int i = 0; i < 8; ++i) {
    JobSpec job;
    job.name = "batch" + std::to_string(i);
    job.m = 65536;
    job.n = 32768;
    job.algorithm = algos[i % 3];
    job.blocksize = 0; // autotune at admission
    const AdmissionDecision d = sched.submit(job);
    ASSERT_TRUE(d.admitted) << job.name << ": " << d.reason;
    EXPECT_GT(d.blocksize, 0) << job.name;
    predicted_sum += d.predicted_seconds;
    decisions.push_back(d);
  }

  const FleetReport rep = sched.run();
  EXPECT_EQ(rep.jobs_admitted, 8);
  EXPECT_EQ(rep.jobs_completed, 8);
  EXPECT_EQ(rep.jobs_failed, 0);
  for (const AdmissionDecision& d : decisions) {
    const JobReport& j = report_for(rep, d.job_id);
    EXPECT_EQ(j.state, JobState::Completed) << j.name;
    if (j.attempts == 1 && j.preemptions == 0) {
      EXPECT_NEAR(j.stats.total_seconds, d.predicted_seconds,
                  1e-6 * d.predicted_seconds)
          << j.name;
    }
  }
  // 8 equal-priority jobs on 4 devices: the fleet must actually run them
  // concurrently, so the makespan beats the serial sum of predictions...
  EXPECT_LT(rep.makespan_seconds, predicted_sum);
  // ...and equals the global span of the devices' traces.
  EXPECT_DOUBLE_EQ(rep.makespan_seconds, fleet_span(sched));
}

TEST(ServeScheduler, PreemptsAndResumesBitIdentical) {
  constexpr index_t kM = 96;
  constexpr index_t kN = 72;
  constexpr index_t kB = 12;
  constexpr int kLowJobs = 8;

  ServeConfig cfg;
  cfg.devices = 4;
  cfg.mode = ExecutionMode::Real;
  Scheduler sched(cfg);

  qr::QrOptions base;
  base.blocksize = kB;
  base.precision = blas::GemmPrecision::FP32;
  base.panel_base = 8;

  // 8 equal low-priority jobs saturate the 4 devices; panel units are
  // 12-wide, so each job checkpoints 6 times. One high-priority job is
  // gated behind the first 5 fleet units: when it arrives every device is
  // mid-job, forcing a checkpoint-boundary preemption.
  const char* algos[] = {"blocking", "left"};
  std::vector<la::Matrix> as;
  std::vector<la::Matrix> rs;
  as.reserve(kLowJobs + 1);
  rs.reserve(kLowJobs + 1);
  std::vector<AdmissionDecision> decisions;
  for (int i = 0; i < kLowJobs; ++i) {
    as.push_back(la::random_normal(kM, kN, 100 + static_cast<unsigned>(i)));
    rs.emplace_back(kN, kN);
    JobSpec job;
    job.name = "low" + std::to_string(i);
    job.m = kM;
    job.n = kN;
    job.algorithm = algos[i % 2];
    job.blocksize = kB;
    job.precision = blas::GemmPrecision::FP32;
    job.priority = 1;
    job.options = base;
    job.a = as.back().view();
    job.r = rs.back().view();
    const AdmissionDecision d = sched.submit(job);
    ASSERT_TRUE(d.admitted) << job.name << ": " << d.reason;
    decisions.push_back(d);
  }
  as.push_back(la::random_normal(kM, kN, 500));
  rs.emplace_back(kN, kN);
  JobSpec urgent;
  urgent.name = "urgent";
  urgent.m = kM;
  urgent.n = kN;
  urgent.algorithm = "blocking";
  urgent.blocksize = kB;
  urgent.precision = blas::GemmPrecision::FP32;
  urgent.priority = 5;
  urgent.arrival_after_units = 5;
  urgent.options = base;
  urgent.a = as.back().view();
  urgent.r = rs.back().view();
  const AdmissionDecision ud = sched.submit(urgent);
  ASSERT_TRUE(ud.admitted) << ud.reason;
  decisions.push_back(ud);

  const FleetReport rep = sched.run();
  EXPECT_EQ(rep.jobs_admitted, kLowJobs + 1);
  EXPECT_EQ(rep.jobs_completed, kLowJobs + 1);
  EXPECT_EQ(rep.jobs_failed, 0);
  EXPECT_GE(rep.jobs_preempted, 1);
  EXPECT_DOUBLE_EQ(rep.makespan_seconds, fleet_span(sched));

  int preempted_jobs = 0;
  for (const JobReport& j : rep.jobs) {
    EXPECT_EQ(j.state, JobState::Completed) << j.name;
    if (j.preemptions > 0) {
      ++preempted_jobs;
      EXPECT_GE(j.attempts, 2) << j.name;
    }
  }
  EXPECT_GE(preempted_jobs, 1);
  // The urgent job itself was never preempted (nothing outranks it).
  EXPECT_EQ(report_for(rep, ud.job_id).preemptions, 0);

  // Every job's factorization — preempted and resumed or not — must be bit-
  // identical to an uninterrupted clean run of the same driver and options
  // (Real-mode numerics are schedule-independent).
  for (size_t i = 0; i < as.size(); ++i) {
    const JobReport& j = rep.jobs[i];
    const std::uint64_t seed = i < kLowJobs ? 100 + i : 500;
    la::Matrix q_ref = la::random_normal(kM, kN, seed);
    la::Matrix r_ref(kN, kN);
    Device clean(cfg.spec, ExecutionMode::Real);
    clean.model().install_paper_calibration();
    run_driver(j.algorithm, clean, q_ref.view(), r_ref.view(), base);
    EXPECT_TRUE(bitwise_equal(as[i], q_ref)) << j.name;
    EXPECT_TRUE(bitwise_equal(rs[i], r_ref)) << j.name;
  }
}

TEST(ServeColocation, TiledJobsShareOneDeviceAndCutMakespan) {
  // Two tall-skinny tiled jobs on ONE device: exclusively they run back to
  // back; colocated they run as one task graph whose nodes interleave on
  // the three engines, so the makespan beats the serial schedule.
  auto run = [](int max_colocated) {
    ServeConfig cfg;
    cfg.devices = 1;
    cfg.max_colocated_jobs = max_colocated;
    Scheduler sched(cfg);
    for (int i = 0; i < 2; ++i) {
      JobSpec job;
      job.name = "tiled" + std::to_string(i);
      job.m = 131072;
      job.n = 8192;
      job.algorithm = "tiled";
      job.blocksize = 4096;
      EXPECT_TRUE(sched.submit(job).admitted) << job.name;
    }
    return sched.run();
  };

  const FleetReport exclusive = run(1);
  const FleetReport colocated = run(2);
  for (const FleetReport* rep : {&exclusive, &colocated}) {
    EXPECT_EQ(rep->jobs_completed, 2);
    EXPECT_EQ(rep->jobs_failed, 0);
    for (const JobReport& j : rep->jobs) {
      EXPECT_EQ(j.state, JobState::Completed) << j.name;
      EXPECT_GT(j.stats.events, 0) << j.name;
      EXPECT_GT(j.stats.total_seconds, 0) << j.name;
    }
  }
  // Colocated: both jobs dispatch in one attempt each, together.
  for (const JobReport& j : colocated.jobs) EXPECT_EQ(j.attempts, 1);
  EXPECT_LT(colocated.makespan_seconds, exclusive.makespan_seconds);
  // Per-job attribution: the label-filtered stats split the shared trace
  // window without double counting — each job still sees its own panels.
  EXPECT_EQ(colocated.jobs[0].stats.panels, exclusive.jobs[0].stats.panels);
  EXPECT_EQ(colocated.jobs[1].stats.panels, exclusive.jobs[1].stats.panels);
}

TEST(ServeColocation, ColocatedBatchNumericsMatchSoloRuns) {
  constexpr index_t kM = 96;
  constexpr index_t kN = 64;
  constexpr index_t kB = 16;

  ServeConfig cfg;
  cfg.devices = 1;
  cfg.mode = ExecutionMode::Real;
  cfg.max_colocated_jobs = 2;
  Scheduler sched(cfg);

  qr::QrOptions base;
  base.blocksize = kB;
  base.precision = blas::GemmPrecision::FP32;
  base.panel_base = 8;

  std::vector<la::Matrix> as;
  std::vector<la::Matrix> rs;
  for (int i = 0; i < 2; ++i) {
    as.push_back(la::random_normal(kM, kN, 40 + static_cast<unsigned>(i)));
    rs.emplace_back(kN, kN);
    JobSpec job;
    job.name = "co" + std::to_string(i);
    job.m = kM;
    job.n = kN;
    job.algorithm = "tiled";
    job.blocksize = kB;
    job.precision = blas::GemmPrecision::FP32;
    job.options = base;
    job.a = as.back().view();
    job.r = rs.back().view();
    ASSERT_TRUE(sched.submit(job).admitted) << job.name;
  }

  const FleetReport rep = sched.run();
  EXPECT_EQ(rep.jobs_completed, 2);
  for (const JobReport& j : rep.jobs) {
    EXPECT_EQ(j.state, JobState::Completed) << j.name;
    EXPECT_EQ(j.attempts, 1) << j.name;
  }

  // Sharing a task graph must not change either job's numerics: Real-mode
  // results are schedule-independent, so each matches its solo run bitwise.
  for (size_t i = 0; i < as.size(); ++i) {
    la::Matrix q_ref =
        la::random_normal(kM, kN, 40 + static_cast<unsigned>(i));
    la::Matrix r_ref(kN, kN);
    Device clean(cfg.spec, ExecutionMode::Real);
    clean.model().install_paper_calibration();
    run_driver("tiled", clean, q_ref.view(), r_ref.view(), base);
    EXPECT_TRUE(bitwise_equal(as[i], q_ref)) << "job " << i;
    EXPECT_TRUE(bitwise_equal(rs[i], r_ref)) << "job " << i;
  }
}

TEST(ServeColocation, PreemptedBatchResumesBitIdentical) {
  // A colocated tiled batch is preempted mid-graph by an urgent job; every
  // member unwinds at the checkpoint boundary, requeues from its own
  // snapshot and finishes bit-identical to an uninterrupted run.
  constexpr index_t kM = 96;
  constexpr index_t kN = 64;
  constexpr index_t kB = 16;

  ServeConfig cfg;
  cfg.devices = 1;
  cfg.mode = ExecutionMode::Real;
  cfg.max_colocated_jobs = 2;
  Scheduler sched(cfg);

  qr::QrOptions base;
  base.blocksize = kB;
  base.precision = blas::GemmPrecision::FP32;
  base.panel_base = 8;

  std::vector<la::Matrix> as;
  std::vector<la::Matrix> rs;
  for (int i = 0; i < 2; ++i) {
    as.push_back(la::random_normal(kM, kN, 70 + static_cast<unsigned>(i)));
    rs.emplace_back(kN, kN);
    JobSpec job;
    job.name = "low" + std::to_string(i);
    job.m = kM;
    job.n = kN;
    job.algorithm = "tiled";
    job.blocksize = kB;
    job.precision = blas::GemmPrecision::FP32;
    job.priority = 1;
    job.options = base;
    job.a = as.back().view();
    job.r = rs.back().view();
    ASSERT_TRUE(sched.submit(job).admitted) << job.name;
  }
  as.push_back(la::random_normal(kM, kN, 99));
  rs.emplace_back(kN, kN);
  JobSpec urgent;
  urgent.name = "urgent";
  urgent.m = kM;
  urgent.n = kN;
  urgent.algorithm = "blocking";
  urgent.blocksize = kB;
  urgent.precision = blas::GemmPrecision::FP32;
  urgent.priority = 5;
  urgent.arrival_after_units = 2;
  urgent.options = base;
  urgent.a = as.back().view();
  urgent.r = rs.back().view();
  ASSERT_TRUE(sched.submit(urgent).admitted);

  const FleetReport rep = sched.run();
  EXPECT_EQ(rep.jobs_completed, 3);
  EXPECT_EQ(rep.jobs_failed, 0);
  EXPECT_GE(rep.jobs_preempted, 1);
  int preempted = 0;
  for (const JobReport& j : rep.jobs) {
    EXPECT_EQ(j.state, JobState::Completed) << j.name;
    preempted += j.preemptions;
  }
  EXPECT_GE(preempted, 1);

  const char* algos[] = {"tiled", "tiled", "blocking"};
  const std::uint64_t seeds[] = {70, 71, 99};
  for (size_t i = 0; i < as.size(); ++i) {
    la::Matrix q_ref = la::random_normal(kM, kN, seeds[i]);
    la::Matrix r_ref(kN, kN);
    Device clean(cfg.spec, ExecutionMode::Real);
    clean.model().install_paper_calibration();
    run_driver(algos[i], clean, q_ref.view(), r_ref.view(), base);
    EXPECT_TRUE(bitwise_equal(as[i], q_ref)) << "job " << i;
    EXPECT_TRUE(bitwise_equal(rs[i], r_ref)) << "job " << i;
  }
}

TEST(ServeFusion, FusedSmallJobsShareOneDeviceAndCutMakespan) {
  // Four same-shape small blocking jobs on ONE device: exclusively they
  // run back to back, paying every fixed per-op latency (link turnaround,
  // kernel launch) once per job per round; fused they run as one
  // block-diagonal batched node program that pays each latency once per
  // round, so the makespan shrinks.
  auto run = [](int max_fused) {
    ServeConfig cfg;
    cfg.devices = 1;
    cfg.max_fused_jobs = max_fused;
    Scheduler sched(cfg);
    for (int i = 0; i < 4; ++i) {
      JobSpec job;
      job.name = "small" + std::to_string(i);
      job.m = 2048;
      job.n = 512;
      job.algorithm = "blocking";
      job.blocksize = 64;
      EXPECT_TRUE(sched.submit(job).admitted) << job.name;
    }
    return sched.run();
  };

  const FleetReport exclusive = run(1);
  const FleetReport fused = run(4);
  for (const FleetReport* rep : {&exclusive, &fused}) {
    EXPECT_EQ(rep->jobs_completed, 4);
    EXPECT_EQ(rep->jobs_failed, 0);
    for (const JobReport& j : rep->jobs) {
      EXPECT_EQ(j.state, JobState::Completed) << j.name;
      EXPECT_GT(j.stats.total_seconds, 0) << j.name;
    }
  }
  // Fused: all four dispatch together in one attempt each.
  for (const JobReport& j : fused.jobs) EXPECT_EQ(j.attempts, 1);
  EXPECT_LT(fused.makespan_seconds, exclusive.makespan_seconds);
  // One fused round per panel: each member still sees its own panel count.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(fused.jobs[i].stats.panels, exclusive.jobs[i].stats.panels);
  }
}

TEST(ServeFusion, FusedBatchNumericsMatchSoloRuns) {
  // The serving-path form of the tentpole contract: two jobs coalesced by
  // the dispatcher into one fused batch finish bit-identical to clean solo
  // runs — fusion changes the schedule, never the arithmetic.
  constexpr index_t kM = 96;
  constexpr index_t kN = 64;
  constexpr index_t kB = 16;

  ServeConfig cfg;
  cfg.devices = 1;
  cfg.mode = ExecutionMode::Real;
  cfg.max_fused_jobs = 2;
  Scheduler sched(cfg);

  qr::QrOptions base;
  base.blocksize = kB;
  base.precision = blas::GemmPrecision::FP32;
  base.panel_base = 8;

  std::vector<la::Matrix> as;
  std::vector<la::Matrix> rs;
  for (int i = 0; i < 2; ++i) {
    as.push_back(la::random_normal(kM, kN, 60 + static_cast<unsigned>(i)));
    rs.emplace_back(kN, kN);
    JobSpec job;
    job.name = "fuse" + std::to_string(i);
    job.m = kM;
    job.n = kN;
    job.algorithm = "blocking";
    job.blocksize = kB;
    job.precision = blas::GemmPrecision::FP32;
    job.options = base;
    job.a = as.back().view();
    job.r = rs.back().view();
    ASSERT_TRUE(sched.submit(job).admitted) << job.name;
  }

  const FleetReport rep = sched.run();
  EXPECT_EQ(rep.jobs_completed, 2);
  for (const JobReport& j : rep.jobs) {
    EXPECT_EQ(j.state, JobState::Completed) << j.name;
    EXPECT_EQ(j.attempts, 1) << j.name;
  }

  for (size_t i = 0; i < as.size(); ++i) {
    la::Matrix q_ref =
        la::random_normal(kM, kN, 60 + static_cast<unsigned>(i));
    la::Matrix r_ref(kN, kN);
    Device clean(cfg.spec, ExecutionMode::Real);
    clean.model().install_paper_calibration();
    run_driver("blocking", clean, q_ref.view(), r_ref.view(), base);
    EXPECT_TRUE(bitwise_equal(as[i], q_ref)) << "job " << i;
    EXPECT_TRUE(bitwise_equal(rs[i], r_ref)) << "job " << i;
  }
}

TEST(ServeOpenLoop, GatedArrivalsAloneStillDrain) {
  // Every job is behind an arrival gate and nothing is running, so no
  // units will ever complete to open a gate: the scheduler must force the
  // earliest gate (simulating the wait) instead of deadlocking, and the
  // forced job — first onto an idle device — waits zero simulated time.
  ServeConfig cfg;
  cfg.devices = 1;
  Scheduler sched(cfg);
  const index_t gates[] = {7, 3, 11};
  std::vector<AdmissionDecision> decisions;
  for (const index_t gate : gates) {
    JobSpec job;
    job.name = "gate" + std::to_string(gate);
    job.m = job.n = 32768;
    job.blocksize = 4096;
    job.arrival_after_units = gate;
    const AdmissionDecision d = sched.submit(job);
    ASSERT_TRUE(d.admitted) << job.name << ": " << d.reason;
    decisions.push_back(d);
  }

  const FleetReport rep = sched.run();
  EXPECT_EQ(rep.jobs_completed, 3);
  EXPECT_EQ(rep.jobs_failed, 0);
  ASSERT_EQ(rep.queue_waits.size(), 3u);
  // gate 3 is the earliest: it is forced open first and dispatches onto
  // the idle device with zero wait.
  EXPECT_DOUBLE_EQ(report_for(rep, decisions[1].job_id).queue_wait_seconds,
                   0.0);
}

TEST(ServeOpenLoop, StaggeredArrivalsInterleaveWithPreemption) {
  // Open-loop arrivals under contention: four low-priority jobs arrive at
  // gates 0/1/2/3 on ONE device, and an urgent job lands at gate 4 while
  // the device is mid-job — forcing a checkpoint-boundary preemption in
  // the middle of the arrival stream. Everything completes bit-identical,
  // and the queue-wait record stays exact: one entry per dispatch, and the
  // per-job sums equal the fleet record (an episode is counted once, never
  // double-counted across preemption requeues).
  constexpr index_t kM = 96;
  constexpr index_t kN = 72;
  constexpr index_t kB = 12;

  ServeConfig cfg;
  cfg.devices = 1;
  cfg.mode = ExecutionMode::Real;
  Scheduler sched(cfg);

  qr::QrOptions base;
  base.blocksize = kB;
  base.precision = blas::GemmPrecision::FP32;
  base.panel_base = 8;

  std::vector<la::Matrix> as;
  std::vector<la::Matrix> rs;
  for (int i = 0; i < 4; ++i) {
    as.push_back(la::random_normal(kM, kN, 200 + static_cast<unsigned>(i)));
    rs.emplace_back(kN, kN);
    JobSpec job;
    job.name = "low" + std::to_string(i);
    job.m = kM;
    job.n = kN;
    job.algorithm = "blocking";
    job.blocksize = kB;
    job.precision = blas::GemmPrecision::FP32;
    job.priority = 1;
    job.arrival_after_units = static_cast<index_t>(i);
    job.options = base;
    job.a = as.back().view();
    job.r = rs.back().view();
    ASSERT_TRUE(sched.submit(job).admitted) << job.name;
  }
  as.push_back(la::random_normal(kM, kN, 600));
  rs.emplace_back(kN, kN);
  JobSpec urgent;
  urgent.name = "urgent";
  urgent.m = kM;
  urgent.n = kN;
  urgent.algorithm = "blocking";
  urgent.blocksize = kB;
  urgent.precision = blas::GemmPrecision::FP32;
  urgent.priority = 5;
  urgent.arrival_after_units = 4;
  urgent.options = base;
  urgent.a = as.back().view();
  urgent.r = rs.back().view();
  ASSERT_TRUE(sched.submit(urgent).admitted);

  const FleetReport rep = sched.run();
  EXPECT_EQ(rep.jobs_completed, 5);
  EXPECT_EQ(rep.jobs_failed, 0);
  EXPECT_GE(rep.jobs_preempted, 1);

  int total_attempts = 0;
  double jobs_sum = 0;
  for (const JobReport& j : rep.jobs) {
    EXPECT_EQ(j.state, JobState::Completed) << j.name;
    total_attempts += j.attempts;
    jobs_sum += j.queue_wait_seconds;
  }
  EXPECT_EQ(rep.queue_waits.size(), static_cast<size_t>(total_attempts));
  double fleet_sum = 0;
  for (const double w : rep.queue_waits) fleet_sum += w;
  EXPECT_DOUBLE_EQ(jobs_sum, fleet_sum);

  for (size_t i = 0; i < as.size(); ++i) {
    const std::uint64_t seed = i < 4 ? 200 + i : 600;
    la::Matrix q_ref = la::random_normal(kM, kN, seed);
    la::Matrix r_ref(kN, kN);
    Device clean(cfg.spec, ExecutionMode::Real);
    clean.model().install_paper_calibration();
    run_driver("blocking", clean, q_ref.view(), r_ref.view(), base);
    EXPECT_TRUE(bitwise_equal(as[i], q_ref)) << rep.jobs[i].name;
    EXPECT_TRUE(bitwise_equal(rs[i], r_ref)) << rep.jobs[i].name;
  }
}

TEST(ServeQueueWait, SimulatedWaitsAreExactDeterministicAndUnduplicated) {
  // Queue waits are simulated-clock quantities: three identical jobs on
  // one device wait 0, t and 2t where t is one job's service time — and
  // two runs of the same batch report IDENTICAL waits, double for double
  // (wall-clock noise never leaks in). The report's percentiles are
  // nearest-rank over the exact record, not the bucketed histogram.
  auto run = []() {
    ServeConfig cfg;
    cfg.devices = 1;
    Scheduler sched(cfg);
    for (int i = 0; i < 3; ++i) {
      JobSpec job;
      job.name = "q";
      job.name += std::to_string(i);
      job.m = job.n = 32768;
      job.blocksize = 4096;
      EXPECT_TRUE(sched.submit(job).admitted) << job.name;
    }
    return sched.run();
  };

  const FleetReport a = run();
  const FleetReport b = run();
  ASSERT_EQ(a.queue_waits.size(), 3u); // one entry per dispatch
  EXPECT_EQ(a.queue_waits, b.queue_waits);

  // Per-job sums equal the fleet record: each episode is counted exactly
  // once on both sides.
  double jobs_sum = 0;
  for (const JobReport& j : a.jobs) jobs_sum += j.queue_wait_seconds;
  double fleet_sum = 0;
  for (const double w : a.queue_waits) fleet_sum += w;
  EXPECT_DOUBLE_EQ(jobs_sum, fleet_sum);

  std::vector<double> sorted = a.queue_waits;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_DOUBLE_EQ(sorted[0], 0.0); // first dispatch onto an idle device
  EXPECT_GT(sorted[1], 0.0);
  // Back-to-back identical jobs: the third waits twice the second's wait.
  EXPECT_NEAR(sorted[2], 2 * sorted[1], 1e-9 * sorted[2]);
  // Nearest-rank percentiles over 3 samples: p50 -> rank 2, p95/p99 -> 3.
  EXPECT_DOUBLE_EQ(a.queue_wait_p50, sorted[1]);
  EXPECT_DOUBLE_EQ(a.queue_wait_p95, sorted[2]);
  EXPECT_DOUBLE_EQ(a.queue_wait_p99, sorted[2]);
}

/// Equal to the bit: two runs of one job list must repeat exactly.
void expect_same_bits(double a, double b, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

/// Spans the scheduler opened since `from` whose name starts with `prefix`
/// (one per dispatch of that kind).
long spans_since(size_t from, const std::string& prefix) {
  const std::vector<telemetry::SpanRecord> spans =
      telemetry::SpanLog::global().snapshot();
  long n = 0;
  for (size_t i = from; i < spans.size(); ++i) {
    n += spans[i].name.rfind(prefix, 0) == 0 ? 1 : 0;
  }
  return n;
}

/// A job list that takes every dispatch path at once: fused and colocated
/// batches, preemption by late high-priority work, a TSQR gang, arrival
/// gates, deadline jobs, and a device that dies mid-run.
FleetReport run_mixed_fleet() {
  ServeConfig cfg;
  cfg.devices = 4;
  cfg.max_fused_jobs = 4;
  cfg.max_colocated_jobs = 3;
  cfg.device_faults = {"", "", "h2d:fatal:after=40", ""};
  Scheduler sched(cfg);
  for (int i = 0; i < 16; ++i) {
    JobSpec job;
    job.name = "small" + std::to_string(i);
    job.algorithm = "blocking";
    job.m = 2048;
    job.n = 512;
    job.blocksize = 64;
    job.arrival_after_units = i < 8 ? 0 : 3 * i;
    EXPECT_TRUE(sched.submit(job).admitted) << job.name;
  }
  for (int i = 0; i < 6; ++i) {
    JobSpec job;
    job.name = "medium" + std::to_string(i);
    job.algorithm = i % 2 == 0 ? "tiled" : "left";
    job.m = 8192;
    job.n = 2048;
    job.blocksize = 512;
    job.arrival_after_units = 4 * i;
    EXPECT_TRUE(sched.submit(job).admitted) << job.name;
  }
  for (int i = 0; i < 2; ++i) {
    JobSpec job;
    job.name = "urgent" + std::to_string(i);
    job.algorithm = "recursive";
    job.m = 16384;
    job.n = 4096;
    job.blocksize = 1024;
    job.priority = 5;
    job.arrival_after_units = 10 + 20 * i;
    EXPECT_TRUE(sched.submit(job).admitted) << job.name;
  }
  JobSpec gang;
  gang.name = "gang";
  gang.algorithm = "tsqr";
  gang.m = 65536;
  gang.n = 2048;
  gang.blocksize = 512;
  gang.priority = 2;
  gang.arrival_after_units = 25;
  EXPECT_TRUE(sched.submit(gang).admitted);
  // Deadline jobs run solo. Four identical ones that arrive together
  // start on four devices at one instant and reach every checkpoint at one
  // instant: exact ties, broken by device index.
  for (int i = 0; i < 4; ++i) {
    JobSpec job;
    job.name = "deadline" + std::to_string(i);
    job.algorithm = "blocking";
    job.m = 4096;
    job.n = 1024;
    job.blocksize = 256;
    job.priority = 1;
    job.deadline_seconds = 10.0;
    job.arrival_after_units = 6;
    EXPECT_TRUE(sched.submit(job).admitted) << job.name;
  }
  return sched.run();
}

TEST(ServeScheduler, RunsRepeatExactly) {
  // One simulated-time loop decides every dispatch, checkpoint and
  // hand-off in (availability bound, device index) order, so host thread
  // timing never leaks into a report: two runs of one job list agree on
  // every field of every job (the device it ended on included) and on
  // every statistic, to the bit.
  const size_t spans_before = telemetry::SpanLog::global().snapshot().size();
  const FleetReport a = run_mixed_fleet();
  const long fused = spans_since(spans_before, "serve.fused ");
  const long colocated = spans_since(spans_before, "serve.batch ");
  const FleetReport b = run_mixed_fleet();

  // The list takes every path it is meant to.
  EXPECT_GT(fused, 0);
  EXPECT_GT(colocated, 0);
  EXPECT_GT(a.jobs_preempted, 0);
  EXPECT_EQ(a.devices_lost, 1);
  EXPECT_GT(a.jobs_migrated, 0);
  for (const JobReport& j : a.jobs) {
    EXPECT_EQ(j.state, JobState::Completed) << j.name;
    EXPECT_TRUE(j.deadline_met) << j.name;
  }

  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    const JobReport& x = a.jobs[i];
    const JobReport& y = b.jobs[i];
    const std::string what = x.name;
    EXPECT_EQ(x.id, y.id) << what;
    EXPECT_EQ(x.name, y.name) << what;
    EXPECT_EQ(x.state, y.state) << what;
    EXPECT_EQ(x.priority, y.priority) << what;
    EXPECT_EQ(x.algorithm, y.algorithm) << what;
    EXPECT_EQ(x.m, y.m) << what;
    EXPECT_EQ(x.n, y.n) << what;
    EXPECT_EQ(x.blocksize, y.blocksize) << what;
    expect_same_bits(x.predicted_seconds, y.predicted_seconds, what);
    EXPECT_EQ(x.predicted_peak_bytes, y.predicted_peak_bytes) << what;
    EXPECT_EQ(x.failure, y.failure) << what;
    EXPECT_EQ(x.attempts, y.attempts) << what;
    EXPECT_EQ(x.preemptions, y.preemptions) << what;
    EXPECT_EQ(x.retries, y.retries) << what;
    EXPECT_EQ(x.migrations, y.migrations) << what;
    EXPECT_EQ(x.last_device, y.last_device) << what;
    expect_same_bits(x.queue_wait_seconds, y.queue_wait_seconds, what);
    EXPECT_EQ(x.deadline_met, y.deadline_met) << what;
    expect_same_stats(x.stats, y.stats, what);
  }
  ASSERT_EQ(a.queue_waits.size(), b.queue_waits.size());
  for (size_t i = 0; i < a.queue_waits.size(); ++i) {
    std::string what = "queue wait ";
    what += std::to_string(i);
    expect_same_bits(a.queue_waits[i], b.queue_waits[i], what);
  }
  EXPECT_EQ(a.units_completed, b.units_completed);
  expect_same_bits(a.makespan_seconds, b.makespan_seconds, "makespan");
}

/// The names of the jobs the scheduler started since span `from`, one per
/// solo dispatch, as "<name> attempt <n>".
std::vector<std::string> solo_starts_since(size_t from) {
  const std::vector<telemetry::SpanRecord> spans =
      telemetry::SpanLog::global().snapshot();
  const std::string prefix = "serve.job ";
  std::vector<std::string> starts;
  for (size_t i = from; i < spans.size(); ++i) {
    if (spans[i].name.rfind(prefix, 0) == 0) {
      starts.push_back(spans[i].name.substr(prefix.size()));
    }
  }
  return starts;
}

TEST(ServeScheduler, DispatchOrderIsPriorityThenDeadlineThenSubmission) {
  // One Phantom device, so the jobs start one at a time and the order they
  // start in is the scheduler's pick order: higher priority first, then
  // the earlier deadline (none last), then submission order. Every job is
  // 4 checkpointed units long.
  ServeConfig cfg;
  cfg.devices = 1;
  cfg.checkpoint_every = 1;
  // The device's first transfer fails; "flaky", which takes no transfer
  // retries of its own, starts first and takes it.
  cfg.device_faults = {"h2d:transient:op=1"};
  Scheduler sched(cfg);

  struct Kind {
    const char* name;
    int priority;
    double deadline;
    index_t arrival;
  };
  // Two key ties, each split by jobs of other keys submitted in between:
  // (3, 20 s) for c and e, (1, none) for a and d. Submission order breaks
  // them.
  const Kind kinds[] = {
      {"a", 1, 0, 0},     {"b", 3, 50.0, 0}, {"c", 3, 20.0, 0},
      {"d", 1, 0, 0},     {"e", 3, 20.0, 0}, {"f", 0, 0, 0},
      {"g", 1, 20.0, 0},  {"h", 4, 0, 6},    {"flaky", 5, 0, 0},
  };
  for (const Kind& k : kinds) {
    JobSpec job;
    job.name = k.name;
    job.algorithm = "blocking";
    job.m = 2048;
    job.n = 512;
    job.blocksize = 128;
    job.priority = k.priority;
    job.deadline_seconds = k.deadline;
    job.arrival_after_units = k.arrival;
    if (job.name == "flaky") job.options.transfer_max_attempts = 1;
    ASSERT_TRUE(sched.submit(job).admitted) << job.name;
  }
  const size_t spans_before = telemetry::SpanLog::global().snapshot().size();
  const FleetReport rep = sched.run();

  // flaky (priority 5) fails its first attempt and re-enters the ready set
  // still on top. Then c: (3, 20 s) beats b's later deadline and e's later
  // submission. h's gate opens at c's second checkpoint (fleet unit 6) and
  // preempts it there. After h, the preempted c re-enters ahead of e (the
  // same key, submitted later) and b. Then g, whose deadline puts it ahead
  // of a and d, which go in submission order, and f last.
  const std::vector<std::string> expected = {
      "flaky attempt 1", "flaky attempt 2", "c attempt 1", "h attempt 1",
      "c attempt 2",     "e attempt 1",     "b attempt 1", "g attempt 1",
      "a attempt 1",     "d attempt 1",     "f attempt 1"};
  EXPECT_EQ(solo_starts_since(spans_before), expected);
  for (const JobReport& j : rep.jobs) {
    EXPECT_EQ(j.state, JobState::Completed) << j.name;
    EXPECT_EQ(j.retries, j.name == "flaky" ? 1 : 0) << j.name;
    EXPECT_EQ(j.preemptions, j.name == "c" ? 1 : 0) << j.name;
  }
}

TEST(ServeScheduler, RealFleetInsideAPoolRoundCompletes) {
  // A Real fleet run from chunk 0 of a round of width 4 on the global pool.
  // The round holds the pool while its caller runs that chunk, so the
  // fleet's device-1 worker, a plain thread, finds a round open at its
  // first kernel: it must run the kernel inline rather than wait for a
  // round that waits for it. The serve tests' ctest TIMEOUT turns a hang
  // into a failure. The bits do not depend on how a kernel is split, so
  // every job matches a solo run.
  constexpr index_t kM = 512;
  constexpr index_t kN = 128;
  constexpr index_t kB = 32;
  constexpr unsigned kSeed = 800;
  std::vector<la::Matrix> as;
  std::vector<la::Matrix> rs;
  for (unsigned i = 0; i < 3; ++i) {
    as.push_back(la::random_normal(kM, kN, kSeed + i));
    rs.emplace_back(kN, kN);
  }
  FleetReport rep;
  ThreadPool::global().parallel_for(4, [&](index_t begin, index_t) {
    if (begin != 0) return;
    ServeConfig cfg;
    cfg.devices = 2;
    cfg.mode = ExecutionMode::Real;
    Scheduler sched(cfg);
    for (size_t i = 0; i < as.size(); ++i) {
      JobSpec job;
      job.name = "pooled" + std::to_string(i);
      job.algorithm = "blocking";
      job.m = kM;
      job.n = kN;
      job.blocksize = kB;
      job.a = as[i].view();
      job.r = rs[i].view();
      EXPECT_TRUE(sched.submit(job).admitted) << job.name;
    }
    rep = sched.run();
  });
  EXPECT_EQ(rep.jobs_completed, 3);
  EXPECT_EQ(rep.jobs_failed, 0);
  for (unsigned i = 0; i < 3; ++i) {
    la::Matrix q_ref = la::random_normal(kM, kN, kSeed + i);
    la::Matrix r_ref(kN, kN);
    Device clean(ServeConfig{}.spec, ExecutionMode::Real);
    clean.model().install_paper_calibration();
    qr::QrOptions opts;
    opts.blocksize = kB;
    run_driver("blocking", clean, q_ref.view(), r_ref.view(), opts);
    EXPECT_TRUE(bitwise_equal(as[i], q_ref)) << i;
    EXPECT_TRUE(bitwise_equal(rs[i], r_ref)) << i;
  }
}

TEST(ServeScheduler, RunFromInsideAPoolBodyCompletes) {
  // run() may be called from inside a ThreadPool body, where a nested
  // round runs its bodies one after another on the calling thread. Device
  // 0's worker is the calling thread and the others are plain threads, not
  // bodies of a nested round, so they still take turns: as nested bodies,
  // worker 0 would wait at its first checkpoint for a device whose worker
  // had not started. The serve tests carry a ctest TIMEOUT, so a hang
  // fails instead of stalling.
  FleetReport rep;
  ThreadPool::global().parallel_for(1, [&](index_t, index_t) {
    ServeConfig cfg;
    cfg.devices = 2;
    Scheduler sched(cfg);
    for (int i = 0; i < 3; ++i) {
      JobSpec job;
      job.name = "nested" + std::to_string(i);
      job.algorithm = "blocking";
      job.m = 8192;
      job.n = 2048;
      job.blocksize = 512;
      EXPECT_TRUE(sched.submit(job).admitted) << job.name;
    }
    rep = sched.run();
  });
  EXPECT_EQ(rep.jobs_completed, 3);
  EXPECT_EQ(rep.jobs_failed, 0);
}

TEST(ServeScheduler, RunIsSingleShot) {
  ServeConfig cfg;
  Scheduler sched(cfg);
  JobSpec job;
  job.m = job.n = 32768;
  job.blocksize = 4096;
  ASSERT_TRUE(sched.submit(job).admitted);
  sched.run();
  EXPECT_THROW(sched.run(), InvalidArgument);
  EXPECT_THROW(sched.submit(job), InvalidArgument);
}

TEST(ServeScheduler, ConfigValidation) {
  ServeConfig cfg;
  cfg.devices = 0;
  EXPECT_THROW(Scheduler{cfg}, InvalidArgument);
  cfg.devices = 1;
  cfg.checkpoint_every = 0;
  EXPECT_THROW(Scheduler{cfg}, InvalidArgument);
  cfg.checkpoint_every = 1;
  cfg.admission_memory_fraction = 0;
  EXPECT_THROW(Scheduler{cfg}, InvalidArgument);
  cfg.admission_memory_fraction = 1.0;
  cfg.max_colocated_jobs = 0;
  EXPECT_THROW(Scheduler{cfg}, InvalidArgument);
  cfg.max_colocated_jobs = 1;
  cfg.max_fused_jobs = 0;
  EXPECT_THROW(Scheduler{cfg}, InvalidArgument);
}

} // namespace
} // namespace rocqr
