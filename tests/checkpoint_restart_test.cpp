// Panel-level checkpoint/restart: kill a factorization mid-run with an
// injected fatal fault, resume from the last checkpoint on a fresh device,
// and require the resumed result to be bit-identical to an uninterrupted
// run — for every single-device OOC QR driver (blocking, left-looking,
// recursive, tiled) and every kill point that left a checkpoint behind.
// Plus serialization round-trips and checkpoint cadence.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "la/generate.hpp"
#include "leak_check.hpp"
#include "qr/checkpoint.hpp"
#include "qr/factorize.hpp"
#include "sim/device.hpp"
#include "sim/faults.hpp"

namespace rocqr {
namespace {

using sim::Device;
using sim::ExecutionMode;
using sim::FaultPlan;

sim::DeviceSpec test_spec() {
  sim::DeviceSpec s = sim::DeviceSpec::v100_32gb();
  s.memory_capacity = 64LL << 20;
  return s;
}

qr::QrStats run_driver(const std::string& driver, Device& dev,
                       sim::HostMutRef a, sim::HostMutRef r,
                       const qr::QrOptions& opts) {
  const qr::Algorithm alg = *qr::parse_algorithm(driver);
  return qr::factorize(qr::QrProblem{{&dev}, a, r, alg, opts});
}

bool bitwise_equal(const la::Matrix& x, const la::Matrix& y) {
  for (index_t j = 0; j < x.cols(); ++j) {
    for (index_t i = 0; i < x.rows(); ++i) {
      if (x(i, j) != y(i, j)) return false;
    }
  }
  return true;
}

/// Runs `driver` to completion fault-free, then re-runs it once per possible
/// H2D kill point with a 1-attempt transfer budget, resuming every run that
/// left a checkpoint and requiring the resumed factorization to match the
/// uninterrupted one bit for bit. Returns how many kills were resumed.
int kill_and_resume_sweep(const std::string& driver, index_t m, index_t n,
                          const qr::QrOptions& opts) {
  la::Matrix a0 = la::random_normal(m, n, 31);

  // Uninterrupted reference. The p=0 plan never fires but its injector
  // counts operations, giving the total H2D op count to aim the kills at.
  la::Matrix q_ref = la::materialize(a0.view());
  la::Matrix r_ref(n, n);
  Device ref_dev(test_spec(), ExecutionMode::Real);
  ref_dev.install_faults(FaultPlan::parse("h2d:transient:p=0"));
  run_driver(driver, ref_dev, q_ref.view(), r_ref.view(), opts);
  const std::int64_t total_h2d =
      ref_dev.fault_injector()->ops_seen(sim::FaultSite::H2D);
  EXPECT_GT(total_h2d, 2) << driver;

  int resumed = 0;
  for (std::int64_t kill = 2; kill < total_h2d; ++kill) {
    qr::MemoryCheckpointSink sink;
    qr::QrOptions kill_opts = opts;
    kill_opts.checkpoint_sink = &sink;
    kill_opts.checkpoint_every = 1;
    kill_opts.transfer_max_attempts = 1;
    la::Matrix q_killed = la::materialize(a0.view());
    la::Matrix r_killed(n, n);
    Device kill_dev(test_spec(), ExecutionMode::Real);
    kill_dev.install_faults(
        FaultPlan::parse("h2d:transient:op=" + std::to_string(kill)));
    EXPECT_THROW(run_driver(driver, kill_dev, q_killed.view(),
                            r_killed.view(), kill_opts),
                 FaultBudgetExhausted)
        << driver << " kill " << kill;
    if (!sink.has_checkpoint()) continue; // killed before the first unit
    const qr::Checkpoint& cp = sink.last();
    EXPECT_EQ(cp.driver, driver);
    EXPECT_GT(cp.units_done, 0);

    // Resume on a fresh device with fresh host buffers: the checkpoint alone
    // must reconstruct the uninterrupted factorization bit for bit.
    la::Matrix q_res(m, n);
    la::Matrix r_res(n, n);
    Device res_dev(test_spec(), ExecutionMode::Real);
    qr::resume(qr::QrProblem{
        {&res_dev}, q_res.view(), r_res.view(), qr::Algorithm::Recursive, opts
        }, cp);
    EXPECT_TRUE(bitwise_equal(q_res, q_ref)) << driver << " kill " << kill;
    EXPECT_TRUE(bitwise_equal(r_res, r_ref)) << driver << " kill " << kill;
    ++resumed;
  }
  return resumed;
}

qr::QrOptions base_options() {
  qr::QrOptions opts;
  opts.blocksize = 24;
  opts.panel_base = 8;
  opts.precision = blas::GemmPrecision::FP32;
  return opts;
}

TEST(KillAndResume, BlockingDriver) {
  EXPECT_GE(kill_and_resume_sweep("blocking", 96, 72, base_options()), 1);
}

TEST(KillAndResume, LeftLookingDriver) {
  EXPECT_GE(kill_and_resume_sweep("left", 96, 72, base_options()), 1);
}

TEST(KillAndResume, RecursiveDriverPanelLeaves) {
  // Panels as recursion leaves: exercises the node-update replay gating.
  qr::QrOptions opts = base_options();
  opts.resident_subtrees = false;
  EXPECT_GE(kill_and_resume_sweep("recursive", 96, 72, opts), 1);
}

TEST(KillAndResume, TiledDriver) {
  // Tiled CGS on the TaskGraph executor: kill points land inside the
  // interleaved panel/update schedule, so a resumed run proves the DAG
  // replays its completed prefix deterministically.
  qr::QrOptions opts = base_options();
  opts.blocksize = 16;
  EXPECT_GE(kill_and_resume_sweep("tiled", 96, 64, opts), 1);
}

TEST(KillAndResume, RecursiveDriverResidentSubtrees) {
  // n > 4b so the top level recurses while each half becomes one resident
  // subtree leaf: exercises subtree units in the replay.
  qr::QrOptions opts = base_options();
  opts.blocksize = 16;
  EXPECT_GE(kill_and_resume_sweep("recursive", 112, 96, opts), 1);
}

TEST(CheckpointSerialization, RoundTripsThroughStream) {
  qr::Checkpoint cp;
  cp.driver = "recursive";
  cp.m = 6;
  cp.n = 4;
  cp.blocksize = 2;
  cp.columns_done = 2;
  cp.units_done = 3;
  cp.a.resize(24);
  cp.r.resize(16);
  for (size_t i = 0; i < cp.a.size(); ++i) cp.a[i] = 0.5f * static_cast<float>(i);
  for (size_t i = 0; i < cp.r.size(); ++i) cp.r[i] = -1.25f * static_cast<float>(i);

  std::stringstream ss;
  qr::write_checkpoint(ss, cp);
  const qr::Checkpoint back = qr::read_checkpoint(ss);
  EXPECT_EQ(back.driver, cp.driver);
  EXPECT_EQ(back.m, cp.m);
  EXPECT_EQ(back.n, cp.n);
  EXPECT_EQ(back.blocksize, cp.blocksize);
  EXPECT_EQ(back.columns_done, cp.columns_done);
  EXPECT_EQ(back.units_done, cp.units_done);
  EXPECT_EQ(back.a, cp.a);
  EXPECT_EQ(back.r, cp.r);
}

TEST(CheckpointSerialization, RejectsMalformedStreams) {
  {
    std::stringstream ss("not a checkpoint at all");
    EXPECT_THROW(qr::read_checkpoint(ss), InvalidArgument);
  }
  {
    std::stringstream ss("rocqr-checkpoint v1\nblocking\n"); // truncated
    EXPECT_THROW(qr::read_checkpoint(ss), InvalidArgument);
  }
  {
    // Header promises a payload the stream does not deliver.
    std::stringstream ss("rocqr-checkpoint v1\nblocking\n4 4 2 2 1 16 16\n");
    EXPECT_THROW(qr::read_checkpoint(ss), InvalidArgument);
  }
  {
    // A well-formed v2 header with an empty payload reads under a known tag
    // and is rejected under one that names no qr::Algorithm.
    std::stringstream ok("rocqr-checkpoint v2\nblocking\n4 4 2 2 1 0 0 0 0\n");
    EXPECT_NO_THROW(qr::read_checkpoint(ok));
    std::stringstream ss("rocqr-checkpoint v2\nmulti_gpu\n4 4 2 2 1 0 0 0 0\n");
    EXPECT_THROW(qr::read_checkpoint(ss), InvalidArgument);
  }
}

TEST(CheckpointSerialization, DetectsFlippedPayloadByte) {
  // The v2 header carries a CRC-32 over the float payload: a single byte
  // silently corrupted at rest (bit rot, torn write) must be rejected
  // instead of resuming from garbage numerics.
  qr::Checkpoint cp;
  cp.driver = "recursive";
  cp.m = 8;
  cp.n = 4;
  cp.blocksize = 2;
  cp.columns_done = 2;
  cp.units_done = 1;
  cp.a.resize(32);
  cp.r.resize(16);
  for (size_t i = 0; i < cp.a.size(); ++i) cp.a[i] = 0.25f * static_cast<float>(i) - 3.0f;
  for (size_t i = 0; i < cp.r.size(); ++i) cp.r[i] = 2.0f * static_cast<float>(i);

  std::stringstream clean;
  qr::write_checkpoint(clean, cp);
  std::string bytes = clean.str();

  // Uncorrupted bytes still load (guards against the test flipping a byte
  // that was never covered by the CRC in the first place).
  {
    std::stringstream ss(bytes);
    EXPECT_NO_THROW(qr::read_checkpoint(ss));
  }

  // Flip one byte in the middle of the binary payload (well past the text
  // header, which ends at the third newline).
  size_t header_end = 0;
  for (int nl = 0; nl < 3; ++nl) header_end = bytes.find('\n', header_end) + 1;
  ASSERT_LT(header_end, bytes.size());
  const size_t victim = header_end + (bytes.size() - header_end) / 2;
  bytes[victim] = static_cast<char>(bytes[victim] ^ 0x5A);
  {
    std::stringstream ss(bytes);
    try {
      qr::read_checkpoint(ss);
      FAIL() << "corrupted checkpoint was accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("CRC mismatch"), std::string::npos)
          << e.what();
    }
  }

  // Truncated payload is also rejected, not zero-filled.
  {
    std::stringstream ss(clean.str().substr(0, clean.str().size() - 7));
    EXPECT_THROW(qr::read_checkpoint(ss), InvalidArgument);
  }
}

TEST(CheckpointSerialization, FileSinkRoundTrip) {
  qr::Checkpoint cp;
  cp.driver = "blocking";
  cp.m = 3;
  cp.n = 2;
  cp.blocksize = 1;
  cp.columns_done = 1;
  cp.units_done = 1;
  cp.a = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f};
  cp.r = {7.0f, 8.0f, 9.0f, 10.0f};

  const std::string path = "checkpoint_restart_test.ckpt";
  qr::FileCheckpointSink file_sink(path);
  file_sink.write(cp);
  const qr::Checkpoint back = qr::load_checkpoint_file(path);
  EXPECT_EQ(back.driver, cp.driver);
  EXPECT_EQ(back.a, cp.a);
  EXPECT_EQ(back.r, cp.r);
  std::remove(path.c_str());
}

TEST(CheckpointAtomicity, FailedWriteKeepsPreviousCheckpoint) {
  // FileCheckpointSink serializes to a ".tmp" sidecar and renames into
  // place: a write that dies partway must leave the previous good
  // checkpoint untouched (the old trunc-in-place sink destroyed it).
  qr::Checkpoint cp1;
  cp1.driver = "blocking";
  cp1.m = 3;
  cp1.n = 2;
  cp1.blocksize = 1;
  cp1.columns_done = 1;
  cp1.units_done = 1;
  cp1.a = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f};
  cp1.r = {7.0f, 8.0f, 9.0f, 10.0f};

  const std::string path = "checkpoint_atomic_test.ckpt";
  const std::string tmp = path + ".tmp";
  qr::FileCheckpointSink sink(path);
  sink.write(cp1);
  EXPECT_FALSE(std::filesystem::exists(tmp)); // renamed, not copied

  // Crash the next write mid-checkpoint: a directory squatting on the
  // sidecar path makes serialization fail before the rename.
  std::filesystem::create_directory(tmp);
  qr::Checkpoint cp2 = cp1;
  cp2.columns_done = 2;
  cp2.units_done = 2;
  cp2.a[0] = -42.0f;
  EXPECT_THROW(sink.write(cp2), InvalidArgument);

  const qr::Checkpoint back = qr::load_checkpoint_file(path);
  EXPECT_EQ(back.units_done, cp1.units_done);
  EXPECT_EQ(back.a, cp1.a);
  EXPECT_EQ(back.r, cp1.r);

  // Once the obstruction clears, the sink recovers on the next write.
  std::filesystem::remove_all(tmp);
  sink.write(cp2);
  EXPECT_EQ(qr::load_checkpoint_file(path).units_done, cp2.units_done);
  EXPECT_FALSE(std::filesystem::exists(tmp));
  std::remove(path.c_str());
}

/// Delegates to a FileCheckpointSink but sabotages write number `fail_at`
/// by squatting on the ".tmp" sidecar — simulating a crash mid-checkpoint.
class SabotagedFileSink : public qr::CheckpointSink {
 public:
  SabotagedFileSink(std::string path, int fail_at)
      : inner_(path), path_(std::move(path)), fail_at_(fail_at) {}
  void write(const qr::Checkpoint& cp) override {
    if (++writes_ == fail_at_) {
      std::filesystem::create_directory(path_ + ".tmp");
    }
    inner_.write(cp);
  }

 private:
  qr::FileCheckpointSink inner_;
  std::string path_;
  int fail_at_;
  int writes_ = 0;
};

TEST(CheckpointAtomicity, RunKilledMidCheckpointStillResumesBitIdentical) {
  // End-to-end chaos: a recursive run checkpointing to a file dies during
  // its second checkpoint write. The file must still hold the first
  // checkpoint, and resuming from it must reproduce the uninterrupted
  // factorization bit for bit.
  const index_t m = 96;
  const index_t n = 72;
  qr::QrOptions opts = base_options();
  opts.resident_subtrees = false; // panels as leaves: one unit per panel

  la::Matrix a0 = la::random_normal(m, n, 77);
  la::Matrix q_ref = la::materialize(a0.view());
  la::Matrix r_ref(n, n);
  Device ref_dev(test_spec(), ExecutionMode::Real);
  qr::factorize(qr::QrProblem{
      {&ref_dev}, q_ref.view(), r_ref.view(), qr::Algorithm::Recursive, opts});

  const std::string path = "checkpoint_chaos_test.ckpt";
  const std::string tmp = path + ".tmp";
  SabotagedFileSink sink(path, 2);
  qr::QrOptions killed_opts = opts;
  killed_opts.checkpoint_sink = &sink;
  la::Matrix q_killed = la::materialize(a0.view());
  la::Matrix r_killed(n, n);
  Device killed_dev(test_spec(), ExecutionMode::Real);
  EXPECT_THROW(qr::factorize(qr::QrProblem{
      {&killed_dev}, q_killed.view(), r_killed.view(),
      qr::Algorithm::Recursive, killed_opts}),
               InvalidArgument);

  const qr::Checkpoint cp = qr::load_checkpoint_file(path);
  EXPECT_EQ(cp.driver, "recursive");
  EXPECT_EQ(cp.units_done, 1); // the write of unit 2 was the crash

  la::Matrix q_res(m, n);
  la::Matrix r_res(n, n);
  Device res_dev(test_spec(), ExecutionMode::Real);
  qr::resume(qr::QrProblem{
      {&res_dev}, q_res.view(), r_res.view(), qr::Algorithm::Recursive, opts
      }, cp);
  EXPECT_TRUE(bitwise_equal(q_res, q_ref));
  EXPECT_TRUE(bitwise_equal(r_res, r_ref));

  std::filesystem::remove_all(tmp);
  std::remove(path.c_str());
}

TEST(CheckpointCadence, EveryNWritesOnlyOnCadence) {
  const index_t m = 96;
  const index_t n = 72; // 3 panels at b=24: units 1, 2, 3
  la::Matrix a = la::random_normal(m, n, 32);
  la::Matrix r(n, n);

  qr::MemoryCheckpointSink sink;
  qr::QrOptions opts = base_options();
  opts.checkpoint_sink = &sink;
  opts.checkpoint_every = 2;
  Device dev(test_spec(), ExecutionMode::Real);
  la::Matrix q = la::materialize(a.view());
  qr::factorize(
      qr::QrProblem{{&dev}, q.view(), r.view(), qr::Algorithm::Blocking, opts});
  EXPECT_EQ(sink.count(), 1); // only unit 2 is on the cadence
  EXPECT_EQ(sink.last().units_done, 2);

  telemetry::Counter& written =
      telemetry::MetricsRegistry::global().counter("checkpoints_written");
  written.reset();
  opts.checkpoint_every = 1;
  Device dev2(test_spec(), ExecutionMode::Real);
  la::Matrix q2 = la::materialize(a.view());
  la::Matrix r2(n, n);
  qr::factorize(qr::QrProblem{
      {&dev2}, q2.view(), r2.view(), qr::Algorithm::Blocking, opts});
  EXPECT_EQ(written.value(), 3);
}

TEST(CheckpointPhantom, PhantomRunCheckpointsAndResumes) {
  const index_t n = 4096; // 4 blocking panels at b=1024
  qr::MemoryCheckpointSink sink;
  qr::QrOptions opts;
  opts.blocksize = 1024;
  opts.checkpoint_sink = &sink;
  opts.checkpoint_every = 3; // last write mid-run, at unit 3 of 4
  Device dev(sim::DeviceSpec::v100_32gb(), ExecutionMode::Phantom);
  auto a = sim::HostMutRef::phantom(n, n);
  auto r = sim::HostMutRef::phantom(n, n);
  qr::factorize(qr::QrProblem{{&dev}, a, r, qr::Algorithm::Blocking, opts});
  ASSERT_TRUE(sink.has_checkpoint());
  EXPECT_EQ(sink.last().units_done, 3);
  EXPECT_TRUE(sink.last().a.empty()); // no payload in Phantom mode

  // A phantom resume replays the remaining schedule without host data.
  Device dev2(sim::DeviceSpec::v100_32gb(), ExecutionMode::Phantom);
  opts.checkpoint_sink = nullptr;
  const qr::QrStats stats = qr::resume(qr::QrProblem{
      {&dev2}, a, r, qr::Algorithm::Recursive, opts}, sink.last());
  EXPECT_GT(stats.total_seconds, 0.0);
}

TEST(CheckpointResume, RejectsMismatchedShapeOrBlocksize) {
  qr::Checkpoint cp;
  cp.driver = "blocking";
  cp.m = 8;
  cp.n = 8;
  cp.blocksize = 4;
  cp.units_done = 1;
  Device dev(test_spec(), ExecutionMode::Phantom);
  auto a = sim::HostMutRef::phantom(8, 8);
  auto r = sim::HostMutRef::phantom(8, 8);

  qr::QrOptions opts;
  opts.blocksize = 2; // != checkpointed blocksize: unit numbering differs
  EXPECT_THROW(qr::resume(qr::QrProblem{
      {&dev}, a, r, qr::Algorithm::Recursive, opts}, cp), InvalidArgument);

  opts.blocksize = 4;
  auto bad = sim::HostMutRef::phantom(4, 4);
  EXPECT_THROW(qr::resume(qr::QrProblem{
      {&dev}, bad, r, qr::Algorithm::Recursive, opts}, cp), InvalidArgument);

  cp.driver = "no-such-driver";
  EXPECT_THROW(qr::resume(qr::QrProblem{
      {&dev}, a, r, qr::Algorithm::Recursive, opts}, cp), InvalidArgument);
}

TEST(CheckpointResume, RejectsShortHostPayload) {
  // A Real-mode resume restores the A payload into the caller's matrix; a
  // payload one float short must throw instead of reading past its end.
  const index_t m = 64;
  const index_t n = 32;
  la::Matrix a0 = la::random_normal(m, n, 47);
  qr::MemoryCheckpointSink sink;
  qr::QrOptions opts;
  opts.blocksize = 16;
  opts.checkpoint_sink = &sink;
  {
    la::Matrix q = la::materialize(a0.view());
    la::Matrix r(n, n);
    Device dev(test_spec(), ExecutionMode::Real);
    qr::factorize(qr::QrProblem{{&dev}, q.view(), r.view(),
                                qr::Algorithm::Blocking, opts});
  }
  ASSERT_TRUE(sink.has_checkpoint());
  qr::Checkpoint cp = sink.last();
  ASSERT_EQ(cp.a.size(), static_cast<size_t>(m * n));
  cp.a.pop_back();

  opts.checkpoint_sink = nullptr;
  la::Matrix q = la::materialize(a0.view());
  la::Matrix r(n, n);
  Device dev(test_spec(), ExecutionMode::Real);
  EXPECT_THROW(qr::resume(qr::QrProblem{{&dev}, q.view(), r.view(),
                                        qr::Algorithm::Blocking, opts},
                          cp),
               InvalidArgument);
}

} // namespace
} // namespace rocqr
