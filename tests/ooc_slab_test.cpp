// Slab partitioning, the §4.1.3 ramp-up schedule, and the column split of
// memory-bound trailing updates.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "ooc/gemm_engines.hpp"
#include "ooc/slab_schedule.hpp"
#include "sim/device.hpp"

namespace rocqr::ooc {
namespace {

index_t total_width(const std::vector<Slab>& slabs) {
  index_t sum = 0;
  for (const Slab& s : slabs) sum += s.width;
  return sum;
}

void expect_contiguous(const std::vector<Slab>& slabs) {
  index_t next = 0;
  for (const Slab& s : slabs) {
    EXPECT_EQ(s.offset, next);
    EXPECT_GT(s.width, 0);
    next = s.offset + s.width;
  }
}

TEST(SlabSchedule, EvenPartition) {
  const auto slabs = slab_partition(131072, 16384);
  EXPECT_EQ(slabs.size(), 8u);
  expect_contiguous(slabs);
  EXPECT_EQ(total_width(slabs), 131072);
  for (const Slab& s : slabs) EXPECT_EQ(s.width, 16384);
  EXPECT_EQ(max_slab_width(slabs), 16384);
}

TEST(SlabSchedule, RemainderGoesToLastSlab) {
  const auto slabs = slab_partition(100, 32);
  ASSERT_EQ(slabs.size(), 4u);
  expect_contiguous(slabs);
  EXPECT_EQ(slabs.back().width, 4);
  EXPECT_EQ(total_width(slabs), 100);
}

TEST(SlabSchedule, SingleAndEmpty) {
  EXPECT_EQ(slab_partition(10, 100).size(), 1u);
  EXPECT_TRUE(slab_partition(0, 16).empty());
  EXPECT_EQ(max_slab_width({}), 0);
}

TEST(SlabSchedule, RampUpDoublesToBlocksize) {
  // The paper's example: start at 2048, grow to 8192 (§4.1.3).
  const auto slabs = slab_partition(65536, 8192, true, 2048);
  expect_contiguous(slabs);
  EXPECT_EQ(total_width(slabs), 65536);
  EXPECT_EQ(slabs[0].width, 2048);
  EXPECT_EQ(slabs[1].width, 4096);
  EXPECT_EQ(slabs[2].width, 8192);
  // Steady state at the full blocksize; only the final slab may be short.
  for (size_t i = 3; i + 1 < slabs.size(); ++i) {
    EXPECT_EQ(slabs[i].width, 8192);
  }
  EXPECT_EQ(max_slab_width(slabs), 8192);
}

TEST(SlabSchedule, RampUpMoreStepsThanTotal) {
  // Total smaller than the first ramp step: single truncated slab.
  const auto slabs = slab_partition(1000, 8192, true, 2048);
  ASSERT_EQ(slabs.size(), 1u);
  EXPECT_EQ(slabs[0].width, 1000);
}

TEST(SlabSchedule, RampStartEqualBlocksizeIsPlainPartition) {
  const auto ramp = slab_partition(4096, 1024, true, 1024);
  const auto plain = slab_partition(4096, 1024);
  ASSERT_EQ(ramp.size(), plain.size());
  for (size_t i = 0; i < ramp.size(); ++i) {
    EXPECT_EQ(ramp[i].offset, plain[i].offset);
    EXPECT_EQ(ramp[i].width, plain[i].width);
  }
}

TEST(SlabSchedule, RampCostsMoreSlabsButSameCoverage) {
  const auto ramp = slab_partition(131072, 16384, true, 2048);
  const auto plain = slab_partition(131072, 16384);
  EXPECT_GT(ramp.size(), plain.size());
  EXPECT_EQ(total_width(ramp), total_width(plain));
}

TEST(SlabSchedule, RejectsBadArguments) {
  EXPECT_THROW(slab_partition(-1, 16), rocqr::InvalidArgument);
  EXPECT_THROW(slab_partition(16, 0), rocqr::InvalidArgument);
  EXPECT_THROW(slab_partition(16, 8, true, 0), rocqr::InvalidArgument);
  EXPECT_THROW(slab_partition(16, 8, true, 16), rocqr::InvalidArgument);
}

// --- Edge cases: every partition must tile [0, total) exactly ----------------

TEST(SlabSchedule, EmptyTotalWithRampIsEmpty) {
  EXPECT_TRUE(slab_partition(0, 16, true, 4).empty());
  EXPECT_TRUE(slab_partition(0, 1).empty());
}

TEST(SlabSchedule, BlocksizeLargerThanTotal) {
  const auto slabs = slab_partition(7, 4096);
  ASSERT_EQ(slabs.size(), 1u);
  EXPECT_EQ(slabs[0].offset, 0);
  EXPECT_EQ(slabs[0].width, 7);
  expect_contiguous(slabs);
}

TEST(SlabSchedule, RampStartAboveBlocksizeThrows) {
  EXPECT_THROW(slab_partition(4096, 1024, true, 2048),
               rocqr::InvalidArgument);
}

TEST(SlabSchedule, RampStartNotPowerOfTwoDivisor) {
  // 3 doubles as 3, 6, 12, 24 and then clamps to the 20-wide blocksize:
  // the schedule still tiles [0, total) with no gaps or overlap.
  const auto slabs = slab_partition(100, 20, true, 3);
  expect_contiguous(slabs);
  EXPECT_EQ(total_width(slabs), 100);
  EXPECT_EQ(slabs[0].width, 3);
  EXPECT_EQ(slabs[1].width, 6);
  EXPECT_EQ(slabs[2].width, 12);
  EXPECT_EQ(slabs[3].width, 20); // min(24, blocksize)
  EXPECT_EQ(max_slab_width(slabs), 20);
}

TEST(SlabSchedule, SingleSlabRamp) {
  // Ramp worth of columns never reaches steady state: one truncated slab.
  const auto slabs = slab_partition(2, 16, true, 4);
  ASSERT_EQ(slabs.size(), 1u);
  EXPECT_EQ(slabs[0].offset, 0);
  EXPECT_EQ(slabs[0].width, 2);
  expect_contiguous(slabs);
}

TEST(ColumnSplit, HalvesToABlocksizeMultipleThatFits) {
  // 64 MiB at a 0.92 budget, b = 256, depth 2, fp16 inputs, staging on:
  // h = 2048 rows of B leave room for panels of at most 9707 columns.
  sim::DeviceSpec spec = sim::DeviceSpec::v100_32gb();
  spec.memory_capacity = 64LL << 20;
  const sim::Device dev(spec, sim::ExecutionMode::Phantom);
  OocGemmOptions o;
  o.blocksize = 256;
  o.pipeline_depth = 2;
  o.precision = blas::GemmPrecision::FP16_FP32;
  o.staging_buffer = true;
  EXPECT_EQ(plan_column_split(dev, o, 0.92, 4096, 2048, 8192), 0);
  // 30000 -> 15104 (too big) -> 7680.
  EXPECT_EQ(plan_column_split(dev, o, 0.92, 4096, 2048, 30000), 7680);
  // Nothing fits: the split stops at one blocksize.
  EXPECT_EQ(plan_column_split(dev, o, 0.92 / 64, 4096, 2048, 30000), 256);
}

} // namespace
} // namespace rocqr::ooc
