// QrOptions::validate(): every documented domain violation throws
// InvalidArgument, both directly and at the entry of each QR driver.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "qr/factorize.hpp"
#include "qr/options.hpp"
#include "sim/device.hpp"

namespace rocqr::qr {
namespace {

QrOptions small_valid() {
  QrOptions opts;
  opts.blocksize = 256;
  opts.ramp_start = 64;
  return opts;
}

TEST(QrOptionsValidate, DefaultsAreValid) {
  EXPECT_NO_THROW(QrOptions{}.validate());
  EXPECT_NO_THROW(small_valid().validate());
}

TEST(QrOptionsValidate, RejectsNonPositiveBlocksize) {
  QrOptions opts = small_valid();
  opts.blocksize = 0;
  EXPECT_THROW(opts.validate(), InvalidArgument);
  opts.blocksize = -16;
  EXPECT_THROW(opts.validate(), InvalidArgument);
}

TEST(QrOptionsValidate, RampKnobsAreIgnoredWhileRampUpIsOff) {
  QrOptions opts = small_valid();
  opts.ramp_up = false;
  opts.ramp_start = opts.blocksize + 1; // the CLI default for small b
  EXPECT_NO_THROW(opts.validate());
}

TEST(QrOptionsValidate, RejectsRampStartOutOfRange) {
  QrOptions opts = small_valid();
  opts.ramp_up = true;
  opts.ramp_start = 0;
  EXPECT_THROW(opts.validate(), InvalidArgument);
  opts.ramp_start = opts.blocksize + 1;
  EXPECT_THROW(opts.validate(), InvalidArgument);
  opts.ramp_start = opts.blocksize; // boundary is allowed
  EXPECT_NO_THROW(opts.validate());
}

TEST(QrOptionsValidate, RejectsMemoryBudgetOutsideUnitInterval) {
  QrOptions opts = small_valid();
  opts.memory_budget_fraction = 0.0;
  EXPECT_THROW(opts.validate(), InvalidArgument);
  opts.memory_budget_fraction = -0.25;
  EXPECT_THROW(opts.validate(), InvalidArgument);
  opts.memory_budget_fraction = 1.5;
  EXPECT_THROW(opts.validate(), InvalidArgument);
  opts.memory_budget_fraction = 1.0; // boundary is allowed
  EXPECT_NO_THROW(opts.validate());
}

TEST(QrOptionsValidate, RejectsBadPipelineAndPanelKnobs) {
  QrOptions opts = small_valid();
  opts.pipeline_depth = 0;
  EXPECT_THROW(opts.validate(), InvalidArgument);

  opts = small_valid();
  opts.panel_base = 0;
  EXPECT_THROW(opts.validate(), InvalidArgument);

  opts = small_valid();
  opts.outer_tile_rows = -1;
  EXPECT_THROW(opts.validate(), InvalidArgument);

  opts = small_valid();
  opts.outer_tile_cols = -1;
  EXPECT_THROW(opts.validate(), InvalidArgument);

  opts = small_valid();
  opts.inner_c_panel = -1;
  EXPECT_THROW(opts.validate(), InvalidArgument);
}

// Every driver must reject a bad configuration at its API boundary, before
// any scheduling work happens.
class QrDriverValidation : public ::testing::TestWithParam<Algorithm> {};

TEST_P(QrDriverValidation, RejectsInvalidOptionsOnEntry) {
  sim::Device dev(sim::DeviceSpec::v100_32gb(), sim::ExecutionMode::Phantom);
  const index_t n = 2048;
  const auto driver = [&](const QrOptions& opts) {
    return factorize(QrProblem{{&dev},
                               sim::HostMutRef::phantom(n, n),
                               sim::HostMutRef::phantom(n, n),
                               GetParam(),
                               opts});
  };

  QrOptions opts = small_valid();
  opts.blocksize = 0;
  EXPECT_THROW(driver(opts), InvalidArgument);

  opts = small_valid();
  opts.ramp_up = true;
  opts.ramp_start = opts.blocksize + 1;
  EXPECT_THROW(driver(opts), InvalidArgument);

  opts = small_valid();
  opts.memory_budget_fraction = 2.0;
  EXPECT_THROW(driver(opts), InvalidArgument);

  // Sanity: the same driver accepts the valid baseline.
  EXPECT_NO_THROW(driver(small_valid()));
}

// The parameter is the enum, not a callable: gtest prints a parameter into
// the discovered test name, and a callable prints as the bytes of its
// pointers, which change with every build.
INSTANTIATE_TEST_SUITE_P(AllDrivers, QrDriverValidation,
                         ::testing::Values(Algorithm::Blocking,
                                           Algorithm::Recursive,
                                           Algorithm::LeftLooking),
                         [](const auto& param_info) {
                           return param_info.index == 0   ? "blocking"
                                  : param_info.index == 1 ? "recursive"
                                                          : "left_looking";
                         });

} // namespace
} // namespace rocqr::qr
