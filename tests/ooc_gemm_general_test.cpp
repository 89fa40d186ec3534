// The general ooc_gemm facade: all transpose combinations, arbitrary
// alpha/beta (including the write-only beta == 0 path), dispatch choices.
#include <gtest/gtest.h>

#include "leak_check.hpp"

#include <tuple>

#include "blas/gemm.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"
#include "ooc/ooc_gemm.hpp"
#include "sim/device.hpp"

namespace rocqr::ooc {
namespace {

using blas::GemmPrecision;
using blas::Op;
using sim::Device;
using sim::ExecutionMode;

sim::DeviceSpec test_spec() {
  sim::DeviceSpec s = sim::DeviceSpec::v100_32gb();
  s.memory_capacity = 256LL << 20;
  return s;
}

la::Matrix stored(Op op, index_t rows_op, index_t cols_op,
                  std::uint64_t seed) {
  return op == Op::NoTrans ? la::random_uniform(rows_op, cols_op, seed)
                           : la::random_uniform(cols_op, rows_op, seed);
}

class GeneralOocGemmTest
    : public ::testing::TestWithParam<
          std::tuple<Op, Op, std::tuple<float, float>>> {};

TEST_P(GeneralOocGemmTest, MatchesHostGemm) {
  const auto [opa, opb, scalars] = GetParam();
  const auto [alpha, beta] = scalars;
  const index_t m = 72;
  const index_t n = 56;
  const index_t k = 40;
  la::Matrix a = stored(opa, m, k, 1);
  la::Matrix b = stored(opb, k, n, 2);
  la::Matrix c0 = la::random_uniform(m, n, 3);
  la::Matrix c = la::materialize(c0.view());

  Device dev(test_spec(), ExecutionMode::Real);
  OocGemmOptions opts;
  opts.blocksize = 24;
  opts.precision = GemmPrecision::FP32;
  GemmProblem p;
  p.opa = opa;
  p.opb = opb;
  p.alpha = alpha;
  p.beta = beta;
  p.a = a.view();
  p.b = b.view();
  p.c_in = sim::as_const(c.view());
  p.c_out = c.view();
  const auto stats = ooc_gemm(dev, p, opts);
  dev.synchronize();

  la::Matrix expected = la::materialize(c0.view());
  blas::gemm(opa, opb, m, n, k, alpha, a.data(), a.ld(), b.data(), b.ld(),
             beta, expected.data(), expected.ld());
  EXPECT_LT(la::relative_difference(c.view(), expected.view()), 1e-4);
  EXPECT_EQ(dev.live_allocations(), 0);
  // beta == 0 must not move C in at all.
  const bytes_t c_bytes = m * n * 4;
  const sim::TraceSummary window =
      sim::summarize(dev.trace(), stats.trace_begin, stats.trace_end);
  if (beta == 0.0f) {
    EXPECT_LT(window.bytes_h2d, c_bytes + (m * k + k * n) * 4 + 1);
  } else {
    EXPECT_GE(window.bytes_h2d, c_bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GeneralOocGemmTest,
    ::testing::Combine(::testing::Values(Op::NoTrans, Op::Trans),
                       ::testing::Values(Op::NoTrans, Op::Trans),
                       ::testing::Values(std::tuple<float, float>{1.0f, 0.0f},
                                         std::tuple<float, float>{-1.0f, 1.0f},
                                         std::tuple<float, float>{2.5f,
                                                                  -0.5f})));

TEST(GeneralOocGemm, WriteOnlyOutputAcceptsNullCIn) {
  const index_t n = 48;
  la::Matrix a = la::random_uniform(n, n, 4);
  la::Matrix b = la::random_uniform(n, n, 5);
  la::Matrix c(n, n);
  Device dev(test_spec(), ExecutionMode::Real);
  OocGemmOptions opts;
  opts.blocksize = 16;
  opts.precision = GemmPrecision::FP32;
  GemmProblem p;
  p.a = a.view();
  p.b = b.view();
  p.c_out = c.view();
  ooc_gemm(dev, p, opts);
  dev.synchronize();
  la::Matrix expected(n, n);
  blas::gemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0f, a.data(), a.ld(),
             b.data(), b.ld(), 0.0f, expected.data(), expected.ld());
  EXPECT_LT(la::relative_difference(c.view(), expected.view()), 1e-4);
}

GemmProblem phantom_update(index_t m, index_t n, index_t k) {
  GemmProblem p;
  p.alpha = -1.0f;
  p.beta = 1.0f;
  p.a = sim::HostConstRef::phantom(m, k);
  p.b = sim::HostConstRef::phantom(k, n);
  p.c_in = sim::HostConstRef::phantom(m, n);
  p.c_out = sim::HostMutRef::phantom(m, n);
  return p;
}

TEST(GeneralOocGemm, DispatchKeepsSmallerFactorResident) {
  // Tall A (streamed), small B (resident): row-wise path -> C row slabs.
  Device dev(test_spec(), ExecutionMode::Phantom);
  OocGemmOptions opts;
  opts.blocksize = 64;
  const auto tall = ooc_gemm(dev, phantom_update(1024, 96, 64), opts);
  EXPECT_FALSE(tall.output_ready.empty());
  EXPECT_EQ(tall.output_ready.front().cols.width, 96); // full-width row slabs

  // Small A (resident), wide B (streamed): column-wise path -> C col slabs.
  const auto wide = ooc_gemm(dev, phantom_update(96, 1024, 64), opts);
  EXPECT_EQ(wide.output_ready.front().rows.width, 96); // full-height col slabs
}

TEST(GeneralOocGemm, RejectsMismatchedShapes) {
  Device dev(test_spec(), ExecutionMode::Phantom);
  GemmProblem bad_inner;
  bad_inner.a = sim::HostConstRef::phantom(8, 4);
  bad_inner.b = sim::HostConstRef::phantom(5, 8);
  bad_inner.c_out = sim::HostMutRef::phantom(8, 8);
  EXPECT_THROW(ooc_gemm(dev, bad_inner), InvalidArgument);

  GemmProblem bad_c_in = phantom_update(8, 8, 4);
  bad_c_in.alpha = 1.0f;
  bad_c_in.c_in = sim::HostConstRef::phantom(7, 8);
  EXPECT_THROW(ooc_gemm(dev, bad_c_in), InvalidArgument);
}

} // namespace
} // namespace rocqr::ooc
