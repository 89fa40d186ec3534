// google-benchmark microbenchmarks of the host substrate: GEMM paths,
// triangular solve, the Gram-Schmidt family, fp16 conversion, and one
// thread-pool round. These measure the *real* kernels (not the simulator)
// and mostly matter for keeping the Real-mode test suite fast.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>

#include "blas/gemm.hpp"
#include "blas/transform.hpp"
#include "blas/trsm.hpp"
#include "common/thread_pool.hpp"
#include "la/generate.hpp"
#include "qr/incore.hpp"

namespace {

using namespace rocqr;

void BM_GemmFp32(benchmark::State& state) {
  const index_t n = state.range(0);
  la::Matrix a = la::random_uniform(n, n, 1);
  la::Matrix b = la::random_uniform(n, n, 2);
  la::Matrix c(n, n);
  for (auto _ : state) {
    blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, n, n, n, 1.0f, a.data(),
               n, b.data(), n, 0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * blas::gemm_flops(n, n, n));
}
BENCHMARK(BM_GemmFp32)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmFp16Fp32(benchmark::State& state) {
  const index_t n = state.range(0);
  la::Matrix a = la::random_uniform(n, n, 1);
  la::Matrix b = la::random_uniform(n, n, 2);
  la::Matrix c(n, n);
  for (auto _ : state) {
    blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, n, n, n, 1.0f, a.data(),
               n, b.data(), n, 0.0f, c.data(), n,
               blas::GemmPrecision::FP16_FP32);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * blas::gemm_flops(n, n, n));
}
BENCHMARK(BM_GemmFp16Fp32)->Arg(64)->Arg(128)->Arg(256);

// Square fp32 at sizes where the packed operands no longer fit in cache.
void BM_GemmBlocked(benchmark::State& state) {
  const index_t n = state.range(0);
  la::Matrix a = la::random_uniform(n, n, 1);
  la::Matrix b = la::random_uniform(n, n, 2);
  la::Matrix c(n, n);
  for (auto _ : state) {
    blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, n, n, n, 1.0f, a.data(),
               n, b.data(), n, 0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * blas::gemm_flops(n, n, n));
}
BENCHMARK(BM_GemmBlocked)->Arg(1024)->Arg(2048)->Unit(benchmark::kMillisecond);

// Steady-state gemm must run out of the thread-local pack buffers without
// allocating: one warm-up call sizes them, then the allocation counter may
// not move for the rest of the benchmark.
void BM_GemmPackSteadyState(benchmark::State& state) {
  const index_t n = 256;
  la::Matrix a = la::random_uniform(n, n, 1);
  la::Matrix b = la::random_uniform(n, n, 2);
  la::Matrix c(n, n);
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, n, n, n, 1.0f, a.data(), n,
             b.data(), n, 0.0f, c.data(), n);
  const std::int64_t warm = blas::gemm_pack_allocations();
  for (auto _ : state) {
    blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, n, n, n, 1.0f, a.data(),
               n, b.data(), n, 0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  if (blas::gemm_pack_allocations() != warm) {
    state.SkipWithError("gemm pack buffers reallocated in steady state");
  }
  state.SetItemsProcessed(state.iterations() * blas::gemm_flops(n, n, n));
}
BENCHMARK(BM_GemmPackSteadyState);

void BM_GemmTransA(benchmark::State& state) {
  const index_t n = state.range(0);
  la::Matrix a = la::random_uniform(n, n, 1);
  la::Matrix b = la::random_uniform(n, n, 2);
  la::Matrix c(n, n);
  for (auto _ : state) {
    blas::gemm(blas::Op::Trans, blas::Op::NoTrans, n, n, n, 1.0f, a.data(), n,
               b.data(), n, 0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * blas::gemm_flops(n, n, n));
}
BENCHMARK(BM_GemmTransA)->Arg(128);

void BM_TrsmRightUpper(benchmark::State& state) {
  const index_t n = state.range(0);
  la::Matrix r = la::random_uniform(n, n, 3);
  for (index_t j = 0; j < n; ++j) r(j, j) += 4.0f;
  la::Matrix b0 = la::random_uniform(4 * n, n, 4);
  la::Matrix b(4 * n, n);
  for (auto _ : state) {
    blas::copy_matrix(4 * n, n, b0.data(), b0.ld(), b.data(), b.ld());
    blas::trsm_right_upper(4 * n, n, r.data(), r.ld(), b.data(), b.ld());
    benchmark::DoNotOptimize(b.data());
  }
}
BENCHMARK(BM_TrsmRightUpper)->Arg(64)->Arg(128);

template <qr::QrFactors (*Fn)(la::ConstMatrixView)>
void BM_QrVariant(benchmark::State& state) {
  const index_t n = state.range(0);
  la::Matrix a = la::random_normal(4 * n, n, 5);
  for (auto _ : state) {
    qr::QrFactors f = Fn(a.view());
    benchmark::DoNotOptimize(f.q.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * (4 * n) * n * n);
}
BENCHMARK(BM_QrVariant<qr::cgs>)->Arg(32)->Arg(64)->Name("BM_QrCgs");
BENCHMARK(BM_QrVariant<qr::mgs>)->Arg(32)->Arg(64)->Name("BM_QrMgs");
BENCHMARK(BM_QrVariant<qr::cgs2>)->Arg(32)->Arg(64)->Name("BM_QrCgs2");
BENCHMARK(BM_QrVariant<qr::cholesky_qr2>)
    ->Arg(32)
    ->Arg(64)
    ->Name("BM_QrCholeskyQr2");

void BM_QrTsqr(benchmark::State& state) {
  const index_t n = state.range(0);
  la::Matrix a = la::random_normal(4 * n, n, 8);
  for (auto _ : state) {
    qr::QrFactors f = qr::tsqr(a.view(), n);
    benchmark::DoNotOptimize(f.q.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * (4 * n) * n * n);
}
BENCHMARK(BM_QrTsqr)->Arg(32)->Arg(64);

// Args: m, n, and 1 for fp16 TensorCore-contract GEMMs (0: fp32). The last
// shape is the real_ooc panel: 4096 x 128, base 32, fp16.
void BM_QrRecursive(benchmark::State& state) {
  const index_t m = state.range(0);
  const index_t n = state.range(1);
  const auto precision = state.range(2) != 0 ? blas::GemmPrecision::FP16_FP32
                                             : blas::GemmPrecision::FP32;
  la::Matrix a = la::random_normal(m, n, 6);
  for (auto _ : state) {
    qr::QrFactors f = qr::recursive_cgs(a.view(), 32, precision);
    benchmark::DoNotOptimize(f.q.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * n * n);
}
BENCHMARK(BM_QrRecursive)
    ->Args({256, 64, 0})
    ->Args({512, 128, 0})
    ->Args({4096, 128, 1});

// One empty round on the global pool: the fixed cost every pooled kernel
// call pays (a panel issues about two hundred).
void BM_PoolRound(benchmark::State& state) {
  ThreadPool& pool = ThreadPool::global();
  const index_t n = static_cast<index_t>(pool.size());
  for (auto _ : state) {
    pool.parallel_for(n, [](index_t b, index_t e) {
      benchmark::DoNotOptimize(b + e);
    });
  }
}
BENCHMARK(BM_PoolRound);

void BM_HalfRoundTrip(benchmark::State& state) {
  // Every iteration rounds fresh data: after one pass each element is
  // already an fp16 value, which is not the input a device copy sees.
  // The refresh from the pristine copy is left out of the timed window.
  const index_t n = 256;
  const la::Matrix pristine = la::random_uniform(n, n, 7);
  la::Matrix a(n, n);
  for (auto _ : state) {
    blas::copy_matrix(n, n, pristine.data(), pristine.ld(), a.data(), a.ld());
    const auto t0 = std::chrono::steady_clock::now();
    blas::round_to_half(n, n, a.data(), a.ld());
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(a.data());
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
  state.SetBytesProcessed(state.iterations() * n * n *
                          static_cast<std::int64_t>(sizeof(float)));
}
BENCHMARK(BM_HalfRoundTrip)->UseManualTime();

} // namespace

BENCHMARK_MAIN();
