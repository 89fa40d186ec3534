#include "blas/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <vector>

#include "blas/gemm_kernel.hpp"
#include "common/error.hpp"
#include "common/half.hpp"
#include "common/telemetry.hpp"

namespace rocqr::blas {

namespace {

void validate(Op opa, Op opb, index_t m, index_t n, index_t k, const float* a,
              index_t lda, const float* b, index_t ldb, const float* c,
              index_t ldc) {
  ROCQR_CHECK(m >= 0 && n >= 0 && k >= 0, "gemm: negative dimension");
  const index_t a_rows = opa == Op::NoTrans ? m : k;
  const index_t b_rows = opb == Op::NoTrans ? k : n;
  ROCQR_CHECK(lda >= (a_rows > 0 ? a_rows : 1), "gemm: lda too small");
  ROCQR_CHECK(ldb >= (b_rows > 0 ? b_rows : 1), "gemm: ldb too small");
  ROCQR_CHECK(ldc >= (m > 0 ? m : 1), "gemm: ldc too small");
  if (m > 0 && n > 0) {
    ROCQR_CHECK(c != nullptr, "gemm: null C");
    if (k > 0) {
      ROCQR_CHECK(a != nullptr && b != nullptr, "gemm: null A or B");
    }
  }
}

/// C(0:rows, 0:cols) = beta * C, zeroing it outright (NaN included) when
/// beta is 0.
void scale_block(index_t rows, index_t cols, float beta, float* c,
                 index_t ldc) {
  if (beta == 1.0f) return;
  for (index_t j = 0; j < cols; ++j) {
    float* col = c + j * ldc;
    if (beta == 0.0f) {
      for (index_t i = 0; i < rows; ++i) col[i] = 0.0f;
    } else {
      for (index_t i = 0; i < rows; ++i) col[i] *= beta;
    }
  }
}

std::atomic<std::int64_t> g_pack_allocations{0};

/// Thread-local pack scratch, grown monotonically and reused across calls.
/// Workers live as long as the pool, so in steady state no gemm call
/// allocates; every growth event is counted for the bench assertion.
float* ensure_pack_capacity(std::vector<float>& buf, size_t need) {
  if (buf.size() < need) {
    g_pack_allocations.fetch_add(1, std::memory_order_relaxed);
    auto& reg = telemetry::MetricsRegistry::global();
    reg.counter("blas.pack_allocations").increment();
    reg.histogram("blas.pack_bytes")
        .observe(static_cast<std::int64_t>(need) * 4);
    buf.resize(need);
  }
  return buf.data();
}

thread_local std::vector<float> tl_pack_a;
thread_local std::vector<float> tl_pack_b;

/// The blocked driver over one register tile (gemm_kernel.hpp).
template <class Tile>
void gemm_tiled(Op opa, Op opb, index_t m, index_t n, index_t k, float alpha,
                const float* a, index_t lda, const float* b, index_t ldb,
                float beta, float* c, index_t ldc, GemmPrecision precision,
                ThreadPool* pool) {
  namespace kn = kernel;
  validate(opa, opb, m, n, k, a, lda, b, ldb, c, ldc);
  if (m == 0 || n == 0) return;

  ThreadPool& tp = pool != nullptr ? *pool : ThreadPool::global();
  // alpha == 0 or k == 0 leaves C = beta * C: no depth block runs.
  const index_t depth = alpha == 0.0f ? 0 : k;
  if (depth == 0 && beta == 1.0f) return;

  const index_t ic_blocks = (m + kn::kMC - 1) / kn::kMC;
  for (index_t jc = 0; jc < n; jc += kn::kNC) {
    const index_t nb = std::min<index_t>(kn::kNC, n - jc);
    // One pool round per column block. Each tile owns its C block: it
    // scales it by beta, then runs every depth block over it in order, so
    // each C element still sees one flat chain in depth order.
    tp.parallel_for_2d(
        ic_blocks, Tile::b_strips(nb),
        [&](index_t i0, index_t i1, index_t jr0, index_t jr1) {
          const index_t col0 = jc + jr0 * Tile::kNR;
          const index_t cols =
              std::min(nb, jr1 * Tile::kNR) - jr0 * Tile::kNR;
          const index_t row_end = std::min(m, i1 * kn::kMC);
          scale_block(row_end - i0 * kn::kMC, cols, beta,
                      c + i0 * kn::kMC + col0 * ldc, ldc);
          for (index_t pc = 0; pc < depth; pc += kn::kKC) {
            const index_t kb = std::min<index_t>(kn::kKC, depth - pc);
            // Per-thread B pack of this tile's strips only: tiles sharing
            // strips along the i split re-pack them rather than wait on one
            // shared pack, and no thread packs serially before the round.
            float* bp = ensure_pack_capacity(tl_pack_b,
                                             Tile::packed_b_size(kb, cols));
            Tile::pack_b(opb, precision, alpha, b, ldb, pc, col0, kb, cols,
                         bp);
            for (index_t ic = i0; ic < i1; ++ic) {
              const index_t row0 = ic * kn::kMC;
              const index_t mb = std::min<index_t>(kn::kMC, m - row0);
              // Per-thread A pack: threads sharing an A block along the j
              // split re-pack it rather than synchronize — pack cost is
              // O(mb*kb) against O(mb*kb*nb) of multiply work.
              float* ap = ensure_pack_capacity(tl_pack_a,
                                               Tile::packed_a_size(mb, kb));
              Tile::pack_a(opa, precision, a, lda, row0, pc, mb, kb, ap);
              Tile::macro_kernel(kb, mb, cols, ap, bp, c + row0 + col0 * ldc,
                                 ldc);
            }
          }
        });
  }
}

} // namespace

std::int64_t gemm_pack_allocations() {
  return g_pack_allocations.load(std::memory_order_relaxed);
}

void gemm(Op opa, Op opb, index_t m, index_t n, index_t k, float alpha,
          const float* a, index_t lda, const float* b, index_t ldb, float beta,
          float* c, index_t ldc, GemmPrecision precision, ThreadPool* pool) {
  gemm_tiled<kernel::NativeTile>(opa, opb, m, n, k, alpha, a, lda, b, ldb,
                                 beta, c, ldc, precision, pool);
}

namespace detail {

void gemm_portable_tile(Op opa, Op opb, index_t m, index_t n, index_t k,
                        float alpha, const float* a, index_t lda,
                        const float* b, index_t ldb, float beta, float* c,
                        index_t ldc, GemmPrecision precision,
                        ThreadPool* pool) {
  gemm_tiled<kernel::PortableTile>(opa, opb, m, n, k, alpha, a, lda, b, ldb,
                                   beta, c, ldc, precision, pool);
}

} // namespace detail

void gemm_reference(Op opa, Op opb, index_t m, index_t n, index_t k,
                    float alpha, const float* a, index_t lda, const float* b,
                    index_t ldb, float beta, float* c, index_t ldc,
                    GemmPrecision precision) {
  validate(opa, opb, m, n, k, a, lda, b, ldb, c, ldc);
  // Rounds through the half class, not the kernel's round_through_half, so
  // the oracle stays independent of the fast path it checks.
  const auto load = [precision](float x) {
    return precision == GemmPrecision::FP16_FP32 ? static_cast<float>(half(x))
                                                 : x;
  };
  const auto load_a = [&](index_t i, index_t l) {
    return load(opa == Op::NoTrans ? a[i + l * lda] : a[l + i * lda]);
  };
  const auto load_b = [&](index_t l, index_t j) {
    return load(opb == Op::NoTrans ? b[l + j * ldb] : b[j + l * ldb]);
  };
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      // Double accumulation: the reference serves as ground truth in tests,
      // so it should be strictly more accurate than the production kernel.
      double acc = 0.0;
      for (index_t l = 0; l < k; ++l) {
        acc += static_cast<double>(load_a(i, l)) *
               static_cast<double>(load_b(l, j));
      }
      const double prior =
          beta == 0.0f
              ? 0.0
              : static_cast<double>(beta) * static_cast<double>(c[i + j * ldc]);
      c[i + j * ldc] =
          static_cast<float>(static_cast<double>(alpha) * acc + prior);
    }
  }
}

} // namespace rocqr::blas
