#include "blas/level2.hpp"

#include "blas/gemm.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace rocqr::blas {

namespace {

/// Minimum m*n before level-2 loops go through the pool; below this the
/// dispatch overhead beats the win. Per-element math is identical either
/// way, so results do not depend on the path taken.
constexpr index_t kParallelWork = 1 << 15;

} // namespace

void gemv(Op op, index_t m, index_t n, float alpha, const float* a,
          index_t lda, const float* x, index_t incx, float beta, float* y,
          index_t incy) {
  ROCQR_CHECK(m >= 0 && n >= 0, "gemv: negative dimension");
  ROCQR_CHECK(lda >= (m > 0 ? m : 1), "gemv: lda too small");
  const index_t ylen = op == Op::NoTrans ? m : n;
  const index_t xlen = op == Op::NoTrans ? n : m;
  if (ylen == 0) return;
  ROCQR_CHECK(y != nullptr, "gemv: null y");

  if (beta != 1.0f) {
    for (index_t i = 0; i < ylen; ++i) {
      y[i * incy] = beta == 0.0f ? 0.0f : beta * y[i * incy];
    }
  }
  if (alpha == 0.0f || xlen == 0) return;
  ROCQR_CHECK(a != nullptr && x != nullptr, "gemv: null A or x");

  const bool pooled = m * n >= kParallelWork;
  if (op == Op::NoTrans) {
    // y += alpha * A x, column-major friendly: axpy per column. Rows are
    // independent, so the pool splits the row range.
    const auto rows = [&](index_t i0, index_t i1) {
      for (index_t j = 0; j < n; ++j) {
        const float w = alpha * x[j * incx];
        if (w == 0.0f) continue;
        const float* col = a + j * lda;
        for (index_t i = i0; i < i1; ++i) y[i * incy] += w * col[i];
      }
    };
    if (pooled) {
      ThreadPool::global().parallel_for(m, rows);
    } else {
      rows(0, m);
    }
  } else {
    // y_j += alpha * (A(:,j) · x): dot per column, double accumulation.
    // Columns are independent, so the pool splits the column range. Four
    // columns' dots run side by side: their independent accumulators hide
    // the add latency a single chain is bound by, while each stays one
    // sequential row-order sum. A float x float product is exact in double,
    // so contracting it into an FMA cannot change the bits either.
    const auto cols = [&](index_t j0, index_t j1) {
      index_t j = j0;
      for (; j + 4 <= j1; j += 4) {
        const float* c0 = a + j * lda;
        const float* c1 = c0 + lda;
        const float* c2 = c1 + lda;
        const float* c3 = c2 + lda;
        double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
        for (index_t i = 0; i < m; ++i) {
          const double xi = static_cast<double>(x[i * incx]);
          acc0 += static_cast<double>(c0[i]) * xi;
          acc1 += static_cast<double>(c1[i]) * xi;
          acc2 += static_cast<double>(c2[i]) * xi;
          acc3 += static_cast<double>(c3[i]) * xi;
        }
        y[j * incy] += alpha * static_cast<float>(acc0);
        y[(j + 1) * incy] += alpha * static_cast<float>(acc1);
        y[(j + 2) * incy] += alpha * static_cast<float>(acc2);
        y[(j + 3) * incy] += alpha * static_cast<float>(acc3);
      }
      for (; j < j1; ++j) {
        const float* col = a + j * lda;
        double acc = 0.0;
        for (index_t i = 0; i < m; ++i) {
          acc += static_cast<double>(col[i]) * static_cast<double>(x[i * incx]);
        }
        y[j * incy] += alpha * static_cast<float>(acc);
      }
    };
    if (pooled) {
      ThreadPool::global().parallel_for(n, cols);
    } else {
      cols(0, n);
    }
  }
}

void ger(index_t m, index_t n, float alpha, const float* x, index_t incx,
         const float* y, index_t incy, float* a, index_t lda) {
  ROCQR_CHECK(m >= 0 && n >= 0, "ger: negative dimension");
  ROCQR_CHECK(lda >= (m > 0 ? m : 1), "ger: lda too small");
  if (m == 0 || n == 0 || alpha == 0.0f) return;
  ROCQR_CHECK(a != nullptr && x != nullptr && y != nullptr, "ger: null operand");
  const auto cols = [&](index_t j0, index_t j1) {
    for (index_t j = j0; j < j1; ++j) {
      const float w = alpha * y[j * incy];
      if (w == 0.0f) continue;
      float* col = a + j * lda;
      for (index_t i = 0; i < m; ++i) col[i] += w * x[i * incx];
    }
  };
  if (m * n >= kParallelWork && n > 1) {
    ThreadPool::global().parallel_for(n, cols);
  } else {
    cols(0, n);
  }
}

} // namespace rocqr::blas
