#include "blas/level2.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/level1.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace rocqr::blas {

namespace {

/// Minimum m*n before level-2 loops go through the pool; below this the
/// dispatch overhead beats the win. Per-element math is identical either
/// way, so results do not depend on the path taken.
constexpr index_t kParallelWork = 1 << 15;

/// The CGS leaf keeps its columns as double lanes in groups of eight (one
/// 512-bit vector each); one pass over the rows carries up to
/// kMaxLaneGroups groups side by side.
constexpr index_t kLaneGroup = 8;
constexpr index_t kMaxLaneGroups = 4;

/// The CGS leaf's transposed copy of its original columns, per thread and
/// reused across calls: group g is an m x kLaneGroup row-major block at
/// g * m * kLaneGroup, so one group's lanes are one contiguous stream.
thread_local std::vector<float> tl_leaf_rows;

/// out[g * kLaneGroup + l] = sum over i, in row order, of
/// double(at[g * gstride + i * kLaneGroup + l]) * double(q[i]), for g < G.
/// Each lane is one sequential chain; the G * kLaneGroup chains run side by
/// side.
template <index_t G>
void lane_dots(index_t m, const float* q, const float* at, index_t gstride,
               double* out) {
  double acc[G][kLaneGroup] = {};
  for (index_t i = 0; i < m; ++i) {
    const double qi = static_cast<double>(q[i]);
    for (index_t g = 0; g < G; ++g) {
      const float* row = at + g * gstride + i * kLaneGroup;
      for (index_t l = 0; l < kLaneGroup; ++l) {
        acc[g][l] += static_cast<double>(row[l]) * qi;
      }
    }
  }
  for (index_t g = 0; g < G; ++g) {
    std::copy(acc[g], acc[g] + kLaneGroup, out + g * kLaneGroup);
  }
}

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

void cgs_right_looking(index_t m, index_t n, float* a, index_t lda, float* r,
                       index_t ldr) {
  ROCQR_CHECK(m >= n && n >= 0, "cgs_right_looking: need m >= n >= 0");
  ROCQR_CHECK(lda >= (m > 0 ? m : 1) && ldr >= (n > 0 ? n : 1),
              "cgs_right_looking: leading dimension too small");
  if (n == 0) return;
  ROCQR_CHECK(a != nullptr && r != nullptr, "cgs_right_looking: null operand");

  const index_t groups = (n + kLaneGroup - 1) / kLaneGroup;
  const index_t gstride = m * kLaneGroup;
  const size_t need = static_cast<size_t>(groups) * static_cast<size_t>(gstride);
  if (tl_leaf_rows.size() < need) tl_leaf_rows.resize(need);
  float* at = tl_leaf_rows.data();

  // Columns 0 .. normalized-1 hold their final q. Columns are normalized in
  // order, each by the thread that owns it, and published with release. A
  // failed leaf sets `failed`, then stores -1 so that blocked waiters wake.
  std::atomic<index_t> normalized{0};
  std::atomic<bool> failed{false};

  // Waits until `normalized` exceeds k; false if the leaf failed. Polls,
  // yielding, for about the pool's own spin budget (hand-offs come every few
  // microseconds), then blocks on the counter, so a host with fewer free
  // CPUs than threads runs the owner instead of the pollers.
  const auto wait_above = [&](index_t k) {
    const auto spin_end =
        std::chrono::steady_clock::now() + std::chrono::microseconds(100);
    for (;;) {
      const index_t seen = normalized.load(std::memory_order_acquire);
      if (failed.load(std::memory_order_relaxed)) return false;
      if (seen > k) return true;
      if (std::chrono::steady_clock::now() < spin_end) {
        std::this_thread::yield();
      } else {
        normalized.wait(seen, std::memory_order_acquire);
      }
    }
  };

  // Column k has every update from q_0 .. q_{k-1}: normalize it.
  const auto normalize = [&](index_t k) {
    float* ak = a + k * lda;
    const double norm = nrm2(m, ak, 1);
    ROCQR_CHECK(norm > 0.0, "gram-schmidt: linearly dependent column");
    r[k + k * ldr] = static_cast<float>(norm);
    scal(m, static_cast<float>(1.0 / norm), ak, 1);
    for (index_t i = k + 1; i < n; ++i) r[i + k * ldr] = 0.0f;
    normalized.store(k + 1, std::memory_order_release);
    normalized.notify_all();
  };

  // a_j += (-r(k, j)) q_k with gemv(NoTrans)'s weight, skip and
  // per-element expression.
  const auto update = [&](index_t k, index_t j) {
    const float w = -1.0f * r[k + j * ldr];
    if (w == 0.0f) return;
    const float* qk = a + k * lda;
    float* aj = a + j * lda;
    for (index_t i = 0; i < m; ++i) aj[i] += w * qk[i];
  };

  // Lane groups [gb, ge) and their columns belong to one thread for the
  // whole leaf. It copies them transposed (padding lanes are zero), then,
  // step by step, waits for q_k, computes r(k, j) = q_k · a_j(original) for
  // its columns j > k, and applies the updates. The 0 + 1 * float(sum)
  // store is gemv's beta = 0, alpha = 1 epilogue: a -0 sum stores +0. The
  // owner of column k + 1 updates and normalizes it first, since every
  // thread's next step waits for it.
  const auto own = [&](index_t gb, index_t ge) {
    const index_t jb = gb * kLaneGroup;
    const index_t je = std::min(n, ge * kLaneGroup);
    constexpr index_t kRows = 16; // rows per pass: one line of each column
    for (index_t i0 = 0; i0 < m; i0 += kRows) {
      const index_t i1 = std::min(m, i0 + kRows);
      for (index_t j = jb; j < ge * kLaneGroup; ++j) {
        float* dst = at + (j / kLaneGroup) * gstride + j % kLaneGroup;
        for (index_t i = i0; i < i1; ++i) {
          dst[i * kLaneGroup] = j < n ? a[i + j * lda] : 0.0f;
        }
      }
    }
    try {
      if (jb == 0) normalize(0);
      for (index_t k = 0; k + 1 < je; ++k) {
        if (!wait_above(k)) return;
        const float* qk = a + k * lda;
        const index_t first = std::max(jb, k + 1);
        for (index_t g = first / kLaneGroup; g < ge; g += kMaxLaneGroups) {
          const index_t count = std::min(kMaxLaneGroups, ge - g);
          double dots[kMaxLaneGroups * kLaneGroup];
          const float* lanes = at + g * gstride;
          switch (count) {
          case 1: lane_dots<1>(m, qk, lanes, gstride, dots); break;
          case 2: lane_dots<2>(m, qk, lanes, gstride, dots); break;
          case 3: lane_dots<3>(m, qk, lanes, gstride, dots); break;
          default: lane_dots<4>(m, qk, lanes, gstride, dots); break;
          }
          const index_t j1 = std::min(je, (g + count) * kLaneGroup);
          for (index_t j = std::max(first, g * kLaneGroup); j < j1; ++j) {
            r[k + j * ldr] =
                0.0f + 1.0f * static_cast<float>(dots[j - g * kLaneGroup]);
          }
        }
        index_t j = first;
        if (j == k + 1) {
          update(k, j);
          normalize(j);
          ++j;
        }
        for (; j < je; ++j) update(k, j);
      }
    } catch (...) {
      failed.store(true, std::memory_order_relaxed);
      normalized.store(-1, std::memory_order_release);
      normalized.notify_all();
      throw;
    }
  };

  // One pool round for the whole leaf when it is worth it: the threads
  // hand q_k on through `normalized` instead of a pool round per column.
  // On an oversubscribed host each hand-off waits for a time slice, so the
  // leaf runs inline there, as in a nested or one-thread pool: own(0,
  // groups) waits for nothing.
  if (groups > 1 && m * n >= kParallelWork && !ThreadPool::oversubscribed()) {
    ThreadPool::global().parallel_for(groups, own);
  } else {
    own(0, groups);
  }
}

} // namespace rocqr::blas
