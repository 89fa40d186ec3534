#include "qr/incore.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "blas/level1.hpp"
#include "blas/level2.hpp"
#include "blas/transform.hpp"
#include "blas/trsm.hpp"
#include "common/error.hpp"
#include "la/cholesky.hpp"

namespace rocqr::qr {

namespace {

void check_tall(la::ConstMatrixView a, const char* what) {
  ROCQR_CHECK(a.rows() >= a.cols() && a.cols() >= 1,
              std::string(what) + ": need m >= n >= 1");
}

/// Normalizes column j of q, writing the norm to r(j,j).
/// Throws on (numerically) dependent columns.
void normalize_column(la::MatrixView q, la::MatrixView r, index_t j) {
  const double norm = blas::nrm2(q.rows(), &q(0, j), 1);
  ROCQR_CHECK(norm > 0.0, "gram-schmidt: linearly dependent column");
  r(j, j) = static_cast<float>(norm);
  blas::scal(q.rows(), static_cast<float>(1.0 / norm), &q(0, j), 1);
}

/// CGS on caller storage: `q` (m x n) holds A on entry and Q on exit; the
/// leading n x n block of `r` receives R, zeros below the diagonal included.
/// All projection coefficients come from the original columns (classical,
/// not modified, Gram-Schmidt); blas::cgs_right_looking runs the level-2
/// loop that blocking and recursion later lift to GEMM.
void cgs_inplace(la::MatrixView q, la::MatrixView r) {
  blas::cgs_right_looking(q.rows(), q.cols(), q.data(), q.ld(), r.data(),
                          r.ld());
}

} // namespace

QrFactors cgs(la::ConstMatrixView a) {
  check_tall(a, "cgs");
  QrFactors f{la::materialize(a), la::Matrix(a.cols(), a.cols())};
  cgs_inplace(f.q.view(), f.r.view());
  return f;
}

QrFactors mgs(la::ConstMatrixView a) {
  check_tall(a, "mgs");
  const index_t m = a.rows();
  const index_t n = a.cols();
  QrFactors f{la::materialize(a), la::Matrix(n, n)};
  la::MatrixView q = f.q.view();
  la::MatrixView r = f.r.view();
  for (index_t i = 0; i < n; ++i) {
    normalize_column(q, r, i);
    // MGS: as soon as q_i exists, remove its component from every later
    // column (the interleaved evaluation order of §3.1.1).
    for (index_t j = i + 1; j < n; ++j) {
      const float rij =
          static_cast<float>(blas::dot(m, &q(0, i), 1, &q(0, j), 1));
      r(i, j) = rij;
      blas::axpy(m, -rij, &q(0, i), 1, &q(0, j), 1);
    }
  }
  return f;
}

QrFactors cgs2(la::ConstMatrixView a) {
  check_tall(a, "cgs2");
  const index_t m = a.rows();
  const index_t n = a.cols();
  QrFactors f{la::materialize(a), la::Matrix(n, n)};
  la::MatrixView q = f.q.view();
  la::MatrixView r = f.r.view();
  std::vector<float> coef(static_cast<size_t>(n));
  for (index_t j = 0; j < n; ++j) {
    // Two CGS projection passes; coefficients of both accumulate into R.
    for (int pass = 0; pass < 2; ++pass) {
      blas::gemv(blas::Op::Trans, m, j, 1.0f, q.data(), q.ld(), &q(0, j), 1,
                 0.0f, coef.data(), 1);
      blas::gemv(blas::Op::NoTrans, m, j, -1.0f, q.data(), q.ld(),
                 coef.data(), 1, 1.0f, &q(0, j), 1);
      for (index_t i = 0; i < j; ++i) {
        r(i, j) += coef[static_cast<size_t>(i)];
      }
    }
    normalize_column(q, r, j);
  }
  return f;
}

QrFactors blocked_cgs(la::ConstMatrixView a, index_t block,
                      blas::GemmPrecision precision) {
  check_tall(a, "blocked_cgs");
  ROCQR_CHECK(block >= 1, "blocked_cgs: block must be >= 1");
  const index_t m = a.rows();
  const index_t n = a.cols();
  QrFactors f{la::materialize(a), la::Matrix(n, n)};
  la::MatrixView q = f.q.view();
  la::MatrixView r = f.r.view();

  for (index_t j0 = 0; j0 < n; j0 += block) {
    const index_t w = std::min(block, n - j0);
    // Panel factorization (plain CGS on the current panel).
    cgs_inplace(q.block(0, j0, m, w), r.block(j0, j0, w, w));
    const index_t rest = n - j0 - w;
    if (rest == 0) continue;
    // R12 = Q1ᵀ A2 (inner product), then A2 -= Q1 R12 (outer product).
    blas::gemm(blas::Op::Trans, blas::Op::NoTrans, w, rest, m, 1.0f,
               &q(0, j0), q.ld(), &q(0, j0 + w), q.ld(), 0.0f,
               &r(j0, j0 + w), r.ld(), precision);
    blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, m, rest, w, -1.0f,
               &q(0, j0), q.ld(), &r(j0, j0 + w), r.ld(), 1.0f,
               &q(0, j0 + w), q.ld(), precision);
  }
  return f;
}

void recursive_cgs_inplace(la::MatrixView aq, la::MatrixView r, index_t base,
                           blas::GemmPrecision precision) {
  ROCQR_CHECK(aq.rows() >= aq.cols() && aq.cols() >= 1,
              "recursive_cgs_inplace: need m >= n >= 1");
  ROCQR_CHECK(r.rows() >= aq.cols() && r.cols() >= aq.cols(),
              "recursive_cgs_inplace: R too small");
  ROCQR_CHECK(base >= 1, "recursive_cgs_inplace: base must be >= 1");
  const index_t m = aq.rows();
  const index_t n = aq.cols();
  if (n <= base) {
    cgs_inplace(aq, r);
    return;
  }
  const index_t h = n / 2;
  la::MatrixView a1 = aq.block(0, 0, m, h);
  la::MatrixView a2 = aq.block(0, h, m, n - h);
  recursive_cgs_inplace(a1, r.block(0, 0, h, h), base, precision);
  // R12 = Q1ᵀ A2
  la::MatrixView r12 = r.block(0, h, h, n - h);
  blas::gemm(blas::Op::Trans, blas::Op::NoTrans, h, n - h, m, 1.0f, a1.data(),
             a1.ld(), a2.data(), a2.ld(), 0.0f, r12.data(), r12.ld(),
             precision);
  // A2 -= Q1 R12
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, m, n - h, h, -1.0f,
             a1.data(), a1.ld(), r12.data(), r12.ld(), 1.0f, a2.data(),
             a2.ld(), precision);
  recursive_cgs_inplace(a2, r.block(h, h, n - h, n - h), base, precision);
}

QrFactors recursive_cgs(la::ConstMatrixView a, index_t base,
                        blas::GemmPrecision precision) {
  check_tall(a, "recursive_cgs");
  QrFactors f{la::materialize(a), la::Matrix(a.cols(), a.cols())};
  recursive_cgs_inplace(f.q.view(), f.r.view(), base, precision);
  return f;
}

namespace {

/// Flips column signs so that diag(R) > 0 — making the factorization match
/// the Gram-Schmidt convention (norms are positive), hence unique and
/// directly comparable across algorithms.
void normalize_signs(la::MatrixView q, la::MatrixView r) {
  const index_t n = r.cols();
  for (index_t j = 0; j < n; ++j) {
    if (r(j, j) >= 0.0f) continue;
    for (index_t c = j; c < n; ++c) r(j, c) = -r(j, c);
    for (index_t i = 0; i < q.rows(); ++i) q(i, j) = -q(i, j);
  }
}

} // namespace

QrFactors householder(la::ConstMatrixView a) {
  check_tall(a, "householder");
  const index_t m = a.rows();
  const index_t n = a.cols();
  la::Matrix work = la::materialize(a);
  la::MatrixView w = work.view();
  // Reflector vectors, stored column by column (v(j) = 1 implied is NOT
  // used; we store the full normalized v for clarity over packing).
  la::Matrix vs(m, n);
  std::vector<double> v(static_cast<size_t>(m));

  for (index_t j = 0; j < n; ++j) {
    // Build v = x + sign(x0)|x| e1 over the trailing rows.
    const index_t len = m - j;
    double norm = 0.0;
    for (index_t i = 0; i < len; ++i) {
      const double x = static_cast<double>(w(j + i, j));
      v[static_cast<size_t>(i)] = x;
      norm += x * x;
    }
    norm = std::sqrt(norm);
    ROCQR_CHECK(norm > 0.0, "householder: zero column");
    const double alpha = v[0] >= 0.0 ? -norm : norm;
    v[0] -= alpha;
    double vtv = 0.0;
    for (index_t i = 0; i < len; ++i) {
      vtv += v[static_cast<size_t>(i)] * v[static_cast<size_t>(i)];
    }
    for (index_t i = 0; i < len; ++i) {
      vs(j + i, j) = static_cast<float>(v[static_cast<size_t>(i)]);
    }
    vs(j, j) = static_cast<float>(v[0]); // keep full v; vtv via recompute
    if (vtv > 0.0) {
      const double scale = 2.0 / vtv;
      // Apply H = I - scale v vᵀ to the trailing block of A.
      for (index_t c = j; c < n; ++c) {
        double vta = 0.0;
        for (index_t i = 0; i < len; ++i) {
          vta += v[static_cast<size_t>(i)] * static_cast<double>(w(j + i, c));
        }
        const double f = scale * vta;
        for (index_t i = 0; i < len; ++i) {
          w(j + i, c) = static_cast<float>(static_cast<double>(w(j + i, c)) -
                                           f * v[static_cast<size_t>(i)]);
        }
      }
    }
    w(j, j) = static_cast<float>(alpha); // exact, avoids cancellation noise
    for (index_t i = j + 1; i < m; ++i) w(i, j) = 0.0f;
  }

  // R = leading n x n upper triangle of the transformed matrix.
  QrFactors f{la::Matrix(m, n), la::Matrix(n, n)};
  blas::copy_matrix(n, n, work.data(), work.ld(), f.r.data(), f.r.ld());
  blas::zero_lower_triangle(n, n, f.r.data(), f.r.ld());

  // Thin Q = H_0 H_1 ... H_{n-1} * [I_n; 0], applied in reverse order.
  la::MatrixView q = f.q.view();
  for (index_t j = 0; j < n; ++j) q(j, j) = 1.0f;
  for (index_t j = n - 1; j >= 0; --j) {
    const index_t len = m - j;
    double vtv = 0.0;
    for (index_t i = 0; i < len; ++i) {
      const double x = static_cast<double>(vs(j + i, j));
      v[static_cast<size_t>(i)] = x;
      vtv += x * x;
    }
    if (vtv == 0.0) continue;
    const double scale = 2.0 / vtv;
    for (index_t c = 0; c < n; ++c) {
      double vtq = 0.0;
      for (index_t i = 0; i < len; ++i) {
        vtq += v[static_cast<size_t>(i)] * static_cast<double>(q(j + i, c));
      }
      const double f2 = scale * vtq;
      for (index_t i = 0; i < len; ++i) {
        q(j + i, c) = static_cast<float>(static_cast<double>(q(j + i, c)) -
                                         f2 * v[static_cast<size_t>(i)]);
      }
    }
  }
  normalize_signs(f.q.view(), f.r.view());
  return f;
}

QrFactors givens(la::ConstMatrixView a) {
  check_tall(a, "givens");
  const index_t m = a.rows();
  const index_t n = a.cols();
  la::Matrix work = la::materialize(a);
  la::MatrixView w = work.view();
  la::Matrix g_acc = la::identity(m); // accumulates G_k ... G_1
  la::MatrixView g = g_acc.view();

  for (index_t j = 0; j < n; ++j) {
    for (index_t i = m - 1; i > j; --i) {
      const double x = static_cast<double>(w(i - 1, j));
      const double y = static_cast<double>(w(i, j));
      if (y == 0.0) continue;
      const double r = std::hypot(x, y);
      const double c = x / r;
      const double s = y / r;
      // Rotate rows (i-1, i) of both the working matrix and the accumulator.
      const auto rotate = [&](la::MatrixView mat, index_t from_col) {
        for (index_t col = from_col; col < mat.cols(); ++col) {
          const double top = static_cast<double>(mat(i - 1, col));
          const double bot = static_cast<double>(mat(i, col));
          mat(i - 1, col) = static_cast<float>(c * top + s * bot);
          mat(i, col) = static_cast<float>(-s * top + c * bot);
        }
      };
      rotate(w, j);
      rotate(g, 0);
      w(i, j) = 0.0f; // exact zero by construction
    }
    ROCQR_CHECK(w(j, j) != 0.0f, "givens: rank-deficient column");
  }

  QrFactors f{la::Matrix(m, n), la::Matrix(n, n)};
  blas::copy_matrix(n, n, work.data(), work.ld(), f.r.data(), f.r.ld());
  blas::zero_lower_triangle(n, n, f.r.data(), f.r.ld());
  // Q = (G_k...G_1)ᵀ restricted to the first n columns: Q(i, j) = g(j, i).
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) f.q(i, j) = g(j, i);
  }
  normalize_signs(f.q.view(), f.r.view());
  return f;
}

QrFactors tsqr(la::ConstMatrixView a, index_t row_block) {
  check_tall(a, "tsqr");
  ROCQR_CHECK(row_block >= 1, "tsqr: row_block must be positive");
  const index_t m = a.rows();
  const index_t n = a.cols();
  const index_t rb = std::max(row_block, n);

  // Leaf factorizations: independent Householder QRs of the row blocks.
  // Every leaf must have at least n rows; a short tail is absorbed into the
  // preceding leaf.
  std::vector<la::Matrix> leaf_qs;
  std::vector<la::Matrix> level; // current level's R factors
  index_t leaf_r0 = 0;
  while (leaf_r0 < m) {
    index_t rows = std::min(rb, m - leaf_r0);
    const index_t tail = m - leaf_r0 - rows;
    if (tail > 0 && tail < n) rows += tail;
    QrFactors leaf = householder(a.block(leaf_r0, 0, rows, n));
    leaf_qs.push_back(std::move(leaf.q));
    level.push_back(std::move(leaf.r));
    leaf_r0 += rows;
  }
  const size_t leaves = level.size();

  // Reduction tree: pairwise QR of stacked R factors. Keep each pair's Q
  // (2n x n) for the reconstruction sweep.
  std::vector<std::vector<la::Matrix>> pair_qs; // per level, per pair
  while (level.size() > 1) {
    std::vector<la::Matrix> next;
    std::vector<la::Matrix> qs;
    for (size_t i = 0; i + 1 < level.size(); i += 2) {
      la::Matrix stacked(2 * n, n);
      blas::copy_matrix(n, n, level[i].data(), level[i].ld(), stacked.data(),
                        stacked.ld());
      blas::copy_matrix(n, n, level[i + 1].data(), level[i + 1].ld(),
                        &stacked(n, 0), stacked.ld());
      QrFactors pair = householder(stacked.view());
      qs.push_back(std::move(pair.q));
      next.push_back(std::move(pair.r));
    }
    if (level.size() % 2 == 1) {
      // Odd node passes through unchanged (marked by an empty pair Q).
      qs.push_back(la::Matrix());
      next.push_back(std::move(level.back()));
    }
    pair_qs.push_back(std::move(qs));
    level = std::move(next);
  }

  QrFactors f{la::Matrix(m, n), la::Matrix(n, n)};
  blas::copy_matrix(n, n, level[0].data(), level[0].ld(), f.r.data(),
                    f.r.ld());

  // Reconstruction: push coefficient matrices C (n x n) down the tree;
  // each pair splits its parent's C through the two halves of its Q.
  std::vector<la::Matrix> coef(1);
  coef[0] = la::identity(n);
  for (auto it = pair_qs.rbegin(); it != pair_qs.rend(); ++it) {
    std::vector<la::Matrix> child_coef;
    size_t parent = 0;
    for (const la::Matrix& pq : *it) {
      const la::Matrix& c = coef[parent++];
      if (pq.empty()) { // pass-through node
        child_coef.push_back(la::materialize(c.view()));
        continue;
      }
      la::Matrix top(n, n);
      la::Matrix bottom(n, n);
      blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, n, n, n, 1.0f,
                 pq.data(), pq.ld(), c.data(), c.ld(), 0.0f, top.data(),
                 top.ld());
      blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, n, n, n, 1.0f,
                 &pq(n, 0), pq.ld(), c.data(), c.ld(), 0.0f, bottom.data(),
                 bottom.ld());
      child_coef.push_back(std::move(top));
      child_coef.push_back(std::move(bottom));
    }
    coef = std::move(child_coef);
  }
  ROCQR_CHECK(coef.size() == leaves, "tsqr: reconstruction shape mismatch");

  // Q rows of leaf i = local Q_i times its coefficient block.
  index_t r0 = 0;
  for (size_t i = 0; i < leaves; ++i) {
    const la::Matrix& lq = leaf_qs[i];
    const index_t rows = lq.rows();
    blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, rows, n, n, 1.0f,
               lq.data(), lq.ld(), coef[i].data(), coef[i].ld(), 0.0f,
               &f.q(r0, 0), f.q.ld());
    r0 += rows;
  }
  ROCQR_CHECK(r0 == m, "tsqr: leaf rows do not tile the matrix");
  return f;
}

QrFactors cholesky_qr(la::ConstMatrixView a) {
  check_tall(a, "cholesky_qr");
  const index_t m = a.rows();
  const index_t n = a.cols();
  QrFactors f{la::materialize(a), la::Matrix(n, n)};
  blas::syrk_upper_t(n, m, 1.0f, a.data(), a.ld(), 0.0f, f.r.data(),
                     f.r.ld());
  la::cholesky_upper(f.r.view());
  blas::trsm_right_upper(m, n, f.r.data(), f.r.ld(), f.q.data(), f.q.ld());
  return f;
}

QrFactors cholesky_qr2(la::ConstMatrixView a) {
  QrFactors first = cholesky_qr(a);
  QrFactors second = cholesky_qr(first.q.view());
  // R = R2 * R1; both upper triangular, so is the product.
  la::Matrix r(first.r.rows(), first.r.cols());
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, r.rows(), r.cols(),
             r.rows(), 1.0f, second.r.data(), second.r.ld(), first.r.data(),
             first.r.ld(), 0.0f, r.data(), r.ld());
  blas::zero_lower_triangle(r.rows(), r.cols(), r.data(), r.ld());
  return QrFactors{std::move(second.q), std::move(r)};
}

} // namespace rocqr::qr
