// Level-2 BLAS subset: matrix-vector products for the Gram-Schmidt kernels
// (the projection coefficients r = Qᵀa and the update u -= Q r are GEMVs).
#pragma once

#include "common/types.hpp"

namespace rocqr::blas {

enum class Op; // from gemm.hpp

/// y := alpha * op(A) * x + beta * y. A is m x n as stored; op(A) is
/// m x n (NoTrans) or n x m (Trans).
void gemv(Op op, index_t m, index_t n, float alpha, const float* a,
          index_t lda, const float* x, index_t incx, float beta, float* y,
          index_t incy);

/// A := alpha * x * yᵀ + A (rank-1 update). A is m x n.
void ger(index_t m, index_t n, float alpha, const float* x, index_t incx,
         const float* y, index_t incy, float* a, index_t lda);

/// Classical Gram-Schmidt of an m x n column block (m >= n >= 0), right-
/// looking: `a` (leading dimension lda) holds A on entry and Q on exit, and
/// the leading n x n block of `r` (ldr) receives R, zeros below the diagonal
/// included. Once q_k is final, row k of R comes from a transposed copy of
/// the block's original columns, and a_j -= r(k, j) q_k is applied to every
/// later column. Bit for bit it equals the left-looking column loop (per
/// column j: gemv(Trans) for r(0:j, j), gemv(NoTrans) for the update, nrm2,
/// scal): each r(k, j) is one double sum in row order, stored as
/// 0 + 1 * float(sum), and each element of a_j sees the same updates in k
/// order, with the same expression, skipped where -r(k, j) is zero. Large
/// blocks run as one round on the global ThreadPool, whose threads each own
/// a range of columns and hand each finished q_k on through an atomic
/// counter; a call from inside a pool body, or while the pool reports
/// oversubscription, runs inline. Throws InvalidArgument on a column whose
/// projection has zero norm.
void cgs_right_looking(index_t m, index_t n, float* a, index_t lda, float* r,
                       index_t ldr);

} // namespace rocqr::blas
