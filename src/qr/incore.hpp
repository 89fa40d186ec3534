// In-core QR factorizations based on the Gram-Schmidt process.
//
// These run on the host and serve two roles: (1) the Real-mode body of the
// simulated device's panel factorization (the paper reuses the recursive
// CGS solver of Zhang et al., HPDC'20 — `recursive_cgs` here), and (2)
// reference oracles for the out-of-core drivers in tests.
//
// All functions factor A (m x n, m >= n) into Q (m x n, orthonormal columns,
// written over / into `q`) and R (n x n upper triangular). GemmPrecision
// selects fp32 or the TensorCore fp16-input contract for the block updates.
#pragma once

#include "blas/gemm.hpp"
#include "la/matrix.hpp"

namespace rocqr::qr {

struct QrFactors {
  la::Matrix q;
  la::Matrix r;
};

/// Classic Gram-Schmidt, column at a time (row-by-row evaluation of Eq. 1).
QrFactors cgs(la::ConstMatrixView a);

/// Modified Gram-Schmidt (better stability, less parallelism — §3.1.1).
QrFactors mgs(la::ConstMatrixView a);

/// CGS with full reorthogonalization ("CGS2": twice is enough).
QrFactors cgs2(la::ConstMatrixView a);

/// Blocked classic Gram-Schmidt with panel width `b` (Fig 1's algorithm run
/// in core): CGS on each panel, GEMM projections for the trailing columns.
QrFactors blocked_cgs(la::ConstMatrixView a, index_t block,
                      blas::GemmPrecision precision = blas::GemmPrecision::FP32);

/// Recursive classic Gram-Schmidt (Eq. 2 run in core; the LATER panel
/// solver): split columns in half, factor left, project, update, factor
/// right. `base` is the column count below which plain CGS takes over.
QrFactors recursive_cgs(la::ConstMatrixView a, index_t base = 32,
                        blas::GemmPrecision precision = blas::GemmPrecision::FP32);

/// In-place recursive CGS working on caller storage: `aq` holds A on entry
/// and Q on exit; `r` (n x n) receives R — every entry on or above the
/// diagonal, plus the zeros below the diagonal of each base-case block
/// (entries below those blocks are left as they were). The base case runs
/// CGS directly in `aq` and `r`, with no scratch. Used as the device panel
/// body.
void recursive_cgs_inplace(la::MatrixView aq, la::MatrixView r,
                           index_t base = 32,
                           blas::GemmPrecision precision = blas::GemmPrecision::FP32);

/// Householder QR with explicit Q formation — the unconditionally stable
/// reference among §3.1's three families (Gram-Schmidt, Householder,
/// Givens). Used as the accuracy gold standard in tests and studies.
QrFactors householder(la::ConstMatrixView a);

/// Givens-rotation QR with explicit Q — the third §3.1 family. O(mn²)
/// rotations; mainly of interest for sparse/structured updates, included
/// for completeness of the background comparison.
QrFactors givens(la::ConstMatrixView a);

/// TSQR (communication-avoiding QR): row blocks are factored independently
/// and their R factors reduced pairwise up a binary tree; Q is rebuilt on
/// the way down. The standard Householder-stable alternative for the tall
/// matrices this paper targets — included as the comparison point the
/// Gram-Schmidt family is traded against. `row_block` is the leaf height
/// (clamped to at least the column count).
QrFactors tsqr(la::ConstMatrixView a, index_t row_block = 256);

/// CholeskyQR (R from chol(AᵀA), Q = A R⁻¹) — an alternative panel
/// orthogonalization included for comparison benches.
QrFactors cholesky_qr(la::ConstMatrixView a);

/// CholeskyQR2 (one repetition, restores orthogonality for mild cond(A)).
QrFactors cholesky_qr2(la::ConstMatrixView a);

} // namespace rocqr::qr
