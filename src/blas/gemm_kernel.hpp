// Cache-blocked GEMM micro-kernel: packing layouts and the register tile.
//
// The blocked driver in gemm.cpp walks the classic three-level tiling
// (Goto/BLIS scheme, cf. the tiled-kernel designs in Buttari et al. and the
// TSQR kernel discussion in Demmel et al.):
//
//   for jc in N step kNC:            // column block: one pool round
//     per (ic range x jr range) tile of the round, on its own thread:
//       C tile *= beta
//       for pc in K step kKC:        //   depth block, in order
//         pack B(pc:pc+kc, tile jr)  //   -> kNR-column strips, alpha folded
//         for ic in tile ic range:   //     A block
//           pack A(ic:ic+mc, pc:pc+kc) // -> kMR-row strips
//           micro-kernel over every (kMR x kNR) tile of C
//
// Both packs are per-thread. A tile packs only the B strips it multiplies,
// so the whole product is one round per column block, with no serial pack
// on the submitting thread and no round per depth block.
//
// The packed panels give the micro-kernel unit-stride, transpose-free,
// precision-resolved inputs: fp16 rounding (GemmPrecision::FP16_FP32)
// happens exactly once per element, on pack, so the inner loop is identical
// for both precision paths — the same contract the seed kernel had.
//
// Tiling parameters (all in floats):
//   kMR x kNR  register tile (TileKernel), sized so the accumulator block
//              plus one A sliver and one B sliver fit in architectural
//              registers. The build picks it from the ISA: 16 x 12 = 192
//              accumulators (12 zmm) where AVX-512 is on, else 8 x 6 = 48
//              (6 ymm, or 12 xmm). Two FMA pipes of 4-cycle latency need at
//              least 8 independent accumulator vectors to stay busy.
//   kKC        depth of a packed panel; one A strip (kMR x kKC: 16 KiB on
//              the wide tile) and one B strip (kKC x kNR: 12 KiB) stay
//              L1-resident.
//   kMC        rows of the packed A block: kMC x kKC = 128 KiB, L2-resident.
//   kNC        columns of a column block (one pool round). A tile's packed
//              B is at most kKC x kNC = 1.5 MiB, sized for the outer cache
//              so it is reused across every A block of the tile.
//
// Every tile gives the same bits: each C element is one chain, seeded from
// C, in depth order, whichever tile and lane computes it.
#pragma once

#include <algorithm>
#include <cstddef>

#include "blas/gemm.hpp"
#include "blas/half_round.hpp"
#include "common/types.hpp"

namespace rocqr::blas::kernel {

inline constexpr index_t kMC = 128;  // multiple of every tile's kMR
inline constexpr index_t kKC = 256;
inline constexpr index_t kNC = 1536; // multiple of every tile's kNR

/// op(X)(i, j) for X stored column-major with leading dimension ldx.
inline const float* op_element(Op op, const float* x, index_t ldx, index_t i,
                               index_t j) {
  return op == Op::NoTrans ? &x[i + j * ldx] : &x[j + i * ldx];
}

/// p[e] = alpha * fp16(p[e]) on the TensorCore path, alpha * p[e] on the
/// fp32 one, over a whole packed buffer. Every pack gathers op(X) plain
/// first: the gathers stride through memory, so rounding there would go
/// element by element, while over the contiguous buffer it vectorizes.
/// The pass also scales the zero padding, which no stored element of C
/// sees: pads only feed the trimmed rows and columns.
inline void round_and_scale(GemmPrecision precision, float alpha, float* p,
                            size_t count) {
  if (precision == GemmPrecision::FP16_FP32) {
    for (size_t e = 0; e < count; ++e) p[e] = alpha * round_through_half(p[e]);
  } else if (alpha != 1.0f) {
    for (size_t e = 0; e < count; ++e) p[e] = alpha * p[e];
  }
}

/// On GCC/Clang the micro-kernel is written with vector extensions — one
/// kMR-wide accumulator per B column — because the autovectorizer, left
/// alone, picks the j dimension and drowns the FMAs in shuffles. The
/// element-wise math is identical to the scalar fallback (same products,
/// same order), so both paths produce the same bits. GCC takes no
/// template-dependent vector_size, hence one specialization per width.
#if defined(__GNUC__) || defined(__clang__)
#define ROCQR_GEMM_VECTOR_KERNEL 1
template <index_t Lanes>
struct FloatVector;
template <>
struct FloatVector<8> {
  typedef float type
      __attribute__((vector_size(8 * sizeof(float)), aligned(4)));
};
template <>
struct FloatVector<16> {
  typedef float type
      __attribute__((vector_size(16 * sizeof(float)), aligned(4)));
};
#endif

/// Packing and multiply over one kMR x kNR register tile.
template <index_t MR, index_t NR>
struct TileKernel {
  static constexpr index_t kMR = MR;
  static constexpr index_t kNR = NR;
  static_assert(kMC % kMR == 0 && kNC % kNR == 0);

  /// Number of kMR-row strips covering mb rows (last one may be partial).
  static index_t a_strips(index_t mb) { return (mb + kMR - 1) / kMR; }
  static index_t b_strips(index_t nb) { return (nb + kNR - 1) / kNR; }

  /// Packed sizes in floats (strips are zero-padded to full width so the
  /// micro-kernel never branches on the depth loop).
  static size_t packed_a_size(index_t mb, index_t kb) {
    return static_cast<size_t>(a_strips(mb)) * static_cast<size_t>(kMR) *
           static_cast<size_t>(kb);
  }
  static size_t packed_b_size(index_t kb, index_t nb) {
    return static_cast<size_t>(b_strips(nb)) * static_cast<size_t>(kNR) *
           static_cast<size_t>(kb);
  }

  /// Packs op(A)(row0 : row0+mb, col0 : col0+kb) into kMR-row strips:
  /// out[s*kMR*kb + l*kMR + i] = op(A)(row0 + s*kMR + i, col0 + l), rounded
  /// through fp16 on the TensorCore path. Rows past mb are zero-filled.
  static void pack_a(Op opa, GemmPrecision precision, const float* a,
                     index_t lda, index_t row0, index_t col0, index_t mb,
                     index_t kb, float* out) {
    const index_t strips = a_strips(mb);
    for (index_t s = 0; s < strips; ++s) {
      const index_t i0 = s * kMR;
      const index_t iv = std::min<index_t>(kMR, mb - i0);
      float* strip = out + s * kMR * kb;
      for (index_t l = 0; l < kb; ++l) {
        float* dst = strip + l * kMR;
        for (index_t i = 0; i < iv; ++i) {
          dst[i] = *op_element(opa, a, lda, row0 + i0 + i, col0 + l);
        }
        for (index_t i = iv; i < kMR; ++i) dst[i] = 0.0f;
      }
    }
    round_and_scale(precision, 1.0f, out, packed_a_size(mb, kb));
  }

  /// Packs alpha * op(B)(row0 : row0+kb, col0 : col0+nb) into kNR-column
  /// strips: out[t*kNR*kb + l*kNR + j] = alpha * op(B)(row0 + l, col0 +
  /// t*kNR + j). Rounding through fp16 happens *before* the alpha scaling —
  /// alpha is an fp32 epilogue scalar (as in cublas), not a TensorCore
  /// input.
  static void pack_b(Op opb, GemmPrecision precision, float alpha,
                     const float* b, index_t ldb, index_t row0, index_t col0,
                     index_t kb, index_t nb, float* out) {
    const index_t strips = b_strips(nb);
    for (index_t t = 0; t < strips; ++t) {
      const index_t j0 = t * kNR;
      const index_t jv = std::min<index_t>(kNR, nb - j0);
      float* strip = out + t * kNR * kb;
      for (index_t l = 0; l < kb; ++l) {
        float* dst = strip + l * kNR;
        for (index_t j = 0; j < jv; ++j) {
          dst[j] = *op_element(opb, b, ldb, row0 + l, col0 + j0 + j);
        }
        for (index_t j = jv; j < kNR; ++j) dst[j] = 0.0f;
      }
    }
    round_and_scale(precision, alpha, out, packed_b_size(kb, nb));
  }

  /// C(0:mv, 0:nv) += Ap_strip * Bp_strip over kb depth steps. Ap/Bp are
  /// one packed strip each (kMR- and kNR-wide); the accumulator tile lives
  /// in registers for the whole depth loop. mv/nv trim edge tiles (packing
  /// zero-pads, so the depth loop itself is uniform).
  ///
  /// The accumulators are *seeded from C* rather than added to it
  /// afterwards: every C element then sees a flat left-to-right addition
  /// chain in depth order, so splitting k across gemm calls (or across kKC
  /// panels) produces bitwise-identical results. The OOC drivers rely on
  /// this — their scheduling optimizations re-slice the same multiply and
  /// are tested to not change numerics at all.
  static void micro_kernel(index_t kb, const float* ap, const float* bp,
                           float* c, index_t ldc, index_t mv, index_t nv) {
#ifdef ROCQR_GEMM_VECTOR_KERNEL
    if (mv == kMR) {
      // Full-height tile: one vector accumulator per column, seeded from C.
      using vec = typename FloatVector<kMR>::type;
      vec acc[kNR];
      for (index_t j = 0; j < kNR; ++j) {
        if (j < nv) {
          __builtin_memcpy(&acc[j], c + j * ldc, sizeof(vec));
        } else {
          acc[j] = vec{};
        }
      }
      for (index_t l = 0; l < kb; ++l) {
        vec av;
        __builtin_memcpy(&av, ap + l * kMR, sizeof(vec));
        const float* bv = bp + l * kNR;
        for (index_t j = 0; j < kNR; ++j) acc[j] += av * bv[j];
      }
      for (index_t j = 0; j < nv; ++j) {
        __builtin_memcpy(c + j * ldc, &acc[j], sizeof(vec));
      }
      return;
    }
#endif
    float acc[kMR * kNR] = {};
    for (index_t j = 0; j < nv; ++j) {
      const float* cj = c + j * ldc;
      for (index_t i = 0; i < mv; ++i) acc[j * kMR + i] = cj[i];
    }
    for (index_t l = 0; l < kb; ++l) {
      const float* av = ap + l * kMR;
      const float* bv = bp + l * kNR;
      for (index_t j = 0; j < kNR; ++j) {
        const float w = bv[j];
        for (index_t i = 0; i < kMR; ++i) acc[j * kMR + i] += av[i] * w;
      }
    }
    for (index_t j = 0; j < nv; ++j) {
      float* cj = c + j * ldc;
      for (index_t i = 0; i < mv; ++i) cj[i] = acc[j * kMR + i];
    }
  }

  /// Macro-kernel: all (kMR x kNR) tiles of one packed A block (mb rows)
  /// against one packed B block (nb columns). C points at the block's
  /// corner.
  static void macro_kernel(index_t kb, index_t mb, index_t nb,
                           const float* ap, const float* bp, float* c,
                           index_t ldc) {
    const index_t mr_strips = a_strips(mb);
    const index_t nr_strips = b_strips(nb);
    for (index_t jr = 0; jr < nr_strips; ++jr) {
      const index_t j0 = jr * kNR;
      const index_t nv = std::min<index_t>(kNR, nb - j0);
      const float* bs = bp + jr * kNR * kb;
      for (index_t ir = 0; ir < mr_strips; ++ir) {
        const index_t i0 = ir * kMR;
        const index_t mv = std::min<index_t>(kMR, mb - i0);
        micro_kernel(kb, ap + ir * kMR * kb, bs, c + i0 + j0 * ldc, ldc, mv,
                     nv);
      }
    }
  }
};

/// The 8 x 6 tile: the production tile where the build lacks AVX-512, and
/// the bit reference for the wide tile where it has it.
using PortableTile = TileKernel<8, 6>;
#ifdef __AVX512F__
using NativeTile = TileKernel<16, 12>;
#else
using NativeTile = PortableTile;
#endif

} // namespace rocqr::blas::kernel
