/// AVX2 batch-scoring kernels. Compiled with -mavx2 -mfma only when the
/// build supports it (KGFD_HAVE_AVX2 is defined by src/CMakeLists.txt for
/// this file alone); every other translation unit stays portable, and the
/// *running* CPU is still checked via cpuid before dispatch.
///
/// Vectorization strategy: eight entities per tile, transposed once into a
/// column-major scratch buffer and scored by every query of the block. The
/// vector lanes run eight *independent* per-entity accumulator chains in
/// ascending dimension order — the same double-precision operations, in the
/// same order, as the scalar path — so results are bit-identical to the
/// portable backend (see the determinism contract in kernels.h). The
/// speedup comes from breaking the scalar path's single add-latency-bound
/// accumulation chain and from loading each table row once per block of
/// queries, not from FMA contraction (which would change results and is
/// deliberately not used in the accumulation loops).

#include "kge/kernels.h"

#if defined(KGFD_HAVE_AVX2)

#include <immintrin.h>

#include <cmath>
#include <vector>

namespace kgfd {
namespace kernels {
namespace {

constexpr size_t kRowBlock = 8;

/// Transposes 8 rows of `dim` floats into scratch[c * 8 + lane].
void TransposeBlock(const float* table, size_t row0, size_t dim,
                    float* scratch) {
  const float* rows[kRowBlock];
  for (size_t l = 0; l < kRowBlock; ++l) rows[l] = table + (row0 + l) * dim;
  size_t c = 0;
  for (; c + 8 <= dim; c += 8) {
    const __m256 a0 = _mm256_loadu_ps(rows[0] + c);
    const __m256 a1 = _mm256_loadu_ps(rows[1] + c);
    const __m256 a2 = _mm256_loadu_ps(rows[2] + c);
    const __m256 a3 = _mm256_loadu_ps(rows[3] + c);
    const __m256 a4 = _mm256_loadu_ps(rows[4] + c);
    const __m256 a5 = _mm256_loadu_ps(rows[5] + c);
    const __m256 a6 = _mm256_loadu_ps(rows[6] + c);
    const __m256 a7 = _mm256_loadu_ps(rows[7] + c);
    const __m256 t0 = _mm256_unpacklo_ps(a0, a1);
    const __m256 t1 = _mm256_unpackhi_ps(a0, a1);
    const __m256 t2 = _mm256_unpacklo_ps(a2, a3);
    const __m256 t3 = _mm256_unpackhi_ps(a2, a3);
    const __m256 t4 = _mm256_unpacklo_ps(a4, a5);
    const __m256 t5 = _mm256_unpackhi_ps(a4, a5);
    const __m256 t6 = _mm256_unpacklo_ps(a6, a7);
    const __m256 t7 = _mm256_unpackhi_ps(a6, a7);
    const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
    _mm256_storeu_ps(scratch + (c + 0) * 8,
                     _mm256_permute2f128_ps(u0, u4, 0x20));
    _mm256_storeu_ps(scratch + (c + 1) * 8,
                     _mm256_permute2f128_ps(u1, u5, 0x20));
    _mm256_storeu_ps(scratch + (c + 2) * 8,
                     _mm256_permute2f128_ps(u2, u6, 0x20));
    _mm256_storeu_ps(scratch + (c + 3) * 8,
                     _mm256_permute2f128_ps(u3, u7, 0x20));
    _mm256_storeu_ps(scratch + (c + 4) * 8,
                     _mm256_permute2f128_ps(u0, u4, 0x31));
    _mm256_storeu_ps(scratch + (c + 5) * 8,
                     _mm256_permute2f128_ps(u1, u5, 0x31));
    _mm256_storeu_ps(scratch + (c + 6) * 8,
                     _mm256_permute2f128_ps(u2, u6, 0x31));
    _mm256_storeu_ps(scratch + (c + 7) * 8,
                     _mm256_permute2f128_ps(u3, u7, 0x31));
  }
  for (; c < dim; ++c) {
    for (size_t l = 0; l < kRowBlock; ++l) scratch[c * 8 + l] = rows[l][c];
  }
}

/// Loads transposed column `c` (8 floats, one per entity lane) widened to
/// two 4-double vectors.
inline void LoadColumn(const float* scratch, size_t c, __m256d* lo,
                       __m256d* hi) {
  const __m256 v = _mm256_loadu_ps(scratch + c * 8);
  *lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
  *hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
}

const __m256d kSignMask = _mm256_set1_pd(-0.0);

/// The two tile sources the kernel skeletons below are generic over. The
/// float source reads the entity table directly; the quantized source
/// dequantizes each 8-row tile (DequantizeRows, once per tile, amortized
/// over the whole query block) and transposes it into the same scratch
/// layout, so the identical vector loop body runs on both representations.
struct FloatTileSource {
  const float* table;
  size_t dim;
  void LoadTile(size_t row0, float* scratch) const {
    TransposeBlock(table, row0, dim, scratch);
  }
  const float* TailRow(size_t e, float* /*buf*/) const {
    return table + e * dim;
  }
};

struct QuantTileSource {
  const EntityTable* table;
  size_t dim;
  float* rows;  // kRowBlock * dim floats of dequantized, untransposed rows
  void LoadTile(size_t row0, float* scratch) const {
    DequantizeRows(*table, row0, row0 + kRowBlock, dim, rows);
    TransposeBlock(rows, 0, dim, scratch);
  }
  const float* TailRow(size_t e, float* buf) const {
    DequantizeRows(*table, e, e + 1, dim, buf);
    return buf;
  }
};

/// Runs `body(source)` with the tile source for `table`: the one place a
/// kernel call picks between float and quantized rows.
template <typename Body>
void WithTileSource(const EntityTable& table, size_t dim, const Body& body) {
  if (table.quantized()) {
    std::vector<float> rows(kRowBlock * dim);
    body(QuantTileSource{&table, dim, rows.data()});
  } else {
    body(FloatTileSource{table.floats(), dim});
  }
}

/// Shared skeleton of the single-factor kernels (L1 / L2 / dot): `step`
/// folds one widened column into the accumulator pair, `finish` maps the
/// raw accumulators to scores. Queries are walked in pairs so each tile
/// pass runs four independent accumulator chains (two queries × lo/hi) —
/// enough to hide the vector-add latency the single-chain walk stalls on —
/// and each widened column load is shared by both queries. Per-(query,
/// entity) accumulation order is unchanged, so pairing cannot perturb
/// results. Tail rows (rows % 8) fall back to the bit-identical scalar
/// loop via `scalar_row`.
template <typename TileSource, typename Step, typename Finish,
          typename ScalarRow>
void BlockedScore(const TileSource& source, size_t rows, size_t dim,
                  const double* const* qs, size_t num_queries,
                  double* const* outs, const Step& step,
                  const Finish& finish, const ScalarRow& scalar_row) {
  std::vector<float> scratch(dim * kRowBlock);
  std::vector<float> tail(dim);
  const size_t full = rows - rows % kRowBlock;
  for (size_t e0 = 0; e0 < full; e0 += kRowBlock) {
    source.LoadTile(e0, scratch.data());
    size_t q = 0;
    for (; q + 2 <= num_queries; q += 2) {
      const double* qa = qs[q];
      const double* qb = qs[q + 1];
      __m256d a_lo = _mm256_setzero_pd();
      __m256d a_hi = _mm256_setzero_pd();
      __m256d b_lo = _mm256_setzero_pd();
      __m256d b_hi = _mm256_setzero_pd();
      for (size_t i = 0; i < dim; ++i) {
        __m256d vlo, vhi;
        LoadColumn(scratch.data(), i, &vlo, &vhi);
        step(_mm256_broadcast_sd(qa + i), vlo, vhi, &a_lo, &a_hi);
        step(_mm256_broadcast_sd(qb + i), vlo, vhi, &b_lo, &b_hi);
      }
      finish(&a_lo, &a_hi);
      finish(&b_lo, &b_hi);
      _mm256_storeu_pd(outs[q] + e0, a_lo);
      _mm256_storeu_pd(outs[q] + e0 + 4, a_hi);
      _mm256_storeu_pd(outs[q + 1] + e0, b_lo);
      _mm256_storeu_pd(outs[q + 1] + e0 + 4, b_hi);
    }
    for (; q < num_queries; ++q) {
      const double* qv = qs[q];
      __m256d acc_lo = _mm256_setzero_pd();
      __m256d acc_hi = _mm256_setzero_pd();
      for (size_t i = 0; i < dim; ++i) {
        __m256d vlo, vhi;
        LoadColumn(scratch.data(), i, &vlo, &vhi);
        step(_mm256_broadcast_sd(qv + i), vlo, vhi, &acc_lo, &acc_hi);
      }
      finish(&acc_lo, &acc_hi);
      _mm256_storeu_pd(outs[q] + e0, acc_lo);
      _mm256_storeu_pd(outs[q] + e0 + 4, acc_hi);
    }
  }
  for (size_t e = full; e < rows; ++e) {
    const float* row = source.TailRow(e, tail.data());
    for (size_t q = 0; q < num_queries; ++q) {
      outs[q][e] = scalar_row(qs[q], row);
    }
  }
}

template <typename TileSource>
void L1Kernel(const TileSource& source, size_t rows, size_t dim,
              const double* const* qs, size_t num_queries,
              double* const* outs) {
  BlockedScore(
      source, rows, dim, qs, num_queries, outs,
      [](__m256d qb, __m256d vlo, __m256d vhi, __m256d* acc_lo,
         __m256d* acc_hi) {
        *acc_lo = _mm256_add_pd(
            *acc_lo, _mm256_andnot_pd(kSignMask, _mm256_sub_pd(qb, vlo)));
        *acc_hi = _mm256_add_pd(
            *acc_hi, _mm256_andnot_pd(kSignMask, _mm256_sub_pd(qb, vhi)));
      },
      [](__m256d* acc_lo, __m256d* acc_hi) {
        *acc_lo = _mm256_xor_pd(*acc_lo, kSignMask);
        *acc_hi = _mm256_xor_pd(*acc_hi, kSignMask);
      },
      [dim](const double* qv, const float* row) {
        double acc = 0.0;
        for (size_t i = 0; i < dim; ++i) acc += std::fabs(qv[i] - row[i]);
        return -acc;
      });
}

template <typename TileSource>
void L2Kernel(const TileSource& source, size_t rows, size_t dim,
              const double* const* qs, size_t num_queries,
              double* const* outs) {
  BlockedScore(
      source, rows, dim, qs, num_queries, outs,
      [](__m256d qb, __m256d vlo, __m256d vhi, __m256d* acc_lo,
         __m256d* acc_hi) {
        const __m256d dlo = _mm256_sub_pd(qb, vlo);
        const __m256d dhi = _mm256_sub_pd(qb, vhi);
        // mul then add, not FMA: the scalar path rounds the square before
        // accumulating, and bit-compatibility wins over contraction here.
        *acc_lo = _mm256_add_pd(*acc_lo, _mm256_mul_pd(dlo, dlo));
        *acc_hi = _mm256_add_pd(*acc_hi, _mm256_mul_pd(dhi, dhi));
      },
      [](__m256d* acc_lo, __m256d* acc_hi) {
        *acc_lo = _mm256_xor_pd(_mm256_sqrt_pd(*acc_lo), kSignMask);
        *acc_hi = _mm256_xor_pd(_mm256_sqrt_pd(*acc_hi), kSignMask);
      },
      [dim](const double* qv, const float* row) {
        double acc = 0.0;
        for (size_t i = 0; i < dim; ++i) {
          const double d = qv[i] - row[i];
          acc += d * d;
        }
        return -std::sqrt(acc);
      });
}

template <typename TileSource>
void DotKernel(const TileSource& source, size_t rows, size_t dim,
               const double* const* qs, size_t num_queries,
               double* const* outs) {
  BlockedScore(
      source, rows, dim, qs, num_queries, outs,
      [](__m256d qb, __m256d vlo, __m256d vhi, __m256d* acc_lo,
         __m256d* acc_hi) {
        *acc_lo = _mm256_add_pd(*acc_lo, _mm256_mul_pd(qb, vlo));
        *acc_hi = _mm256_add_pd(*acc_hi, _mm256_mul_pd(qb, vhi));
      },
      [](__m256d*, __m256d*) {},
      [dim](const double* qv, const float* row) {
        double acc = 0.0;
        for (size_t i = 0; i < dim; ++i) acc += qv[i] * row[i];
        return acc;
      });
}

template <typename TileSource>
void PairedDotKernel(const TileSource& source, size_t rows, size_t half,
                     const double* const* qs, size_t num_queries,
                     double* const* outs) {
  const size_t dim = 2 * half;
  std::vector<float> scratch(dim * kRowBlock);
  std::vector<float> tail(dim);
  const size_t full = rows - rows % kRowBlock;
  for (size_t e0 = 0; e0 < full; e0 += kRowBlock) {
    source.LoadTile(e0, scratch.data());
    for (size_t q = 0; q < num_queries; ++q) {
      const double* wr = qs[q];
      const double* wi = qs[q] + half;
      __m256d acc_lo = _mm256_setzero_pd();
      __m256d acc_hi = _mm256_setzero_pd();
      for (size_t k = 0; k < half; ++k) {
        __m256d re_lo, re_hi, im_lo, im_hi;
        LoadColumn(scratch.data(), k, &re_lo, &re_hi);
        LoadColumn(scratch.data(), half + k, &im_lo, &im_hi);
        const __m256d wrb = _mm256_broadcast_sd(wr + k);
        const __m256d wib = _mm256_broadcast_sd(wi + k);
        // (wr*re + wi*im) summed per k before accumulating — the scalar
        // ComplEx association, so no FMA here either.
        acc_lo = _mm256_add_pd(
            acc_lo, _mm256_add_pd(_mm256_mul_pd(wrb, re_lo),
                                  _mm256_mul_pd(wib, im_lo)));
        acc_hi = _mm256_add_pd(
            acc_hi, _mm256_add_pd(_mm256_mul_pd(wrb, re_hi),
                                  _mm256_mul_pd(wib, im_hi)));
      }
      _mm256_storeu_pd(outs[q] + e0, acc_lo);
      _mm256_storeu_pd(outs[q] + e0 + 4, acc_hi);
    }
  }
  for (size_t e = full; e < rows; ++e) {
    const float* row = source.TailRow(e, tail.data());
    for (size_t q = 0; q < num_queries; ++q) {
      const double* wr = qs[q];
      const double* wi = qs[q] + half;
      double acc = 0.0;
      for (size_t k = 0; k < half; ++k) {
        acc += wr[k] * row[k] + wi[k] * row[half + k];
      }
      outs[q][e] = acc;
    }
  }
}

// Dispatch-table entry points: each picks the tile source once per call,
// so the float instantiations carry no per-tile branch or indirect call
// and their scores and speed do not depend on the quantized path.

void Avx2L1(const EntityTable& table, size_t rows, size_t dim,
            const double* const* qs, size_t num_queries,
            double* const* outs) {
  WithTileSource(table, dim, [&](const auto& source) {
    L1Kernel(source, rows, dim, qs, num_queries, outs);
  });
}

void Avx2L2(const EntityTable& table, size_t rows, size_t dim,
            const double* const* qs, size_t num_queries,
            double* const* outs) {
  WithTileSource(table, dim, [&](const auto& source) {
    L2Kernel(source, rows, dim, qs, num_queries, outs);
  });
}

void Avx2Dot(const EntityTable& table, size_t rows, size_t dim,
             const double* const* qs, size_t num_queries,
             double* const* outs) {
  WithTileSource(table, dim, [&](const auto& source) {
    DotKernel(source, rows, dim, qs, num_queries, outs);
  });
}

void Avx2PairedDot(const EntityTable& table, size_t rows, size_t half,
                   const double* const* qs, size_t num_queries,
                   double* const* outs) {
  WithTileSource(table, 2 * half, [&](const auto& source) {
    PairedDotKernel(source, rows, half, qs, num_queries, outs);
  });
}

constexpr KernelOps kAvx2Ops = {
    "avx2", Avx2L1, Avx2L2, Avx2Dot, Avx2PairedDot,
};

}  // namespace

const KernelOps* Avx2Kernels() {
  return CpuSupportsAvx2() ? &kAvx2Ops : nullptr;
}

}  // namespace kernels
}  // namespace kgfd

#else  // !KGFD_HAVE_AVX2

namespace kgfd {
namespace kernels {

const KernelOps* Avx2Kernels() { return nullptr; }

}  // namespace kernels
}  // namespace kgfd

#endif  // KGFD_HAVE_AVX2
