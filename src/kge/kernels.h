#ifndef KGFD_KGE_KERNELS_H_
#define KGFD_KGE_KERNELS_H_

#include <cstddef>

#include "util/status.h"

namespace kgfd {
namespace kernels {

/// Vectorized batch-scoring kernels: one kernel per score function, each
/// scoring a *block of queries* against every row of one entity-table
/// operand (EntityTable below, float or quantized) in one pass. The table
/// is walked in tiles of rows (an 8-row tile on the AVX2 path, transposed
/// once and reused by all queries), so the bytes of a row are loaded from
/// memory once per block of queries instead of once per query.
///
/// Determinism contract: for each (query, row) pair the floating-point
/// operations and their order are EXACTLY the ones of the scalar
/// per-triple scoring path (double accumulation in ascending dimension
/// order, no FMA contraction). The AVX2 path vectorizes across *rows* —
/// eight independent accumulator chains, one per entity — so its results
/// are bit-identical to the portable path and to the pre-kernel
/// ScoreObjects/ScoreSubjects implementations. Discovery goldens and
/// checkpoint/resume bit-identity therefore hold on every backend.
///
/// A quantized table is dequantized one tile at a time (DequantizeRows,
/// amortized over the whole query block) and the tile is scored by the
/// same loop body as a float tile. So quantized scores are bit-identical
/// to dequantize-the-table-then-score-as-float, on both backends.

/// The entity table every kernel scores against: `rows` row-major rows of
/// `dim` elements (2 * half for paired_dot). Float rows when `scales` is
/// null; otherwise per-row affine-quantized int8 or int16 codes with one
/// (scale, zero_point) float pair per row (kge/embedding_store.h builds
/// these), dequantized by DequantizeRows.
struct EntityTable {
  const void* data = nullptr;  // const float* for float rows
  const float* scales = nullptr;
  const float* zero_points = nullptr;
  bool is_int16 = false;  // quantized only; false: int8 codes

  bool quantized() const { return scales != nullptr; }
  const float* floats() const { return static_cast<const float*>(data); }
};

/// Dequantizes rows [e0, e1) of a quantized table into `dst`
/// ((e1 - e0) * dim floats, row-major): element i of row e becomes
/// scales[e] * (float(code) - zero_points[e]) in single precision. The one
/// dequantization in the tree — both backends' quantized tiles and
/// QuantizedTable::DequantizeRow call it — so a dequantized row is
/// bit-identical wherever it is materialized.
void DequantizeRows(const EntityTable& table, size_t e0, size_t e1,
                    size_t dim, float* dst);

/// `qs[q]` is the query's prepared double vector (model-specific: q = s + r
/// for TransE, w = s ⊙ r for DistMult, [w_re | w_im] for ComplEx);
/// `outs[q]` is the query's output array of `rows` doubles.
using ScoreFn = void (*)(const EntityTable& table, size_t rows, size_t dim,
                         const double* const* qs, size_t num_queries,
                         double* const* outs);

struct KernelOps {
  const char* name;
  /// outs[q][e] = -Σ_i |qs[q][i] - table[e][i]|        (TransE, L1)
  ScoreFn l1_scores;
  /// outs[q][e] = -sqrt(Σ_i (qs[q][i] - table[e][i])²) (TransE, L2)
  ScoreFn l2_scores;
  /// outs[q][e] = Σ_i qs[q][i] * table[e][i]           (DistMult)
  ScoreFn dot_scores;
  /// ComplEx: the `dim` argument is `half`; qs[q] holds [w_re | w_im],
  /// each `half` wide, and rows are 2*half wide ([re | im]). Per k the
  /// pair w_re[k]*row[k] + w_im[k]*row[half+k] is summed before
  /// accumulation — the exact association of the scalar ComplEx loop.
  /// outs[q][e] = Σ_k (qs[q][k]*table[e][k] + qs[q][half+k]*table[e][half+k])
  ScoreFn paired_dot_scores;
};

/// Queries per ParallelFor grain / kernel call in the batch-scoring
/// pipeline (SideScoreCache precompute, link-prediction evaluation). Large
/// enough to amortize the per-block tile transpose, small enough that a
/// cooperative-stop probe between blocks stays responsive.
inline constexpr size_t kQueryBlock = 64;

/// The scalar reference backend. Always available; bit-identical to the
/// historical per-query ScoreObjects/ScoreSubjects loops.
const KernelOps& PortableKernels();

/// The AVX2 backend, or nullptr when unavailable — either the binary was
/// built without AVX2 support (KGFD_ENABLE_AVX2=OFF or non-x86 target) or
/// this machine's cpuid lacks AVX2/FMA.
const KernelOps* Avx2Kernels();

/// True when the running CPU reports AVX2 and FMA support.
bool CpuSupportsAvx2();

/// The dispatched backend, resolved once per process:
///  1. A SetKernelsOverride() pointer, when set (tests, benchmarks).
///  2. KGFD_KERNEL_BACKEND=portable|avx2 → that backend; an unknown name,
///     or avx2 on a machine or build without it, aborts with a diagnostic
///     (the CI dispatch-matrix leg relies on the hard failure).
///  3. cpuid: AVX2 when supported and compiled in, else portable.
const KernelOps& ActiveKernels();

/// Name of the backend ActiveKernels() resolves to ("avx2", "portable").
const char* ActiveKernelName();

/// Overrides ActiveKernels() for tests and benchmarks; nullptr restores
/// normal dispatch. Not thread-safe against concurrent scoring — switch
/// backends only between scoring passes.
void SetKernelsOverride(const KernelOps* ops);

/// Validates the kernel-dispatch environment without resolving dispatch:
/// InvalidArgument when KGFD_KERNEL_BACKEND names an unknown backend, or
/// names avx2 on a build/CPU that cannot provide it. Binaries call this at
/// startup so a typo'd backend is a clean error at launch instead of an
/// abort mid-scoring the first time a kernel is needed.
Status ValidateKernelBackendEnv();

}  // namespace kernels
}  // namespace kgfd

#endif  // KGFD_KGE_KERNELS_H_
