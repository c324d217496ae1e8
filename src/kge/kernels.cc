#include "kge/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace kgfd {
namespace kernels {

namespace {

/// Rows are walked in tiles so that a tile of the entity table stays in
/// cache while every query of the block scores against it. 256 rows of a
/// dim-128 table are 128 KiB — comfortably L2-resident.
constexpr size_t kPortableRowTile = 256;

template <typename Q>
void DequantizeRowsT(const EntityTable& table, size_t e0, size_t e1,
                     size_t dim, float* dst) {
  const Q* codes = static_cast<const Q*>(table.data);
  for (size_t e = e0; e < e1; ++e) {
    const float scale = table.scales[e];
    const float zp = table.zero_points[e];
    const Q* row = codes + e * dim;
    float* d = dst + (e - e0) * dim;
    for (size_t i = 0; i < dim; ++i) {
      d[i] = scale * (static_cast<float>(row[i]) - zp);
    }
  }
}

/// Scores every query of the block against the `n` rows at `tile` (table
/// rows e0 .. e0 + n) with `score(query, row)`. A loop nest of its own:
/// written inline under PortableScore's tile choice, GCC spilled the row
/// pointer inside the dimension loop and the L1 kernel ran ~15% slower.
template <typename RowScore>
void ScoreTile(const float* tile, size_t e0, size_t n, size_t dim,
               const double* const* qs, size_t num_queries,
               double* const* outs, const RowScore& score) {
  for (size_t q = 0; q < num_queries; ++q) {
    const double* qv = qs[q];
    double* out = outs[q] + e0;
    const float* row = tile;
    for (size_t e = 0; e < n; ++e, row += dim) out[e] = score(qv, row);
  }
}

/// The portable skeleton of every kernel: walks the table in row tiles —
/// read in place for float rows, dequantized once per tile into a scratch
/// tile for quantized ones — and scores each tile with ScoreTile.
template <typename RowScore>
void PortableScore(const EntityTable& table, size_t rows, size_t dim,
                   const double* const* qs, size_t num_queries,
                   double* const* outs, const RowScore& score) {
  if (!table.quantized()) {
    for (size_t e0 = 0; e0 < rows; e0 += kPortableRowTile) {
      ScoreTile(table.floats() + e0 * dim, e0,
                std::min(kPortableRowTile, rows - e0), dim, qs, num_queries,
                outs, score);
    }
    return;
  }
  std::vector<float> tile(kPortableRowTile * dim);
  for (size_t e0 = 0; e0 < rows; e0 += kPortableRowTile) {
    const size_t n = std::min(kPortableRowTile, rows - e0);
    DequantizeRows(table, e0, e0 + n, dim, tile.data());
    ScoreTile(tile.data(), e0, n, dim, qs, num_queries, outs, score);
  }
}

void PortableL1(const EntityTable& table, size_t rows, size_t dim,
                const double* const* qs, size_t num_queries,
                double* const* outs) {
  PortableScore(table, rows, dim, qs, num_queries, outs,
                [dim](const double* qv, const float* row) {
                  double acc = 0.0;
                  for (size_t i = 0; i < dim; ++i) {
                    acc += std::fabs(qv[i] - row[i]);
                  }
                  return -acc;
                });
}

void PortableL2(const EntityTable& table, size_t rows, size_t dim,
                const double* const* qs, size_t num_queries,
                double* const* outs) {
  PortableScore(table, rows, dim, qs, num_queries, outs,
                [dim](const double* qv, const float* row) {
                  double acc = 0.0;
                  for (size_t i = 0; i < dim; ++i) {
                    const double d = qv[i] - row[i];
                    acc += d * d;
                  }
                  return -std::sqrt(acc);
                });
}

void PortableDot(const EntityTable& table, size_t rows, size_t dim,
                 const double* const* qs, size_t num_queries,
                 double* const* outs) {
  PortableScore(table, rows, dim, qs, num_queries, outs,
                [dim](const double* qv, const float* row) {
                  double acc = 0.0;
                  for (size_t i = 0; i < dim; ++i) acc += qv[i] * row[i];
                  return acc;
                });
}

void PortablePairedDot(const EntityTable& table, size_t rows, size_t half,
                       const double* const* qs, size_t num_queries,
                       double* const* outs) {
  PortableScore(table, rows, 2 * half, qs, num_queries, outs,
                [half](const double* w, const float* row) {
                  double acc = 0.0;
                  for (size_t k = 0; k < half; ++k) {
                    acc += w[k] * row[k] + w[half + k] * row[half + k];
                  }
                  return acc;
                });
}

constexpr KernelOps kPortableOps = {
    "portable", PortableL1, PortableL2, PortableDot, PortablePairedDot,
};

std::atomic<const KernelOps*> g_override{nullptr};

/// The one parser of KGFD_KERNEL_BACKEND: nullptr when unset or empty
/// (cpuid dispatch), the named backend otherwise, InvalidArgument for an
/// unknown name or for avx2 where this build or CPU cannot provide it.
Result<const KernelOps*> BackendFromEnv() {
  const char* backend = std::getenv("KGFD_KERNEL_BACKEND");
  if (backend == nullptr || backend[0] == '\0') {
    return static_cast<const KernelOps*>(nullptr);
  }
  if (std::strcmp(backend, "portable") == 0) return &kPortableOps;
  if (std::strcmp(backend, "avx2") == 0) {
    const KernelOps* avx2 = Avx2Kernels();
    if (avx2 == nullptr) {
      return Status::InvalidArgument(
          std::string("KGFD_KERNEL_BACKEND=avx2 but the AVX2 kernels are "
                      "unavailable (") +
          (CpuSupportsAvx2() ? "not compiled into this binary"
                             : "cpu lacks AVX2/FMA") +
          ")");
    }
    return avx2;
  }
  return Status::InvalidArgument(
      std::string("unknown KGFD_KERNEL_BACKEND '") + backend +
      "' (expected 'portable' or 'avx2')");
}

/// Env-and-cpuid dispatch, evaluated once. The override pointer is checked
/// on every ActiveKernels() call so tests can flip backends mid-process.
const KernelOps* ResolveDispatch() {
  const KernelOps* pinned =
      BackendFromEnv().ValueOrDie("kernel backend dispatch");
  if (pinned != nullptr) return pinned;
  const KernelOps* avx2 = Avx2Kernels();
  return avx2 != nullptr ? avx2 : &kPortableOps;
}

}  // namespace

void DequantizeRows(const EntityTable& table, size_t e0, size_t e1,
                    size_t dim, float* dst) {
  if (table.is_int16) {
    DequantizeRowsT<int16_t>(table, e0, e1, dim, dst);
  } else {
    DequantizeRowsT<int8_t>(table, e0, e1, dim, dst);
  }
}

const KernelOps& PortableKernels() { return kPortableOps; }

bool CpuSupportsAvx2() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

const KernelOps& ActiveKernels() {
  const KernelOps* override_ops = g_override.load(std::memory_order_acquire);
  if (override_ops != nullptr) return *override_ops;
  static const KernelOps* dispatched = ResolveDispatch();
  return *dispatched;
}

const char* ActiveKernelName() { return ActiveKernels().name; }

void SetKernelsOverride(const KernelOps* ops) {
  g_override.store(ops, std::memory_order_release);
}

Status ValidateKernelBackendEnv() { return BackendFromEnv().status(); }

}  // namespace kernels
}  // namespace kgfd
