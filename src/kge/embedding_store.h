#ifndef KGFD_KGE_EMBEDDING_STORE_H_
#define KGFD_KGE_EMBEDDING_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kge/kernels.h"
#include "kge/tensor.h"
#include "util/status.h"

namespace kgfd {

/// How LoadModel materializes a checkpoint's embedding tables.
///
///   kRam   read the whole file, verify the CRC-32 trailer, copy every
///          tensor into owned heap storage (the historical behaviour).
///   kMmap  memory-map the file read-only and point the entity table at
///          the checkpoint's page-aligned tensor section (format v3)
///          zero-copy; small tensors are still copied. Cold-start cost is
///          O(header), not O(file).
enum class EmbeddingBackend {
  kRam,
  kMmap,
};

const char* EmbeddingBackendName(EmbeddingBackend backend);
Result<EmbeddingBackend> EmbeddingBackendFromName(const std::string& name);

/// Resolves KGFD_EMBEDDING_BACKEND (unset/empty → kRam). InvalidArgument
/// on an unknown value.
Result<EmbeddingBackend> EmbeddingBackendFromEnv();

/// Startup validation mirroring kernels::ValidateKernelBackendEnv(): a
/// typo'd backend is a clean error at launch, not a failed load later.
Status ValidateEmbeddingBackendEnv();

/// True when KGFD_MMAP_VERIFY is set non-empty and not "0": mmap loads
/// additionally CRC-check the mapped payloads and the whole-file trailer
/// (full integrity at ram-load cost; the CI mmap matrix leg sets it).
bool MmapVerifyFromEnv();

/// On-disk element type of a checkpoint tensor section.
enum class EmbeddingDtype : uint8_t {
  kFloat32 = 0,
  kInt8 = 1,
  kInt16 = 2,
};

const char* EmbeddingDtypeName(EmbeddingDtype dtype);
size_t EmbeddingDtypeBytes(EmbeddingDtype dtype);
Result<EmbeddingDtype> EmbeddingDtypeFromName(const std::string& name);

/// An entity table quantized per row to int8 or int16 codes with affine
/// parameters: value_i = scale[r] * (float(code_i) - zero_point[r]).
/// Row r's codes span [data + r*cols*bytes, ...); scales and zero_points
/// are one float per row. Storage is either owned (Quantize, ram loads)
/// or a view into memory the keepalive holds (mmap loads).
///
/// Dequantization is kernels::DequantizeRows — SINGLE-precision
/// multiply-after-subtract, the one dequantization the quantized kernel
/// tiles also use — so a dequantized row is bit-identical everywhere it is
/// materialized.
class QuantizedTable {
 public:
  QuantizedTable() = default;

  /// Quantizes a float tensor row-by-row. Each row's scale spans its own
  /// [min, max]; constant rows get scale 1 so they round-trip exactly.
  /// Round-trip error is ≤ scale/2 per element (plus float rounding).
  static QuantizedTable Quantize(const Tensor& table, EmbeddingDtype dtype);

  /// Wraps externally-held storage (the mmap'd checkpoint section).
  static QuantizedTable View(EmbeddingDtype dtype, const void* data,
                             const float* scales, const float* zero_points,
                             size_t rows, size_t cols,
                             std::shared_ptr<const void> keepalive);

  bool empty() const { return rows_ == 0; }
  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  EmbeddingDtype dtype() const { return dtype_; }
  const void* data() const { return data_; }
  const float* scales() const { return scales_; }
  const float* zero_points() const { return zero_points_; }

  /// Dequantizes row r into dst (cols() floats).
  void DequantizeRow(size_t r, float* dst) const;

  /// The kernel-facing operand view.
  kernels::EntityTable KernelTable() const {
    return {data_, scales_, zero_points_, dtype_ == EmbeddingDtype::kInt16};
  }

  /// FNV-1a over dtype, shape, codes and per-row parameters. Mixed into
  /// model fingerprints so distinct quantizations never share a
  /// DiscoveryCache entry with each other or with the float model.
  uint64_t Fingerprint() const;

 private:
  EmbeddingDtype dtype_ = EmbeddingDtype::kInt8;
  size_t rows_ = 0;
  size_t cols_ = 0;
  const void* data_ = nullptr;
  const float* scales_ = nullptr;
  const float* zero_points_ = nullptr;
  // Owned-storage mode keeps the bytes here; view mode keeps the mapping
  // (or other external owner) alive instead.
  std::vector<unsigned char> owned_codes_;
  std::vector<float> owned_params_;
  std::shared_ptr<const void> keepalive_;
};

/// A read-only memory-mapped file (RAII). The diskarray idiom: map once,
/// hand out bounds-checked pointers, madvise the ranges that will be
/// swept. Move-only; unmaps on destruction.
class MmapFile {
 public:
  /// Opens and maps `path` read-only. IoError with the failing syscall's
  /// errno text on any failure; empty files are rejected here (mmap of
  /// length 0 is undefined), which also guarantees data() is non-null.
  static Result<MmapFile> Open(const std::string& path);

  MmapFile() = default;
  MmapFile(MmapFile&& other) noexcept { *this = std::move(other); }
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;
  ~MmapFile();

  const unsigned char* data() const { return data_; }
  size_t size() const { return size_; }

  /// MADV_SEQUENTIAL on [offset, offset+length): ranking sweeps walk the
  /// entity section front to back, so aggressive readahead wins. Advice
  /// only — failures are ignored.
  void AdviseSequential(size_t offset, size_t length) const;

 private:
  unsigned char* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace kgfd

#endif  // KGFD_KGE_EMBEDDING_STORE_H_
