#include "kge/embedding_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace kgfd {

const char* EmbeddingBackendName(EmbeddingBackend backend) {
  switch (backend) {
    case EmbeddingBackend::kRam:
      return "ram";
    case EmbeddingBackend::kMmap:
      return "mmap";
  }
  return "unknown";
}

Result<EmbeddingBackend> EmbeddingBackendFromName(const std::string& name) {
  if (name == "ram") return EmbeddingBackend::kRam;
  if (name == "mmap") return EmbeddingBackend::kMmap;
  return Status::InvalidArgument("unknown embedding backend '" + name +
                                 "' (expected 'ram' or 'mmap')");
}

Result<EmbeddingBackend> EmbeddingBackendFromEnv() {
  const char* backend = std::getenv("KGFD_EMBEDDING_BACKEND");
  if (backend == nullptr || backend[0] == '\0') {
    return EmbeddingBackend::kRam;
  }
  return EmbeddingBackendFromName(backend);
}

Status ValidateEmbeddingBackendEnv() {
  return EmbeddingBackendFromEnv().status();
}

bool MmapVerifyFromEnv() {
  const char* verify = std::getenv("KGFD_MMAP_VERIFY");
  return verify != nullptr && verify[0] != '\0' &&
         std::strcmp(verify, "0") != 0;
}

const char* EmbeddingDtypeName(EmbeddingDtype dtype) {
  switch (dtype) {
    case EmbeddingDtype::kFloat32:
      return "float32";
    case EmbeddingDtype::kInt8:
      return "int8";
    case EmbeddingDtype::kInt16:
      return "int16";
  }
  return "unknown";
}

size_t EmbeddingDtypeBytes(EmbeddingDtype dtype) {
  switch (dtype) {
    case EmbeddingDtype::kFloat32:
      return 4;
    case EmbeddingDtype::kInt8:
      return 1;
    case EmbeddingDtype::kInt16:
      return 2;
  }
  return 0;
}

Result<EmbeddingDtype> EmbeddingDtypeFromName(const std::string& name) {
  if (name == "float32") return EmbeddingDtype::kFloat32;
  if (name == "int8") return EmbeddingDtype::kInt8;
  if (name == "int16") return EmbeddingDtype::kInt16;
  return Status::InvalidArgument("unknown embedding dtype '" + name +
                                 "' (expected 'int8' or 'int16')");
}

namespace {

template <typename Q>
void QuantizeRows(const Tensor& table, float* scales, float* zero_points,
                  Q* codes) {
  constexpr double kQMin = static_cast<double>(std::numeric_limits<Q>::min());
  constexpr double kQMax = static_cast<double>(std::numeric_limits<Q>::max());
  const size_t cols = table.cols();
  for (size_t r = 0; r < table.rows(); ++r) {
    const float* row = table.Row(r);
    float lo = row[0], hi = row[0];
    for (size_t i = 1; i < cols; ++i) {
      lo = std::min(lo, row[i]);
      hi = std::max(hi, row[i]);
    }
    // scale spans the row's range; a constant row gets scale 1 so it
    // round-trips exactly. zero_point is the (fractional) code of 0 —
    // stored as float, applied in the same single-precision arithmetic the
    // kernels dequantize with.
    float scale = hi > lo ? (hi - lo) / static_cast<float>(kQMax - kQMin)
                          : 1.0f;
    if (!(scale > 0.0f) || !std::isfinite(scale)) scale = 1.0f;
    const float zp = static_cast<float>(kQMin) - lo / scale;
    scales[r] = scale;
    zero_points[r] = zp;
    Q* out = codes + r * cols;
    for (size_t i = 0; i < cols; ++i) {
      // code = value/scale + zp, rounded to nearest and clamped. Uses the
      // STORED float parameters so the ≤ scale/2 round-trip bound holds
      // against exactly what dequantization will apply.
      const double q = std::nearbyint(
          static_cast<double>(row[i]) / static_cast<double>(scale) +
          static_cast<double>(zp));
      const double clamped = q < kQMin ? kQMin : (q > kQMax ? kQMax : q);
      out[i] = static_cast<Q>(clamped);
    }
  }
}

}  // namespace

QuantizedTable QuantizedTable::Quantize(const Tensor& table,
                                        EmbeddingDtype dtype) {
  QuantizedTable q;
  q.dtype_ = dtype;
  q.rows_ = table.rows();
  q.cols_ = table.cols();
  q.owned_codes_.resize(table.size() * EmbeddingDtypeBytes(dtype));
  q.owned_params_.resize(2 * table.rows());
  float* scales = q.owned_params_.data();
  float* zero_points = q.owned_params_.data() + table.rows();
  if (dtype == EmbeddingDtype::kInt16) {
    QuantizeRows<int16_t>(table, scales, zero_points,
                          reinterpret_cast<int16_t*>(q.owned_codes_.data()));
  } else {
    QuantizeRows<int8_t>(table, scales, zero_points,
                         reinterpret_cast<int8_t*>(q.owned_codes_.data()));
  }
  q.data_ = q.owned_codes_.data();
  q.scales_ = scales;
  q.zero_points_ = zero_points;
  return q;
}

QuantizedTable QuantizedTable::View(EmbeddingDtype dtype, const void* data,
                                    const float* scales,
                                    const float* zero_points, size_t rows,
                                    size_t cols,
                                    std::shared_ptr<const void> keepalive) {
  QuantizedTable q;
  q.dtype_ = dtype;
  q.rows_ = rows;
  q.cols_ = cols;
  q.data_ = data;
  q.scales_ = scales;
  q.zero_points_ = zero_points;
  q.keepalive_ = std::move(keepalive);
  return q;
}

void QuantizedTable::DequantizeRow(size_t r, float* dst) const {
  kernels::DequantizeRows(KernelTable(), r, r + 1, cols_, dst);
}

uint64_t QuantizedTable::Fingerprint() const {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix_bytes = [&h](const void* data, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ULL;
    }
  };
  const uint64_t shape[3] = {static_cast<uint64_t>(dtype_), rows_, cols_};
  mix_bytes(shape, sizeof(shape));
  mix_bytes(data_, rows_ * cols_ * EmbeddingDtypeBytes(dtype_));
  mix_bytes(scales_, rows_ * sizeof(float));
  mix_bytes(zero_points_, rows_ * sizeof(float));
  return h;
}

Result<MmapFile> MmapFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open: " + path + " (" +
                           std::strerror(errno) + ")");
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("fstat failed: " + path + " (" + err + ")");
  }
  if (st.st_size <= 0) {
    ::close(fd);
    return Status::IoError("truncated checkpoint (empty file): " + path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  void* mapped = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping keeps its own reference to the file; the descriptor is
  // done either way.
  ::close(fd);
  if (mapped == MAP_FAILED) {
    return Status::IoError("mmap failed: " + path + " (" +
                           std::strerror(errno) + ")");
  }
  MmapFile file;
  file.data_ = static_cast<unsigned char*>(mapped);
  file.size_ = size;
  return file;
}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) ::munmap(data_, size_);
    data_ = other.data_;
    size_ = other.size_;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

MmapFile::~MmapFile() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

void MmapFile::AdviseSequential(size_t offset, size_t length) const {
  if (data_ == nullptr || length == 0 || offset >= size_) return;
  // madvise wants a page-aligned start; round down and extend.
  const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  const size_t start = offset - offset % page;
  const size_t end = std::min(offset + length, size_);
  ::madvise(data_ + start, end - start, MADV_SEQUENTIAL);
}

}  // namespace kgfd
