#include "kge/checkpoint.h"

#include <cstdint>
#include <cstring>

#include "kge/models/pair_embedding_model.h"
#include "util/crc32.h"
#include "util/failpoint.h"
#include "util/framed_log.h"

namespace kgfd {
namespace {

constexpr char kMagic[8] = {'K', 'G', 'F', 'D', 'C', 'K', 'P', 'T'};
// Version 3 splits the file into a CRC-guarded header (with a tensor
// directory) and aligned payload sections, plus a whole-file CRC-32
// trailer, so loads can verify and map the header without touching payload
// bytes: the entity table starts on a 4096-byte page boundary and every
// section on a 64-byte boundary, which lets the mmap backend attach
// tensors zero-copy. Earlier versions are refused.
constexpr uint32_t kFormatV3 = 3;
// magic + u32 version + u64 header size.
constexpr size_t kFixedHead = sizeof(kMagic) + sizeof(uint32_t) +
                              sizeof(uint64_t);
constexpr uint64_t kSectionAlign = 64;
constexpr uint64_t kPageAlign = 4096;
constexpr uint64_t kMaxTensorSections = 256;

uint64_t AlignUp(uint64_t v, uint64_t a) { return (v + a - 1) / a * a; }

/// One tensor the v3 writer serializes: float payload, or quantized codes
/// plus per-row scale/zero-point parameters.
struct SectionSpec {
  std::string name;
  EmbeddingDtype dtype = EmbeddingDtype::kFloat32;
  uint64_t rows = 0;
  uint64_t cols = 0;
  const void* payload = nullptr;
  const float* scales = nullptr;
  const float* zero_points = nullptr;
};

Status WriteV3(const std::string& model_name, const ModelConfig& config,
               const std::vector<SectionSpec>& sections,
               const std::string& path) {
  // Header blob size depends only on names and counts, so offsets can be
  // assigned before serializing: blob = model name + 6 config u64 + count
  // u64 + per section (name + 7 u64 + 2 crc32).
  uint64_t blob_size = 8 + model_name.size() + 7 * 8;
  for (const SectionSpec& s : sections) {
    blob_size += 8 + s.name.size() + 7 * 8 + 2 * 4;
  }
  const uint64_t payload_start =
      AlignUp(kFixedHead + blob_size + sizeof(uint32_t), kPageAlign);

  // The entity table's payload goes first so it lands exactly on the page
  // boundary; every other section keeps 64-byte alignment.
  std::vector<size_t> order;
  for (size_t i = 0; i < sections.size(); ++i) {
    if (sections[i].name == "entities") order.push_back(i);
  }
  for (size_t i = 0; i < sections.size(); ++i) {
    if (sections[i].name != "entities") order.push_back(i);
  }

  std::vector<uint64_t> payload_offset(sections.size(), 0);
  std::vector<uint64_t> payload_size(sections.size(), 0);
  std::vector<uint64_t> quant_offset(sections.size(), 0);
  std::vector<uint64_t> quant_size(sections.size(), 0);
  uint64_t cursor = payload_start;
  for (size_t i : order) {
    const SectionSpec& s = sections[i];
    cursor = AlignUp(cursor, kSectionAlign);
    payload_offset[i] = cursor;
    payload_size[i] = s.rows * s.cols * EmbeddingDtypeBytes(s.dtype);
    cursor += payload_size[i];
  }
  for (size_t i : order) {
    const SectionSpec& s = sections[i];
    if (s.dtype == EmbeddingDtype::kFloat32) continue;
    cursor = AlignUp(cursor, kSectionAlign);
    quant_offset[i] = cursor;
    quant_size[i] = 2 * s.rows * sizeof(float);
    cursor += quant_size[i];
  }

  std::string file;
  file.reserve(cursor + sizeof(uint32_t));
  file.append(kMagic, sizeof(kMagic));
  Put(&file, kFormatV3);
  Put(&file, blob_size);
  PutString(&file, model_name);
  Put(&file, config.num_entities);
  Put(&file, config.num_relations);
  Put(&file, config.embedding_dim);
  Put(&file, static_cast<uint64_t>(config.transe_norm));
  Put(&file, config.conve_num_filters);
  Put(&file, config.conve_reshape_height);
  Put(&file, sections.size());
  for (size_t i = 0; i < sections.size(); ++i) {
    const SectionSpec& s = sections[i];
    PutString(&file, s.name);
    Put(&file, static_cast<uint64_t>(s.dtype));
    Put(&file, s.rows);
    Put(&file, s.cols);
    Put(&file, payload_offset[i]);
    Put(&file, payload_size[i]);
    Put(&file, quant_offset[i]);
    Put(&file, quant_size[i]);
    Put(&file, Crc32(s.payload, payload_size[i]));
    uint32_t quant_crc = 0;
    if (s.dtype != EmbeddingDtype::kFloat32) {
      quant_crc = Crc32Update(0, s.scales, s.rows * sizeof(float));
      quant_crc = Crc32Update(quant_crc, s.zero_points,
                              s.rows * sizeof(float));
    }
    Put(&file, quant_crc);
  }
  if (file.size() != kFixedHead + blob_size) {
    return Status::Internal("checkpoint header size miscomputed");
  }
  Put(&file, Crc32(file));

  for (size_t i : order) {
    const SectionSpec& s = sections[i];
    file.resize(payload_offset[i], '\0');
    file.append(static_cast<const char*>(s.payload), payload_size[i]);
  }
  for (size_t i : order) {
    const SectionSpec& s = sections[i];
    if (s.dtype == EmbeddingDtype::kFloat32) continue;
    file.resize(quant_offset[i], '\0');
    file.append(reinterpret_cast<const char*>(s.scales),
                s.rows * sizeof(float));
    file.append(reinterpret_cast<const char*>(s.zero_points),
                s.rows * sizeof(float));
  }
  Put(&file, Crc32(file));

  // Never rewritten in place: a live mmap load of the old file keeps its
  // pages.
  return WriteFileAtomic(path, file, /*sync=*/false);
}

bool SupportsQuantizedEntities(ModelKind kind) {
  return kind == ModelKind::kTransE || kind == ModelKind::kDistMult ||
         kind == ModelKind::kComplEx;
}

/// IoError unless the `size` bytes at `data` start like a v3 checkpoint:
/// long enough for the fixed head and trailer, kgfd magic, version 3.
Status CheckHead(const unsigned char* data, size_t size,
                 const std::string& path) {
  if (size < kFixedHead + sizeof(uint32_t)) {
    return Status::IoError("truncated checkpoint: " + path);
  }
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    return Status::IoError("not a kgfd checkpoint: " + path);
  }
  uint32_t version = 0;
  std::memcpy(&version, data + sizeof(kMagic), sizeof(version));
  if (version != kFormatV3) {
    return Status::IoError("unsupported checkpoint version " +
                           std::to_string(version) + " (this build reads " +
                           std::to_string(kFormatV3) + "): " + path);
  }
  return Status::OK();
}

/// Parses the v3 fixed head + header blob (magic already checked) and
/// verifies the header CRC. Payload bytes are not touched.
Result<CheckpointInfo> ParseV3Header(const unsigned char* data,
                                     size_t file_size) {
  // Magic and version were checked by the caller (file_size >= kFixedHead
  // + 4 included).
  uint64_t blob_size = 0;
  std::memcpy(&blob_size, data + sizeof(kMagic) + sizeof(uint32_t),
              sizeof(blob_size));
  if (blob_size > file_size ||
      kFixedHead + blob_size + sizeof(uint32_t) > file_size) {
    return Status::IoError("truncated checkpoint header");
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, data + kFixedHead + blob_size, sizeof(stored_crc));
  if (stored_crc != Crc32(data, kFixedHead + blob_size)) {
    return Status::IoError(
        "checkpoint header checksum mismatch (truncated or corrupted)");
  }

  CheckpointInfo info;
  info.version = kFormatV3;
  info.header_size = blob_size;
  // Bounds-checked reads: a forged length can only fail the parse, never
  // read past the header blob.
  PayloadReader in{std::string_view(
      reinterpret_cast<const char*>(data) + kFixedHead, blob_size)};
  static_assert(sizeof(size_t) == sizeof(uint64_t));
  uint64_t transe_norm = 0;
  uint64_t num_tensors = 0;
  if (!in.GetString(&info.model_name) ||
      !in.Get(&info.config.num_entities) ||
      !in.Get(&info.config.num_relations) ||
      !in.Get(&info.config.embedding_dim) || !in.Get(&transe_norm) ||
      !in.Get(&info.config.conve_num_filters) ||
      !in.Get(&info.config.conve_reshape_height) || !in.Get(&num_tensors)) {
    return Status::IoError("truncated checkpoint header");
  }
  info.config.transe_norm = static_cast<int>(transe_norm);
  if (num_tensors > kMaxTensorSections) {
    return Status::IoError("corrupt checkpoint header (tensor count)");
  }
  info.tensors.resize(num_tensors);
  for (CheckpointTensorInfo& t : info.tensors) {
    uint64_t dtype_raw = 0;
    uint32_t crc = 0;  // the section CRCs, read back by SectionCrcs
    if (!in.GetString(&t.name)) {
      return Status::IoError("truncated checkpoint header");
    }
    t.fields_offset = kFixedHead + in.at;
    if (!in.Get(&dtype_raw) || !in.Get(&t.rows) || !in.Get(&t.cols) ||
        !in.Get(&t.payload_offset) || !in.Get(&t.payload_size) ||
        !in.Get(&t.quant_offset) || !in.Get(&t.quant_size) ||
        !in.Get(&crc) || !in.Get(&crc)) {
      return Status::IoError("truncated checkpoint header");
    }
    if (dtype_raw > static_cast<uint64_t>(EmbeddingDtype::kInt16)) {
      return Status::IoError("unknown tensor dtype in checkpoint");
    }
    t.dtype = static_cast<EmbeddingDtype>(dtype_raw);
  }
  if (in.remaining() != 0) {
    return Status::IoError("corrupt checkpoint header (trailing bytes)");
  }
  return info;
}

/// Reads the per-section CRCs back out of the (already parsed) header blob.
void SectionCrcs(const unsigned char* data, const CheckpointTensorInfo& t,
                 uint32_t* payload_crc, uint32_t* quant_crc) {
  // The two CRCs trail the seven u64 fields of the entry.
  const unsigned char* p = data + t.fields_offset + 7 * 8;
  std::memcpy(payload_crc, p, sizeof(uint32_t));
  std::memcpy(quant_crc, p + sizeof(uint32_t), sizeof(uint32_t));
}

/// The SIGBUS guard of the mmap path: every section's offset, size and
/// alignment is checked against the actual file length (as mapped) before
/// any payload byte is dereferenced. Descriptive IoErrors, never UB.
Status ValidateV3Directory(const CheckpointInfo& info, size_t file_size) {
  const uint64_t payload_end = file_size - sizeof(uint32_t);  // trailer CRC
  for (const CheckpointTensorInfo& t : info.tensors) {
    if (t.rows == 0 || t.cols == 0) {
      return Status::IoError("zero-row tensor section '" + t.name +
                             "' in checkpoint");
    }
    const uint64_t elem = EmbeddingDtypeBytes(t.dtype);
    if (t.cols > UINT64_MAX / t.rows || t.rows * t.cols > UINT64_MAX / elem) {
      return Status::IoError("tensor section '" + t.name +
                             "' size overflows");
    }
    if (t.payload_size != t.rows * t.cols * elem) {
      return Status::IoError("tensor section '" + t.name +
                             "' size mismatch");
    }
    if (t.payload_offset % kSectionAlign != 0) {
      return Status::IoError("misaligned tensor section '" + t.name + "'");
    }
    if (t.name == "entities" && t.payload_offset % kPageAlign != 0) {
      return Status::IoError(
          "entity section is not page-aligned (corrupt checkpoint header)");
    }
    if (t.payload_offset > payload_end ||
        t.payload_size > payload_end - t.payload_offset) {
      return Status::IoError(
          "tensor section '" + t.name +
          "' out of bounds (truncated or corrupted checkpoint)");
    }
    if (t.dtype == EmbeddingDtype::kFloat32) {
      if (t.quant_size != 0) {
        return Status::IoError("float tensor section '" + t.name +
                               "' carries quantization parameters");
      }
    } else {
      if (t.quant_size != 2 * t.rows * sizeof(float)) {
        return Status::IoError("quantization parameter block of '" + t.name +
                               "' has the wrong size");
      }
      if (t.quant_offset % kSectionAlign != 0) {
        return Status::IoError("misaligned quantization parameters of '" +
                               t.name + "'");
      }
      if (t.quant_offset > payload_end ||
          t.quant_size > payload_end - t.quant_offset) {
        return Status::IoError(
            "quantization parameters of '" + t.name +
            "' out of bounds (truncated or corrupted checkpoint)");
      }
    }
  }
  return Status::OK();
}

/// Owned storage backing a QuantizedTable for ram-backend loads of a
/// quantized checkpoint (the view's keepalive holds this struct).
struct OwnedQuantStorage {
  std::vector<unsigned char> codes;
  std::vector<float> params;  // rows scales then rows zero-points
};

/// Materializes a model from a validated v3 file image. `zero_copy` is the
/// mmap backend: the entity section (float or quantized) is attached as a
/// read-only view into `data`, kept alive by `keepalive`; everything else
/// is copied.
Result<LoadedModel> BuildFromV3(const CheckpointInfo& info,
                                const unsigned char* data, bool zero_copy,
                                std::shared_ptr<const void> keepalive) {
  KGFD_ASSIGN_OR_RETURN(ModelKind kind, ModelKindFromName(info.model_name));
  KGFD_ASSIGN_OR_RETURN(auto model,
                        CreateModelUninitialized(kind, info.config));
  std::vector<NamedTensor> params = model->Parameters();
  if (info.tensors.size() != params.size()) {
    return Status::IoError("checkpoint parameter count mismatch");
  }
  for (size_t i = 0; i < params.size(); ++i) {
    NamedTensor& p = params[i];
    const CheckpointTensorInfo& t = info.tensors[i];
    if (t.name != p.name) {
      return Status::IoError("checkpoint tensor mismatch for " + p.name);
    }
    if (t.dtype == EmbeddingDtype::kFloat32) {
      if (t.rows != p.tensor->rows() || t.cols != p.tensor->cols()) {
        return Status::IoError("checkpoint tensor mismatch for " + p.name);
      }
      const float* src =
          reinterpret_cast<const float*>(data + t.payload_offset);
      if (zero_copy && t.name == "entities") {
        p.tensor->SetExternal(src, t.rows, t.cols);
      } else {
        std::memcpy(p.tensor->data().data(), src, t.payload_size);
      }
      continue;
    }
    // Quantized section: only the entity table of the kernel-backed pair
    // models may be quantized.
    if (t.name != "entities") {
      return Status::IoError("quantized tensor section '" + t.name +
                             "' (only the entity table may be quantized)");
    }
    if (!SupportsQuantizedEntities(kind)) {
      return Status::IoError(
          "quantized checkpoint for model " + info.model_name +
          " is not supported (TransE/DistMult/ComplEx only)");
    }
    if (t.rows != info.config.num_entities ||
        t.cols != info.config.embedding_dim) {
      return Status::IoError("checkpoint tensor mismatch for " + p.name);
    }
    auto* pair = static_cast<PairEmbeddingModel*>(model.get());
    if (zero_copy) {
      const float* qparams =
          reinterpret_cast<const float*>(data + t.quant_offset);
      pair->AttachQuantizedEntities(QuantizedTable::View(
          t.dtype, data + t.payload_offset, qparams, qparams + t.rows,
          t.rows, t.cols, keepalive));
    } else {
      auto owned = std::make_shared<OwnedQuantStorage>();
      owned->codes.resize(t.payload_size);
      std::memcpy(owned->codes.data(), data + t.payload_offset,
                  t.payload_size);
      owned->params.resize(2 * t.rows);
      std::memcpy(owned->params.data(), data + t.quant_offset, t.quant_size);
      const unsigned char* codes = owned->codes.data();
      const float* scales = owned->params.data();
      pair->AttachQuantizedEntities(
          QuantizedTable::View(t.dtype, codes, scales, scales + t.rows,
                               t.rows, t.cols, std::move(owned)));
    }
  }
  if (zero_copy) model->AttachStorageKeepalive(std::move(keepalive));
  LoadedModel loaded;
  loaded.model = std::move(model);
  loaded.config = info.config;
  return loaded;
}

/// Ram-backend load: read the whole file, verify its head and trailer CRC,
/// then parse. Nothing past the CRC check ever parses unchecksummed bytes.
Result<LoadedModel> LoadRam(const std::string& path) {
  KGFD_ASSIGN_OR_RETURN(const std::string data, ReadWholeFile(path));
  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  KGFD_RETURN_NOT_OK(CheckHead(bytes, data.size(), path));
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, data.data() + data.size() - sizeof(uint32_t),
              sizeof(uint32_t));
  if (stored_crc != Crc32(data.data(), data.size() - sizeof(uint32_t))) {
    return Status::IoError(
        "checkpoint checksum mismatch (truncated or corrupted): " + path);
  }
  KGFD_ASSIGN_OR_RETURN(CheckpointInfo info,
                        ParseV3Header(bytes, data.size()));
  KGFD_RETURN_NOT_OK(ValidateV3Directory(info, data.size()));
  return BuildFromV3(info, bytes, /*zero_copy=*/false, nullptr);
}

/// Mmap-backend load. Default integrity is the header CRC plus directory
/// bounds/alignment validation — cold start is O(header), payload pages
/// fault in on first use. `verify_mapped_payload` restores full ram-load
/// integrity (per-section CRCs + whole-file trailer) at the cost of
/// touching every page.
Result<LoadedModel> LoadMmap(const std::string& path,
                             bool verify_mapped_payload) {
  KGFD_ASSIGN_OR_RETURN(MmapFile file, MmapFile::Open(path));
  KGFD_RETURN_NOT_OK(CheckHead(file.data(), file.size(), path));
  KGFD_ASSIGN_OR_RETURN(CheckpointInfo info,
                        ParseV3Header(file.data(), file.size()));
  KGFD_RETURN_NOT_OK(ValidateV3Directory(info, file.size()));
  if (verify_mapped_payload) {
    uint32_t stored_crc = 0;
    std::memcpy(&stored_crc, file.data() + file.size() - sizeof(uint32_t),
                sizeof(uint32_t));
    if (stored_crc != Crc32(file.data(), file.size() - sizeof(uint32_t))) {
      return Status::IoError(
          "checkpoint checksum mismatch (truncated or corrupted): " + path);
    }
    for (const CheckpointTensorInfo& t : info.tensors) {
      uint32_t payload_crc = 0, quant_crc = 0;
      SectionCrcs(file.data(), t, &payload_crc, &quant_crc);
      if (payload_crc != Crc32(file.data() + t.payload_offset,
                               t.payload_size)) {
        return Status::IoError("tensor section '" + t.name +
                               "' checksum mismatch: " + path);
      }
      if (t.quant_size != 0 &&
          quant_crc != Crc32(file.data() + t.quant_offset, t.quant_size)) {
        return Status::IoError("quantization parameters of '" + t.name +
                               "' checksum mismatch: " + path);
      }
    }
  }
  for (const CheckpointTensorInfo& t : info.tensors) {
    if (t.name == "entities") {
      file.AdviseSequential(t.payload_offset, t.payload_size);
    }
  }
  auto keepalive = std::make_shared<MmapFile>(std::move(file));
  const unsigned char* data = keepalive->data();
  return BuildFromV3(info, data, /*zero_copy=*/true, std::move(keepalive));
}

}  // namespace

Status SaveModel(Model* model, const ModelConfig& config,
                 const std::string& path) {
  KGFD_FAIL_POINT(kFailPointCheckpointSave);
  std::vector<SectionSpec> sections;
  for (const NamedTensor& p : model->Parameters()) {
    SectionSpec s;
    s.name = p.name;
    const QuantizedTable* qt = model->quantized_entities();
    if (p.name == "entities" && qt != nullptr) {
      s.dtype = qt->dtype();
      s.rows = qt->rows();
      s.cols = qt->cols();
      s.payload = qt->data();
      s.scales = qt->scales();
      s.zero_points = qt->zero_points();
    } else {
      s.rows = p.tensor->rows();
      s.cols = p.tensor->cols();
      s.payload = p.tensor->flat();
    }
    sections.push_back(s);
  }
  return WriteV3(model->name(), config, sections, path);
}

Status SaveQuantizedModel(Model* model, const ModelConfig& config,
                          EmbeddingDtype dtype, const std::string& path) {
  KGFD_FAIL_POINT(kFailPointCheckpointSave);
  if (dtype == EmbeddingDtype::kFloat32) {
    return Status::InvalidArgument(
        "quantized save needs dtype int8 or int16 (use SaveModel for "
        "float32)");
  }
  if (!SupportsQuantizedEntities(model->kind())) {
    return Status::InvalidArgument(
        "quantized entity storage supports TransE/DistMult/ComplEx only "
        "(got " + model->name() + ")");
  }
  const QuantizedTable* existing = model->quantized_entities();
  if (existing != nullptr) {
    if (existing->dtype() != dtype) {
      return Status::InvalidArgument(
          "model is already quantized as " +
          std::string(EmbeddingDtypeName(existing->dtype())) +
          "; re-quantizing to " + EmbeddingDtypeName(dtype) +
          " must start from the float checkpoint");
    }
    return SaveModel(model, config, path);
  }
  QuantizedTable table;
  std::vector<SectionSpec> sections;
  for (const NamedTensor& p : model->Parameters()) {
    SectionSpec s;
    s.name = p.name;
    if (p.name == "entities") {
      table = QuantizedTable::Quantize(*p.tensor, dtype);
      s.dtype = dtype;
      s.rows = table.rows();
      s.cols = table.cols();
      s.payload = table.data();
      s.scales = table.scales();
      s.zero_points = table.zero_points();
    } else {
      s.rows = p.tensor->rows();
      s.cols = p.tensor->cols();
      s.payload = p.tensor->flat();
    }
    sections.push_back(s);
  }
  return WriteV3(model->name(), config, sections, path);
}

Result<std::unique_ptr<Model>> LoadModel(const std::string& path) {
  CheckpointLoadOptions options;
  KGFD_ASSIGN_OR_RETURN(options.backend, EmbeddingBackendFromEnv());
  options.verify_mapped_payload = MmapVerifyFromEnv();
  return LoadModel(path, options);
}

Result<std::unique_ptr<Model>> LoadModel(
    const std::string& path, const CheckpointLoadOptions& options) {
  KGFD_ASSIGN_OR_RETURN(LoadedModel loaded,
                        LoadModelWithConfig(path, options));
  return std::move(loaded.model);
}

Result<LoadedModel> LoadModelWithConfig(const std::string& path,
                                        const CheckpointLoadOptions& options) {
  KGFD_FAIL_POINT(kFailPointCheckpointLoad);
  if (options.backend == EmbeddingBackend::kMmap) {
    return LoadMmap(path, options.verify_mapped_payload);
  }
  return LoadRam(path);
}

Result<CheckpointInfo> InspectCheckpoint(const std::string& path) {
  KGFD_ASSIGN_OR_RETURN(const std::string data, ReadWholeFile(path));
  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  KGFD_RETURN_NOT_OK(CheckHead(bytes, data.size(), path));
  KGFD_ASSIGN_OR_RETURN(CheckpointInfo info,
                        ParseV3Header(bytes, data.size()));
  KGFD_RETURN_NOT_OK(ValidateV3Directory(info, data.size()));
  return info;
}

}  // namespace kgfd
