#ifndef KGFD_KGE_CHECKPOINT_H_
#define KGFD_KGE_CHECKPOINT_H_

#include <memory>
#include <string>
#include <vector>

#include "kge/embedding_store.h"
#include "kge/model.h"
#include "util/status.h"

namespace kgfd {

/// How LoadModel materializes a checkpoint. Default-constructed options
/// reproduce the historical behaviour: everything copied into RAM.
struct CheckpointLoadOptions {
  EmbeddingBackend backend = EmbeddingBackend::kRam;
  /// Mmap loads only verify the header CRC by default (cold start stays
  /// O(header)). With this set they additionally CRC-check every mapped
  /// payload and the whole-file trailer — full ram-load integrity. Set
  /// from KGFD_MMAP_VERIFY by the env-resolving LoadModel overload.
  bool verify_mapped_payload = false;
};

/// A loaded model together with the architecture config the checkpoint
/// embeds (tools that re-save a model need the config back).
struct LoadedModel {
  std::unique_ptr<Model> model;
  ModelConfig config;
};

/// Directory entry of one tensor section in a v3 checkpoint.
struct CheckpointTensorInfo {
  std::string name;
  EmbeddingDtype dtype = EmbeddingDtype::kFloat32;
  uint64_t rows = 0;
  uint64_t cols = 0;
  uint64_t payload_offset = 0;
  uint64_t payload_size = 0;
  /// Per-row quantization parameters (rows scales then rows zero-points,
  /// all float). Zero for float sections.
  uint64_t quant_offset = 0;
  uint64_t quant_size = 0;
  /// File offset of this entry's fixed fields (the dtype u64, right after
  /// the name string) — lets tests and tools patch directory fields
  /// without re-deriving the layout.
  uint64_t fields_offset = 0;
};

/// Parsed checkpoint metadata (no payloads).
struct CheckpointInfo {
  uint32_t version = 0;
  std::string model_name;
  ModelConfig config;
  /// Header blob size in bytes (the header CRC sits at file offset
  /// 20 + header_size).
  uint64_t header_size = 0;
  std::vector<CheckpointTensorInfo> tensors;
};

/// Serializes a trained model to a self-describing little-endian binary
/// file (format v3): a CRC-guarded header with a tensor directory, a zero
/// pad to the next 4096-byte boundary, 64-byte-aligned tensor payloads
/// with the entity table first (page-aligned, so mmap loads attach it
/// zero-copy), and a whole-file CRC-32 trailer. Round-trips bit-exactly.
Status SaveModel(Model* model, const ModelConfig& config,
                 const std::string& path);

/// Saves `model` with its entity table quantized per row to int8/int16
/// codes plus affine parameters (see QuantizedTable). Only the
/// kernel-backed pair models (TransE/DistMult/ComplEx) support quantized
/// entity storage. All other tensors stay float.
Status SaveQuantizedModel(Model* model, const ModelConfig& config,
                          EmbeddingDtype dtype, const std::string& path);

/// Restores a model saved by SaveModel. The embedded config reconstructs
/// the architecture; no external metadata is needed. This overload
/// resolves the backend from KGFD_EMBEDDING_BACKEND and full-verify mode
/// from KGFD_MMAP_VERIFY.
Result<std::unique_ptr<Model>> LoadModel(const std::string& path);

/// LoadModel with an explicit backend choice. Checkpoints older than v3
/// are refused with an "unsupported checkpoint version" IoError.
Result<std::unique_ptr<Model>> LoadModel(const std::string& path,
                                         const CheckpointLoadOptions& options);

/// LoadModel variant that also returns the embedded ModelConfig.
Result<LoadedModel> LoadModelWithConfig(const std::string& path,
                                        const CheckpointLoadOptions& options);

/// Reads and validates checkpoint metadata without materializing a model.
Result<CheckpointInfo> InspectCheckpoint(const std::string& path);

}  // namespace kgfd

#endif  // KGFD_KGE_CHECKPOINT_H_
