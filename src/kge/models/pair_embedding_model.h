#ifndef KGFD_KGE_MODELS_PAIR_EMBEDDING_MODEL_H_
#define KGFD_KGE_MODELS_PAIR_EMBEDDING_MODEL_H_

#include <utility>
#include <vector>

#include "kge/embedding_store.h"
#include "kge/model.h"

namespace kgfd {

/// Shared storage/plumbing for models whose parameters are exactly one
/// entity table and one relation table (TransE, DistMult, ComplEx, HolE,
/// RESCAL — the latter with dim^2-wide relation rows).
///
/// The entity table has two storage modes: the float Tensor (owned heap
/// data, or a read-only view into an mmap'd checkpoint — see
/// Tensor::SetExternal), or a quantized table attached by the checkpoint
/// loader (AttachQuantizedEntities). Quantized mode is scoring-only: the
/// entities Tensor is released, so anything that needs float parameters
/// (training, SaveModel, embedding analysis) must check quantized() first.
class PairEmbeddingModel : public Model {
 public:
  size_t num_entities() const override {
    return quantized() ? qentities_.rows() : entities_.rows();
  }
  size_t num_relations() const override { return relations_.rows(); }
  size_t embedding_dim() const override { return dim_; }

  std::vector<NamedTensor> Parameters() override {
    return {{"entities", &entities_}, {"relations", &relations_}};
  }

  void InitParameters(Rng* rng) override {
    entities_.InitXavierUniform(rng, dim_, dim_);
    relations_.InitXavierUniform(rng, relations_.cols(), relations_.cols());
  }

  bool quantized() const { return !qentities_.empty(); }

  const QuantizedTable* quantized_entities() const override {
    return quantized() ? &qentities_ : nullptr;
  }

  uint64_t StorageFingerprint() const override {
    return quantized() ? qentities_.Fingerprint() : 0;
  }

  /// Switches the entity table to quantized storage (checkpoint loader
  /// only; the loader restricts this to the kernel-backed models). The
  /// float entities tensor is released.
  void AttachQuantizedEntities(QuantizedTable table) {
    qentities_ = std::move(table);
    entities_ = Tensor();
  }

  const Tensor& entities() const { return entities_; }
  const Tensor& relations() const { return relations_; }

 protected:
  PairEmbeddingModel(const ModelConfig& config, size_t relation_cols)
      : dim_(config.embedding_dim),
        entities_(config.num_entities, config.embedding_dim),
        relations_(config.num_relations, relation_cols) {}

  /// The entity table as the batch kernels' operand: the float rows, or
  /// the quantized codes with their per-row parameters.
  kernels::EntityTable EntityOperand() const {
    return quantized() ? qentities_.KernelTable()
                       : kernels::EntityTable{entities_.flat()};
  }

  /// Entity row as floats regardless of storage mode: a direct pointer
  /// for float storage, or the row dequantized into `scratch` (resized to
  /// dim_) for quantized storage. Scalar Score()/query-prep helper — the
  /// batch hot path hands the whole table to the kernels instead.
  const float* EntityRow(size_t e, std::vector<float>* scratch) const {
    if (!quantized()) return entities_.Row(e);
    scratch->resize(dim_);
    qentities_.DequantizeRow(e, scratch->data());
    return scratch->data();
  }

  size_t dim_;
  Tensor entities_;
  Tensor relations_;
  QuantizedTable qentities_;
};

}  // namespace kgfd

#endif  // KGFD_KGE_MODELS_PAIR_EMBEDDING_MODEL_H_
