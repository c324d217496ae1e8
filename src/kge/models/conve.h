#ifndef KGFD_KGE_MODELS_CONVE_H_
#define KGFD_KGE_MODELS_CONVE_H_

#include <vector>

#include "kge/model.h"

namespace kgfd {

/// ConvE (Dettmers et al. 2018), simplified per DESIGN.md: the subject and
/// relation embeddings are reshaped to 2D, stacked, convolved with a bank of
/// 3x3 filters (valid padding), ReLU'd, flattened, projected back to the
/// embedding width, ReLU'd, and dotted with the object embedding plus a
/// per-entity bias. Batch-norm and dropout of the original are omitted.
///
/// Subject-side scoring uses the standard reciprocal-relations device: the
/// relation table holds 2K rows and score(s', r, o) is evaluated as the
/// object-side score of (o, r_inverse, s'). TrainingScore() averages both
/// directions so each head is trained.
class ConvEModel : public Model {
 public:
  /// InvalidArgument unless `config` can parameterize a ConvE model:
  /// conve_reshape_height >= 2 and dividing embedding_dim, reshape width
  /// (dim / height) >= 3 for the valid 3x3 convolution, and at least one
  /// filter. Must pass before constructing — the member initializers
  /// compute out_w_ = width - 2 and similar, which underflow on an invalid
  /// config. CreateModel and LoadModel call this and surface the Status
  /// instead of aborting.
  static Status ValidateConfig(const ModelConfig& config);

  /// Requires ValidateConfig(config).ok().
  explicit ConvEModel(const ModelConfig& config);

  ModelKind kind() const override { return ModelKind::kConvE; }
  size_t num_entities() const override { return entities_.rows(); }
  /// Logical relation count (the table holds 2x rows for inverses).
  size_t num_relations() const override { return relations_.rows() / 2; }
  size_t embedding_dim() const override { return dim_; }

  double Score(const Triple& t) const override;
  double TrainingScore(const Triple& t) const override;
  void ScoreObjectsBatch(const SideQuery* queries, size_t num_queries,
                         std::vector<double>* const* outs) const override;
  void ScoreSubjectsBatch(const SideQuery* queries, size_t num_queries,
                          std::vector<double>* const* outs) const override;
  void AccumulateScoreGradient(const Triple& t, double dscore,
                               GradientBatch* grads) override;

  std::vector<NamedTensor> Parameters() override;
  void InitParameters(Rng* rng) override;

 private:
  /// Activations cached by the forward pass for backprop.
  struct ForwardCache {
    std::vector<float> image;        // (2h, w) input
    std::vector<float> conv_pre;     // F x (2h-2) x (w-2) pre-activations
    std::vector<float> conv_out;     // same, after ReLU
    std::vector<float> fc_pre;       // dim pre-activations
    std::vector<float> hidden;       // dim, after ReLU
  };

  /// hidden(e_in, rel_row); fills `cache` if non-null.
  void Forward(EntityId in_entity, size_t relation_row,
               ForwardCache* cache) const;

  /// Score of `out_entity` against a precomputed hidden vector.
  double OutputScore(const std::vector<float>& hidden,
                     EntityId out_entity) const;

  /// Backprop of one direction: d(score)/d(params) for
  /// score = hidden(in, rel_row) . e_out + bias[out].
  void BackpropDirection(EntityId in_entity, size_t relation_row,
                         EntityId out_entity, double dscore,
                         GradientBatch* grads);

  size_t InverseRow(RelationId r) const { return relations_.rows() / 2 + r; }

  size_t dim_;
  size_t img_h_;       // entity reshape height
  size_t img_w_;       // entity reshape width (dim / img_h_)
  size_t num_filters_;
  size_t out_h_;       // 2*img_h_ - 2
  size_t out_w_;       // img_w_ - 2
  size_t flat_;        // num_filters_ * out_h_ * out_w_

  Tensor entities_;    // E x dim (input and output embeddings, shared)
  Tensor relations_;   // 2K x dim (forward + inverse)
  Tensor conv_w_;      // F x 9
  Tensor conv_b_;      // 1 x F
  Tensor fc_w_;        // flat_ x dim
  Tensor fc_b_;        // 1 x dim
  Tensor ent_bias_;    // E x 1
};

}  // namespace kgfd

#endif  // KGFD_KGE_MODELS_CONVE_H_
