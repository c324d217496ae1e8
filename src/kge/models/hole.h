#ifndef KGFD_KGE_MODELS_HOLE_H_
#define KGFD_KGE_MODELS_HOLE_H_

#include "kge/models/pair_embedding_model.h"

namespace kgfd {

/// HolE (Nickel et al. 2016): f(s, r, o) = r^T (s ⋆ o) where ⋆ is circular
/// correlation, (s ⋆ o)_k = Σ_i s_i o_{(i+k) mod l}. Equivalent in
/// expressiveness to ComplEx. Implemented as the direct O(l²) correlation —
/// at the embedding widths used here that beats an FFT round-trip and keeps
/// the gradients transparent.
class HolEModel : public PairEmbeddingModel {
 public:
  explicit HolEModel(const ModelConfig& config)
      : PairEmbeddingModel(config, config.embedding_dim) {}

  ModelKind kind() const override { return ModelKind::kHolE; }
  double Score(const Triple& t) const override;
  void ScoreObjectsBatch(const SideQuery* queries, size_t num_queries,
                         std::vector<double>* const* outs) const override;
  void ScoreSubjectsBatch(const SideQuery* queries, size_t num_queries,
                          std::vector<double>* const* outs) const override;
  void AccumulateScoreGradient(const Triple& t, double dscore,
                               GradientBatch* grads) override;
};

}  // namespace kgfd

#endif  // KGFD_KGE_MODELS_HOLE_H_
