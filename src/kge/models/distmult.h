#ifndef KGFD_KGE_MODELS_DISTMULT_H_
#define KGFD_KGE_MODELS_DISTMULT_H_

#include "kge/models/pair_embedding_model.h"

namespace kgfd {

/// DistMult (Yang et al. 2014): f(s, r, o) = s^T diag(r) o — RESCAL with a
/// diagonal relation matrix, hence symmetric in s and o.
class DistMultModel : public PairEmbeddingModel {
 public:
  explicit DistMultModel(const ModelConfig& config)
      : PairEmbeddingModel(config, config.embedding_dim) {}

  ModelKind kind() const override { return ModelKind::kDistMult; }
  double Score(const Triple& t) const override;
  void ScoreObjectsBatch(const SideQuery* queries, size_t num_queries,
                         std::vector<double>* const* outs) const override;
  void ScoreSubjectsBatch(const SideQuery* queries, size_t num_queries,
                          std::vector<double>* const* outs) const override;
  void AccumulateScoreGradient(const Triple& t, double dscore,
                               GradientBatch* grads) override;
};

}  // namespace kgfd

#endif  // KGFD_KGE_MODELS_DISTMULT_H_
