#ifndef KGFD_KGE_MODELS_RESCAL_H_
#define KGFD_KGE_MODELS_RESCAL_H_

#include "kge/models/pair_embedding_model.h"

namespace kgfd {

/// RESCAL (Nickel et al. 2011): f(s, r, o) = s^T R_r o with a full dim x dim
/// matrix per relation (stored row-major in the relation table's rows). The
/// most expressive — and most parameter-hungry — of the bilinear family.
class RescalModel : public PairEmbeddingModel {
 public:
  explicit RescalModel(const ModelConfig& config)
      : PairEmbeddingModel(config,
                           config.embedding_dim * config.embedding_dim) {}

  ModelKind kind() const override { return ModelKind::kRescal; }
  double Score(const Triple& t) const override;
  void ScoreObjectsBatch(const SideQuery* queries, size_t num_queries,
                         std::vector<double>* const* outs) const override;
  void ScoreSubjectsBatch(const SideQuery* queries, size_t num_queries,
                          std::vector<double>* const* outs) const override;
  void AccumulateScoreGradient(const Triple& t, double dscore,
                               GradientBatch* grads) override;
};

}  // namespace kgfd

#endif  // KGFD_KGE_MODELS_RESCAL_H_
