#ifndef KGFD_KGE_MODELS_TRANSE_H_
#define KGFD_KGE_MODELS_TRANSE_H_

#include "kge/models/pair_embedding_model.h"

namespace kgfd {

/// TransE (Bordes et al. 2013): f(s, r, o) = -||s + r - o||_p with p in
/// {1, 2}. Relations are translations; the closer s + r lands to o the more
/// plausible the triple.
class TransEModel : public PairEmbeddingModel {
 public:
  explicit TransEModel(const ModelConfig& config);

  ModelKind kind() const override { return ModelKind::kTransE; }
  double Score(const Triple& t) const override;
  void ScoreObjectsBatch(const SideQuery* queries, size_t num_queries,
                         std::vector<double>* const* outs) const override;
  void ScoreSubjectsBatch(const SideQuery* queries, size_t num_queries,
                          std::vector<double>* const* outs) const override;
  void AccumulateScoreGradient(const Triple& t, double dscore,
                               GradientBatch* grads) override;

  int norm() const { return norm_; }

 private:
  /// Scores q = entity + relation_sign * relation against every entity.
  void ScoreBatch(const SideQuery* queries, size_t num_queries,
                  std::vector<double>* const* outs,
                  double relation_sign) const;

  int norm_;
};

}  // namespace kgfd

#endif  // KGFD_KGE_MODELS_TRANSE_H_
