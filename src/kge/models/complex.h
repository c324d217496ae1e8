#ifndef KGFD_KGE_MODELS_COMPLEX_H_
#define KGFD_KGE_MODELS_COMPLEX_H_

#include "kge/models/pair_embedding_model.h"

namespace kgfd {

/// ComplEx (Trouillon et al. 2016): f(s, r, o) = Re(<s, r, conj(o)>) over
/// complex embeddings. Rows store [real_0..real_{l/2-1}, imag_0..imag_{l/2-1}];
/// `embedding_dim` counts real scalars, so the complex rank is dim / 2.
/// The asymmetric Hermitian product lets ComplEx model non-symmetric
/// relations that defeat DistMult.
class ComplExModel : public PairEmbeddingModel {
 public:
  /// InvalidArgument unless `config` can parameterize a ComplEx model
  /// (embedding_dim must be even: rows are real halves followed by
  /// imaginary halves). Must pass before constructing; the constructor
  /// assumes a validated config. CreateModel and LoadModel call this and
  /// surface the Status instead of aborting.
  static Status ValidateConfig(const ModelConfig& config);

  /// Requires ValidateConfig(config).ok().
  explicit ComplExModel(const ModelConfig& config);

  ModelKind kind() const override { return ModelKind::kComplEx; }
  double Score(const Triple& t) const override;
  void ScoreObjectsBatch(const SideQuery* queries, size_t num_queries,
                         std::vector<double>* const* outs) const override;
  void ScoreSubjectsBatch(const SideQuery* queries, size_t num_queries,
                          std::vector<double>* const* outs) const override;
  void AccumulateScoreGradient(const Triple& t, double dscore,
                               GradientBatch* grads) override;

 private:
  /// Scores w = entity * relation (complex product, the relation's
  /// imaginary half times imag_sign) against every entity.
  void ScoreBatch(const SideQuery* queries, size_t num_queries,
                  std::vector<double>* const* outs, double imag_sign) const;

  size_t half_;  // complex rank = dim / 2
};

}  // namespace kgfd

#endif  // KGFD_KGE_MODELS_COMPLEX_H_
