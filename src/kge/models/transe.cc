#include "kge/models/transe.h"

#include <cmath>

#include "kge/kernels.h"
#include "kge/models/query_prep.h"

namespace kgfd {

TransEModel::TransEModel(const ModelConfig& config)
    : PairEmbeddingModel(config, config.embedding_dim),
      norm_(config.transe_norm) {}

double TransEModel::Score(const Triple& t) const {
  thread_local std::vector<float> sbuf, obuf;
  const float* s = EntityRow(t.subject, &sbuf);
  const float* r = relations_.Row(t.relation);
  const float* o = EntityRow(t.object, &obuf);
  double acc = 0.0;
  if (norm_ == 1) {
    for (size_t i = 0; i < dim_; ++i) {
      acc += std::fabs(static_cast<double>(s[i]) + r[i] - o[i]);
    }
    return -acc;
  }
  for (size_t i = 0; i < dim_; ++i) {
    const double d = static_cast<double>(s[i]) + r[i] - o[i];
    acc += d * d;
  }
  return -std::sqrt(acc);
}

// Both corruption sides reduce to a distance-to-one-target kernel: objects
// rank against q = s + r (score -||q - o'||), subjects against q = o - r
// (score -||s' - q||, and ||s' - q|| == ||q - s'|| exactly in IEEE
// arithmetic, so one kernel serves both sides bit-identically). o - r is
// computed as o + (-1 * r), which IEEE arithmetic rounds to the same value.

void TransEModel::ScoreBatch(const SideQuery* queries, size_t num_queries,
                             std::vector<double>* const* outs,
                             double relation_sign) const {
  QueryPrep prep(num_queries, dim_, num_entities(), outs);
  std::vector<float> ebuf;
  for (size_t q = 0; q < num_queries; ++q) {
    const float* ev = EntityRow(queries[q].entity, &ebuf);
    const float* rv = relations_.Row(queries[q].relation);
    double* dst = prep.query(q);
    for (size_t i = 0; i < dim_; ++i) {
      dst[i] = static_cast<double>(ev[i]) + relation_sign * rv[i];
    }
  }
  const kernels::KernelOps& ops = kernels::ActiveKernels();
  (norm_ == 1 ? ops.l1_scores : ops.l2_scores)(
      EntityOperand(), num_entities(), dim_, prep.qs(), num_queries,
      prep.outs());
}

void TransEModel::ScoreObjectsBatch(const SideQuery* queries,
                                    size_t num_queries,
                                    std::vector<double>* const* outs) const {
  ScoreBatch(queries, num_queries, outs, 1.0);
}

void TransEModel::ScoreSubjectsBatch(const SideQuery* queries,
                                     size_t num_queries,
                                     std::vector<double>* const* outs) const {
  ScoreBatch(queries, num_queries, outs, -1.0);
}

void TransEModel::AccumulateScoreGradient(const Triple& t, double dscore,
                                          GradientBatch* grads) {
  const float* s = entities_.Row(t.subject);
  const float* r = relations_.Row(t.relation);
  const float* o = entities_.Row(t.object);
  float* gs = grads->RowGrad(&entities_, t.subject);
  float* gr = grads->RowGrad(&relations_, t.relation);
  float* go = grads->RowGrad(&entities_, t.object);

  if (norm_ == 1) {
    // d(-||d||_1)/dd_i = -sign(d_i); subgradient 0 at d_i == 0.
    for (size_t i = 0; i < dim_; ++i) {
      const double d = static_cast<double>(s[i]) + r[i] - o[i];
      const double sign = d > 0.0 ? 1.0 : (d < 0.0 ? -1.0 : 0.0);
      const float g = static_cast<float>(-sign * dscore);
      gs[i] += g;
      gr[i] += g;
      go[i] -= g;
    }
    return;
  }
  double norm = 0.0;
  for (size_t i = 0; i < dim_; ++i) {
    const double d = static_cast<double>(s[i]) + r[i] - o[i];
    norm += d * d;
  }
  norm = std::sqrt(norm);
  if (norm < 1e-12) return;  // gradient undefined at the origin
  for (size_t i = 0; i < dim_; ++i) {
    const double d = static_cast<double>(s[i]) + r[i] - o[i];
    const float g = static_cast<float>(-(d / norm) * dscore);
    gs[i] += g;
    gr[i] += g;
    go[i] -= g;
  }
}

}  // namespace kgfd
