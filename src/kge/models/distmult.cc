#include "kge/models/distmult.h"

#include "kge/kernels.h"
#include "kge/models/query_prep.h"

namespace kgfd {

double DistMultModel::Score(const Triple& t) const {
  thread_local std::vector<float> sbuf, obuf;
  const float* s = EntityRow(t.subject, &sbuf);
  const float* r = relations_.Row(t.relation);
  const float* o = EntityRow(t.object, &obuf);
  double acc = 0.0;
  for (size_t i = 0; i < dim_; ++i) {
    acc += static_cast<double>(s[i]) * r[i] * o[i];
  }
  return acc;
}

// DistMult is bilinear and symmetric, so both corruption sides are one dot
// kernel against w = e ⊙ r, where e is the query's entity (the subject for
// objects, the object for subjects): r ⊙ o == o ⊙ r exactly in IEEE
// arithmetic, so subject scoring IS object scoring.

void DistMultModel::ScoreObjectsBatch(const SideQuery* queries,
                                      size_t num_queries,
                                      std::vector<double>* const* outs) const {
  QueryPrep prep(num_queries, dim_, num_entities(), outs);
  std::vector<float> ebuf;
  for (size_t q = 0; q < num_queries; ++q) {
    const float* ev = EntityRow(queries[q].entity, &ebuf);
    const float* rv = relations_.Row(queries[q].relation);
    double* dst = prep.query(q);
    for (size_t i = 0; i < dim_; ++i) {
      dst[i] = static_cast<double>(ev[i]) * rv[i];
    }
  }
  kernels::ActiveKernels().dot_scores(EntityOperand(), num_entities(), dim_,
                                      prep.qs(), num_queries, prep.outs());
}

void DistMultModel::ScoreSubjectsBatch(
    const SideQuery* queries, size_t num_queries,
    std::vector<double>* const* outs) const {
  ScoreObjectsBatch(queries, num_queries, outs);
}

void DistMultModel::AccumulateScoreGradient(const Triple& t, double dscore,
                                            GradientBatch* grads) {
  const float* s = entities_.Row(t.subject);
  const float* r = relations_.Row(t.relation);
  const float* o = entities_.Row(t.object);
  float* gs = grads->RowGrad(&entities_, t.subject);
  float* gr = grads->RowGrad(&relations_, t.relation);
  float* go = grads->RowGrad(&entities_, t.object);
  for (size_t i = 0; i < dim_; ++i) {
    gs[i] += static_cast<float>(dscore * r[i] * o[i]);
    gr[i] += static_cast<float>(dscore * s[i] * o[i]);
    go[i] += static_cast<float>(dscore * s[i] * r[i]);
  }
}

}  // namespace kgfd
