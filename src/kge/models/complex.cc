#include "kge/models/complex.h"

#include "kge/kernels.h"
#include "kge/models/query_prep.h"

namespace kgfd {

Status ComplExModel::ValidateConfig(const ModelConfig& config) {
  if (config.embedding_dim % 2 != 0) {
    return Status::InvalidArgument(
        "ComplEx needs an even embedding_dim (got " +
        std::to_string(config.embedding_dim) +
        "): rows store real and imaginary halves of dim/2 complex numbers");
  }
  return Status::OK();
}

ComplExModel::ComplExModel(const ModelConfig& config)
    : PairEmbeddingModel(config, config.embedding_dim),
      half_(config.embedding_dim / 2) {}

double ComplExModel::Score(const Triple& t) const {
  thread_local std::vector<float> sbuf, obuf;
  const float* s = EntityRow(t.subject, &sbuf);
  const float* r = relations_.Row(t.relation);
  const float* o = EntityRow(t.object, &obuf);
  const float* sr = s;
  const float* si = s + half_;
  const float* rr = r;
  const float* ri = r + half_;
  const float* orr = o;
  const float* oi = o + half_;
  double acc = 0.0;
  for (size_t k = 0; k < half_; ++k) {
    acc += static_cast<double>(sr[k]) * rr[k] * orr[k] +
           static_cast<double>(si[k]) * rr[k] * oi[k] +
           static_cast<double>(sr[k]) * ri[k] * oi[k] -
           static_cast<double>(si[k]) * ri[k] * orr[k];
  }
  return acc;
}

// Both corruption sides factor into one paired-dot kernel pass against a
// per-query complex vector, stored as [real half | imaginary half]:
// objects use w = s * r (complex product), subjects use u = o * conj(r) —
// the same product with the relation's imaginary half negated. IEEE
// products commute and x - (-y) rounds like x + y, so u bit-equals the
// textbook u_r = rr*or + ri*oi, u_i = rr*oi - ri*or.

void ComplExModel::ScoreBatch(const SideQuery* queries, size_t num_queries,
                              std::vector<double>* const* outs,
                              double imag_sign) const {
  QueryPrep prep(num_queries, dim_, num_entities(), outs);
  std::vector<float> ebuf;
  for (size_t q = 0; q < num_queries; ++q) {
    const float* ev = EntityRow(queries[q].entity, &ebuf);
    const float* rv = relations_.Row(queries[q].relation);
    double* wr = prep.query(q);
    double* wi = wr + half_;
    for (size_t k = 0; k < half_; ++k) {
      const double er = ev[k], ei = ev[half_ + k];
      const double rr = rv[k], ri = imag_sign * rv[half_ + k];
      wr[k] = er * rr - ei * ri;
      wi[k] = ei * rr + er * ri;
    }
  }
  kernels::ActiveKernels().paired_dot_scores(EntityOperand(), num_entities(),
                                             half_, prep.qs(), num_queries,
                                             prep.outs());
}

void ComplExModel::ScoreObjectsBatch(const SideQuery* queries,
                                     size_t num_queries,
                                     std::vector<double>* const* outs) const {
  ScoreBatch(queries, num_queries, outs, 1.0);
}

void ComplExModel::ScoreSubjectsBatch(
    const SideQuery* queries, size_t num_queries,
    std::vector<double>* const* outs) const {
  ScoreBatch(queries, num_queries, outs, -1.0);
}

void ComplExModel::AccumulateScoreGradient(const Triple& t, double dscore,
                                           GradientBatch* grads) {
  const float* s = entities_.Row(t.subject);
  const float* r = relations_.Row(t.relation);
  const float* o = entities_.Row(t.object);
  float* gs = grads->RowGrad(&entities_, t.subject);
  float* gr = grads->RowGrad(&relations_, t.relation);
  float* go = grads->RowGrad(&entities_, t.object);
  for (size_t k = 0; k < half_; ++k) {
    const double sr = s[k], si = s[half_ + k];
    const double rr = r[k], ri = r[half_ + k];
    const double orr = o[k], oi = o[half_ + k];
    gs[k] += static_cast<float>(dscore * (rr * orr + ri * oi));
    gs[half_ + k] += static_cast<float>(dscore * (rr * oi - ri * orr));
    gr[k] += static_cast<float>(dscore * (sr * orr + si * oi));
    gr[half_ + k] += static_cast<float>(dscore * (sr * oi - si * orr));
    go[k] += static_cast<float>(dscore * (sr * rr - si * ri));
    go[half_ + k] += static_cast<float>(dscore * (si * rr + sr * ri));
  }
}

}  // namespace kgfd
