#include "kge/models/rescal.h"

#include <algorithm>

namespace kgfd {

double RescalModel::Score(const Triple& t) const {
  const float* s = entities_.Row(t.subject);
  const float* R = relations_.Row(t.relation);
  const float* o = entities_.Row(t.object);
  double acc = 0.0;
  for (size_t i = 0; i < dim_; ++i) {
    double row = 0.0;
    const float* Ri = R + i * dim_;
    for (size_t j = 0; j < dim_; ++j) row += static_cast<double>(Ri[j]) * o[j];
    acc += static_cast<double>(s[i]) * row;
  }
  return acc;
}

void RescalModel::ScoreObjectsBatch(const SideQuery* queries,
                                    size_t num_queries,
                                    std::vector<double>* const* outs) const {
  std::vector<double> w(dim_);
  for (size_t q = 0; q < num_queries; ++q) {
    const float* sv = entities_.Row(queries[q].entity);
    const float* R = relations_.Row(queries[q].relation);
    // w = s^T R, then score(o) = <w, o>.
    std::fill(w.begin(), w.end(), 0.0);
    for (size_t i = 0; i < dim_; ++i) {
      const double si = sv[i];
      const float* Ri = R + i * dim_;
      for (size_t j = 0; j < dim_; ++j) w[j] += si * Ri[j];
    }
    std::vector<double>& out = *outs[q];
    out.resize(num_entities());
    for (EntityId e = 0; e < num_entities(); ++e) {
      const float* ov = entities_.Row(e);
      double acc = 0.0;
      for (size_t j = 0; j < dim_; ++j) acc += w[j] * ov[j];
      out[e] = acc;
    }
  }
}

void RescalModel::ScoreSubjectsBatch(const SideQuery* queries,
                                     size_t num_queries,
                                     std::vector<double>* const* outs) const {
  std::vector<double> u(dim_);
  for (size_t q = 0; q < num_queries; ++q) {
    const float* R = relations_.Row(queries[q].relation);
    const float* ov = entities_.Row(queries[q].entity);
    // u = R o, then score(s) = <s, u>.
    for (size_t i = 0; i < dim_; ++i) {
      const float* Ri = R + i * dim_;
      double acc = 0.0;
      for (size_t j = 0; j < dim_; ++j) {
        acc += static_cast<double>(Ri[j]) * ov[j];
      }
      u[i] = acc;
    }
    std::vector<double>& out = *outs[q];
    out.resize(num_entities());
    for (EntityId e = 0; e < num_entities(); ++e) {
      const float* sv = entities_.Row(e);
      double acc = 0.0;
      for (size_t i = 0; i < dim_; ++i) acc += u[i] * sv[i];
      out[e] = acc;
    }
  }
}

void RescalModel::AccumulateScoreGradient(const Triple& t, double dscore,
                                          GradientBatch* grads) {
  const float* s = entities_.Row(t.subject);
  const float* R = relations_.Row(t.relation);
  const float* o = entities_.Row(t.object);
  float* gs = grads->RowGrad(&entities_, t.subject);
  float* go = grads->RowGrad(&entities_, t.object);
  float* gR = grads->RowGrad(&relations_, t.relation);
  for (size_t i = 0; i < dim_; ++i) {
    const float* Ri = R + i * dim_;
    float* gRi = gR + i * dim_;
    double row = 0.0;
    const double si = s[i];
    for (size_t j = 0; j < dim_; ++j) {
      row += static_cast<double>(Ri[j]) * o[j];
      // dScore/dR_ij = s_i * o_j
      gRi[j] += static_cast<float>(dscore * si * o[j]);
      // dScore/do_j += s_i * R_ij
      go[j] += static_cast<float>(dscore * si * Ri[j]);
    }
    // dScore/ds_i = (R o)_i
    gs[i] += static_cast<float>(dscore * row);
  }
}

}  // namespace kgfd
