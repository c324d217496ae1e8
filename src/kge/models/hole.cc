#include "kge/models/hole.h"

#include <algorithm>

namespace kgfd {

// Throughout: score = Σ_k r_k Σ_i s_i o_{(i+k) mod l}
//                   = Σ_i Σ_j s_i o_j r_{(j-i) mod l}.

double HolEModel::Score(const Triple& t) const {
  const float* s = entities_.Row(t.subject);
  const float* r = relations_.Row(t.relation);
  const float* o = entities_.Row(t.object);
  double acc = 0.0;
  for (size_t k = 0; k < dim_; ++k) {
    double corr = 0.0;
    for (size_t i = 0; i < dim_; ++i) {
      corr += static_cast<double>(s[i]) * o[(i + k) % dim_];
    }
    acc += static_cast<double>(r[k]) * corr;
  }
  return acc;
}

void HolEModel::ScoreObjectsBatch(const SideQuery* queries,
                                  size_t num_queries,
                                  std::vector<double>* const* outs) const {
  std::vector<double> w(dim_);
  for (size_t q = 0; q < num_queries; ++q) {
    const float* sv = entities_.Row(queries[q].entity);
    const float* rv = relations_.Row(queries[q].relation);
    // w_j = Σ_i s_i r_{(j-i) mod l}; score(o) = <w, o>.
    std::fill(w.begin(), w.end(), 0.0);
    for (size_t i = 0; i < dim_; ++i) {
      const double si = sv[i];
      for (size_t j = 0; j < dim_; ++j) {
        w[j] += si * rv[(j + dim_ - i) % dim_];
      }
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

void HolEModel::ScoreSubjectsBatch(const SideQuery* queries,
                                   size_t num_queries,
                                   std::vector<double>* const* outs) const {
  std::vector<double> u(dim_);
  for (size_t q = 0; q < num_queries; ++q) {
    const float* rv = relations_.Row(queries[q].relation);
    const float* ov = entities_.Row(queries[q].entity);
    // u_i = Σ_j o_j r_{(j-i) mod l} = Σ_k r_k o_{(i+k) mod l};
    // score(s) = <u, s>.
    for (size_t i = 0; i < dim_; ++i) {
      double acc = 0.0;
      for (size_t k = 0; k < dim_; ++k) {
        acc += static_cast<double>(rv[k]) * ov[(i + k) % dim_];
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

void HolEModel::AccumulateScoreGradient(const Triple& t, double dscore,
                                        GradientBatch* grads) {
  const float* s = entities_.Row(t.subject);
  const float* r = relations_.Row(t.relation);
  const float* o = entities_.Row(t.object);
  float* gs = grads->RowGrad(&entities_, t.subject);
  float* gr = grads->RowGrad(&relations_, t.relation);
  float* go = grads->RowGrad(&entities_, t.object);
  // dScore/dr_k = (s ⋆ o)_k
  // dScore/ds_i = Σ_j o_j r_{(j-i) mod l}
  // dScore/do_j = Σ_i s_i r_{(j-i) mod l}
  for (size_t k = 0; k < dim_; ++k) {
    double corr = 0.0;
    for (size_t i = 0; i < dim_; ++i) {
      corr += static_cast<double>(s[i]) * o[(i + k) % dim_];
    }
    gr[k] += static_cast<float>(dscore * corr);
  }
  for (size_t i = 0; i < dim_; ++i) {
    double acc = 0.0;
    for (size_t j = 0; j < dim_; ++j) {
      acc += static_cast<double>(o[j]) * r[(j + dim_ - i) % dim_];
    }
    gs[i] += static_cast<float>(dscore * acc);
  }
  for (size_t j = 0; j < dim_; ++j) {
    double acc = 0.0;
    for (size_t i = 0; i < dim_; ++i) {
      acc += static_cast<double>(s[i]) * r[(j + dim_ - i) % dim_];
    }
    go[j] += static_cast<float>(dscore * acc);
  }
}

}  // namespace kgfd
