#include "kge/models/conve.h"

#include <cstring>

namespace kgfd {

Status ConvEModel::ValidateConfig(const ModelConfig& config) {
  const size_t h = config.conve_reshape_height;
  if (h < 2 || config.embedding_dim % h != 0) {
    return Status::InvalidArgument(
        "ConvE needs conve_reshape_height >= 2 dividing embedding_dim (got "
        "height " +
        std::to_string(h) + ", dim " +
        std::to_string(config.embedding_dim) + ")");
  }
  if (config.embedding_dim / h < 3) {
    return Status::InvalidArgument(
        "ConvE reshape width must be >= 3 for a 3x3 convolution (got " +
        std::to_string(config.embedding_dim / h) + ")");
  }
  if (config.conve_num_filters == 0) {
    return Status::InvalidArgument("ConvE needs >= 1 filter");
  }
  return Status::OK();
}

ConvEModel::ConvEModel(const ModelConfig& config)
    : dim_(config.embedding_dim),
      img_h_(config.conve_reshape_height),
      img_w_(config.embedding_dim / config.conve_reshape_height),
      num_filters_(config.conve_num_filters),
      out_h_(2 * img_h_ - 2),
      out_w_(img_w_ - 2),
      flat_(num_filters_ * out_h_ * out_w_),
      entities_(config.num_entities, dim_),
      relations_(config.num_relations * 2, dim_),
      conv_w_(num_filters_, 9),
      conv_b_(1, num_filters_),
      fc_w_(flat_, dim_),
      fc_b_(1, dim_),
      ent_bias_(config.num_entities, 1) {}

std::vector<NamedTensor> ConvEModel::Parameters() {
  return {{"entities", &entities_}, {"relations", &relations_},
          {"conv_w", &conv_w_},     {"conv_b", &conv_b_},
          {"fc_w", &fc_w_},         {"fc_b", &fc_b_},
          {"ent_bias", &ent_bias_}};
}

void ConvEModel::InitParameters(Rng* rng) {
  entities_.InitXavierUniform(rng, dim_, dim_);
  relations_.InitXavierUniform(rng, dim_, dim_);
  conv_w_.InitXavierUniform(rng, 9, 9 * num_filters_);
  conv_b_.Fill(0.0f);
  fc_w_.InitXavierUniform(rng, flat_, dim_);
  fc_b_.Fill(0.0f);
  ent_bias_.Fill(0.0f);
}

void ConvEModel::Forward(EntityId in_entity, size_t relation_row,
                         ForwardCache* cache) const {
  ForwardCache local;
  ForwardCache& c = cache != nullptr ? *cache : local;

  // Stack [entity; relation] into a (2*img_h_, img_w_) image.
  const size_t in_h = 2 * img_h_;
  c.image.resize(in_h * img_w_);
  std::memcpy(c.image.data(), entities_.Row(in_entity),
              dim_ * sizeof(float));
  std::memcpy(c.image.data() + dim_, relations_.Row(relation_row),
              dim_ * sizeof(float));

  // Valid 3x3 convolution + ReLU.
  c.conv_pre.resize(flat_);
  c.conv_out.resize(flat_);
  for (size_t f = 0; f < num_filters_; ++f) {
    const float* w = conv_w_.Row(f);
    const float bias = conv_b_.At(0, f);
    float* pre = c.conv_pre.data() + f * out_h_ * out_w_;
    float* out = c.conv_out.data() + f * out_h_ * out_w_;
    for (size_t oy = 0; oy < out_h_; ++oy) {
      for (size_t ox = 0; ox < out_w_; ++ox) {
        float acc = bias;
        for (size_t ky = 0; ky < 3; ++ky) {
          const float* img_row = c.image.data() + (oy + ky) * img_w_ + ox;
          acc += w[ky * 3 + 0] * img_row[0] + w[ky * 3 + 1] * img_row[1] +
                 w[ky * 3 + 2] * img_row[2];
        }
        const size_t idx = oy * out_w_ + ox;
        pre[idx] = acc;
        out[idx] = acc > 0.0f ? acc : 0.0f;
      }
    }
  }

  // Dense projection back to embedding width + ReLU.
  c.fc_pre.assign(fc_b_.Row(0), fc_b_.Row(0) + dim_);
  for (size_t m = 0; m < flat_; ++m) {
    const float z = c.conv_out[m];
    if (z == 0.0f) continue;
    const float* wrow = fc_w_.Row(m);
    for (size_t j = 0; j < dim_; ++j) c.fc_pre[j] += z * wrow[j];
  }
  c.hidden.resize(dim_);
  for (size_t j = 0; j < dim_; ++j) {
    c.hidden[j] = c.fc_pre[j] > 0.0f ? c.fc_pre[j] : 0.0f;
  }
}

double ConvEModel::OutputScore(const std::vector<float>& hidden,
                               EntityId out_entity) const {
  const float* e = entities_.Row(out_entity);
  double acc = ent_bias_.At(out_entity, 0);
  for (size_t j = 0; j < dim_; ++j) {
    acc += static_cast<double>(hidden[j]) * e[j];
  }
  return acc;
}

double ConvEModel::Score(const Triple& t) const {
  ForwardCache c;
  Forward(t.subject, t.relation, &c);
  return OutputScore(c.hidden, t.object);
}

double ConvEModel::TrainingScore(const Triple& t) const {
  ForwardCache fwd;
  Forward(t.subject, t.relation, &fwd);
  ForwardCache inv;
  Forward(t.object, InverseRow(t.relation), &inv);
  return 0.5 * (OutputScore(fwd.hidden, t.object) +
                OutputScore(inv.hidden, t.subject));
}

void ConvEModel::ScoreObjectsBatch(const SideQuery* queries,
                                   size_t num_queries,
                                   std::vector<double>* const* outs) const {
  for (size_t q = 0; q < num_queries; ++q) {
    ForwardCache c;
    Forward(queries[q].entity, queries[q].relation, &c);
    std::vector<double>& out = *outs[q];
    out.resize(num_entities());
    for (EntityId e = 0; e < num_entities(); ++e) {
      out[e] = OutputScore(c.hidden, e);
    }
  }
}

void ConvEModel::ScoreSubjectsBatch(const SideQuery* queries,
                                    size_t num_queries,
                                    std::vector<double>* const* outs) const {
  // Reciprocal-relations head: (s', r, o) scored as (o, r^-1, s').
  std::vector<SideQuery> inverse(queries, queries + num_queries);
  for (SideQuery& query : inverse) {
    query.relation = static_cast<RelationId>(InverseRow(query.relation));
  }
  ScoreObjectsBatch(inverse.data(), num_queries, outs);
}

void ConvEModel::BackpropDirection(EntityId in_entity, size_t relation_row,
                                   EntityId out_entity, double dscore,
                                   GradientBatch* grads) {
  ForwardCache c;
  Forward(in_entity, relation_row, &c);
  const float ds = static_cast<float>(dscore);

  // Output layer: score = hidden . e_out + bias[out].
  grads->AccumulateRow(&entities_, out_entity, c.hidden.data(), dim_, ds);
  grads->RowGrad(&ent_bias_, out_entity)[0] += ds;

  // d/d hidden, through the FC ReLU.
  const float* e_out = entities_.Row(out_entity);
  std::vector<float> d_pre(dim_);
  for (size_t j = 0; j < dim_; ++j) {
    d_pre[j] = c.fc_pre[j] > 0.0f ? ds * e_out[j] : 0.0f;
  }
  grads->AccumulateRow(&fc_b_, 0, d_pre.data(), dim_, 1.0f);

  // FC weights and conv-output gradient.
  std::vector<float> d_conv_out(flat_, 0.0f);
  for (size_t m = 0; m < flat_; ++m) {
    const float z = c.conv_out[m];
    const float* wrow = fc_w_.Row(m);
    float dz = 0.0f;
    for (size_t j = 0; j < dim_; ++j) dz += wrow[j] * d_pre[j];
    d_conv_out[m] = dz;
    if (z != 0.0f) grads->AccumulateRow(&fc_w_, m, d_pre.data(), dim_, z);
  }

  // Through the conv ReLU, into filters, bias and the input image.
  std::vector<float> d_image(c.image.size(), 0.0f);
  float* g_conv_b = grads->RowGrad(&conv_b_, 0);
  for (size_t f = 0; f < num_filters_; ++f) {
    const float* w = conv_w_.Row(f);
    float* gw = grads->RowGrad(&conv_w_, f);
    const float* pre = c.conv_pre.data() + f * out_h_ * out_w_;
    const float* dout = d_conv_out.data() + f * out_h_ * out_w_;
    for (size_t oy = 0; oy < out_h_; ++oy) {
      for (size_t ox = 0; ox < out_w_; ++ox) {
        const size_t idx = oy * out_w_ + ox;
        if (pre[idx] <= 0.0f) continue;
        const float da = dout[idx];
        if (da == 0.0f) continue;
        g_conv_b[f] += da;
        for (size_t ky = 0; ky < 3; ++ky) {
          const size_t img_off = (oy + ky) * img_w_ + ox;
          for (size_t kx = 0; kx < 3; ++kx) {
            gw[ky * 3 + kx] += da * c.image[img_off + kx];
            d_image[img_off + kx] += da * w[ky * 3 + kx];
          }
        }
      }
    }
  }

  // Split the image gradient back into the entity and relation rows.
  grads->AccumulateRow(&entities_, in_entity, d_image.data(), dim_, 1.0f);
  grads->AccumulateRow(&relations_, relation_row, d_image.data() + dim_,
                       dim_, 1.0f);
}

void ConvEModel::AccumulateScoreGradient(const Triple& t, double dscore,
                                         GradientBatch* grads) {
  // Matches TrainingScore: half weight per direction.
  BackpropDirection(t.subject, t.relation, t.object, 0.5 * dscore, grads);
  BackpropDirection(t.object, InverseRow(t.relation), t.subject,
                    0.5 * dscore, grads);
}

}  // namespace kgfd
