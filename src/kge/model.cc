#include "kge/model.h"

#include "kge/models/complex.h"
#include "kge/models/conve.h"
#include "kge/models/distmult.h"
#include "kge/models/hole.h"
#include "kge/models/rescal.h"
#include "kge/models/transe.h"

namespace kgfd {

const char* ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kTransE:
      return "TransE";
    case ModelKind::kDistMult:
      return "DistMult";
    case ModelKind::kComplEx:
      return "ComplEx";
    case ModelKind::kRescal:
      return "RESCAL";
    case ModelKind::kHolE:
      return "HolE";
    case ModelKind::kConvE:
      return "ConvE";
  }
  return "Unknown";
}

Result<ModelKind> ModelKindFromName(const std::string& name) {
  for (ModelKind kind :
       {ModelKind::kTransE, ModelKind::kDistMult, ModelKind::kComplEx,
        ModelKind::kRescal, ModelKind::kHolE, ModelKind::kConvE}) {
    if (name == ModelKindName(kind)) return kind;
  }
  return Status::NotFound("unknown model: " + name);
}

Result<std::unique_ptr<Model>> CreateModelUninitialized(
    ModelKind kind, const ModelConfig& config) {
  if (config.num_entities < 1 || config.num_relations < 1) {
    return Status::InvalidArgument("model needs >= 1 entity and relation");
  }
  if (config.embedding_dim < 2) {
    return Status::InvalidArgument("embedding_dim must be >= 2");
  }
  std::unique_ptr<Model> model;
  switch (kind) {
    case ModelKind::kTransE:
      if (config.transe_norm != 1 && config.transe_norm != 2) {
        return Status::InvalidArgument("transe_norm must be 1 or 2");
      }
      model = std::make_unique<TransEModel>(config);
      break;
    case ModelKind::kDistMult:
      model = std::make_unique<DistMultModel>(config);
      break;
    case ModelKind::kComplEx:
      KGFD_RETURN_NOT_OK(ComplExModel::ValidateConfig(config));
      model = std::make_unique<ComplExModel>(config);
      break;
    case ModelKind::kRescal:
      model = std::make_unique<RescalModel>(config);
      break;
    case ModelKind::kHolE:
      model = std::make_unique<HolEModel>(config);
      break;
    case ModelKind::kConvE:
      KGFD_RETURN_NOT_OK(ConvEModel::ValidateConfig(config));
      model = std::make_unique<ConvEModel>(config);
      break;
  }
  return model;
}

Result<std::unique_ptr<Model>> CreateModel(ModelKind kind,
                                           const ModelConfig& config,
                                           Rng* rng) {
  KGFD_ASSIGN_OR_RETURN(std::unique_ptr<Model> model,
                        CreateModelUninitialized(kind, config));
  model->InitParameters(rng);
  return model;
}

void Model::ScoreObjects(EntityId s, RelationId r,
                         std::vector<double>* out) const {
  const SideQuery query{s, r};
  std::vector<double>* const outs[] = {out};
  ScoreObjectsBatch(&query, 1, outs);
}

void Model::ScoreSubjects(RelationId r, EntityId o,
                          std::vector<double>* out) const {
  const SideQuery query{o, r};
  std::vector<double>* const outs[] = {out};
  ScoreSubjectsBatch(&query, 1, outs);
}

Status ValidateModelShape(const Model& model, size_t num_entities,
                          size_t num_relations) {
  if (model.num_entities() != num_entities) {
    return Status::InvalidArgument(
        "model has " + std::to_string(model.num_entities()) +
        " entities but the graph has " + std::to_string(num_entities) +
        "; entity vocabularies must match exactly");
  }
  if (model.num_relations() < num_relations) {
    return Status::InvalidArgument(
        "model knows " + std::to_string(model.num_relations()) +
        " relations but the graph uses " + std::to_string(num_relations));
  }
  return Status::OK();
}

}  // namespace kgfd
