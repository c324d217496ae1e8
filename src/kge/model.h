#ifndef KGFD_KGE_MODEL_H_
#define KGFD_KGE_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "kg/types.h"
#include "kge/grad.h"
#include "kge/tensor.h"
#include "util/rng.h"
#include "util/status.h"

namespace kgfd {

class QuantizedTable;  // kge/embedding_store.h

/// The KGE models evaluated or described by the paper.
enum class ModelKind {
  kTransE,
  kDistMult,
  kComplEx,
  kRescal,
  kHolE,
  kConvE,
};

const char* ModelKindName(ModelKind kind);
Result<ModelKind> ModelKindFromName(const std::string& name);

/// One corruption-side scoring query. For object-side scoring `entity` is
/// the subject (score (entity, relation, o') for all o'); for subject-side
/// scoring it is the object (score (s', relation, entity) for all s').
struct SideQuery {
  EntityId entity = 0;
  RelationId relation = 0;
};

/// Abstract knowledge-graph embedding model: a scoring function
/// f(s, r, o; Θ) with analytic gradients. Higher scores mean "more
/// plausible". Implementations store all parameters in named Tensors so one
/// optimizer / checkpoint path serves every model.
class Model {
 public:
  virtual ~Model() = default;

  virtual ModelKind kind() const = 0;
  std::string name() const { return ModelKindName(kind()); }

  virtual size_t num_entities() const = 0;
  virtual size_t num_relations() const = 0;
  /// Entity embedding width (model-specific meaning; ComplEx counts real
  /// plus imaginary parts).
  virtual size_t embedding_dim() const = 0;

  /// Plausibility score of one triple.
  virtual double Score(const Triple& t) const = 0;

  /// Batch corruption scoring: scores queries[q] = (s, r) against every
  /// entity o', resizing *outs[q] to the entity count and filling it. The
  /// workhorse of candidate ranking, SideScoreCache precompute and
  /// link-prediction evaluation: TransE/DistMult/ComplEx run blocked,
  /// cache-tiled kernels (see kge/kernels.h) that walk the entity table
  /// once per *block* of queries instead of once per query, bit-identical
  /// to one query at a time on every kernel backend.
  virtual void ScoreObjectsBatch(const SideQuery* queries, size_t num_queries,
                                 std::vector<double>* const* outs) const = 0;

  /// Batch form of subject-side scoring: queries[q] = (o, r) in SideQuery
  /// terms, *outs[q][s'] = score of (s', r, o).
  virtual void ScoreSubjectsBatch(const SideQuery* queries,
                                  size_t num_queries,
                                  std::vector<double>* const* outs) const = 0;

  /// Scores (s, r, o') for every entity o' into `out` (resized to the
  /// entity count): a one-query ScoreObjectsBatch.
  void ScoreObjects(EntityId s, RelationId r, std::vector<double>* out) const;

  /// Scores (s', r, o) for every entity s': a one-query ScoreSubjectsBatch.
  void ScoreSubjects(RelationId r, EntityId o,
                     std::vector<double>* out) const;

  /// The scalar the trainer differentiates. Equal to Score() for all models
  /// except those with direction-specific heads (ConvE's reciprocal
  /// relations), where it averages both directions so that
  /// AccumulateScoreGradient() is exactly its gradient.
  virtual double TrainingScore(const Triple& t) const { return Score(t); }

  /// Backpropagates d(loss)/d(score) = `dscore` for triple `t` into the
  /// batch gradients (chain rule through the scoring function only; the
  /// loss derivative is the caller's job).
  virtual void AccumulateScoreGradient(const Triple& t, double dscore,
                                       GradientBatch* grads) = 0;

  /// All trainable parameters. Names are stable across runs and versions
  /// (used by checkpoints).
  virtual std::vector<NamedTensor> Parameters() = 0;

  /// (Re-)initializes all parameters from `rng`.
  virtual void InitParameters(Rng* rng) = 0;

  /// Non-null when the entity table is held quantized (int8/int16 codes +
  /// per-row affine parameters) instead of as a float Parameters() tensor.
  /// Only the kernel-backed pair models (TransE/DistMult/ComplEx) support
  /// quantized storage; everything else always returns null.
  virtual const QuantizedTable* quantized_entities() const { return nullptr; }

  /// Fingerprint of storage NOT visible through Parameters() (quantized
  /// entity tables). Mixed into HashModelParameters so two models that
  /// differ only in quantization never alias a DiscoveryCache. Zero for
  /// float-backed models.
  virtual uint64_t StorageFingerprint() const { return 0; }

  /// Keeps checkpoint-owned backing storage (the mmap'd file a tensor
  /// view points into) alive for the model's lifetime.
  void AttachStorageKeepalive(std::shared_ptr<const void> keepalive) {
    storage_keepalive_ = std::move(keepalive);
  }

  /// Total number of scalar parameters.
  size_t NumParameters() {
    size_t n = 0;
    for (const NamedTensor& p : Parameters()) n += p.tensor->size();
    return n;
  }

 private:
  std::shared_ptr<const void> storage_keepalive_;
};

/// Model construction options. Fields irrelevant to a given model are
/// ignored (e.g. conv settings for TransE).
struct ModelConfig {
  size_t num_entities = 0;
  size_t num_relations = 0;
  size_t embedding_dim = 32;
  /// TransE distance: 1 = L1, 2 = L2.
  int transe_norm = 1;
  /// ConvE: number of 3x3 filters.
  size_t conve_num_filters = 8;
  /// ConvE: embedding reshape height; dim must be divisible by it.
  size_t conve_reshape_height = 4;
};

/// Instantiates a model with freshly initialized parameters.
Result<std::unique_ptr<Model>> CreateModel(ModelKind kind,
                                           const ModelConfig& config,
                                           Rng* rng);

/// Instantiates a model WITHOUT random parameter initialization — all
/// parameters are zero until the caller fills them. Checkpoint loaders use
/// this so a load never pays the RNG sweep its parameters would only
/// overwrite.
Result<std::unique_ptr<Model>> CreateModelUninitialized(
    ModelKind kind, const ModelConfig& config);

/// The shared model/graph shape contract enforced by both fact discovery
/// and link-prediction evaluation: the model's entity vocabulary must match
/// the graph's exactly — ScoreObjects/ScoreSubjects rank over *every* model
/// entity, so extra or missing entities would silently change all ranks —
/// while the model may know *more* relations than the graph uses (a model
/// trained on a superset vocabulary can score a sub-KG slice).
Status ValidateModelShape(const Model& model, size_t num_entities,
                          size_t num_relations);

}  // namespace kgfd

#endif  // KGFD_KGE_MODEL_H_
