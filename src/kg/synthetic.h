#ifndef KGFD_KG_SYNTHETIC_H_
#define KGFD_KG_SYNTHETIC_H_

#include <cstdint>
#include <string>

#include "kg/dataset.h"
#include "util/status.h"

namespace kgfd {

/// Parameters of the synthetic KG generator. The generator draws entity and
/// relation usage from Zipf-like popularity distributions (matching the
/// heavy-tailed frequency structure of real benchmark KGs — the property the
/// paper's ENTITY_FREQUENCY / GRAPH_DEGREE strategies exploit) and closes
/// triangles with probability `closure_probability` (controlling the local
/// clustering structure the CLUSTERING_* strategies exploit).
struct SyntheticConfig {
  std::string name = "synthetic";
  size_t num_entities = 1000;
  size_t num_relations = 10;
  size_t num_train = 10000;
  size_t num_valid = 500;
  size_t num_test = 500;
  /// Zipf exponent of entity popularity (0 = uniform; ~1 = strongly skewed).
  double entity_zipf_exponent = 0.9;
  /// Zipf exponent of relation popularity.
  double relation_zipf_exponent = 0.7;
  /// Probability that a new triple closes a length-2 path into a triangle.
  double closure_probability = 0.2;
  uint64_t seed = 42;
};

/// Generates a dataset with unique triples, pairwise-disjoint splits, and no
/// valid/test entity or relation unseen in train (Dataset::Validate holds on
/// the result). Generation is deterministic in `config.seed`.
Result<Dataset> GenerateSyntheticDataset(const SyntheticConfig& config);

/// Presets matching the metadata signature (Table 1 of the paper) of the
/// four evaluation datasets, downscaled by `scale` (entity and triple counts
/// divided by `scale`; relation counts kept intact since the discovery
/// algorithm's runtime scales with them). `scale=1` reproduces the paper's
/// full sizes.
SyntheticConfig Fb15k237Config(double scale, uint64_t seed = 42);
SyntheticConfig Wn18rrConfig(double scale, uint64_t seed = 42);
SyntheticConfig Yago310Config(double scale, uint64_t seed = 42);
SyntheticConfig CodexLConfig(double scale, uint64_t seed = 42);

/// All four presets in paper order (FB15K-237, WN18RR, YAGO3-10, CoDEx-L).
std::vector<SyntheticConfig> AllDatasetConfigs(double scale,
                                               uint64_t seed = 42);

/// The preset of AllDatasetConfigs named `name`; NotFound names the valid
/// presets.
Result<SyntheticConfig> DatasetPresetConfig(const std::string& name,
                                            double scale, uint64_t seed);

}  // namespace kgfd

#endif  // KGFD_KG_SYNTHETIC_H_
