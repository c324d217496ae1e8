#include "kg/synthetic.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <vector>

#include "util/alias_sampler.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace kgfd {
namespace {

std::vector<double> ZipfWeights(size_t n, double exponent) {
  std::vector<double> w(n);
  for (size_t i = 0; i < n; ++i) {
    w[i] = 1.0 / std::pow(static_cast<double>(i + 1), exponent);
  }
  return w;
}

/// Splits unique triples into train/valid/test such that every valid/test
/// entity and relation still occurs in train: a triple may leave train only
/// while each of its three elements has multiplicity >= 2 among the
/// remaining train triples.
void SplitWithCoverage(std::vector<Triple> all, size_t num_valid,
                       size_t num_test, Rng* rng, Dataset* dataset) {
  rng->Shuffle(&all);
  std::vector<uint32_t> entity_count(dataset->num_entities(), 0);
  std::vector<uint32_t> relation_count(dataset->num_relations(), 0);
  for (const Triple& t : all) {
    ++entity_count[t.subject];
    ++entity_count[t.object];
    ++relation_count[t.relation];
  }
  std::vector<Triple> valid;
  std::vector<Triple> test;
  std::vector<Triple> train;
  for (const Triple& t : all) {
    // A triple can leave train only while each of its elements keeps at
    // least one remaining occurrence. The generator never emits self-loops,
    // so subject and object decrement independently.
    const bool movable = t.subject != t.object &&
                         entity_count[t.subject] >= 2 &&
                         entity_count[t.object] >= 2 &&
                         relation_count[t.relation] >= 2;
    if (movable && test.size() < num_test) {
      test.push_back(t);
    } else if (movable && valid.size() < num_valid) {
      valid.push_back(t);
    } else {
      train.push_back(t);
      continue;
    }
    --entity_count[t.subject];
    --entity_count[t.object];
    --relation_count[t.relation];
  }
  dataset->train().AddAll(train).AbortIfNotOk("synthetic train split");
  dataset->valid().AddAll(valid).AbortIfNotOk("synthetic valid split");
  dataset->test().AddAll(test).AbortIfNotOk("synthetic test split");
}

}  // namespace

Result<Dataset> GenerateSyntheticDataset(const SyntheticConfig& config) {
  if (config.num_entities < 2 || config.num_relations < 1) {
    return Status::InvalidArgument("need >= 2 entities and >= 1 relation");
  }
  if (config.closure_probability < 0.0 || config.closure_probability > 1.0) {
    return Status::InvalidArgument("closure_probability must be in [0, 1]");
  }
  const size_t target =
      config.num_train + config.num_valid + config.num_test;
  const double capacity = static_cast<double>(config.num_entities) *
                          static_cast<double>(config.num_entities - 1) *
                          static_cast<double>(config.num_relations);
  if (static_cast<double>(target) > 0.5 * capacity) {
    return Status::InvalidArgument(
        "requested triple count exceeds half the graph capacity; "
        "increase entities/relations or lower triple counts");
  }

  Rng rng(config.seed);
  KGFD_ASSIGN_OR_RETURN(
      AliasSampler entity_sampler,
      AliasSampler::Build(
          ZipfWeights(config.num_entities, config.entity_zipf_exponent)));
  KGFD_ASSIGN_OR_RETURN(
      AliasSampler relation_sampler,
      AliasSampler::Build(
          ZipfWeights(config.num_relations, config.relation_zipf_exponent)));

  std::unordered_set<uint64_t> seen;
  std::vector<Triple> triples;
  triples.reserve(target);
  // Undirected neighbor lists for triangle closure; duplicates tolerated
  // (they just bias closure toward frequent co-occurrences).
  std::vector<std::vector<EntityId>> neighbors(config.num_entities);
  // Entities with >= 2 neighbors, eligible as triangle pivots.
  std::vector<EntityId> pivots;
  std::vector<bool> is_pivot(config.num_entities, false);

  auto try_add = [&](EntityId s, RelationId r, EntityId o) {
    if (s == o) return false;
    const Triple t{s, r, o};
    if (!seen.insert(PackTriple(t)).second) return false;
    triples.push_back(t);
    neighbors[s].push_back(o);
    neighbors[o].push_back(s);
    for (EntityId e : {s, o}) {
      if (!is_pivot[e] && neighbors[e].size() >= 2) {
        is_pivot[e] = true;
        pivots.push_back(e);
      }
    }
    return true;
  };

  const size_t max_attempts = 60 * target + 1000;
  size_t attempts = 0;
  while (triples.size() < target && attempts < max_attempts) {
    ++attempts;
    const RelationId r =
        static_cast<RelationId>(relation_sampler.Sample(&rng));
    if (!pivots.empty() && rng.Bernoulli(config.closure_probability)) {
      // Triadic closure: connect two neighbors of a pivot node.
      const EntityId v = pivots[rng.UniformInt(pivots.size())];
      const auto& nv = neighbors[v];
      const EntityId u = nv[rng.UniformInt(nv.size())];
      const EntityId w = nv[rng.UniformInt(nv.size())];
      if (rng.Bernoulli(0.5)) {
        try_add(u, r, w);
      } else {
        try_add(w, r, u);
      }
    } else {
      const EntityId s = static_cast<EntityId>(entity_sampler.Sample(&rng));
      const EntityId o = static_cast<EntityId>(entity_sampler.Sample(&rng));
      try_add(s, r, o);
    }
  }
  if (triples.size() < target) {
    return Status::Internal(
        "synthetic generator could not reach the requested triple count "
        "(graph too saturated); got " +
        std::to_string(triples.size()) + " of " + std::to_string(target));
  }

  Dataset dataset(config.name, config.num_entities, config.num_relations);
  SplitWithCoverage(std::move(triples), config.num_valid, config.num_test,
                    &rng, &dataset);
  KGFD_RETURN_NOT_OK(dataset.Validate());
  return dataset;
}

namespace {

size_t Scaled(size_t full, double scale, size_t floor_value) {
  const double v = static_cast<double>(full) / scale;
  return std::max(floor_value, static_cast<size_t>(v));
}

}  // namespace

SyntheticConfig Fb15k237Config(double scale, uint64_t seed) {
  // Dense, many-relation Freebase subset: high clustering, strong skew.
  SyntheticConfig c;
  c.name = "FB15K-237";
  c.num_entities = Scaled(14541, scale, 50);
  c.num_relations = 237;
  c.num_train = Scaled(272115, scale, 500);
  c.num_valid = Scaled(17535, scale, 30);
  c.num_test = Scaled(20429, scale, 30);
  c.entity_zipf_exponent = 0.85;
  c.relation_zipf_exponent = 0.8;
  c.closure_probability = 0.42;
  c.seed = seed;
  return c;
}

SyntheticConfig Wn18rrConfig(double scale, uint64_t seed) {
  // Sparse lexical graph: few relations, ~4.5 triple slots per entity,
  // near-zero clustering (the paper's Fig. 3 outlier).
  SyntheticConfig c;
  c.name = "WN18RR";
  c.num_entities = Scaled(40943, scale, 120);
  c.num_relations = 11;
  c.num_train = Scaled(86835, scale, 260);
  c.num_valid = Scaled(3034, scale, 10);
  c.num_test = Scaled(3134, scale, 10);
  c.entity_zipf_exponent = 0.45;
  c.relation_zipf_exponent = 0.6;
  c.closure_probability = 0.02;
  c.seed = seed;
  return c;
}

SyntheticConfig Yago310Config(double scale, uint64_t seed) {
  // Large-scale Wikipedia/WordNet graph: moderate clustering, heavy tail.
  SyntheticConfig c;
  c.name = "YAGO3-10";
  c.num_entities = Scaled(123182, scale, 300);
  c.num_relations = 37;
  c.num_train = Scaled(1079040, scale, 2600);
  c.num_valid = Scaled(5000, scale, 12);
  c.num_test = Scaled(5000, scale, 12);
  c.entity_zipf_exponent = 1.0;
  c.relation_zipf_exponent = 0.9;
  c.closure_probability = 0.22;
  c.seed = seed;
  return c;
}

SyntheticConfig CodexLConfig(double scale, uint64_t seed) {
  // Wikidata extraction: between FB15K-237 and YAGO3-10 in density.
  SyntheticConfig c;
  c.name = "CoDEx-L";
  c.num_entities = Scaled(77951, scale, 200);
  c.num_relations = 69;
  c.num_train = Scaled(550800, scale, 1400);
  c.num_valid = Scaled(30600, scale, 75);
  c.num_test = Scaled(30600, scale, 75);
  c.entity_zipf_exponent = 0.9;
  c.relation_zipf_exponent = 0.75;
  c.closure_probability = 0.3;
  c.seed = seed;
  return c;
}

std::vector<SyntheticConfig> AllDatasetConfigs(double scale, uint64_t seed) {
  return {Fb15k237Config(scale, seed), Wn18rrConfig(scale, seed),
          Yago310Config(scale, seed), CodexLConfig(scale, seed)};
}

Result<SyntheticConfig> DatasetPresetConfig(const std::string& name,
                                            double scale, uint64_t seed) {
  std::vector<std::string> names;
  for (const SyntheticConfig& c : AllDatasetConfigs(scale, seed)) {
    if (c.name == name) return c;
    names.push_back(c.name);
  }
  return Status::NotFound("unknown dataset preset '" + name + "' (" +
                          Join(names, ", ") + ")");
}

}  // namespace kgfd
