#include <gtest/gtest.h>

#include <memory>

#include "kge/evaluator.h"
#include "kge/grid_search.h"
#include "kge/negative_sampling.h"
#include "kge/trainer.h"
#include "kg/synthetic.h"
#include "util/rng.h"

namespace kgfd {
namespace {

Dataset SmallDataset(uint64_t seed = 5) {
  SyntheticConfig c;
  c.name = "small";
  c.num_entities = 50;
  c.num_relations = 3;
  c.num_train = 400;
  c.num_valid = 25;
  c.num_test = 25;
  c.seed = seed;
  return std::move(GenerateSyntheticDataset(c)).ValueOrDie("dataset");
}

TEST(BernoulliSamplingTest, UniformSchemeIsHalfHalf) {
  const Dataset d = SmallDataset();
  NegativeSampler sampler(&d.train(), false, CorruptionScheme::kUniform);
  for (RelationId r = 0; r < d.num_relations(); ++r) {
    EXPECT_DOUBLE_EQ(sampler.SubjectCorruptionProbability(r), 0.5);
  }
}

TEST(BernoulliSamplingTest, OneToManyRelationCorruptsSubjectMore) {
  // Relation 0: one head, many tails (tph = 4, hpt = 1): p(subject) = 0.8.
  TripleStore store(8, 1);
  ASSERT_TRUE(
      store.AddAll({{0, 0, 1}, {0, 0, 2}, {0, 0, 3}, {0, 0, 4}}).ok());
  NegativeSampler sampler(&store, false, CorruptionScheme::kBernoulli);
  EXPECT_NEAR(sampler.SubjectCorruptionProbability(0), 0.8, 1e-12);
}

TEST(BernoulliSamplingTest, ManyToOneRelationCorruptsObjectMore) {
  // Many heads, one tail (tph = 1, hpt = 4): p(subject) = 0.2.
  TripleStore store(8, 1);
  ASSERT_TRUE(
      store.AddAll({{1, 0, 0}, {2, 0, 0}, {3, 0, 0}, {4, 0, 0}}).ok());
  NegativeSampler sampler(&store, false, CorruptionScheme::kBernoulli);
  EXPECT_NEAR(sampler.SubjectCorruptionProbability(0), 0.2, 1e-12);
}

TEST(BernoulliSamplingTest, EmpiricalSideRatioMatches) {
  TripleStore store(10, 1);
  ASSERT_TRUE(
      store.AddAll({{0, 0, 1}, {0, 0, 2}, {0, 0, 3}, {0, 0, 4}}).ok());
  NegativeSampler sampler(&store, false, CorruptionScheme::kBernoulli);
  Rng rng(9);
  int subject_corruptions = 0;
  constexpr int kDraws = 20000;
  const Triple pos{0, 0, 1};
  for (int i = 0; i < kDraws; ++i) {
    const Triple neg = sampler.Corrupt(pos, &rng);
    if (neg.subject != pos.subject) ++subject_corruptions;
  }
  EXPECT_NEAR(static_cast<double>(subject_corruptions) / kDraws, 0.8, 0.02);
}

TEST(BernoulliSamplingTest, TrainerAcceptsBernoulliScheme) {
  const Dataset d = SmallDataset();
  ModelConfig mc;
  mc.num_entities = d.num_entities();
  mc.num_relations = d.num_relations();
  mc.embedding_dim = 8;
  TrainerConfig tc;
  tc.epochs = 3;
  tc.corruption_scheme = CorruptionScheme::kBernoulli;
  auto model = TrainModel(ModelKind::kDistMult, mc, d.train(), tc);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
}

TEST(OneVsAllTest, LossDecreasesAndTrains) {
  const Dataset d = SmallDataset();
  ModelConfig mc;
  mc.num_entities = d.num_entities();
  mc.num_relations = d.num_relations();
  mc.embedding_dim = 8;
  Rng rng(21);
  auto model = std::move(CreateModel(ModelKind::kComplEx, mc, &rng))
                   .ValueOrDie("model");
  TrainerConfig tc;
  tc.epochs = 8;
  tc.training_mode = TrainingMode::k1vsAll;
  tc.optimizer.learning_rate = 0.05;
  Trainer trainer(model.get(), &d.train(), tc);
  auto stats = trainer.Train();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_LT(stats.value().back().mean_loss,
            stats.value().front().mean_loss);
}

TEST(OneVsAllTest, MemorizesLikeNegativeSampling) {
  const Dataset d = SmallDataset();
  TripleStore probe(d.num_entities(), d.num_relations());
  for (size_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(probe.Add(d.train().triples()[i]).ok());
  }
  ModelConfig mc;
  mc.num_entities = d.num_entities();
  mc.num_relations = d.num_relations();
  mc.embedding_dim = 16;
  TrainerConfig tc;
  tc.epochs = 50;
  tc.training_mode = TrainingMode::k1vsAll;
  tc.optimizer.learning_rate = 0.05;
  auto model = TrainModel(ModelKind::kDistMult, mc, d.train(), tc);
  ASSERT_TRUE(model.ok());
  EvalConfig raw;
  raw.filtered = false;
  auto metrics = EvaluateLinkPrediction(*model.value(), d, probe, raw);
  ASSERT_TRUE(metrics.ok());
  EXPECT_GT(metrics.value().mrr, 0.3);
}

TEST(OneVsAllTest, IgnoresZeroNegativesSetting) {
  const Dataset d = SmallDataset();
  ModelConfig mc;
  mc.num_entities = d.num_entities();
  mc.num_relations = d.num_relations();
  mc.embedding_dim = 8;
  TrainerConfig tc;
  tc.epochs = 1;
  tc.training_mode = TrainingMode::k1vsAll;
  tc.negatives_per_positive = 0;  // invalid for sampling, fine for 1vsAll
  auto model = TrainModel(ModelKind::kDistMult, mc, d.train(), tc);
  EXPECT_TRUE(model.ok());
}

TEST(EarlyStoppingTest, EvaluatesOnSchedule) {
  const Dataset d = SmallDataset();
  ModelConfig mc;
  mc.num_entities = d.num_entities();
  mc.num_relations = d.num_relations();
  mc.embedding_dim = 8;
  Rng rng(1);
  auto model = std::move(CreateModel(ModelKind::kDistMult, mc, &rng))
                   .ValueOrDie("model");
  TrainerConfig tc;
  tc.epochs = 10;
  tc.loss = LossKind::kSoftplus;
  tc.early_stopping_dataset = &d;
  tc.eval_every_epochs = 3;
  tc.patience = 100;  // never stop; just check the evaluation cadence
  Trainer trainer(model.get(), &d.train(), tc);
  auto stats = trainer.Train();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats.value().size(), 10u);
  for (const EpochStats& es : stats.value()) {
    if ((es.epoch + 1) % 3 == 0) {
      EXPECT_GE(es.valid_mrr, 0.0) << "epoch " << es.epoch;
    } else {
      EXPECT_LT(es.valid_mrr, 0.0) << "epoch " << es.epoch;
    }
  }
}

TEST(EarlyStoppingTest, PatienceStopsTraining) {
  const Dataset d = SmallDataset();
  ModelConfig mc;
  mc.num_entities = d.num_entities();
  mc.num_relations = d.num_relations();
  mc.embedding_dim = 8;
  Rng rng(2);
  auto model = std::move(CreateModel(ModelKind::kDistMult, mc, &rng))
                   .ValueOrDie("model");
  TrainerConfig tc;
  tc.epochs = 200;
  tc.loss = LossKind::kSoftplus;
  tc.optimizer.learning_rate = 0.0;  // frozen model: MRR can never improve
  tc.early_stopping_dataset = &d;
  tc.eval_every_epochs = 1;
  tc.patience = 2;
  Trainer trainer(model.get(), &d.train(), tc);
  auto stats = trainer.Train();
  ASSERT_TRUE(stats.ok());
  // First eval sets the best; two non-improving evals stop at epoch 3.
  EXPECT_EQ(stats.value().size(), 3u);
}

TEST(EarlyStoppingTest, RestoresBestParameters) {
  const Dataset d = SmallDataset();
  ModelConfig mc;
  mc.num_entities = d.num_entities();
  mc.num_relations = d.num_relations();
  mc.embedding_dim = 8;
  Rng rng(3);
  auto model = std::move(CreateModel(ModelKind::kComplEx, mc, &rng))
                   .ValueOrDie("model");
  TrainerConfig tc;
  tc.epochs = 30;
  tc.loss = LossKind::kSoftplus;
  tc.optimizer.learning_rate = 0.05;
  tc.early_stopping_dataset = &d;
  tc.eval_every_epochs = 2;
  tc.patience = 1000;
  Trainer trainer(model.get(), &d.train(), tc);
  auto stats = trainer.Train();
  ASSERT_TRUE(stats.ok());
  // Final parameters must score exactly the best recorded valid MRR.
  double best = -1.0;
  for (const EpochStats& es : stats.value()) {
    best = std::max(best, es.valid_mrr);
  }
  auto final_metrics = EvaluateLinkPrediction(*model, d, d.valid());
  ASSERT_TRUE(final_metrics.ok());
  EXPECT_NEAR(final_metrics.value().mrr, best, 1e-9);
}

TEST(GridSearchTest, RejectsEmptyValidation) {
  Dataset d("empty-valid", 10, 1);
  for (EntityId e = 0; e + 1 < 10; ++e) {
    ASSERT_TRUE(d.train().Add({e, 0, e + 1u}).ok());
  }
  ModelConfig mc;
  mc.num_entities = 10;
  mc.num_relations = 1;
  mc.embedding_dim = 4;
  TrainerConfig tc;
  tc.epochs = 1;
  EXPECT_FALSE(
      RunGridSearch(ModelKind::kDistMult, d, mc, tc, GridSearchSpace())
          .ok());
}

TEST(GridSearchTest, EnumeratesFullGrid) {
  const Dataset d = SmallDataset();
  ModelConfig mc;
  mc.num_entities = d.num_entities();
  mc.num_relations = d.num_relations();
  mc.embedding_dim = 8;
  TrainerConfig tc;
  tc.epochs = 2;
  GridSearchSpace space;
  space.embedding_dims = {4, 8};
  space.learning_rates = {0.01, 0.1};
  space.losses = {LossKind::kSoftplus};
  auto result = RunGridSearch(ModelKind::kDistMult, d, mc, tc, space);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().trials.size(), 4u);
  ASSERT_NE(result.value().best_model, nullptr);
  // The best index really is the argmax.
  for (const GridTrial& trial : result.value().trials) {
    EXPECT_LE(trial.valid_mrr, result.value().best().valid_mrr);
  }
  // The returned model matches the best trial's dimension.
  EXPECT_EQ(result.value().best_model->embedding_dim(),
            result.value().best().model_config.embedding_dim);
}

TEST(GridSearchTest, EmptyDimensionsFallBackToBase) {
  const Dataset d = SmallDataset();
  ModelConfig mc;
  mc.num_entities = d.num_entities();
  mc.num_relations = d.num_relations();
  mc.embedding_dim = 6;
  TrainerConfig tc;
  tc.epochs = 1;
  auto result =
      RunGridSearch(ModelKind::kDistMult, d, mc, tc, GridSearchSpace());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().trials.size(), 1u);
  EXPECT_EQ(result.value().best().model_config.embedding_dim, 6u);
}

TEST(StratifiedEvalTest, RejectsZeroBuckets) {
  const Dataset d = SmallDataset();
  ModelConfig mc;
  mc.num_entities = d.num_entities();
  mc.num_relations = d.num_relations();
  mc.embedding_dim = 8;
  Rng rng(4);
  auto model = std::move(CreateModel(ModelKind::kDistMult, mc, &rng))
                   .ValueOrDie("model");
  EXPECT_FALSE(EvaluateByPopularity(*model, d, d.test(), 0).ok());
}

TEST(StratifiedEvalTest, BucketsPartitionAllRanks) {
  const Dataset d = SmallDataset();
  ModelConfig mc;
  mc.num_entities = d.num_entities();
  mc.num_relations = d.num_relations();
  mc.embedding_dim = 8;
  Rng rng(5);
  auto model = std::move(CreateModel(ModelKind::kDistMult, mc, &rng))
                   .ValueOrDie("model");
  auto stratified = EvaluateByPopularity(*model, d, d.test(), 3);
  ASSERT_TRUE(stratified.ok()) << stratified.status().ToString();
  size_t total = 0;
  for (const LinkPredictionMetrics& m : stratified.value().buckets) {
    total += m.num_ranks;
  }
  EXPECT_EQ(total, d.test().size() * 2);
  // Bucket edges are nondecreasing.
  const auto& edges = stratified.value().bucket_max_degree;
  for (size_t b = 1; b < edges.size(); ++b) {
    EXPECT_GE(edges[b], edges[b - 1]);
  }
}

TEST(StratifiedEvalTest, SingleBucketMatchesAggregate) {
  const Dataset d = SmallDataset();
  ModelConfig mc;
  mc.num_entities = d.num_entities();
  mc.num_relations = d.num_relations();
  mc.embedding_dim = 8;
  Rng rng(6);
  auto model = std::move(CreateModel(ModelKind::kDistMult, mc, &rng))
                   .ValueOrDie("model");
  auto stratified = EvaluateByPopularity(*model, d, d.test(), 1);
  auto aggregate = EvaluateLinkPrediction(*model, d, d.test());
  ASSERT_TRUE(stratified.ok() && aggregate.ok());
  ASSERT_EQ(stratified.value().buckets.size(), 1u);
  // One ranking loop: both MRRs sum the same ranks in the same order.
  EXPECT_EQ(stratified.value().buckets[0].mrr, aggregate.value().mrr);
  EXPECT_EQ(stratified.value().buckets[0].num_ranks,
            aggregate.value().num_ranks);
}

}  // namespace
}  // namespace kgfd
