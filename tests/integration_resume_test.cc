#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/discovery.h"
#include "core/resume.h"
#include "kg/synthetic.h"
#include "kge/trainer.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"
#include "test_scratch.h"

namespace kgfd {
namespace {

/// End-to-end checkpoint/resume: a discovery run is killed mid-sweep by an
/// injected fault, restarted from its resume manifest, and must produce a
/// fact set bit-identical to an uninterrupted run.
class ResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPoints::Instance().Reset();
    dir_ = ScratchPath("resume");
    std::filesystem::create_directories(dir_);
    manifest_ = dir_ + "/resume.manifest";
  }
  void TearDown() override {
    FailPoints::Instance().Reset();
    std::filesystem::remove_all(dir_);
  }

  std::string dir_;
  std::string manifest_;
};

struct Fixture {
  Dataset dataset;
  std::unique_ptr<Model> model;
};

const Fixture& SharedFixture() {
  static Fixture* fixture = [] {
    SyntheticConfig c;
    c.name = "resume";
    c.num_entities = 50;
    c.num_relations = 6;  // several relations so a mid-sweep kill is real
    c.num_train = 500;
    c.num_valid = 20;
    c.num_test = 20;
    c.seed = 21;
    auto dataset =
        std::move(GenerateSyntheticDataset(c)).ValueOrDie("dataset");
    ModelConfig mc;
    mc.num_entities = dataset.num_entities();
    mc.num_relations = dataset.num_relations();
    mc.embedding_dim = 10;
    TrainerConfig tc;
    tc.epochs = 4;
    tc.batch_size = 64;
    tc.loss = LossKind::kSoftplus;
    tc.seed = 3;
    auto model =
        std::move(TrainModel(ModelKind::kDistMult, mc, dataset.train(), tc))
            .ValueOrDie("model");
    return new Fixture{std::move(dataset), std::move(model)};
  }();
  return *fixture;
}

DiscoveryOptions SmallOptions() {
  DiscoveryOptions o;
  o.top_n = 25;
  o.max_candidates = 60;
  o.seed = 99;
  return o;
}

bool SameFacts(const std::vector<DiscoveredFact>& a,
               const std::vector<DiscoveredFact>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    // Bitwise comparison — memcmp, not ==, so the test cannot pass through
    // FP tolerance or miss a -0.0/0.0 flip.
    if (std::memcmp(&a[i].triple, &b[i].triple, sizeof(Triple)) != 0 ||
        std::memcmp(&a[i].rank, &b[i].rank, sizeof(double)) != 0 ||
        std::memcmp(&a[i].subject_rank, &b[i].subject_rank,
                    sizeof(double)) != 0 ||
        std::memcmp(&a[i].object_rank, &b[i].object_rank,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// ------------------------------------------------------ manifest basics

TEST_F(ResumeTest, ManifestRoundTripsExactly) {
  ResumeManifest m;
  m.model_name = "DistMult";
  m.model_param_hash = 0xDEADBEEFCAFEF00DULL;
  m.num_entities = 50;
  m.num_relations = 6;
  m.num_triples = 500;
  m.seed = 99;
  m.strategy = "ENTITY_FREQUENCY";
  m.top_n = 25;
  m.max_candidates = 60;
  m.max_iterations = 5;
  m.filtered_ranking = 1;
  m.rank_aggregation = 2;
  m.relations = {0, 3, 1};
  RelationCheckpointEntry entry;
  entry.relation = 3;
  entry.num_candidates = 60;
  DiscoveredFact fact;
  fact.triple = Triple{4, 3, 7};
  fact.rank = 12.5;
  fact.subject_rank = 10.0;
  fact.object_rank = 15.0;
  entry.facts.push_back(fact);
  m.done.push_back(entry);

  ASSERT_TRUE(SaveResumeManifest(m, manifest_).ok());
  auto loaded = LoadResumeManifest(manifest_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(CheckManifestCompatible(loaded.value(), m).ok());
  ASSERT_EQ(loaded.value().done.size(), 1u);
  ASSERT_EQ(loaded.value().done[0].facts.size(), 1u);
  EXPECT_TRUE(SameFacts(loaded.value().done[0].facts, entry.facts));
  EXPECT_EQ(loaded.value().relations, m.relations);
}

TEST_F(ResumeTest, SaveIsAtomicNoTmpFileLeftBehind) {
  ResumeManifest m;
  m.model_name = "TransE";
  m.relations = {0};
  ASSERT_TRUE(SaveResumeManifest(m, manifest_).ok());
  EXPECT_TRUE(std::filesystem::exists(manifest_));
  EXPECT_FALSE(std::filesystem::exists(manifest_ + ".tmp"));
  // Overwrite with more progress: still atomic, still loadable.
  m.done.emplace_back();
  ASSERT_TRUE(SaveResumeManifest(m, manifest_).ok());
  auto loaded = LoadResumeManifest(manifest_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().done.size(), 1u);
}

TEST_F(ResumeTest, LoadRejectsGarbageAndTruncation) {
  EXPECT_FALSE(LoadResumeManifest(dir_ + "/nope").ok());

  std::ofstream(manifest_) << "this is not a manifest";
  EXPECT_FALSE(LoadResumeManifest(manifest_).ok());

  // A valid manifest truncated at every prefix length must error, never
  // crash or return partial data.
  ResumeManifest m;
  m.model_name = "DistMult";
  m.relations = {0, 1, 2};
  m.done.emplace_back();
  m.done.back().relation = 1;
  m.done.back().facts.resize(2);
  ASSERT_TRUE(SaveResumeManifest(m, manifest_).ok());
  std::ifstream in(manifest_, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  for (size_t len = 0; len < bytes.size(); len += 7) {
    const std::string trunc_path = dir_ + "/trunc.manifest";
    std::ofstream(trunc_path, std::ios::binary)
        << bytes.substr(0, len);
    EXPECT_FALSE(LoadResumeManifest(trunc_path).ok()) << "len=" << len;
  }
}

TEST_F(ResumeTest, EverySingleBitFlipInManifestRejected) {
  ResumeManifest m;
  m.model_name = "DistMult";
  m.model_param_hash = 0x1234ABCDu;
  m.relations = {0, 1, 2};
  m.done.emplace_back();
  m.done.back().relation = 1;
  m.done.back().facts.resize(3);
  ASSERT_TRUE(SaveResumeManifest(m, manifest_).ok());
  std::ifstream in(manifest_, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  ASSERT_TRUE(LoadResumeManifest(manifest_).ok());  // pristine loads

  // Fuzz every bit position: the CRC-32 trailer must reject each flip —
  // a flipped fact rank would otherwise resume into silently wrong output.
  const std::string flip_path = dir_ + "/flip.manifest";
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = bytes;
      corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << bit));
      std::ofstream(flip_path, std::ios::binary) << corrupt;
      EXPECT_FALSE(LoadResumeManifest(flip_path).ok())
          << "byte=" << i << " bit=" << bit;
    }
  }
}

TEST_F(ResumeTest, ManifestChecksumErrorIsDescriptive) {
  ResumeManifest m;
  m.model_name = "TransE";
  m.relations = {0};
  ASSERT_TRUE(SaveResumeManifest(m, manifest_).ok());
  std::ifstream in(manifest_, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x55);
  std::ofstream(manifest_, std::ios::binary) << bytes;
  auto result = LoadResumeManifest(manifest_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().ToString().find("checksum"), std::string::npos);
}

TEST_F(ResumeTest, CompatibilityCheckNamesTheMismatch) {
  const Fixture& f = SharedFixture();
  const DiscoveryOptions options = SmallOptions();
  Model* model = f.model.get();
  const std::vector<RelationId> relations =
      f.dataset.train().UsedRelations();
  const ResumeManifest a =
      MakeManifestHeader(model, f.dataset.train(), options, relations);

  ResumeManifest b = a;
  b.seed = a.seed + 1;
  const Status seed_status = CheckManifestCompatible(b, a);
  EXPECT_EQ(seed_status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(seed_status.ToString().find("seed"), std::string::npos);

  b = a;
  b.model_param_hash ^= 1;
  EXPECT_NE(CheckManifestCompatible(b, a).ToString().find(
                "model parameters"),
            std::string::npos);

  b = a;
  b.relations.pop_back();
  EXPECT_FALSE(CheckManifestCompatible(b, a).ok());

  EXPECT_TRUE(CheckManifestCompatible(a, a).ok());
}

TEST_F(ResumeTest, ModelParameterHashTracksWeights) {
  const Fixture& f = SharedFixture();
  const uint64_t h1 = HashModelParameters(f.model.get());
  EXPECT_EQ(h1, HashModelParameters(f.model.get()));  // stable
  // Any weight perturbation must change the fingerprint.
  Tensor* tensor = f.model->Parameters()[0].tensor;
  const float saved = tensor->data()[0];
  tensor->data()[0] = saved + 1.0f;
  EXPECT_NE(HashModelParameters(f.model.get()), h1);
  tensor->data()[0] = saved;
  EXPECT_EQ(HashModelParameters(f.model.get()), h1);
}

// --------------------------------------------------- resumable discovery

TEST_F(ResumeTest, UninterruptedResumableMatchesPlainDiscovery) {
  const Fixture& f = SharedFixture();
  const DiscoveryOptions options = SmallOptions();
  auto plain = DiscoverFacts(*f.model, f.dataset.train(), options);
  ASSERT_TRUE(plain.ok());

  ResumeOptions resume;
  resume.manifest_path = manifest_;
  auto resumable =
      DiscoverFactsResumable(*f.model, f.dataset.train(), options, resume);
  ASSERT_TRUE(resumable.ok()) << resumable.status().ToString();
  EXPECT_TRUE(SameFacts(resumable.value().facts, plain.value().facts));
  EXPECT_EQ(resumable.value().stats.num_candidates,
            plain.value().stats.num_candidates);
  EXPECT_EQ(resumable.value().stats.num_relations_processed,
            plain.value().stats.num_relations_processed);
}

TEST_F(ResumeTest, InjectedFaultMidSweepThenResumeIsBitIdentical) {
  const Fixture& f = SharedFixture();
  const DiscoveryOptions options = SmallOptions();
  auto reference = DiscoverFacts(*f.model, f.dataset.train(), options);
  ASSERT_TRUE(reference.ok());

  // First run: the fail point lets two relations finish, then kills the
  // sweep — the "crash". Serial path so the kill lands mid-sweep
  // deterministically.
  FailPoints& fp = FailPoints::Instance();
  ASSERT_TRUE(
      fp.Enable(kFailPointDiscoveryRelation, "2+return(IoError)").ok());
  ResumeOptions resume;
  resume.manifest_path = manifest_;
  auto crashed =
      DiscoverFactsResumable(*f.model, f.dataset.train(), options, resume);
  ASSERT_FALSE(crashed.ok());
  EXPECT_GE(fp.TriggerCount(kFailPointDiscoveryRelation), 1u);

  // The manifest survived the crash with exactly the completed prefix.
  auto mid = LoadResumeManifest(manifest_);
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(mid.value().done.size(), 2u);
  ASSERT_GT(f.dataset.train().UsedRelations().size(), 2u);

  // Second run: fault cleared, resumed from the manifest. Use the "off"
  // mode to count how many relations the live run actually processed.
  fp.Reset();
  ASSERT_TRUE(fp.Enable(kFailPointDiscoveryRelation, "off").ok());
  auto resumed =
      DiscoverFactsResumable(*f.model, f.dataset.train(), options, resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();

  // Bit-identical to the uninterrupted run...
  EXPECT_TRUE(SameFacts(resumed.value().facts, reference.value().facts));
  EXPECT_EQ(resumed.value().stats.num_candidates,
            reference.value().stats.num_candidates);
  // ...and the two finished relations were genuinely skipped, not redone.
  EXPECT_EQ(fp.HitCount(kFailPointDiscoveryRelation),
            f.dataset.train().UsedRelations().size() - 2);
}

TEST_F(ResumeTest, FinishedJobRerunIsANoOpWithSameFacts) {
  const Fixture& f = SharedFixture();
  const DiscoveryOptions options = SmallOptions();
  ResumeOptions resume;
  resume.manifest_path = manifest_;
  auto first =
      DiscoverFactsResumable(*f.model, f.dataset.train(), options, resume);
  ASSERT_TRUE(first.ok());

  // Second call finds every relation done: nothing runs, same facts.
  FailPoints& fp = FailPoints::Instance();
  ASSERT_TRUE(fp.Enable(kFailPointDiscoveryRelation, "off").ok());
  auto second =
      DiscoverFactsResumable(*f.model, f.dataset.train(), options, resume);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(SameFacts(second.value().facts, first.value().facts));
  EXPECT_EQ(fp.HitCount(kFailPointDiscoveryRelation), 0u);
}

TEST_F(ResumeTest, InvalidOptionsRejectedEvenWithNoLiveWork) {
  // Regression: options are validated before the manifest short-circuit.
  // A fully-done manifest used to let invalid options (which DiscoverFacts
  // itself would reject) read as a successful no-op resume.
  DiscoveryOptions options = SmallOptions();
  options.max_candidates = 0;
  ResumeOptions resume;
  resume.manifest_path = manifest_;
  const Fixture& f = SharedFixture();
  const auto result =
      DiscoverFactsResumable(*f.model, f.dataset.train(), options, resume);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ResumeTest, ResumeUnderThreadPoolMatchesSerialReference) {
  const Fixture& f = SharedFixture();
  const DiscoveryOptions options = SmallOptions();
  auto reference = DiscoverFacts(*f.model, f.dataset.train(), options);
  ASSERT_TRUE(reference.ok());

  // Crash the sweep under a pool (completion order is nondeterministic,
  // with several relations already persisted), then resume under the pool.
  FailPoints& fp = FailPoints::Instance();
  ASSERT_TRUE(
      fp.Enable(kFailPointDiscoveryRelation, "3+return(IoError)").ok());
  ThreadPool pool(4);
  ResumeOptions resume;
  resume.manifest_path = manifest_;
  auto crashed = DiscoverFactsResumable(*f.model, f.dataset.train(),
                                        options, resume, &pool);
  ASSERT_FALSE(crashed.ok());

  fp.Reset();
  auto resumed = DiscoverFactsResumable(*f.model, f.dataset.train(),
                                        options, resume, &pool);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(SameFacts(resumed.value().facts, reference.value().facts));
}

TEST_F(ResumeTest, RejectsManifestFromDifferentRun) {
  const Fixture& f = SharedFixture();
  DiscoveryOptions options = SmallOptions();
  ResumeOptions resume;
  resume.manifest_path = manifest_;
  ASSERT_TRUE(
      DiscoverFactsResumable(*f.model, f.dataset.train(), options, resume)
          .ok());

  // Same manifest, different options: refused, not silently mixed.
  options.top_n = options.top_n + 5;
  auto clash =
      DiscoverFactsResumable(*f.model, f.dataset.train(), options, resume);
  ASSERT_FALSE(clash.ok());
  EXPECT_EQ(clash.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(clash.status().ToString().find("top_n"), std::string::npos);
}

TEST_F(ResumeTest, RejectsDuplicateRelationList) {
  const Fixture& f = SharedFixture();
  DiscoveryOptions options = SmallOptions();
  const RelationId r = f.dataset.train().UsedRelations().front();
  options.relations = {r, r};
  ResumeOptions resume;
  resume.manifest_path = manifest_;
  auto result =
      DiscoverFactsResumable(*f.model, f.dataset.train(), options, resume);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ResumeTest, RequiresManifestPath) {
  const Fixture& f = SharedFixture();
  auto result = DiscoverFactsResumable(*f.model, f.dataset.train(),
                                       SmallOptions(), ResumeOptions{});
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ResumeTest, SaveRetryPolicyAbsorbsTransientManifestFaults) {
  const Fixture& f = SharedFixture();
  const DiscoveryOptions options = SmallOptions();
  auto reference = DiscoverFacts(*f.model, f.dataset.train(), options);
  ASSERT_TRUE(reference.ok());

  // Every third manifest save fails once; the save retry rides through.
  FailPoints& fp = FailPoints::Instance();
  ASSERT_TRUE(fp.Enable(kFailPointResumeSave, "33%return(IoError)").ok());
  ResumeOptions resume;
  resume.manifest_path = manifest_;
  resume.save_retry.max_attempts = 10;
  resume.save_retry.initial_backoff_ms = 0.1;
  auto result =
      DiscoverFactsResumable(*f.model, f.dataset.train(), options, resume);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(SameFacts(result.value().facts, reference.value().facts));
}

TEST_F(ResumeTest, ChainsUserCallbackAfterPersisting) {
  const Fixture& f = SharedFixture();
  DiscoveryOptions options = SmallOptions();
  std::vector<RelationId> seen;
  options.on_relation_complete = [&seen](RelationCompletion&& c) {
    seen.push_back(c.relation);
  };
  ResumeOptions resume;
  resume.manifest_path = manifest_;
  auto result =
      DiscoverFactsResumable(*f.model, f.dataset.train(), options, resume);
  ASSERT_TRUE(result.ok());
  // Serial path: the user's callback saw every relation, in order.
  EXPECT_EQ(seen, f.dataset.train().UsedRelations());
}

}  // namespace
}  // namespace kgfd
