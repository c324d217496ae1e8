#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
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

/// Writes `m` the way DiscoverFactsResumable does: its fingerprint, then
/// one appended record per finished round and relation.
void WriteManifest(const ResumeManifest& m, const std::string& path) {
  auto writer = ResumeManifestWriter::Create(path, m);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  for (const AdaptiveRelationPartial& partial : m.partial) {
    for (const AdaptiveRoundRecord& round : partial.rounds) {
      ASSERT_TRUE(writer.value()->AppendRound(partial.relation, round).ok());
    }
  }
  for (const RelationCheckpointEntry& entry : m.done) {
    ASSERT_TRUE(writer.value()->AppendRelation(entry).ok());
  }
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// The options of the damaged-manifest tests: few facts per relation, so
/// every byte of a real sweep's manifest can be damaged in turn.
DiscoveryOptions TinyOptions() {
  DiscoveryOptions o = SmallOptions();
  o.top_n = 3;
  return o;
}

/// Checks one damaged copy of a finished sweep's manifest against the log
/// contract: it loads a whole-record prefix of what was written or is
/// refused with an IoError, never yielding a record that was not written.
/// The first time each outcome is seen, a resume from the damaged file
/// must give facts byte-identical to an uninterrupted run (or, refused,
/// fail the same way).
class DamagedManifestChecker {
 public:
  DamagedManifestChecker(const std::string& dir,
                         const ResumeManifest& written)
      : dir_(dir), written_(written) {
    const Fixture& f = SharedFixture();
    reference_ = std::move(
        DiscoverFacts(*f.model, f.dataset.train(), TinyOptions()))
                     .ValueOrDie("reference");
  }

  void Check(const std::string& damaged, const std::string& what) {
    const std::string path = dir_ + "/damaged.manifest";
    WriteBytes(path, damaged);
    auto loaded = LoadResumeManifest(path);
    int outcome = -1;  // refused
    if (!loaded.ok()) {
      EXPECT_EQ(loaded.status().code(), StatusCode::kIoError) << what;
    } else {
      const ResumeManifest& m = loaded.value();
      EXPECT_TRUE(CheckManifestCompatible(m, written_).ok()) << what;
      EXPECT_TRUE(m.partial.empty()) << what;
      ASSERT_LE(m.done.size(), written_.done.size()) << what;
      for (size_t i = 0; i < m.done.size(); ++i) {
        EXPECT_EQ(m.done[i].relation, written_.done[i].relation) << what;
        EXPECT_EQ(m.done[i].num_candidates, written_.done[i].num_candidates)
            << what;
        EXPECT_TRUE(SameFacts(m.done[i].facts, written_.done[i].facts))
            << what;
      }
      outcome = static_cast<int>(m.done.size());
    }
    if (!resumed_.insert(outcome).second) return;
    const Fixture& f = SharedFixture();
    ResumeOptions resume;
    resume.manifest_path = path;
    auto result = DiscoverFactsResumable(*f.model, f.dataset.train(),
                                         TinyOptions(), resume);
    if (outcome < 0) {
      ASSERT_FALSE(result.ok()) << what;
      EXPECT_EQ(result.status().code(), StatusCode::kIoError) << what;
      return;
    }
    ASSERT_TRUE(result.ok()) << what << ": " << result.status().ToString();
    EXPECT_TRUE(SameFacts(result.value().facts, reference_.facts)) << what;
  }

  /// Distinct outcomes seen: -1 (refused) or the number of relations
  /// loaded.
  const std::set<int>& outcomes() const { return resumed_; }

 private:
  std::string dir_;
  ResumeManifest written_;
  DiscoveryResult reference_;
  std::set<int> resumed_;
};

/// Runs a finished sweep under TinyOptions and returns its manifest bytes.
std::string FinishedSweepManifest(const std::string& path,
                                  ResumeManifest* loaded) {
  const Fixture& f = SharedFixture();
  std::filesystem::remove(path);
  ResumeOptions resume;
  resume.manifest_path = path;
  EXPECT_TRUE(DiscoverFactsResumable(*f.model, f.dataset.train(),
                                     TinyOptions(), resume)
                  .ok());
  *loaded = std::move(LoadResumeManifest(path)).ValueOrDie("manifest");
  return ReadBytes(path);
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
  m.strategy = "ADAPTIVE";
  m.top_n = 25;
  m.max_candidates = 60;
  m.max_iterations = 5;
  m.filtered_ranking = 1;
  m.rank_aggregation = 2;
  m.adaptive_rounds = 4;
  m.adaptive_exploration = 0.1;
  m.relations = {0, 3, 1};
  RelationCheckpointEntry entry;
  entry.relation = 3;
  entry.num_candidates = 60;
  DiscoveredFact fact;
  fact.triple = Triple{4, 3, 7};
  fact.rank = 12.5;
  fact.subject_rank = 10.0;
  fact.object_rank = -0.0;
  entry.facts.push_back(fact);
  m.done.push_back(entry);
  // Relation 3's rounds precede its done record (which supersedes them);
  // relation 1 is still mid-relation.
  AdaptiveRoundRecord round;
  round.arm = "GRAPH_DEGREE";
  round.num_candidates = 15;
  round.facts = {fact};
  m.partial.push_back({3, {round}});
  m.partial.push_back({1, {round, round}});
  m.partial.back().rounds[1].round = 1;
  m.partial.back().rounds[1].arm = "MODEL_SCORE";

  WriteManifest(m, manifest_);
  auto loaded = LoadResumeManifest(manifest_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(CheckManifestCompatible(loaded.value(), m).ok());
  ASSERT_EQ(loaded.value().done.size(), 1u);
  EXPECT_EQ(loaded.value().done[0].relation, 3u);
  EXPECT_EQ(loaded.value().done[0].num_candidates, 60u);
  EXPECT_TRUE(SameFacts(loaded.value().done[0].facts, entry.facts));
  EXPECT_EQ(loaded.value().relations, m.relations);
  ASSERT_EQ(loaded.value().partial.size(), 1u);
  const AdaptiveRelationPartial& partial = loaded.value().partial[0];
  EXPECT_EQ(partial.relation, 1u);
  ASSERT_EQ(partial.rounds.size(), 2u);
  EXPECT_EQ(partial.rounds[1].round, 1u);
  EXPECT_EQ(partial.rounds[1].arm, "MODEL_SCORE");
  EXPECT_EQ(partial.rounds[1].num_candidates, 15u);
  EXPECT_TRUE(SameFacts(partial.rounds[1].facts, round.facts));
}

TEST_F(ResumeTest, SaveIsAtomicNoTmpFileLeftBehind) {
  ResumeManifest m;
  m.model_name = "TransE";
  m.relations = {0};
  auto writer = ResumeManifestWriter::Create(manifest_, m);
  ASSERT_TRUE(writer.ok());
  EXPECT_TRUE(std::filesystem::exists(manifest_));
  EXPECT_FALSE(std::filesystem::exists(manifest_ + ".tmp"));
  // More progress is appended in place: still loadable.
  ASSERT_TRUE(writer.value()->AppendRelation(RelationCheckpointEntry{}).ok());
  auto loaded = LoadResumeManifest(manifest_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().done.size(), 1u);
}

TEST_F(ResumeTest, LoadRejectsGarbageAndTruncation) {
  EXPECT_FALSE(LoadResumeManifest(dir_ + "/nope").ok());

  std::ofstream(manifest_) << "this is not a manifest";
  EXPECT_EQ(LoadResumeManifest(manifest_).status().code(),
            StatusCode::kIoError);

  // A version-3 manifest (the whole-file-CRC format before the log) is
  // refused by its version, not misread.
  std::string old_format = "KGFDRSUM";
  const uint32_t version3 = 3;
  old_format.append(reinterpret_cast<const char*>(&version3), 4);
  old_format.append(64, '\0');
  WriteBytes(manifest_, old_format);
  auto old = LoadResumeManifest(manifest_);
  ASSERT_FALSE(old.ok());
  EXPECT_EQ(old.status().code(), StatusCode::kIoError);
  EXPECT_NE(old.status().message().find("version 3"), std::string::npos)
      << old.status().ToString();

  // Every prefix of a real sweep's manifest: a torn record is rejected
  // with everything after it, the whole records before it load, and a
  // resume from the prefix finishes bit-identically.
  ResumeManifest written;
  const std::string bytes = FinishedSweepManifest(manifest_, &written);
  ASSERT_GT(written.done.size(), 2u);
  DamagedManifestChecker checker(dir_, written);
  for (size_t len = 0; len <= bytes.size(); ++len) {
    checker.Check(bytes.substr(0, len), "len=" + std::to_string(len));
  }
  // Refused (cut inside the header) and every count of whole relations.
  EXPECT_EQ(checker.outcomes().size(), written.done.size() + 2);
}

TEST_F(ResumeTest, EverySingleBitFlipInManifestRejected) {
  // Fuzz every bit position of a real sweep's manifest: the CRC-32 of the
  // record holding the flip rejects it (with the records after it), so a
  // flipped fact rank can never resume into silently wrong output.
  ResumeManifest written;
  const std::string bytes = FinishedSweepManifest(manifest_, &written);
  DamagedManifestChecker checker(dir_, written);
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = bytes;
      corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << bit));
      checker.Check(corrupt, "byte=" + std::to_string(i) +
                                 " bit=" + std::to_string(bit));
    }
  }
  EXPECT_EQ(checker.outcomes().size(), written.done.size() + 1);
}

TEST_F(ResumeTest, ManifestChecksumErrorIsDescriptive) {
  ResumeManifest m;
  m.model_name = "TransE";
  m.relations = {0};
  WriteManifest(m, manifest_);
  std::string bytes = ReadBytes(manifest_);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x55);
  WriteBytes(manifest_, bytes);
  auto result = LoadResumeManifest(manifest_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().ToString().find("checksum"), std::string::npos);
}

TEST_F(ResumeTest, ManifestIsAppendOnlyOneFramePerRelation) {
  // Each finished relation appends exactly one frame and leaves every
  // earlier byte as it was, so a sweep writes its final manifest size in
  // total (ROADMAP item 9's bound is 2x) instead of rewriting the file.
  const Fixture& f = SharedFixture();
  DiscoveryOptions options = SmallOptions();
  // What the sweep writes before its first relation: the header alone.
  const std::string header_only = dir_ + "/header.manifest";
  WriteManifest(MakeManifestHeader(f.model.get(), f.dataset.train(), options,
                                   f.dataset.train().UsedRelations()),
                header_only);
  std::string previous = ReadBytes(header_only);
  size_t relations_seen = 0;
  options.on_relation_complete = [&](RelationCompletion&&) {
    const std::string now = ReadBytes(manifest_);
    ASSERT_GE(now.size(), previous.size() + 8);
    EXPECT_EQ(now.compare(0, previous.size(), previous), 0)
        << "relation " << relations_seen << " rewrote earlier bytes";
    uint32_t len = 0;
    std::memcpy(&len, now.data() + previous.size(), sizeof(len));
    EXPECT_EQ(now.size(), previous.size() + 8 + len)
        << "relation " << relations_seen << " appended more than one frame";
    previous = now;
    ++relations_seen;
  };
  ResumeOptions resume;
  resume.manifest_path = manifest_;
  auto result =
      DiscoverFactsResumable(*f.model, f.dataset.train(), options, resume);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(relations_seen, f.dataset.train().UsedRelations().size());
  EXPECT_EQ(ReadBytes(manifest_), previous);
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
  // Each failed append cut its torn frame off before the retry, so the log
  // on disk replays every relation.
  fp.Reset();
  auto on_disk = LoadResumeManifest(manifest_);
  ASSERT_TRUE(on_disk.ok()) << on_disk.status().ToString();
  EXPECT_EQ(on_disk.value().done.size(),
            f.dataset.train().UsedRelations().size());
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
