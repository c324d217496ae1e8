#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "kge/kernels.h"
#include "kge/model.h"
#include "util/rng.h"

namespace kgfd {
namespace {

using kernels::Avx2Kernels;
using kernels::KernelOps;
using kernels::PortableKernels;
using kernels::SetKernelsOverride;

/// Every test runs under an explicit kernel override; the fixture restores
/// normal cpuid dispatch afterwards so test order cannot leak a backend.
class KernelsTest : public ::testing::Test {
 protected:
  void TearDown() override { SetKernelsOverride(nullptr); }
};

/// The shapes the tiling has to get right: odd dims, dims smaller than the
/// AVX2 column step, a dim spanning several blocks, entity counts that are
/// not multiples of the 8-row tile (including fewer rows than one tile), and
/// one entity count past the portable backend's 256-row cache tile.
struct Shape {
  size_t dim;
  size_t entities;
};
const Shape kShapes[] = {
    {3, 5}, {3, 23}, {6, 8}, {7, 67}, {12, 5}, {33, 23}, {40, 67}, {5, 300},
};

struct ModelCase {
  ModelKind kind;
  int transe_norm;
  const char* label;
};
const ModelCase kModelCases[] = {
    {ModelKind::kTransE, 1, "TransE-L1"},
    {ModelKind::kTransE, 2, "TransE-L2"},
    {ModelKind::kDistMult, 1, "DistMult"},
    {ModelKind::kComplEx, 1, "ComplEx"},
};

std::unique_ptr<Model> MakeModel(const ModelCase& mc, const Shape& shape,
                                 uint64_t seed = 31) {
  ModelConfig config;
  config.num_entities = shape.entities;
  config.num_relations = 3;
  // ComplEx stores real/imaginary halves, so round odd dims up to even.
  config.embedding_dim = (mc.kind == ModelKind::kComplEx && shape.dim % 2 != 0)
                             ? shape.dim + 1
                             : shape.dim;
  config.transe_norm = mc.transe_norm;
  Rng rng(seed);
  return std::move(CreateModel(mc.kind, config, &rng)).ValueOrDie("model");
}

/// ULP-scaled closeness: the batch path may associate sums differently from
/// the per-triple path (ComplEx factors the complex product per query), so
/// allow an error linear in the accumulation length, scaled to the result's
/// magnitude — a 1-ULP-per-term envelope.
double UlpTolerance(double got, double want, size_t terms) {
  const double scale = std::max({1.0, std::fabs(got), std::fabs(want)});
  return static_cast<double>(terms + 1) * DBL_EPSILON * scale;
}

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

std::vector<std::vector<double>> BatchObjects(const Model& model,
                                              const std::vector<SideQuery>& qs) {
  std::vector<std::vector<double>> scores(qs.size());
  std::vector<std::vector<double>*> outs(qs.size());
  for (size_t i = 0; i < qs.size(); ++i) outs[i] = &scores[i];
  model.ScoreObjectsBatch(qs.data(), qs.size(), outs.data());
  return scores;
}

std::vector<std::vector<double>> BatchSubjects(const Model& model,
                                               const std::vector<SideQuery>& qs) {
  std::vector<std::vector<double>> scores(qs.size());
  std::vector<std::vector<double>*> outs(qs.size());
  for (size_t i = 0; i < qs.size(); ++i) outs[i] = &scores[i];
  model.ScoreSubjectsBatch(qs.data(), qs.size(), outs.data());
  return scores;
}

std::vector<SideQuery> AllSideQueries(const Model& model) {
  std::vector<SideQuery> qs;
  for (RelationId r = 0; r < model.num_relations(); ++r) {
    for (EntityId e = 0; e < model.num_entities(); ++e) qs.push_back({e, r});
  }
  return qs;
}

/// Batch scoring under a given backend must agree with per-triple Score()
/// for every (query, entity) pair, within the ULP-scaled envelope.
void CheckAgainstPerTriple(const KernelOps* backend, const char* backend_name) {
  SetKernelsOverride(backend);
  for (const ModelCase& mc : kModelCases) {
    for (const Shape& shape : kShapes) {
      auto model = MakeModel(mc, shape);
      const std::vector<SideQuery> qs = AllSideQueries(*model);
      const auto obj = BatchObjects(*model, qs);
      const auto sub = BatchSubjects(*model, qs);
      for (size_t q = 0; q < qs.size(); ++q) {
        ASSERT_EQ(obj[q].size(), model->num_entities());
        ASSERT_EQ(sub[q].size(), model->num_entities());
        const size_t terms = model->embedding_dim();
        for (EntityId e = 0; e < model->num_entities(); ++e) {
          // Built only for a failure message: the 300-entity shape alone
          // checks over a million pairs.
          auto ctx = [&] {
            return std::string(backend_name) + " " + mc.label +
                   " dim=" + std::to_string(terms) +
                   " |E|=" + std::to_string(shape.entities) +
                   " q=" + std::to_string(qs[q].entity) +
                   " r=" + std::to_string(qs[q].relation) +
                   " e=" + std::to_string(e);
          };
          const double obj_want =
              model->Score({qs[q].entity, qs[q].relation, e});
          const double sub_want =
              model->Score({e, qs[q].relation, qs[q].entity});
          EXPECT_NEAR(obj[q][e], obj_want,
                      UlpTolerance(obj[q][e], obj_want, terms))
              << "objects " << ctx();
          EXPECT_NEAR(sub[q][e], sub_want,
                      UlpTolerance(sub[q][e], sub_want, terms))
              << "subjects " << ctx();
        }
      }
    }
  }
}

TEST_F(KernelsTest, PortableBatchMatchesPerTripleScore) {
  CheckAgainstPerTriple(&PortableKernels(), "portable");
}

TEST_F(KernelsTest, Avx2BatchMatchesPerTripleScore) {
  if (Avx2Kernels() == nullptr) {
    GTEST_SKIP() << "AVX2 kernels not built or not supported on this CPU";
  }
  CheckAgainstPerTriple(Avx2Kernels(), "avx2");
}

/// The determinism contract: AVX2 vectorizes across entities with the same
/// per-(query, entity) operation order as the scalar path, so the two
/// backends must agree BIT-FOR-BIT — discovery goldens and resume manifests
/// depend on it.
TEST_F(KernelsTest, Avx2BitIdenticalToPortable) {
  if (Avx2Kernels() == nullptr) {
    GTEST_SKIP() << "AVX2 kernels not built or not supported on this CPU";
  }
  for (const ModelCase& mc : kModelCases) {
    for (const Shape& shape : kShapes) {
      auto model = MakeModel(mc, shape);
      const std::vector<SideQuery> qs = AllSideQueries(*model);
      SetKernelsOverride(&PortableKernels());
      const auto obj_portable = BatchObjects(*model, qs);
      const auto sub_portable = BatchSubjects(*model, qs);
      SetKernelsOverride(Avx2Kernels());
      const auto obj_avx2 = BatchObjects(*model, qs);
      const auto sub_avx2 = BatchSubjects(*model, qs);
      for (size_t q = 0; q < qs.size(); ++q) {
        for (EntityId e = 0; e < model->num_entities(); ++e) {
          EXPECT_EQ(Bits(obj_portable[q][e]), Bits(obj_avx2[q][e]))
              << mc.label << " objects dim=" << model->embedding_dim()
              << " |E|=" << shape.entities << " q=" << q << " e=" << e;
          EXPECT_EQ(Bits(sub_portable[q][e]), Bits(sub_avx2[q][e]))
              << mc.label << " subjects dim=" << model->embedding_dim()
              << " |E|=" << shape.entities << " q=" << q << " e=" << e;
        }
      }
    }
  }
}

/// A multi-query batch must reproduce the single-query path exactly; the
/// query-block size used by the hot paths (kQueryBlock) straddled by one.
TEST_F(KernelsTest, MultiQueryBatchBitIdenticalToSingleQuery) {
  const size_t num_queries = kernels::kQueryBlock + 1;
  for (const KernelOps* backend :
       {&PortableKernels(), Avx2Kernels()}) {
    if (backend == nullptr) continue;
    SetKernelsOverride(backend);
    for (const ModelCase& mc : kModelCases) {
      auto model = MakeModel(mc, {12, 23});
      std::vector<SideQuery> qs;
      for (size_t i = 0; i < num_queries; ++i) {
        // Includes duplicate queries — the cache tile must not care.
        qs.push_back({static_cast<EntityId>(i % model->num_entities()),
                      static_cast<RelationId>(i % model->num_relations())});
      }
      const auto batch = BatchObjects(*model, qs);
      std::vector<double> single;
      for (size_t q = 0; q < qs.size(); ++q) {
        model->ScoreObjects(qs[q].entity, qs[q].relation, &single);
        ASSERT_EQ(batch[q].size(), single.size());
        for (size_t e = 0; e < single.size(); ++e) {
          EXPECT_EQ(Bits(batch[q][e]), Bits(single[e]))
              << backend->name << " " << mc.label << " q=" << q
              << " e=" << e;
        }
      }
    }
  }
}

/// Pin the kernel semantics themselves on a tiny handcrafted table — signs,
/// the sqrt in L2, and the ComplEx pairing are easy to silently flip.
TEST_F(KernelsTest, PortableKernelSemanticsOnHandcraftedTable) {
  // Two rows, dim 2, in flat row-major float storage.
  const float table[] = {1.0f, 2.0f, -3.0f, 0.5f};
  const double q0[] = {2.0, 2.0};
  const double* qs[] = {q0};
  std::vector<double> out(2);
  double* outs[] = {out.data()};
  const KernelOps& ops = PortableKernels();

  ops.l1_scores(table, 2, 2, qs, 1, outs);
  EXPECT_DOUBLE_EQ(out[0], -(1.0 + 0.0));        // -(|2-1| + |2-2|)
  EXPECT_DOUBLE_EQ(out[1], -(5.0 + 1.5));        // -(|2+3| + |2-0.5|)

  ops.l2_scores(table, 2, 2, qs, 1, outs);
  EXPECT_DOUBLE_EQ(out[0], -1.0);                // -sqrt(1 + 0)
  EXPECT_DOUBLE_EQ(out[1], -std::sqrt(25.0 + 2.25));

  ops.dot_scores(table, 2, 2, qs, 1, outs);
  EXPECT_DOUBLE_EQ(out[0], 2.0 + 4.0);
  EXPECT_DOUBLE_EQ(out[1], -6.0 + 1.0);

  // paired_dot with half=1: rows are [re | im] pairs.
  ops.paired_dot_scores(table, 2, 1, qs, 1, outs);
  EXPECT_DOUBLE_EQ(out[0], 2.0 * 1.0 + 2.0 * 2.0);
  EXPECT_DOUBLE_EQ(out[1], 2.0 * -3.0 + 2.0 * 0.5);
}

TEST_F(KernelsTest, DispatchReportsBackends) {
  EXPECT_STREQ(PortableKernels().name, "portable");
  if (Avx2Kernels() != nullptr) {
    EXPECT_STREQ(Avx2Kernels()->name, "avx2");
    EXPECT_TRUE(kernels::CpuSupportsAvx2());
  }
  // ActiveKernelName always reports a real backend.
  const std::string active = kernels::ActiveKernelName();
  EXPECT_TRUE(active == "portable" || active == "avx2") << active;
  // An override redirects ActiveKernels() until cleared.
  SetKernelsOverride(&PortableKernels());
  EXPECT_EQ(&kernels::ActiveKernels(), &PortableKernels());
}

/// RAII env-var override; ResolveDispatch caches its decision but
/// ValidateKernelBackendEnv re-reads the environment on every call, which
/// is what lets binaries check it cleanly at startup.
class ScopedBackendEnv {
 public:
  explicit ScopedBackendEnv(const char* value) {
    const char* old = std::getenv("KGFD_KERNEL_BACKEND");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value != nullptr) {
      ::setenv("KGFD_KERNEL_BACKEND", value, 1);
    } else {
      ::unsetenv("KGFD_KERNEL_BACKEND");
    }
  }
  ~ScopedBackendEnv() {
    if (had_old_) {
      ::setenv("KGFD_KERNEL_BACKEND", old_.c_str(), 1);
    } else {
      ::unsetenv("KGFD_KERNEL_BACKEND");
    }
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

TEST(KernelBackendEnvTest, UnsetAndKnownBackendsValidate) {
  {
    ScopedBackendEnv env(nullptr);
    EXPECT_TRUE(kernels::ValidateKernelBackendEnv().ok());
  }
  {
    ScopedBackendEnv env("");
    EXPECT_TRUE(kernels::ValidateKernelBackendEnv().ok());
  }
  {
    ScopedBackendEnv env("portable");
    EXPECT_TRUE(kernels::ValidateKernelBackendEnv().ok());
  }
}

TEST(KernelBackendEnvTest, UnknownBackendIsACleanError) {
  // Regression: a typo'd KGFD_KERNEL_BACKEND used to only surface as a
  // std::abort the first time dispatch resolved, deep inside scoring.
  ScopedBackendEnv env("sse9");
  const Status status = kernels::ValidateKernelBackendEnv();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("sse9"), std::string::npos);
  EXPECT_NE(status.message().find("portable"), std::string::npos)
      << "error should name the valid choices: " << status.message();
}

TEST(KernelBackendEnvTest, Avx2MatchesAvailability) {
  ScopedBackendEnv env("avx2");
  const Status status = kernels::ValidateKernelBackendEnv();
  if (kernels::Avx2Kernels() != nullptr) {
    EXPECT_TRUE(status.ok());
  } else {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("avx2"), std::string::npos);
  }
}

}  // namespace
}  // namespace kgfd
