#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "kge/embedding_store.h"
#include "kge/kernels.h"
#include "kge/model.h"
#include "kge/models/pair_embedding_model.h"
#include "kge/tensor.h"
#include "util/rng.h"

namespace kgfd {
namespace {

// The quantized determinism contract (see kernels.h): quantized operands
// must produce scores BIT-IDENTICAL to dequantizing the whole table into
// floats and scoring the float operand, and the portable and AVX2 backends
// must be bit-identical to each other on quantized operands. These tests
// pin both properties, which is what lets the drift tests reason about a
// single quantized score function instead of one per backend.

constexpr size_t kRows = 531;  // not a multiple of 8 or 256: tails covered
constexpr size_t kDim = 24;
constexpr size_t kQueries = 7;

struct KernelCase {
  Tensor table;
  QuantizedTable quant;
  std::vector<std::vector<double>> queries;
  std::vector<const double*> qs;
};

KernelCase MakeCase(EmbeddingDtype dtype) {
  KernelCase c;
  c.table = Tensor(kRows, kDim);
  Rng rng(91);
  c.table.InitUniform(&rng, -0.7f, 0.7f);
  c.quant = QuantizedTable::Quantize(c.table, dtype);
  c.queries.resize(kQueries, std::vector<double>(kDim));
  for (auto& q : c.queries) {
    for (double& v : q) v = rng.UniformFloat(-1.0f, 1.0f);
  }
  for (const auto& q : c.queries) c.qs.push_back(q.data());
  return c;
}

/// Dequantizes the whole table into a float Tensor with DequantizeRow —
/// the reference the in-kernel tile dequantization must match bitwise.
Tensor DequantizeAll(const QuantizedTable& q) {
  Tensor t(q.rows(), q.cols());
  for (size_t r = 0; r < q.rows(); ++r) q.DequantizeRow(r, t.Row(r));
  return t;
}

/// Runs one kernel over `table` (a float or a quantized operand).
std::vector<std::vector<double>> ScoreWith(kernels::ScoreFn fn,
                                           const kernels::EntityTable& table,
                                           size_t dim, const KernelCase& c) {
  std::vector<std::vector<double>> outs(kQueries,
                                        std::vector<double>(kRows));
  std::vector<double*> out_ptrs;
  for (auto& o : outs) out_ptrs.push_back(o.data());
  fn(table, kRows, dim, c.qs.data(), kQueries, out_ptrs.data());
  return outs;
}

void ExpectBitIdentical(const std::vector<std::vector<double>>& a,
                        const std::vector<std::vector<double>>& b,
                        const char* what) {
  for (size_t q = 0; q < a.size(); ++q) {
    for (size_t e = 0; e < a[q].size(); ++e) {
      ASSERT_EQ(a[q][e], b[q][e])
          << what << " query " << q << " entity " << e;
    }
  }
}

struct NamedKernel {
  const char* name;
  kernels::ScoreFn fn;
  bool paired;  // half-width dim parameter (ComplEx)
};

std::vector<NamedKernel> Kernels(const kernels::KernelOps& ops) {
  return {
      {"l1", ops.l1_scores, false},
      {"l2", ops.l2_scores, false},
      {"dot", ops.dot_scores, false},
      {"paired_dot", ops.paired_dot_scores, true},
  };
}

class QuantKernelTest : public ::testing::TestWithParam<EmbeddingDtype> {};

TEST_P(QuantKernelTest, PortableQuantMatchesDequantizedFloatBitwise) {
  for (const NamedKernel& k : Kernels(kernels::PortableKernels())) {
    const size_t dim = k.paired ? kDim / 2 : kDim;
    KernelCase c = MakeCase(GetParam());
    const Tensor dequantized = DequantizeAll(c.quant);
    const auto expected =
        ScoreWith(k.fn, kernels::EntityTable{dequantized.flat()}, dim, c);
    const auto actual = ScoreWith(k.fn, c.quant.KernelTable(), dim, c);
    ExpectBitIdentical(expected, actual, k.name);
  }
}

TEST_P(QuantKernelTest, Avx2QuantMatchesPortableQuantBitwise) {
  const kernels::KernelOps* avx2 = kernels::Avx2Kernels();
  if (avx2 == nullptr || !kernels::CpuSupportsAvx2()) {
    GTEST_SKIP() << "AVX2 backend unavailable";
  }
  const auto avx2_kernels = Kernels(*avx2);
  const auto portable_kernels = Kernels(kernels::PortableKernels());
  for (size_t i = 0; i < avx2_kernels.size(); ++i) {
    const size_t dim = avx2_kernels[i].paired ? kDim / 2 : kDim;
    KernelCase c = MakeCase(GetParam());
    const auto expected =
        ScoreWith(portable_kernels[i].fn, c.quant.KernelTable(), dim, c);
    const auto actual =
        ScoreWith(avx2_kernels[i].fn, c.quant.KernelTable(), dim, c);
    ExpectBitIdentical(expected, actual, avx2_kernels[i].name);
  }
}

TEST_P(QuantKernelTest, Avx2QuantMatchesDequantizedFloatBitwise) {
  const kernels::KernelOps* avx2 = kernels::Avx2Kernels();
  if (avx2 == nullptr || !kernels::CpuSupportsAvx2()) {
    GTEST_SKIP() << "AVX2 backend unavailable";
  }
  for (const NamedKernel& k : Kernels(*avx2)) {
    const size_t dim = k.paired ? kDim / 2 : kDim;
    KernelCase c = MakeCase(GetParam());
    const Tensor dequantized = DequantizeAll(c.quant);
    const auto expected =
        ScoreWith(k.fn, kernels::EntityTable{dequantized.flat()}, dim, c);
    const auto actual = ScoreWith(k.fn, c.quant.KernelTable(), dim, c);
    ExpectBitIdentical(expected, actual, k.name);
  }
}

INSTANTIATE_TEST_SUITE_P(Dtypes, QuantKernelTest,
                         ::testing::Values(EmbeddingDtype::kInt8,
                                           EmbeddingDtype::kInt16),
                         [](const ::testing::TestParamInfo<EmbeddingDtype>&
                                info) {
                           return EmbeddingDtypeName(info.param);
                         });

/// Model-level contract: a model whose entity table was swapped for its
/// quantized form must score batches bit-identically to a float model
/// built from the dequantized table — on every dispatch backend — and its
/// scalar Score() must agree with the batch path.
void ExpectQuantizedModelMatchesFloat(ModelKind kind, EmbeddingDtype dtype,
                                      int transe_norm) {
  ModelConfig config;
  config.num_entities = 97;
  config.num_relations = 5;
  config.embedding_dim = 16;
  config.transe_norm = transe_norm;
  Rng rng(92);
  auto quant_model =
      std::move(CreateModel(kind, config, &rng)).ValueOrDie("create");
  auto* pair = static_cast<PairEmbeddingModel*>(quant_model.get());
  const QuantizedTable table =
      QuantizedTable::Quantize(pair->entities(), dtype);

  // Float reference: same relations, entities = dequantized table.
  Rng rng2(92);
  auto float_model =
      std::move(CreateModel(kind, config, &rng2)).ValueOrDie("create");
  {
    const Tensor dequantized = DequantizeAll(table);
    std::vector<NamedTensor> params = float_model->Parameters();
    std::memcpy(params[0].tensor->data().data(), dequantized.flat(),
                dequantized.size() * sizeof(float));
  }
  pair->AttachQuantizedEntities(table);
  ASSERT_TRUE(quant_model->quantized_entities() != nullptr);
  ASSERT_NE(quant_model->StorageFingerprint(), 0u);

  for (const kernels::KernelOps* ops :
       {&kernels::PortableKernels(), kernels::Avx2Kernels()}) {
    if (ops == nullptr) continue;
    if (ops != &kernels::PortableKernels() &&
        !kernels::CpuSupportsAvx2()) {
      continue;
    }
    kernels::SetKernelsOverride(ops);
    std::vector<SideQuery> queries;
    for (size_t q = 0; q < 9; ++q) {
      queries.push_back(SideQuery{static_cast<EntityId>(q * 7 % 97),
                                  static_cast<RelationId>(q % 5)});
    }
    std::vector<std::vector<double>> quant_out(queries.size());
    std::vector<std::vector<double>> float_out(queries.size());
    std::vector<std::vector<double>*> quant_ptrs, float_ptrs;
    for (size_t q = 0; q < queries.size(); ++q) {
      quant_ptrs.push_back(&quant_out[q]);
      float_ptrs.push_back(&float_out[q]);
    }
    quant_model->ScoreObjectsBatch(queries.data(), queries.size(),
                                   quant_ptrs.data());
    float_model->ScoreObjectsBatch(queries.data(), queries.size(),
                                   float_ptrs.data());
    for (size_t q = 0; q < queries.size(); ++q) {
      ASSERT_EQ(quant_out[q].size(), float_out[q].size());
      for (size_t e = 0; e < quant_out[q].size(); ++e) {
        ASSERT_EQ(quant_out[q][e], float_out[q][e])
            << ops->name << " query " << q << " entity " << e;
      }
    }
    quant_model->ScoreSubjectsBatch(queries.data(), queries.size(),
                                    quant_ptrs.data());
    float_model->ScoreSubjectsBatch(queries.data(), queries.size(),
                                    float_ptrs.data());
    for (size_t q = 0; q < queries.size(); ++q) {
      for (size_t e = 0; e < quant_out[q].size(); ++e) {
        ASSERT_EQ(quant_out[q][e], float_out[q][e])
            << ops->name << " subject query " << q << " entity " << e;
      }
    }
  }
  kernels::SetKernelsOverride(nullptr);

  // Scalar Score() dequantizes per row; it must agree with the float
  // model's scalar path exactly (same single-precision dequantization).
  for (EntityId s = 0; s < 11; ++s) {
    const Triple t{s, static_cast<RelationId>(s % 5), (s + 13u) % 97u};
    EXPECT_EQ(quant_model->Score(t), float_model->Score(t));
  }
}

class QuantModelTest
    : public ::testing::TestWithParam<std::tuple<ModelKind, EmbeddingDtype>> {
};

TEST_P(QuantModelTest, QuantizedBatchMatchesDequantizedFloatModel) {
  const ModelKind kind = std::get<0>(GetParam());
  // TransE routes L1 and L2 to different kernels: check both routes.
  const std::vector<int> norms =
      kind == ModelKind::kTransE ? std::vector<int>{1, 2}
                                 : std::vector<int>{1};
  for (int norm : norms) {
    SCOPED_TRACE("transe_norm " + std::to_string(norm));
    ExpectQuantizedModelMatchesFloat(kind, std::get<1>(GetParam()), norm);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KernelModels, QuantModelTest,
    ::testing::Combine(::testing::Values(ModelKind::kTransE,
                                         ModelKind::kDistMult,
                                         ModelKind::kComplEx),
                       ::testing::Values(EmbeddingDtype::kInt8,
                                         EmbeddingDtype::kInt16)),
    [](const ::testing::TestParamInfo<std::tuple<ModelKind, EmbeddingDtype>>&
           info) {
      return std::string(ModelKindName(std::get<0>(info.param))) + "_" +
             EmbeddingDtypeName(std::get<1>(info.param));
    });

}  // namespace
}  // namespace kgfd
