#include "kge/embedding_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "kge/tensor.h"
#include "util/rng.h"
#include "test_scratch.h"

namespace kgfd {
namespace {

Tensor RandomTable(size_t rows, size_t cols, uint64_t seed, float lo,
                   float hi) {
  Tensor t(rows, cols);
  Rng rng(seed);
  t.InitUniform(&rng, lo, hi);
  return t;
}

/// The quantization property the drift tests build on: per-element
/// round-trip error is bounded by half a quantization step.
void ExpectRoundTripWithinHalfScale(const Tensor& table,
                                    EmbeddingDtype dtype) {
  const QuantizedTable q = QuantizedTable::Quantize(table, dtype);
  ASSERT_EQ(q.rows(), table.rows());
  ASSERT_EQ(q.cols(), table.cols());
  std::vector<float> row(table.cols());
  for (size_t r = 0; r < table.rows(); ++r) {
    q.DequantizeRow(r, row.data());
    const float scale = q.scales()[r];
    for (size_t i = 0; i < table.cols(); ++i) {
      const double err = std::fabs(static_cast<double>(row[i]) -
                                   table.Row(r)[i]);
      // Half a step, plus a sliver for the float rounding of the affine
      // transform itself.
      EXPECT_LE(err, 0.5 * scale + 1e-6 * std::fabs(table.Row(r)[i]))
          << EmbeddingDtypeName(dtype) << " row " << r << " col " << i;
    }
  }
}

TEST(QuantizedTableTest, Int8RoundTripErrorWithinHalfScale) {
  ExpectRoundTripWithinHalfScale(RandomTable(64, 24, 11, -0.6f, 0.6f),
                                 EmbeddingDtype::kInt8);
}

TEST(QuantizedTableTest, Int16RoundTripErrorWithinHalfScale) {
  ExpectRoundTripWithinHalfScale(RandomTable(64, 24, 12, -0.6f, 0.6f),
                                 EmbeddingDtype::kInt16);
}

TEST(QuantizedTableTest, NegativeOnlyRowsRoundTrip) {
  ExpectRoundTripWithinHalfScale(RandomTable(32, 16, 13, -5.0f, -1.0f),
                                 EmbeddingDtype::kInt8);
}

TEST(QuantizedTableTest, ConstantRowsRoundTripExactly) {
  Tensor t(4, 8);
  for (size_t r = 0; r < 4; ++r) {
    for (size_t c = 0; c < 8; ++c) t.At(r, c) = 1.5f * static_cast<float>(r);
  }
  for (EmbeddingDtype dtype :
       {EmbeddingDtype::kInt8, EmbeddingDtype::kInt16}) {
    const QuantizedTable q = QuantizedTable::Quantize(t, dtype);
    std::vector<float> row(8);
    for (size_t r = 0; r < 4; ++r) {
      EXPECT_EQ(q.scales()[r], 1.0f);  // degenerate range -> unit scale
      q.DequantizeRow(r, row.data());
      for (size_t c = 0; c < 8; ++c) {
        EXPECT_EQ(row[c], t.At(r, c)) << "constant rows must be exact";
      }
    }
  }
}

TEST(QuantizedTableTest, ExtremesOfEachRowAreRepresentable) {
  // Row minimum maps to the code-range minimum and row maximum to the
  // maximum, so the dequantized extremes stay within half a step of the
  // originals (no clamping loss at the range ends).
  const Tensor t = RandomTable(16, 12, 14, -2.0f, 2.0f);
  const QuantizedTable q = QuantizedTable::Quantize(t, EmbeddingDtype::kInt8);
  std::vector<float> row(12);
  for (size_t r = 0; r < 16; ++r) {
    float lo = t.Row(r)[0], hi = t.Row(r)[0];
    for (size_t i = 1; i < 12; ++i) {
      lo = std::min(lo, t.Row(r)[i]);
      hi = std::max(hi, t.Row(r)[i]);
    }
    q.DequantizeRow(r, row.data());
    float qlo = row[0], qhi = row[0];
    for (size_t i = 1; i < 12; ++i) {
      qlo = std::min(qlo, row[i]);
      qhi = std::max(qhi, row[i]);
    }
    EXPECT_NEAR(qlo, lo, 0.5 * q.scales()[r]);
    EXPECT_NEAR(qhi, hi, 0.5 * q.scales()[r]);
  }
}

TEST(QuantizedTableTest, DequantizeRowAppliesStoredAffineParameters) {
  const Tensor t = RandomTable(8, 6, 15, -1.0f, 1.0f);
  const QuantizedTable q = QuantizedTable::Quantize(t, EmbeddingDtype::kInt8);
  const auto* codes = static_cast<const int8_t*>(q.data());
  std::vector<float> row(6);
  for (size_t r = 0; r < 8; ++r) {
    q.DequantizeRow(r, row.data());
    for (size_t i = 0; i < 6; ++i) {
      const float expected =
          q.scales()[r] *
          (static_cast<float>(codes[r * 6 + i]) - q.zero_points()[r]);
      EXPECT_EQ(row[i], expected);  // bit-identical, not just close
    }
  }
}

TEST(QuantizedTableTest, Int16IsStrictlyMorePreciseThanInt8) {
  const Tensor t = RandomTable(32, 16, 16, -0.8f, 0.8f);
  const QuantizedTable q8 = QuantizedTable::Quantize(t, EmbeddingDtype::kInt8);
  const QuantizedTable q16 =
      QuantizedTable::Quantize(t, EmbeddingDtype::kInt16);
  double err8 = 0.0, err16 = 0.0;
  std::vector<float> row(16);
  for (size_t r = 0; r < 32; ++r) {
    q8.DequantizeRow(r, row.data());
    for (size_t i = 0; i < 16; ++i) {
      err8 += std::fabs(static_cast<double>(row[i]) - t.Row(r)[i]);
    }
    q16.DequantizeRow(r, row.data());
    for (size_t i = 0; i < 16; ++i) {
      err16 += std::fabs(static_cast<double>(row[i]) - t.Row(r)[i]);
    }
  }
  EXPECT_LT(err16, err8 / 16.0)
      << "int16 has 256x the code range; total error must drop sharply";
}

TEST(QuantizedTableTest, FingerprintSensitivity) {
  const Tensor t = RandomTable(16, 8, 17, -1.0f, 1.0f);
  const QuantizedTable a = QuantizedTable::Quantize(t, EmbeddingDtype::kInt8);
  const QuantizedTable b = QuantizedTable::Quantize(t, EmbeddingDtype::kInt8);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint()) << "deterministic";

  const QuantizedTable wider =
      QuantizedTable::Quantize(t, EmbeddingDtype::kInt16);
  EXPECT_NE(a.Fingerprint(), wider.Fingerprint()) << "dtype is identity";

  Tensor nudged = RandomTable(16, 8, 17, -1.0f, 1.0f);
  nudged.At(3, 4) += 0.25f;
  const QuantizedTable c =
      QuantizedTable::Quantize(nudged, EmbeddingDtype::kInt8);
  EXPECT_NE(a.Fingerprint(), c.Fingerprint()) << "codes are identity";
}

TEST(QuantizedTableTest, ViewSharesStorageWithoutCopying) {
  const Tensor t = RandomTable(8, 4, 18, -1.0f, 1.0f);
  const QuantizedTable owned =
      QuantizedTable::Quantize(t, EmbeddingDtype::kInt16);
  const QuantizedTable view = QuantizedTable::View(
      owned.dtype(), owned.data(), owned.scales(), owned.zero_points(),
      owned.rows(), owned.cols(), nullptr);
  EXPECT_EQ(view.data(), owned.data());
  EXPECT_EQ(view.Fingerprint(), owned.Fingerprint());
  std::vector<float> a(4), b(4);
  for (size_t r = 0; r < 8; ++r) {
    owned.DequantizeRow(r, a.data());
    view.DequantizeRow(r, b.data());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), 4 * sizeof(float)), 0);
  }
}

TEST(EmbeddingBackendTest, NamesRoundTrip) {
  for (EmbeddingBackend b :
       {EmbeddingBackend::kRam, EmbeddingBackend::kMmap}) {
    auto parsed = EmbeddingBackendFromName(EmbeddingBackendName(b));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), b);
  }
  EXPECT_FALSE(EmbeddingBackendFromName("hugepages").ok());
}

TEST(EmbeddingBackendTest, EnvResolution) {
  const char* saved = std::getenv("KGFD_EMBEDDING_BACKEND");
  const std::string restore = saved != nullptr ? saved : "";
  unsetenv("KGFD_EMBEDDING_BACKEND");
  EXPECT_EQ(EmbeddingBackendFromEnv().value(), EmbeddingBackend::kRam);
  EXPECT_TRUE(ValidateEmbeddingBackendEnv().ok());
  setenv("KGFD_EMBEDDING_BACKEND", "mmap", 1);
  EXPECT_EQ(EmbeddingBackendFromEnv().value(), EmbeddingBackend::kMmap);
  setenv("KGFD_EMBEDDING_BACKEND", "bogus", 1);
  EXPECT_FALSE(EmbeddingBackendFromEnv().ok());
  EXPECT_FALSE(ValidateEmbeddingBackendEnv().ok());
  if (saved != nullptr) {
    setenv("KGFD_EMBEDDING_BACKEND", restore.c_str(), 1);
  } else {
    unsetenv("KGFD_EMBEDDING_BACKEND");
  }
}

TEST(MmapFileTest, MissingAndEmptyFilesAreIoErrors) {
  EXPECT_EQ(MmapFile::Open("/nonexistent/kgfd.bin").status().code(),
            StatusCode::kIoError);
  const std::string path = ScratchPath("empty.bin");
  { std::ofstream out(path, std::ios::binary); }
  auto result = MmapFile::Open(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().ToString().find("empty"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kgfd
