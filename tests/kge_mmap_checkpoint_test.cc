#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "kge/checkpoint.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "test_scratch.h"

namespace kgfd {
namespace {

// The mmap backend maps attacker-sized files into the address space, so a
// malformed checkpoint that slips past validation is not a parse error —
// it is a SIGBUS (or silent garbage weights). This battery forges
// truncated, bit-flipped, and directory-patched v3 checkpoints and
// demands a descriptive IoError for every one. A crash anywhere in here
// is the bug the validation layer exists to prevent.

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Re-stamps the v3 header CRC (at 20 + header_size) and the whole-file
/// trailer after a directory patch, so only semantic validation — not an
/// integrity check — can reject the forged file.
void RestampCrcs(std::string* bytes) {
  uint64_t header_size = 0;
  std::memcpy(&header_size, bytes->data() + 12, sizeof(header_size));
  const uint32_t header_crc =
      Crc32(bytes->data(), 20 + static_cast<size_t>(header_size));
  std::memcpy(bytes->data() + 20 + header_size, &header_crc,
              sizeof(header_crc));
  const uint32_t trailer =
      Crc32(bytes->data(), bytes->size() - sizeof(uint32_t));
  std::memcpy(bytes->data() + bytes->size() - sizeof(uint32_t), &trailer,
              sizeof(trailer));
}

void PatchU64(std::string* bytes, uint64_t offset, uint64_t value) {
  std::memcpy(bytes->data() + offset, &value, sizeof(value));
}

CheckpointLoadOptions MmapOptions(bool verify = false) {
  CheckpointLoadOptions o;
  o.backend = EmbeddingBackend::kMmap;
  o.verify_mapped_payload = verify;
  return o;
}

ModelConfig SmallConfig() {
  ModelConfig c;
  c.num_entities = 11;
  c.num_relations = 3;
  c.embedding_dim = 8;
  c.transe_norm = 1;
  c.conve_reshape_height = 2;
  c.conve_num_filters = 3;
  return c;
}

std::unique_ptr<Model> MakeModel(ModelKind kind, uint64_t seed) {
  Rng rng(seed);
  return std::move(CreateModel(kind, SmallConfig(), &rng))
      .ValueOrDie("create");
}

void ExpectScoresIdentical(Model* a, Model* b, const char* what) {
  for (EntityId s = 0; s < a->num_entities(); ++s) {
    for (RelationId r = 0; r < a->num_relations(); ++r) {
      const Triple t{s, r, (s + 3u) % static_cast<EntityId>(
                                          a->num_entities())};
      ASSERT_EQ(a->Score(t), b->Score(t)) << what << " s=" << s
                                          << " r=" << r;
    }
  }
}

class MmapBackendTest : public ::testing::TestWithParam<ModelKind> {
 protected:
  void SetUp() override {
    path_ = ScratchPath("ckpt.bin");
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_P(MmapBackendTest, MmapLoadIsBitIdenticalToRamLoad) {
  auto model = MakeModel(GetParam(), 81);
  ASSERT_TRUE(SaveModel(model.get(), SmallConfig(), path_).ok());

  auto ram = LoadModel(path_, CheckpointLoadOptions());
  ASSERT_TRUE(ram.ok()) << ram.status().ToString();
  auto mmap = LoadModel(path_, MmapOptions());
  ASSERT_TRUE(mmap.ok()) << mmap.status().ToString();

  auto ram_params = ram.value()->Parameters();
  auto mmap_params = mmap.value()->Parameters();
  ASSERT_EQ(ram_params.size(), mmap_params.size());
  for (size_t i = 0; i < ram_params.size(); ++i) {
    EXPECT_EQ(ram_params[i].name, mmap_params[i].name);
    const Tensor* a = ram_params[i].tensor;
    const Tensor* b = mmap_params[i].tensor;
    ASSERT_EQ(a->rows(), b->rows());
    ASSERT_EQ(a->cols(), b->cols());
    EXPECT_EQ(std::memcmp(a->flat(), b->flat(), a->size() * sizeof(float)),
              0)
        << ram_params[i].name;
  }
  ExpectScoresIdentical(ram.value().get(), mmap.value().get(), "mmap");

  // Full-verify mode must accept a pristine file too.
  auto verified = LoadModel(path_, MmapOptions(/*verify=*/true));
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  ExpectScoresIdentical(ram.value().get(), verified.value().get(),
                        "mmap+verify");
}

TEST_P(MmapBackendTest, V2CheckpointIsRefusedByEveryBackend) {
  // Format v2 used to load under the mmap backend by falling back to the
  // ram loader. v2 support is gone, so the fallback is too: a v3 file
  // re-stamped as version 2 (checksums re-stamped, so only the version
  // check can reject it) is refused by both backends and by
  // InspectCheckpoint, with the version named, for every model kind.
  auto model = MakeModel(GetParam(), 82);
  ASSERT_TRUE(SaveModel(model.get(), SmallConfig(), path_).ok());
  std::string forged = ReadFile(path_);
  const uint32_t v2 = 2;
  std::memcpy(forged.data() + 8, &v2, sizeof(v2));
  RestampCrcs(&forged);
  WriteFile(path_, forged);

  for (const CheckpointLoadOptions& options :
       {MmapOptions(/*verify=*/true), MmapOptions(), CheckpointLoadOptions()}) {
    auto loaded = LoadModel(path_, options);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
    EXPECT_NE(loaded.status().ToString().find(
                  "unsupported checkpoint version 2"),
              std::string::npos)
        << loaded.status().ToString();
  }
  auto info = InspectCheckpoint(path_);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kIoError);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, MmapBackendTest,
    ::testing::Values(ModelKind::kTransE, ModelKind::kDistMult,
                      ModelKind::kComplEx, ModelKind::kRescal,
                      ModelKind::kHolE, ModelKind::kConvE),
    [](const ::testing::TestParamInfo<ModelKind>& info) {
      return ModelKindName(info.param);
    });

class QuantizedCheckpointTest
    : public ::testing::TestWithParam<std::tuple<ModelKind, EmbeddingDtype>> {
 protected:
  void SetUp() override {
    path_ = ScratchPath("quant.bin");
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_P(QuantizedCheckpointTest, RoundTripsOnBothBackends) {
  const ModelKind kind = std::get<0>(GetParam());
  const EmbeddingDtype dtype = std::get<1>(GetParam());
  auto model = MakeModel(kind, 83);
  ASSERT_TRUE(
      SaveQuantizedModel(model.get(), SmallConfig(), dtype, path_).ok());

  auto info = InspectCheckpoint(path_);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  bool saw_quant_entities = false;
  for (const CheckpointTensorInfo& t : info.value().tensors) {
    if (t.name == "entities") {
      saw_quant_entities = t.dtype == dtype && t.quant_size != 0;
    } else {
      EXPECT_EQ(t.dtype, EmbeddingDtype::kFloat32) << t.name;
    }
  }
  EXPECT_TRUE(saw_quant_entities);

  auto ram = LoadModel(path_, CheckpointLoadOptions());
  ASSERT_TRUE(ram.ok()) << ram.status().ToString();
  auto mmap = LoadModel(path_, MmapOptions(/*verify=*/true));
  ASSERT_TRUE(mmap.ok()) << mmap.status().ToString();
  ASSERT_NE(ram.value()->quantized_entities(), nullptr);
  ASSERT_NE(mmap.value()->quantized_entities(), nullptr);
  EXPECT_EQ(ram.value()->quantized_entities()->dtype(), dtype);
  // Identical storage on both backends: same fingerprint, same scores.
  EXPECT_EQ(ram.value()->StorageFingerprint(),
            mmap.value()->StorageFingerprint());
  ExpectScoresIdentical(ram.value().get(), mmap.value().get(),
                        "quantized ram vs mmap");
}

INSTANTIATE_TEST_SUITE_P(
    QuantModels, QuantizedCheckpointTest,
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

TEST(QuantizedSaveTest, RejectsFloatDtypeAndUnsupportedModels) {
  const std::string path = ScratchPath("quant_reject.bin");
  auto transe = MakeModel(ModelKind::kTransE, 84);
  EXPECT_EQ(SaveQuantizedModel(transe.get(), SmallConfig(),
                               EmbeddingDtype::kFloat32, path)
                .code(),
            StatusCode::kInvalidArgument);
  for (ModelKind kind :
       {ModelKind::kRescal, ModelKind::kHolE, ModelKind::kConvE}) {
    auto model = MakeModel(kind, 85);
    const Status s = SaveQuantizedModel(model.get(), SmallConfig(),
                                        EmbeddingDtype::kInt8, path);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << ModelKindName(kind);
    EXPECT_NE(s.ToString().find("TransE/DistMult/ComplEx"),
              std::string::npos);
  }
  std::remove(path.c_str());
}

/// Fixture holding one pristine v3 checkpoint (float + quantized copies)
/// that the fuzz tests corrupt in every way they can think of.
class MmapFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ScratchPath("fuzz.bin");
    victim_ = ScratchPath("victim.bin");
    auto model = MakeModel(ModelKind::kTransE, 86);
    ASSERT_TRUE(SaveModel(model.get(), SmallConfig(), path_).ok());
    pristine_ = ReadFile(path_);
    ASSERT_FALSE(pristine_.empty());
    auto info = InspectCheckpoint(path_);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    info_ = info.value();
    ASSERT_FALSE(info_.tensors.empty());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove(victim_.c_str());
  }

  const CheckpointTensorInfo& Section(const std::string& name) const {
    for (const CheckpointTensorInfo& t : info_.tensors) {
      if (t.name == name) return t;
    }
    ADD_FAILURE() << "no tensor " << name;
    return info_.tensors[0];
  }

  /// Loads `bytes` through the mmap backend and asserts a clean IoError
  /// whose message mentions `expect` (nullptr: any error). Surviving the
  /// call at all is the SIGBUS half of the assertion.
  void ExpectMmapRejects(const std::string& bytes, const char* expect,
                         bool verify = false) {
    WriteFile(victim_, bytes);
    auto result = LoadModel(victim_, MmapOptions(verify));
    ASSERT_FALSE(result.ok()) << "forged checkpoint loaded";
    EXPECT_EQ(result.status().code(), StatusCode::kIoError)
        << result.status().ToString();
    if (expect != nullptr) {
      EXPECT_NE(result.status().ToString().find(expect), std::string::npos)
          << result.status().ToString();
    }
  }

  std::string path_, victim_, pristine_;
  CheckpointInfo info_;
};

TEST_F(MmapFuzzTest, EveryTruncationPrefixIsAnIoErrorNotASigbus) {
  // Even without KGFD_MMAP_VERIFY the directory bounds check is computed
  // against the real file size, so a partial download/copy can never map:
  // any strict prefix loses payload or trailer bytes some section claims.
  for (size_t len = 1; len < pristine_.size(); len += 7) {
    ExpectMmapRejects(pristine_.substr(0, len), nullptr);
  }
  ExpectMmapRejects(pristine_.substr(0, pristine_.size() - 1), nullptr);
}

TEST_F(MmapFuzzTest, HeaderBitFlipsAreRejectedByDefaultMmapLoad) {
  // The default (lazy) mmap load checksums only the header — but that is
  // enough to catch every flip in the magic, version, directory, or the
  // header CRC itself.
  const size_t header_end = 20 + info_.header_size + sizeof(uint32_t);
  ASSERT_LT(header_end, pristine_.size());
  for (size_t i = 0; i < header_end; ++i) {
    for (int bit = 0; bit < 8; bit += 3) {
      std::string corrupt = pristine_;
      corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << bit));
      WriteFile(victim_, corrupt);
      auto result = LoadModel(victim_, MmapOptions());
      EXPECT_FALSE(result.ok()) << "byte=" << i << " bit=" << bit;
    }
  }
}

TEST_F(MmapFuzzTest, PayloadBitFlipsAreRejectedWithVerifyMappedPayload) {
  // Payload flips are invisible to the lazy load by design; the full
  // verify mode (KGFD_MMAP_VERIFY=1, the CI mmap matrix leg) must catch
  // every one via the section CRCs / whole-file trailer.
  const size_t payload_start = 20 + info_.header_size + sizeof(uint32_t);
  for (size_t i = payload_start; i < pristine_.size(); i += 13) {
    std::string corrupt = pristine_;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    ExpectMmapRejects(corrupt, "mismatch", /*verify=*/true);
  }
}

TEST_F(MmapFuzzTest, ZeroRowTensorSectionRejected) {
  const CheckpointTensorInfo& t = Section("entities");
  std::string forged = pristine_;
  PatchU64(&forged, t.fields_offset + 1 * 8, 0);  // rows := 0
  RestampCrcs(&forged);
  ExpectMmapRejects(forged, "zero-row tensor section");
}

TEST_F(MmapFuzzTest, MisalignedPayloadOffsetRejected) {
  const CheckpointTensorInfo& t = Section("entities");
  std::string forged = pristine_;
  PatchU64(&forged, t.fields_offset + 3 * 8, t.payload_offset + 4);
  RestampCrcs(&forged);
  ExpectMmapRejects(forged, "misaligned tensor section");
}

TEST_F(MmapFuzzTest, NonPageAlignedEntitySectionRejected) {
  // 64-byte aligned (passes the generic check) but off the 4096 boundary
  // the zero-copy entity mapping requires.
  const CheckpointTensorInfo& t = Section("entities");
  std::string forged = pristine_;
  PatchU64(&forged, t.fields_offset + 3 * 8, t.payload_offset + 64);
  RestampCrcs(&forged);
  ExpectMmapRejects(forged, "not page-aligned");
}

TEST_F(MmapFuzzTest, OutOfBoundsPayloadOffsetRejected) {
  const CheckpointTensorInfo& t = Section("entities");
  std::string forged = pristine_;
  // Far past EOF but still page-aligned: only the bounds check can object,
  // and under mmap an unchecked read here is a guaranteed SIGBUS.
  PatchU64(&forged, t.fields_offset + 3 * 8, uint64_t{1} << 40);
  RestampCrcs(&forged);
  ExpectMmapRejects(forged, "out of bounds");
}

TEST_F(MmapFuzzTest, OverflowingSectionShapeRejected) {
  const CheckpointTensorInfo& t = Section("entities");
  std::string forged = pristine_;
  PatchU64(&forged, t.fields_offset + 1 * 8, uint64_t{1} << 62);  // rows
  PatchU64(&forged, t.fields_offset + 2 * 8, uint64_t{1} << 32);  // cols
  RestampCrcs(&forged);
  ExpectMmapRejects(forged, nullptr);
}

TEST_F(MmapFuzzTest, UnknownDtypeRejected) {
  const CheckpointTensorInfo& t = Section("entities");
  std::string forged = pristine_;
  PatchU64(&forged, t.fields_offset, 7);  // dtype tag nobody defined
  RestampCrcs(&forged);
  ExpectMmapRejects(forged, "unknown tensor dtype");
}

TEST_F(MmapFuzzTest, RamBackendRejectsTheSameForgeries) {
  // The directory validation is shared, not mmap-only: the ram backend
  // must fail closed on the same patched headers (its trailer CRC was
  // re-stamped, so only validation stands between it and a bad memcpy).
  const CheckpointTensorInfo& t = Section("entities");
  std::string forged = pristine_;
  PatchU64(&forged, t.fields_offset + 3 * 8, uint64_t{1} << 40);
  RestampCrcs(&forged);
  WriteFile(victim_, forged);
  auto result = LoadModel(victim_, CheckpointLoadOptions());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST_F(MmapFuzzTest, QuantizedParameterBlockValidation) {
  // Rebuild the fixture around a quantized checkpoint: the quant param
  // block gets the same bounds discipline as the payloads.
  auto model = MakeModel(ModelKind::kDistMult, 87);
  ASSERT_TRUE(SaveQuantizedModel(model.get(), SmallConfig(),
                                 EmbeddingDtype::kInt8, path_)
                  .ok());
  pristine_ = ReadFile(path_);
  auto info = InspectCheckpoint(path_);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  info_ = info.value();
  const CheckpointTensorInfo& t = Section("entities");
  ASSERT_NE(t.quant_size, 0u);

  std::string forged = pristine_;
  PatchU64(&forged, t.fields_offset + 5 * 8, uint64_t{1} << 40);  // quant off
  RestampCrcs(&forged);
  ExpectMmapRejects(forged, "out of bounds");

  forged = pristine_;
  PatchU64(&forged, t.fields_offset + 6 * 8, t.quant_size + 8);  // quant size
  RestampCrcs(&forged);
  ExpectMmapRejects(forged, "wrong size");

  // A float section claiming quantization parameters is structurally
  // inconsistent, not just odd — reject it.
  const CheckpointTensorInfo& rel = Section("relations");
  forged = pristine_;
  PatchU64(&forged, rel.fields_offset + 6 * 8, 8);
  RestampCrcs(&forged);
  ExpectMmapRejects(forged, "carries quantization parameters");
}

TEST_F(MmapFuzzTest, QuantizedCheckpointForUnsupportedModelRejected) {
  // Forge "a quantized RESCAL checkpoint" by renaming the model inside a
  // valid quantized TransE file ("TransE" and "RESCAL" are the same
  // length, so no directory re-layout). The loader's model whitelist —
  // not the save-side one — must refuse it.
  auto model = MakeModel(ModelKind::kTransE, 88);
  ASSERT_TRUE(SaveQuantizedModel(model.get(), SmallConfig(),
                                 EmbeddingDtype::kInt8, path_)
                  .ok());
  std::string forged = ReadFile(path_);
  const size_t name_offset = 20 + 8;  // fixed head, then the name's u64 len
  ASSERT_EQ(forged.substr(name_offset, 6), "TransE");
  forged.replace(name_offset, 6, "RESCAL");
  RestampCrcs(&forged);
  WriteFile(victim_, forged);
  auto result = LoadModel(victim_, MmapOptions());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("TransE/DistMult/ComplEx"),
            std::string::npos)
      << result.status().ToString();

  // And an int8 section on a tensor other than "entities" is refused even
  // for a supported model.
  auto info = InspectCheckpoint(path_);
  ASSERT_TRUE(info.ok());
  info_ = info.value();
  pristine_ = ReadFile(path_);
  const CheckpointTensorInfo& rel = Section("relations");
  forged = pristine_;
  PatchU64(&forged, rel.fields_offset, 1);  // relations dtype := int8
  RestampCrcs(&forged);
  WriteFile(victim_, forged);
  EXPECT_FALSE(LoadModel(victim_, MmapOptions()).ok());
}

}  // namespace
}  // namespace kgfd
