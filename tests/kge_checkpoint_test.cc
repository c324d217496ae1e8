#include "kge/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "util/crc32.h"
#include "util/rng.h"
#include "test_scratch.h"

namespace kgfd {
namespace {

class CheckpointTest : public ::testing::TestWithParam<ModelKind> {
 protected:
  void SetUp() override {
    path_ = ScratchPath("ckpt.bin");
  }
  void TearDown() override { std::remove(path_.c_str()); }

  ModelConfig Config() const {
    ModelConfig c;
    c.num_entities = 9;
    c.num_relations = 4;
    c.embedding_dim = 8;
    c.transe_norm = 2;
    c.conve_reshape_height = 2;
    c.conve_num_filters = 3;
    return c;
  }

  std::string path_;
};

TEST_P(CheckpointTest, RoundTripsScoresBitExactly) {
  Rng rng(71);
  const ModelConfig config = Config();
  auto model = std::move(CreateModel(GetParam(), config, &rng))
                   .ValueOrDie("create");
  ASSERT_TRUE(SaveModel(model.get(), config, path_).ok());
  auto loaded = LoadModel(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->kind(), GetParam());
  EXPECT_EQ(loaded.value()->num_entities(), model->num_entities());
  EXPECT_EQ(loaded.value()->num_relations(), model->num_relations());
  for (EntityId s = 0; s < 9; ++s) {
    for (RelationId r = 0; r < 4; ++r) {
      const Triple t{s, r, (s + 2u) % 9u};
      EXPECT_EQ(loaded.value()->Score(t), model->Score(t))
          << ModelKindName(GetParam());
      EXPECT_EQ(loaded.value()->TrainingScore(t), model->TrainingScore(t));
    }
  }
}

TEST_P(CheckpointTest, ParametersIdenticalAfterLoad) {
  Rng rng(72);
  const ModelConfig config = Config();
  auto model = std::move(CreateModel(GetParam(), config, &rng))
                   .ValueOrDie("create");
  ASSERT_TRUE(SaveModel(model.get(), config, path_).ok());
  auto loaded = LoadModel(path_);
  ASSERT_TRUE(loaded.ok());
  auto orig_params = model->Parameters();
  auto new_params = loaded.value()->Parameters();
  ASSERT_EQ(orig_params.size(), new_params.size());
  for (size_t i = 0; i < orig_params.size(); ++i) {
    EXPECT_EQ(orig_params[i].name, new_params[i].name);
    // Compare through flat(): under the mmap backend the loaded entity
    // table is a read-only external view, where data() would abort.
    const Tensor* a = orig_params[i].tensor;
    const Tensor* b = new_params[i].tensor;
    ASSERT_EQ(a->rows(), b->rows());
    ASSERT_EQ(a->cols(), b->cols());
    EXPECT_EQ(std::memcmp(a->flat(), b->flat(), a->size() * sizeof(float)),
              0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, CheckpointTest,
    ::testing::Values(ModelKind::kTransE, ModelKind::kDistMult,
                      ModelKind::kComplEx, ModelKind::kRescal,
                      ModelKind::kHolE, ModelKind::kConvE),
    [](const ::testing::TestParamInfo<ModelKind>& info) {
      return ModelKindName(info.param);
    });

TEST(CheckpointErrorTest, MissingFileIsIoError) {
  auto result = LoadModel("/nonexistent/kgfd.bin");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(CheckpointErrorTest, GarbageFileRejected) {
  const std::string path = ScratchPath("garbage.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a checkpoint at all, not even close";
  }
  auto result = LoadModel(path);
  EXPECT_FALSE(result.ok());
  std::remove(path.c_str());
}

TEST(CheckpointErrorTest, TruncatedFileRejected) {
  Rng rng(73);
  ModelConfig config;
  config.num_entities = 5;
  config.num_relations = 2;
  config.embedding_dim = 8;
  auto model = std::move(CreateModel(ModelKind::kDistMult, config, &rng))
                   .ValueOrDie("create");
  const std::string path = ScratchPath("truncated.bin");
  ASSERT_TRUE(SaveModel(model.get(), config, path).ok());
  // Truncate to half.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_FALSE(LoadModel(path).ok());
  std::remove(path.c_str());
}

TEST(CheckpointErrorTest, EveryTruncationPrefixRejected) {
  Rng rng(74);
  ModelConfig config;
  config.num_entities = 5;
  config.num_relations = 2;
  config.embedding_dim = 8;
  auto model = std::move(CreateModel(ModelKind::kDistMult, config, &rng))
                   .ValueOrDie("create");
  const std::string path = ScratchPath("prefix.bin");
  ASSERT_TRUE(SaveModel(model.get(), config, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  // No prefix of a valid checkpoint may load: the CRC-32 trailer covers
  // every payload byte, so a partial write can never parse as a model.
  for (size_t len = 0; len < bytes.size(); len += 11) {
    std::ofstream(path, std::ios::binary) << bytes.substr(0, len);
    EXPECT_FALSE(LoadModel(path).ok()) << "len=" << len;
  }
  std::remove(path.c_str());
}

TEST(CheckpointErrorTest, EverySingleBitFlipRejected) {
  Rng rng(75);
  ModelConfig config;
  config.num_entities = 4;
  config.num_relations = 2;
  config.embedding_dim = 4;
  auto model = std::move(CreateModel(ModelKind::kTransE, config, &rng))
                   .ValueOrDie("create");
  const std::string path = ScratchPath("bitflip.bin");
  ASSERT_TRUE(SaveModel(model.get(), config, path).ok());
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  ASSERT_TRUE(LoadModel(path).ok());  // pristine copy loads

  // Flip one bit at a time across the whole file (stepping bytes to keep
  // the test fast on large payloads): the checksum must catch every one —
  // a bit flip can corrupt weights without breaking the parse, which is
  // exactly the silent-corruption case the CRC trailer exists for.
  const size_t byte_step = bytes.size() > 512 ? bytes.size() / 512 : 1;
  for (size_t i = 0; i < bytes.size(); i += byte_step) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = bytes;
      corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << bit));
      std::ofstream(path, std::ios::binary) << corrupt;
      auto result = LoadModel(path);
      EXPECT_FALSE(result.ok()) << "byte=" << i << " bit=" << bit;
    }
  }
  std::remove(path.c_str());
}

TEST(CheckpointErrorTest, ChecksumMismatchIsDescriptive) {
  Rng rng(76);
  ModelConfig config;
  config.num_entities = 4;
  config.num_relations = 2;
  config.embedding_dim = 4;
  auto model = std::move(CreateModel(ModelKind::kDistMult, config, &rng))
                   .ValueOrDie("create");
  const std::string path = ScratchPath("crcmsg.bin");
  ASSERT_TRUE(SaveModel(model.get(), config, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  // Corrupt a weight byte in the middle: the magic still matches, only the
  // checksum knows. The error must say so, not "parse error".
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0xFF);
  std::ofstream(path, std::ios::binary) << bytes;
  auto result = LoadModel(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().ToString().find("checksum"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CheckpointErrorTest, InvalidConfigInsideCheckpointSurfacesStatus) {
  // A checkpoint whose config is invalid for its model must fail closed
  // through LoadModel -> ValidateConfig with a clear error, never abort.
  // Forge one: save a valid ComplEx checkpoint, flip embedding_dim to an
  // odd value in place, and re-stamp a correct CRC-32 trailer so only the
  // semantic validation — not the integrity check — can catch it.
  Rng rng(77);
  ModelConfig config;
  config.num_entities = 4;
  config.num_relations = 2;
  config.embedding_dim = 6;  // even: valid for ComplEx at save time
  auto model = std::move(CreateModel(ModelKind::kComplEx, config, &rng))
                   .ValueOrDie("create");
  const std::string path = ScratchPath("badcfg.bin");
  ASSERT_TRUE(SaveModel(model.get(), config, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  // v3 layout: magic(8) version(4) header_size(8), then the header blob:
  // name(8 + "ComplEx") entities(8) relations(8) embedding_dim(8) ...
  const size_t dim_offset = 8 + 4 + 8 + (8 + 7) + 8 + 8;
  uint64_t dim = 0;
  std::memcpy(&dim, bytes.data() + dim_offset, sizeof(dim));
  ASSERT_EQ(dim, 6u);  // guards against silent layout drift
  dim = 7;  // odd: invalid for ComplEx
  std::memcpy(bytes.data() + dim_offset, &dim, sizeof(dim));
  // Re-stamp both integrity checks so only semantic validation can object:
  // the header CRC (at 20 + header_size) and the whole-file trailer.
  uint64_t header_size = 0;
  std::memcpy(&header_size, bytes.data() + 12, sizeof(header_size));
  const uint32_t header_crc = Crc32(bytes.data(), 20 + header_size);
  std::memcpy(bytes.data() + 20 + header_size, &header_crc,
              sizeof(header_crc));
  const uint32_t crc = Crc32(bytes.data(), bytes.size() - sizeof(uint32_t));
  std::memcpy(bytes.data() + bytes.size() - sizeof(uint32_t), &crc,
              sizeof(crc));
  std::ofstream(path, std::ios::binary) << bytes;

  auto loaded = LoadModel(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().ToString().find("even embedding_dim"),
            std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kgfd
