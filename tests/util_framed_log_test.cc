#include "util/framed_log.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "util/failpoint.h"
#include "util/rng.h"
#include "test_scratch.h"

namespace kgfd {
namespace {

namespace fs = std::filesystem;

constexpr FramedFormat kTestFormat{"KGFDTEST", 7, "test log"};
constexpr char kTestFailPoint[] = "test.framed_log.append";

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

class FramedLogTest : public ::testing::Test {
 protected:
  void SetUp() override { FailPoints::Instance().Reset(); }
  void TearDown() override { FailPoints::Instance().Reset(); }

  /// Payloads of assorted sizes, the empty one included.
  static std::vector<std::string> SamplePayloads() {
    return {"first", "", std::string(300, 'x'), std::string("a\0b", 3),
            "last record"};
  }

  /// A whole log of `payloads`, built through the append path.
  std::string WriteLog(const std::vector<std::string>& payloads) {
    auto log = FramedLog::Create(path_, kTestFormat, {}, false, {});
    EXPECT_TRUE(log.ok()) << log.status().ToString();
    for (const std::string& payload : payloads) {
      EXPECT_TRUE(log.value()->Append(payload).ok());
    }
    return ReadFileBytes(path_);
  }

  /// Opens `path_` for appending, collecting its replayed payloads.
  Result<std::unique_ptr<FramedLog>> OpenCollecting(
      std::vector<std::string>* replayed, uint64_t* truncated) {
    replayed->clear();
    return FramedLog::Open(
        path_, kTestFormat,
        [replayed](std::string_view payload) {
          replayed->emplace_back(payload);
          return true;
        },
        FramedLog::Options{false, kTestFailPoint}, truncated);
  }

  ScratchDir dir_;
  std::string path_ = dir_.File("test.log");
};

TEST_F(FramedLogTest, EveryTruncationPrefixRecoversCleanly) {
  // The torn-tail contract: for EVERY byte-length prefix of a valid log,
  // replay yields the longest whole-record prefix, the file is truncated
  // to it, and appends continue behind it.
  const std::vector<std::string> payloads = SamplePayloads();
  const std::string full = WriteLog(payloads);
  std::vector<size_t> boundaries = {FramedHeader(kTestFormat).size()};
  for (const std::string& payload : payloads) {
    std::string frame;
    AppendFrame(&frame, payload);
    boundaries.push_back(boundaries.back() + frame.size());
  }
  ASSERT_EQ(boundaries.back(), full.size());

  for (size_t cut = boundaries.front(); cut <= full.size(); ++cut) {
    WriteFileBytes(path_, full.substr(0, cut));
    size_t expect_records = 0;
    while (expect_records + 1 < boundaries.size() &&
           boundaries[expect_records + 1] <= cut) {
      ++expect_records;
    }
    // The read-only replay agrees with Open and leaves the file alone.
    size_t read_records = 0;
    auto torn = ReadFramedFile(path_, kTestFormat, [&](std::string_view) {
      ++read_records;
      return true;
    });
    ASSERT_TRUE(torn.ok()) << "cut=" << cut;
    EXPECT_EQ(read_records, expect_records) << "cut=" << cut;
    EXPECT_EQ(torn.value(), cut - boundaries[expect_records]);
    EXPECT_EQ(ReadFileBytes(path_).size(), cut);

    std::vector<std::string> replayed;
    uint64_t truncated = 0;
    auto log = OpenCollecting(&replayed, &truncated);
    ASSERT_TRUE(log.ok()) << "cut=" << cut << ": " << log.status().ToString();
    ASSERT_EQ(replayed.size(), expect_records) << "cut=" << cut;
    for (size_t i = 0; i < expect_records; ++i) {
      EXPECT_EQ(replayed[i], payloads[i]) << "cut=" << cut;
    }
    EXPECT_EQ(truncated, cut - boundaries[expect_records]);
    EXPECT_EQ(log.value()->bytes(), boundaries[expect_records]);

    ASSERT_TRUE(log.value()->Append("after").ok()) << "cut=" << cut;
    log.value().reset();
    auto reopened = OpenCollecting(&replayed, &truncated);
    ASSERT_TRUE(reopened.ok()) << "cut=" << cut;
    EXPECT_EQ(truncated, 0u) << "cut=" << cut;
    ASSERT_EQ(replayed.size(), expect_records + 1) << "cut=" << cut;
    EXPECT_EQ(replayed.back(), "after");
  }
}

TEST_F(FramedLogTest, RandomBitFlipsNeverCrashAndNeverInventRecords) {
  const std::vector<std::string> payloads = SamplePayloads();
  const std::string full = WriteLog(payloads);
  const size_t header = FramedHeader(kTestFormat).size();

  Rng rng(0xBADC0FFEEull);
  for (int trial = 0; trial < 300; ++trial) {
    std::string corrupt = full;
    const size_t byte_at = rng.UniformInt(corrupt.size());
    corrupt[byte_at] =
        static_cast<char>(corrupt[byte_at] ^ (1 << rng.UniformInt(8)));
    WriteFileBytes(path_, corrupt);

    std::vector<std::string> replayed;
    uint64_t truncated = 0;
    auto log = OpenCollecting(&replayed, &truncated);
    if (!log.ok()) {
      // Only a damaged header may be refused, descriptively and without
      // touching the file.
      EXPECT_LT(byte_at, header) << "trial=" << trial;
      EXPECT_EQ(log.status().code(), StatusCode::kIoError);
      EXPECT_EQ(ReadFileBytes(path_), corrupt);
      continue;
    }
    // CRC-32 catches every single-bit payload flip, so replay yields an
    // exact prefix of the records written (a flip in a length field cuts
    // the walk short but never alters a record unnoticed).
    ASSERT_LT(replayed.size(), payloads.size()) << "trial=" << trial;
    for (size_t i = 0; i < replayed.size(); ++i) {
      EXPECT_EQ(replayed[i], payloads[i]) << "trial=" << trial;
    }
    EXPECT_GT(truncated, 0u) << "trial=" << trial;
  }
}

TEST_F(FramedLogTest, OversizedLengthFieldTruncatesInsteadOfAllocating) {
  std::string data = FramedHeader(kTestFormat);
  AppendFrame(&data, "only record");
  // A frame whose length field claims ~4 GiB: a torn tail, not an
  // allocation.
  Put(&data, 0xF0000000u);
  data.append("\x01\x02\x03\x04garbage");
  WriteFileBytes(path_, data);

  std::vector<std::string> replayed;
  uint64_t truncated = 0;
  auto log = OpenCollecting(&replayed, &truncated);
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0], "only record");
  EXPECT_EQ(truncated, 4u + 4u + 7u);
}

TEST_F(FramedLogTest, ForeignHeaderIsADescriptiveErrorAndTouchesNothing) {
  std::string other = FramedHeader({"KGFDOTHR", 7, "other"});
  AppendFrame(&other, "record");
  std::string old_version = FramedHeader({"KGFDTEST", 6, "test log"});
  AppendFrame(&old_version, "record");
  const std::vector<std::pair<std::string, std::string>> cases = {
      {other, "bad magic"},
      {old_version, "version 6"},
      {"KGFDTEST", "truncated test log header"}};
  for (const auto& [bytes, needle] : cases) {
    WriteFileBytes(path_, bytes);
    const auto read = ReadFramedFile(path_, kTestFormat,
                                     [](std::string_view) { return true; });
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), StatusCode::kIoError);
    EXPECT_NE(read.status().message().find(needle), std::string::npos)
        << read.status().ToString();
    if (bytes.size() >= FramedHeader(kTestFormat).size()) {
      std::vector<std::string> replayed;
      uint64_t truncated = 0;
      EXPECT_FALSE(OpenCollecting(&replayed, &truncated).ok());
      EXPECT_EQ(ReadFileBytes(path_), bytes);
    }
  }
}

TEST_F(FramedLogTest, RefusedRecordEndsTheReplayThere) {
  WriteLog({"good", "bad", "after"});
  std::vector<std::string> accepted;
  uint64_t truncated = 0;
  auto log = FramedLog::Open(
      path_, kTestFormat,
      [&accepted](std::string_view payload) {
        if (payload == "bad") return false;
        accepted.emplace_back(payload);
        return true;
      },
      {}, &truncated);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(accepted, std::vector<std::string>{"good"});
  EXPECT_GT(truncated, 0u);
}

TEST_F(FramedLogTest, FailedAppendTruncatesTheTornFrameBeforeARetry) {
  const std::string before = WriteLog({"one"});
  std::vector<std::string> replayed;
  uint64_t truncated = 0;
  auto log = OpenCollecting(&replayed, &truncated);
  ASSERT_TRUE(log.ok());

  // The fail point fires after half the frame is on disk; Append must cut
  // it off again so the retry lands right behind the last whole record.
  ASSERT_TRUE(
      FailPoints::Instance().Enable(kTestFailPoint, "1*return(IoError)").ok());
  EXPECT_EQ(log.value()->Append("two").code(), StatusCode::kIoError);
  EXPECT_EQ(FailPoints::Instance().TriggerCount(kTestFailPoint), 1u);
  EXPECT_EQ(ReadFileBytes(path_), before);
  EXPECT_EQ(log.value()->bytes(), before.size());
  ASSERT_TRUE(log.value()->Append("two").ok());
  log.value().reset();

  ASSERT_TRUE(OpenCollecting(&replayed, &truncated).ok());
  EXPECT_EQ(truncated, 0u);
  EXPECT_EQ(replayed, (std::vector<std::string>{"one", "two"}));
}

TEST_F(FramedLogTest, CreateReplacesAtomicallyAndSyncs) {
  WriteLog({"stale"});
  auto log = FramedLog::Create(path_, kTestFormat, {"a", "b"},
                               /*sync=*/true, {/*sync=*/true, nullptr});
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  ASSERT_TRUE(log.value()->Append("c").ok());
  EXPECT_FALSE(fs::exists(path_ + ".tmp"));
  std::vector<std::string> replayed;
  ASSERT_TRUE(ReadFramedFile(path_, kTestFormat,
                             [&replayed](std::string_view payload) {
                               replayed.emplace_back(payload);
                               return true;
                             })
                  .ok());
  EXPECT_EQ(replayed, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(log.value()->bytes(), ReadFileBytes(path_).size());
}

TEST_F(FramedLogTest, OneRecordFileRoundTripsAndRefusesEveryDamage) {
  const std::string body = "s\tr\to\t1.5\n" + std::string(100, 'z');
  for (const bool sync : {false, true}) {
    ASSERT_TRUE(WriteFramedRecord(path_, kTestFormat, body, sync).ok());
    auto read = ReadFramedRecord(path_, kTestFormat);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(read.value(), body);
  }
  ASSERT_TRUE(WriteFramedRecord(path_, kTestFormat, "", false).ok());
  EXPECT_EQ(ReadFramedRecord(path_, kTestFormat).value(), "");

  ASSERT_TRUE(WriteFramedRecord(path_, kTestFormat, body, false).ok());
  const std::string full = ReadFileBytes(path_);
  for (size_t cut = 0; cut < full.size(); ++cut) {
    WriteFileBytes(path_, full.substr(0, cut));
    const auto read = ReadFramedRecord(path_, kTestFormat);
    ASSERT_FALSE(read.ok()) << "cut=" << cut;
    EXPECT_EQ(read.status().code(), StatusCode::kIoError);
  }
  for (size_t i = 0; i < full.size(); ++i) {
    std::string corrupt = full;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x10);
    WriteFileBytes(path_, corrupt);
    EXPECT_FALSE(ReadFramedRecord(path_, kTestFormat).ok()) << "byte=" << i;
  }
  WriteFileBytes(path_, full + "trailing");
  EXPECT_FALSE(ReadFramedRecord(path_, kTestFormat).ok());
  fs::remove(path_);
  EXPECT_EQ(ReadFramedRecord(path_, kTestFormat).status().code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace kgfd
