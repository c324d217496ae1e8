#include "server/job_journal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "util/failpoint.h"
#include "test_scratch.h"

namespace kgfd {
namespace {

namespace fs = std::filesystem;

JournalRecord Submitted(const std::string& id, const std::string& config) {
  JournalRecord r;
  r.type = JournalRecord::Type::kSubmitted;
  r.job_id = id;
  r.config_text = config;
  return r;
}

JournalRecord Started(const std::string& id, uint32_t attempt) {
  JournalRecord r;
  r.type = JournalRecord::Type::kStarted;
  r.job_id = id;
  r.attempt = attempt;
  return r;
}

JournalRecord Terminal(const std::string& id, uint8_t state,
                       const std::string& error, uint64_t num_facts) {
  JournalRecord r;
  r.type = JournalRecord::Type::kTerminal;
  r.job_id = id;
  r.terminal_state = state;
  r.error = error;
  r.num_facts = num_facts;
  return r;
}

void ExpectRecordsEqual(const JournalRecord& want, const JournalRecord& got) {
  EXPECT_EQ(static_cast<int>(want.type), static_cast<int>(got.type));
  EXPECT_EQ(want.job_id, got.job_id);
  EXPECT_EQ(want.config_text, got.config_text);
  EXPECT_EQ(want.attempt, got.attempt);
  EXPECT_EQ(want.terminal_state, got.terminal_state);
  EXPECT_EQ(want.error, got.error);
  EXPECT_EQ(want.num_facts, got.num_facts);
}

/// One record as the journal frames it on disk.
std::string Frame(const JournalRecord& record) {
  std::string frame;
  AppendFrame(&frame, JobJournal::EncodePayload(record));
  return frame;
}

void WriteFileBytes(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

class JobJournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPoints::Instance().Reset();
    dir_ = ScratchPath("journal");
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override {
    FailPoints::Instance().Reset();
    fs::remove_all(dir_);
  }

  /// The representative record mix used by most tests below.
  std::vector<JournalRecord> SampleRecords() const {
    return {Submitted("j1", "data.dir = /x\nmodel.checkpoint = /y\n"),
            Started("j1", 1),
            Terminal("j1", 1, "", 42),
            Submitted("j2", "job.kind = run\n"),
            Started("j2", 2),
            Terminal("j2", 5, "poisoned after 2 attempts", 0)};
  }

  /// Opens the journal and appends `records`, leaving a valid segment.
  void WriteJournal(const std::vector<JournalRecord>& records) {
    JobJournal::ReplayResult replay;
    auto journal =
        JobJournal::Open(dir_, JobJournal::Options{}, &replay);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    for (const JournalRecord& record : records) {
      ASSERT_TRUE(journal.value()->Append(record).ok());
    }
  }

  std::string SegmentPath(int seq = 1) const {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "journal.%06d.log", seq);
    return dir_ + "/" + buf;
  }

  std::string dir_;
};

TEST_F(JobJournalTest, RoundTripsEveryRecordType) {
  const std::vector<JournalRecord> records = SampleRecords();
  WriteJournal(records);

  JobJournal::ReplayResult replay;
  auto journal = JobJournal::Open(dir_, JobJournal::Options{}, &replay);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_EQ(replay.truncated_bytes, 0u);
  ASSERT_EQ(replay.records.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    ExpectRecordsEqual(records[i], replay.records[i]);
  }
}

TEST_F(JobJournalTest, SegmentBytesKeepTheVersion1Layout) {
  // Journals written before the shared codec must keep replaying: pin one
  // record's exact bytes — header, [len][crc32][payload] frame, and the
  // kStarted payload (type, u64-length job id, u32 attempt).
  WriteJournal({Started("j1", 3)});
  std::ifstream in(SegmentPath(), std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  const std::string expected(
      "KGFDJNL1\x01\0\0\0"                  // magic, version 1
      "\x0f\0\0\0\x3f\x64\xa0\xb9"          // length 15, CRC-32
      "\x02\x02\0\0\0\0\0\0\0j1\x03\0\0\0",  // kStarted "j1" 3
      12 + 8 + 15);
  EXPECT_EQ(bytes, expected);
}

TEST_F(JobJournalTest, LegacyProgressRecordIsSkippedAndReplayContinues) {
  // Older builds appended a progress record (type 3: job id, relations
  // done, rounds done) per finished relation. Nothing writes it now, but a
  // journal holding one must replay every record around it.
  std::string progress;
  Put(&progress, uint8_t{3});
  PutString(&progress, "j1");
  Put(&progress, uint64_t{4});
  Put(&progress, uint64_t{0});
  const JournalRecord submitted = Submitted("j1", "cfg");
  const JournalRecord started = Started("j1", 1);
  const JournalRecord terminal = Terminal("j1", 1, "", 42);
  std::string data = FramedHeader(kJournalFormat);
  data += Frame(submitted) + Frame(started);
  AppendFrame(&data, progress);
  data += Frame(terminal);
  WriteFileBytes(SegmentPath(), data);

  JobJournal::ReplayResult replay;
  auto journal = JobJournal::Open(dir_, JobJournal::Options{}, &replay);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_EQ(replay.truncated_bytes, 0u);
  ASSERT_EQ(replay.records.size(), 3u);
  ExpectRecordsEqual(submitted, replay.records[0]);
  ExpectRecordsEqual(started, replay.records[1]);
  ExpectRecordsEqual(terminal, replay.records[2]);
}

TEST_F(JobJournalTest, FreshDirectoryStartsAnEmptySegment) {
  JobJournal::ReplayResult replay;
  auto journal = JobJournal::Open(dir_, JobJournal::Options{}, &replay);
  ASSERT_TRUE(journal.ok());
  EXPECT_TRUE(replay.records.empty());
  EXPECT_EQ(replay.segment_seq, 1u);
  EXPECT_TRUE(fs::exists(SegmentPath()));
  EXPECT_EQ(journal.value()->bytes(), FramedHeader(kJournalFormat).size());
}

TEST_F(JobJournalTest, EmptyAndSubHeaderFilesRecoverEmpty) {
  for (size_t size : {size_t{0}, size_t{1}, size_t{7}, size_t{11}}) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    WriteFileBytes(SegmentPath(),
                   std::string(size, '\x5a'));  // torn pre-header bytes
    JobJournal::ReplayResult replay;
    auto journal = JobJournal::Open(dir_, JobJournal::Options{}, &replay);
    ASSERT_TRUE(journal.ok()) << "size=" << size;
    EXPECT_TRUE(replay.records.empty());
    EXPECT_EQ(replay.truncated_bytes, size);
    // Usable from here on.
    EXPECT_TRUE(journal.value()->Append(Started("j1", 1)).ok());
  }
}

TEST_F(JobJournalTest, GarbageSegmentIsADescriptiveErrorAndQuarantines) {
  WriteFileBytes(SegmentPath(), "definitely not a journal, but 12+ bytes");
  JobJournal::ReplayResult replay;
  auto journal = JobJournal::Open(dir_, JobJournal::Options{}, &replay);
  ASSERT_FALSE(journal.ok());
  EXPECT_EQ(journal.status().code(), StatusCode::kIoError);
  EXPECT_NE(journal.status().message().find("bad magic"),
            std::string::npos);
  EXPECT_TRUE(fs::exists(SegmentPath()));  // untouched

  auto moved = JobJournal::QuarantineSegments(dir_);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved.value(), 1u);
  EXPECT_FALSE(fs::exists(SegmentPath()));
  EXPECT_TRUE(fs::exists(SegmentPath() + ".corrupt"));

  // With the bad segment aside, a fresh journal boots normally.
  JobJournal::ReplayResult fresh;
  auto reopened = JobJournal::Open(dir_, JobJournal::Options{}, &fresh);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(fresh.records.empty());
}

TEST_F(JobJournalTest, DuplicatedAndReorderedRecordsReplayVerbatim) {
  // The journal layer replays what the file holds — dedup/ordering rules
  // live in JobManager's replay state machine (integration_recovery_test).
  // What must hold here: a hand-scrambled but CRC-valid sequence replays
  // fully and in file order, no crash, no reordering.
  std::string data = FramedHeader(kJournalFormat);
  const JournalRecord a = Submitted("j1", "cfg");
  const JournalRecord b = Started("j1", 1);
  const JournalRecord t = Terminal("j1", 2, "", 0);
  for (const JournalRecord* r : {&t, &a, &b, &a, &t, &b, &a}) {
    data += Frame(*r);
  }
  WriteFileBytes(SegmentPath(), data);

  JobJournal::ReplayResult replay;
  auto journal = JobJournal::Open(dir_, JobJournal::Options{}, &replay);
  ASSERT_TRUE(journal.ok());
  ASSERT_EQ(replay.records.size(), 7u);
  ExpectRecordsEqual(t, replay.records[0]);
  ExpectRecordsEqual(a, replay.records[1]);
  ExpectRecordsEqual(b, replay.records[2]);
  ExpectRecordsEqual(a, replay.records[6]);
}

TEST_F(JobJournalTest, RotationCompactsAndSurvivesEveryCrashState) {
  // Live rotation: a snapshot replaces the history, the old segment goes
  // away, appends continue on the new one.
  JobJournal::Options options;
  options.rotate_bytes = 1;  // every append crosses the threshold
  {
    JobJournal::ReplayResult replay;
    auto journal = JobJournal::Open(dir_, options, &replay);
    ASSERT_TRUE(journal.ok());
    for (const JournalRecord& record : SampleRecords()) {
      ASSERT_TRUE(journal.value()->Append(record).ok());
    }
    ASSERT_TRUE(journal.value()->ShouldRotate());
    const std::vector<JournalRecord> snapshot = {Submitted("j2", "cfg2"),
                                                 Terminal("j2", 1, "", 3)};
    ASSERT_TRUE(journal.value()->Rotate(snapshot).ok());
    EXPECT_FALSE(fs::exists(SegmentPath(1)));
    EXPECT_TRUE(fs::exists(SegmentPath(2)));
    ASSERT_TRUE(journal.value()->Append(Started("j3", 1)).ok());
  }
  {
    JobJournal::ReplayResult replay;
    auto journal = JobJournal::Open(dir_, options, &replay);
    ASSERT_TRUE(journal.ok());
    ASSERT_EQ(replay.records.size(), 3u);
    EXPECT_EQ(replay.records[0].job_id, "j2");
    EXPECT_EQ(replay.records[2].job_id, "j3");
    EXPECT_EQ(replay.segment_seq, 2u);
  }

  // Crash states around the rename. (1) tmp written, rename never
  // happened: old segment is authoritative, tmp is discarded.
  fs::remove_all(dir_);
  fs::create_directories(dir_);
  std::string old_segment = FramedHeader(kJournalFormat);
  old_segment += Frame(Submitted("j1", "old"));
  WriteFileBytes(SegmentPath(1), old_segment);
  WriteFileBytes(SegmentPath(2) + ".tmp", "half-written snapsho");
  {
    JobJournal::ReplayResult replay;
    auto journal = JobJournal::Open(dir_, JobJournal::Options{}, &replay);
    ASSERT_TRUE(journal.ok());
    ASSERT_EQ(replay.records.size(), 1u);
    EXPECT_EQ(replay.records[0].config_text, "old");
    EXPECT_FALSE(fs::exists(SegmentPath(2) + ".tmp"));
  }

  // (2) rename done, old segment not yet unlinked: the NEWER segment wins
  // and the older is cleaned up.
  fs::remove_all(dir_);
  fs::create_directories(dir_);
  WriteFileBytes(SegmentPath(1), old_segment);
  std::string new_segment = FramedHeader(kJournalFormat);
  new_segment += Frame(Submitted("j1", "new"));
  WriteFileBytes(SegmentPath(2), new_segment);
  {
    JobJournal::ReplayResult replay;
    auto journal = JobJournal::Open(dir_, JobJournal::Options{}, &replay);
    ASSERT_TRUE(journal.ok());
    ASSERT_EQ(replay.records.size(), 1u);
    EXPECT_EQ(replay.records[0].config_text, "new");
    EXPECT_EQ(replay.segment_seq, 2u);
    EXPECT_FALSE(fs::exists(SegmentPath(1)));
  }
}

TEST_F(JobJournalTest, SnapshotAboveThresholdStillRotatesAmortized) {
  // The owner's loop (JobManager::JournalAppendLocked): append, then compact
  // whenever ShouldRotate(). The live-state snapshot alone is far above
  // rotate_bytes, so a threshold of rotate_bytes only would compact after
  // every append; rotation must instead wait until the segment has grown
  // by at least one snapshot's worth of appends.
  std::vector<JournalRecord> snapshot;
  for (int j = 0; j < 20; ++j) {
    snapshot.push_back(Submitted("job" + std::to_string(j), "cfg"));
  }
  uint64_t snapshot_bytes = FramedHeader(kJournalFormat).size();
  for (const JournalRecord& record : snapshot) {
    snapshot_bytes += Frame(record).size();
  }
  const JournalRecord started = Started("job0", 1);
  const uint64_t record_bytes = Frame(started).size();
  const size_t appends_per_rotation = snapshot_bytes / record_bytes;
  ASSERT_GT(appends_per_rotation, 4u);

  JobJournal::Options options;
  options.rotate_bytes = snapshot_bytes / 4;
  JobJournal::ReplayResult replay;
  auto journal = JobJournal::Open(dir_, options, &replay);
  ASSERT_TRUE(journal.ok());
  constexpr size_t kAppends = 200;
  std::vector<size_t> rotated_at;
  for (size_t i = 0; i < kAppends; ++i) {
    ASSERT_TRUE(journal.value()->Append(started).ok());
    if (journal.value()->ShouldRotate()) {
      ASSERT_TRUE(journal.value()->Rotate(snapshot).ok());
      rotated_at.push_back(i);
    }
  }
  ASSERT_GE(rotated_at.size(), 2u);
  for (size_t k = 1; k < rotated_at.size(); ++k) {
    EXPECT_GE(rotated_at[k] - rotated_at[k - 1], appends_per_rotation);
  }
  EXPECT_LE(rotated_at.size(), kAppends / appends_per_rotation + 1);
}

TEST_F(JobJournalTest, AppendAndRotateFailpointsInjectAndRecover) {
  JobJournal::ReplayResult replay;
  auto journal = JobJournal::Open(dir_, JobJournal::Options{}, &replay);
  ASSERT_TRUE(journal.ok());

  ASSERT_TRUE(FailPoints::Instance()
                  .Enable(kFailPointJournalAppend, "return(IoError)")
                  .ok());
  EXPECT_EQ(journal.value()->Append(Started("j1", 1)).code(),
            StatusCode::kIoError);
  FailPoints::Instance().Disable(kFailPointJournalAppend);
  // The journal stays usable after an injected append failure.
  EXPECT_TRUE(journal.value()->Append(Started("j1", 1)).ok());

  ASSERT_TRUE(FailPoints::Instance()
                  .Enable(kFailPointJournalRotate, "return(IoError)")
                  .ok());
  EXPECT_EQ(journal.value()->Rotate({}).code(), StatusCode::kIoError);
  FailPoints::Instance().Disable(kFailPointJournalRotate);
  // Failed rotation left the old segment active and intact.
  EXPECT_TRUE(fs::exists(SegmentPath(1)));
  EXPECT_TRUE(journal.value()->Append(Started("j1", 2)).ok());

  ASSERT_TRUE(FailPoints::Instance()
                  .Enable(kFailPointJournalReplay, "return(IoError)")
                  .ok());
  JobJournal::ReplayResult blocked;
  EXPECT_EQ(
      JobJournal::Open(dir_, JobJournal::Options{}, &blocked).status().code(),
      StatusCode::kIoError);
  FailPoints::Instance().Disable(kFailPointJournalReplay);
}

TEST_F(JobJournalTest, FsyncOptionRoundTrips) {
  JobJournal::Options options;
  options.fsync = true;
  JobJournal::ReplayResult replay;
  auto journal = JobJournal::Open(dir_, options, &replay);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE(journal.value()->Append(Started("j1", 1)).ok());
  journal.value().reset();
  JobJournal::ReplayResult again;
  auto reopened = JobJournal::Open(dir_, options, &again);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(again.records.size(), 1u);
}

TEST_F(JobJournalTest, JournalFailpointSitesAreRegistered) {
  // The chaos battery scripts arm these by name; a rename must fail here,
  // not silently no-op in CI.
  const std::vector<std::string> all(std::begin(kAllFailPointSites),
                                     std::end(kAllFailPointSites));
  for (const char* site :
       {kFailPointJournalAppend, kFailPointJournalRotate,
        kFailPointJournalReplay, kFailPointJournalTerminal}) {
    EXPECT_NE(std::find(all.begin(), all.end(), std::string(site)),
              all.end())
        << site;
  }
}

}  // namespace
}  // namespace kgfd
