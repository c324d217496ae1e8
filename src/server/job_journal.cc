#include "server/job_journal.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "util/failpoint.h"

namespace kgfd {
namespace {

/// Type byte of the per-relation progress record older builds wrote (a job
/// id and two u64 counters). Recovery never read it; replay skips it.
constexpr uint8_t kLegacyProgressType = 3;

enum class Parsed { kRecord, kSkipped, kBad };

Parsed ParseRecordPayload(std::string_view payload, JournalRecord* out) {
  PayloadReader in{payload};
  uint8_t type = 0;
  if (!in.Get(&type) || !in.GetString(&out->job_id)) return Parsed::kBad;
  out->type = static_cast<JournalRecord::Type>(type);
  bool ok = false;
  switch (type) {
    case static_cast<uint8_t>(JournalRecord::Type::kSubmitted):
      ok = in.GetString(&out->config_text);
      break;
    case static_cast<uint8_t>(JournalRecord::Type::kStarted):
      ok = in.Get(&out->attempt);
      break;
    case static_cast<uint8_t>(JournalRecord::Type::kTerminal):
      ok = in.Get(&out->terminal_state) && in.GetString(&out->error) &&
           in.Get(&out->num_facts);
      break;
    case kLegacyProgressType: {
      uint64_t relations = 0, rounds = 0;
      return in.Get(&relations) && in.Get(&rounds) ? Parsed::kSkipped
                                                   : Parsed::kBad;
    }
  }
  return ok ? Parsed::kRecord : Parsed::kBad;
}

/// journal.NNNNNN.log -> NNNNNN; 0 when the name does not match.
uint64_t SegmentSeqFromName(const std::string& name) {
  uint64_t seq = 0;
  char trailing = '\0';
  if (std::sscanf(name.c_str(), "journal.%06" SCNu64 ".lo%c", &seq,
                  &trailing) == 2 &&
      trailing == 'g' && name == [&] {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "journal.%06" PRIu64 ".log", seq);
        return std::string(buf);
      }()) {
    return seq;
  }
  return 0;
}

/// All `journal.*.log` segments in `dir`, plus stale `.tmp` leftovers.
struct SegmentScan {
  std::vector<uint64_t> seqs;  // sorted ascending
  std::vector<std::string> stale_tmp;
};

Result<SegmentScan> ScanSegments(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::IoError("cannot open journal dir " + dir + ": " +
                           std::string(std::strerror(errno)));
  }
  SegmentScan scan;
  while (dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    const uint64_t seq = SegmentSeqFromName(name);
    if (seq != 0) {
      scan.seqs.push_back(seq);
    } else if (name.rfind("journal.", 0) == 0 &&
               name.size() > 4 &&
               name.compare(name.size() - 4, 4, ".tmp") == 0) {
      scan.stale_tmp.push_back(dir + "/" + name);
    }
  }
  ::closedir(d);
  std::sort(scan.seqs.begin(), scan.seqs.end());
  return scan;
}

}  // namespace

std::string JobJournal::EncodePayload(const JournalRecord& record) {
  std::string payload;
  Put(&payload, static_cast<uint8_t>(record.type));
  PutString(&payload, record.job_id);
  switch (record.type) {
    case JournalRecord::Type::kSubmitted:
      PutString(&payload, record.config_text);
      break;
    case JournalRecord::Type::kStarted:
      Put(&payload, record.attempt);
      break;
    case JournalRecord::Type::kTerminal:
      Put(&payload, record.terminal_state);
      PutString(&payload, record.error);
      Put(&payload, record.num_facts);
      break;
  }
  return payload;
}

JobJournal::JobJournal(std::string dir, Options options)
    : dir_(std::move(dir)), options_(options) {}

std::string JobJournal::SegmentPathFor(uint64_t seq) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "journal.%06" PRIu64 ".log", seq);
  return dir_ + "/" + buf;
}

FramedLog::Options JobJournal::LogOptions() const {
  return FramedLog::Options{options_.fsync, kFailPointJournalAppend};
}

Result<std::unique_ptr<JobJournal>> JobJournal::Open(
    const std::string& dir, const Options& options, ReplayResult* replay) {
  KGFD_FAIL_POINT(kFailPointJournalReplay);
  *replay = ReplayResult{};
  KGFD_ASSIGN_OR_RETURN(const SegmentScan scan, ScanSegments(dir));
  // A crash mid-rotation may leave a half-written `.tmp`; it was never
  // renamed, so it never became authoritative — drop it.
  for (const std::string& tmp : scan.stale_tmp) ::unlink(tmp.c_str());

  std::unique_ptr<JobJournal> journal(new JobJournal(dir, options));
  if (scan.seqs.empty()) {
    KGFD_ASSIGN_OR_RETURN(
        journal->log_,
        FramedLog::Create(journal->SegmentPathFor(1), kJournalFormat, {},
                          /*sync=*/false, journal->LogOptions()));
    return journal;
  }

  // Replay the newest segment only: rotation writes a complete snapshot,
  // so older segments are strictly stale (kept until this replay succeeds,
  // in case the newest one turns out not to be ours). A CRC-valid but
  // unparseable payload (version skew) ends the replay like a torn frame:
  // nothing after an unintelligible record can be trusted to apply in
  // order.
  const uint64_t seq = scan.seqs.back();
  KGFD_ASSIGN_OR_RETURN(
      journal->log_,
      FramedLog::Open(
          journal->SegmentPathFor(seq), kJournalFormat,
          [replay](std::string_view payload) {
            JournalRecord record;
            const Parsed parsed = ParseRecordPayload(payload, &record);
            if (parsed == Parsed::kRecord) {
              replay->records.push_back(std::move(record));
            }
            return parsed != Parsed::kBad;
          },
          journal->LogOptions(), &replay->truncated_bytes));

  // The newest segment replayed: older ones are now provably stale.
  for (const uint64_t old_seq : scan.seqs) {
    if (old_seq != seq) ::unlink(journal->SegmentPathFor(old_seq).c_str());
  }
  journal->seq_ = seq;
  replay->segment_seq = seq;
  return journal;
}

Status JobJournal::Append(const JournalRecord& record) {
  return log_->Append(EncodePayload(record));
}

Status JobJournal::Rotate(const std::vector<JournalRecord>& snapshot) {
  KGFD_FAIL_POINT(kFailPointJournalRotate);
  std::vector<std::string> payloads;
  payloads.reserve(snapshot.size());
  for (const JournalRecord& record : snapshot) {
    payloads.push_back(EncodePayload(record));
  }
  // Always synced, whatever Options::fsync says: the old segment is
  // unlinked next, so a snapshot that never reached the disk would lose
  // the whole queue to a power cut.
  KGFD_ASSIGN_OR_RETURN(
      std::unique_ptr<FramedLog> next,
      FramedLog::Create(SegmentPathFor(seq_ + 1), kJournalFormat, payloads,
                        /*sync=*/true, LogOptions()));
  const std::string old_path = log_->path();
  log_ = std::move(next);
  ++seq_;
  snapshot_bytes_ = log_->bytes();
  ::unlink(old_path.c_str());
  return Status::OK();
}

Result<size_t> JobJournal::QuarantineSegments(const std::string& dir) {
  KGFD_ASSIGN_OR_RETURN(const SegmentScan scan, ScanSegments(dir));
  size_t moved = 0;
  JobJournal namer(dir, Options{});
  for (const uint64_t seq : scan.seqs) {
    const std::string path = namer.SegmentPathFor(seq);
    const std::string corrupt = path + ".corrupt";
    if (std::rename(path.c_str(), corrupt.c_str()) == 0) ++moved;
  }
  return moved;
}

}  // namespace kgfd
