#include "server/job_journal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "util/crc32.h"
#include "util/failpoint.h"

namespace kgfd {
namespace {

constexpr char kMagic[8] = {'K', 'G', 'F', 'D', 'J', 'N', 'L', '1'};
constexpr uint32_t kFormatVersion = 1;
constexpr size_t kHeaderBytes = sizeof(kMagic) + sizeof(uint32_t);
/// Sanity cap on one record's payload: larger than any legal record (the
/// biggest field is a job config, itself capped by the HTTP 413 body
/// limit), small enough that a corrupt length field cannot drive a huge
/// allocation.
constexpr uint64_t kMaxRecordBytes = 64ull << 20;

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutString(std::string* out, const std::string& s) {
  PutU64(out, s.size());
  out->append(s);
}

/// Bounds-checked reads off a payload buffer. Every Get* returns false on
/// underrun so a corrupt (but CRC-valid, i.e. version-skewed) payload
/// degrades to "unparseable record", never an out-of-bounds read.
struct PayloadReader {
  const char* data;
  size_t size;
  size_t at = 0;

  bool GetU8(uint8_t* v) {
    if (size - at < sizeof(*v)) return false;
    std::memcpy(v, data + at, sizeof(*v));
    at += sizeof(*v);
    return true;
  }
  bool GetU32(uint32_t* v) {
    if (size - at < sizeof(*v)) return false;
    std::memcpy(v, data + at, sizeof(*v));
    at += sizeof(*v);
    return true;
  }
  bool GetU64(uint64_t* v) {
    if (size - at < sizeof(*v)) return false;
    std::memcpy(v, data + at, sizeof(*v));
    at += sizeof(*v);
    return true;
  }
  bool GetString(std::string* s) {
    uint64_t n = 0;
    if (!GetU64(&n)) return false;
    if (n > size - at) return false;
    s->assign(data + at, n);
    at += n;
    return true;
  }
};

bool ParseRecordPayload(const char* data, size_t size, JournalRecord* out) {
  PayloadReader in{data, size};
  uint8_t type = 0;
  if (!in.GetU8(&type)) return false;
  switch (type) {
    case static_cast<uint8_t>(JournalRecord::Type::kSubmitted):
    case static_cast<uint8_t>(JournalRecord::Type::kStarted):
    case static_cast<uint8_t>(JournalRecord::Type::kProgress):
    case static_cast<uint8_t>(JournalRecord::Type::kTerminal):
      break;
    default:
      return false;
  }
  out->type = static_cast<JournalRecord::Type>(type);
  if (!in.GetString(&out->job_id)) return false;
  switch (out->type) {
    case JournalRecord::Type::kSubmitted:
      return in.GetString(&out->config_text);
    case JournalRecord::Type::kStarted:
      return in.GetU32(&out->attempt);
    case JournalRecord::Type::kProgress:
      return in.GetU64(&out->relations_done) && in.GetU64(&out->rounds_done);
    case JournalRecord::Type::kTerminal:
      return in.GetU8(&out->terminal_state) && in.GetString(&out->error) &&
             in.GetU64(&out->num_facts);
  }
  return false;
}

Status WriteFully(int fd, const std::string& data) {
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n =
        ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("journal write failed: " +
                             std::string(std::strerror(errno)));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<std::string> ReadWholeFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open journal segment " + path + ": " +
                           std::string(std::strerror(errno)));
  }
  std::string data;
  char chunk[1 << 16];
  while (true) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      ::close(fd);
      return Status::IoError("read failed on journal segment " + path +
                             ": " + err);
    }
    if (n == 0) break;
    data.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return data;
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

std::string JobJournal::SegmentHeader() {
  std::string header(kMagic, sizeof(kMagic));
  PutU32(&header, kFormatVersion);
  return header;
}

std::string JobJournal::EncodeRecord(const JournalRecord& record) {
  std::string payload;
  payload.push_back(static_cast<char>(record.type));
  PutString(&payload, record.job_id);
  switch (record.type) {
    case JournalRecord::Type::kSubmitted:
      PutString(&payload, record.config_text);
      break;
    case JournalRecord::Type::kStarted:
      PutU32(&payload, record.attempt);
      break;
    case JournalRecord::Type::kProgress:
      PutU64(&payload, record.relations_done);
      PutU64(&payload, record.rounds_done);
      break;
    case JournalRecord::Type::kTerminal:
      payload.push_back(static_cast<char>(record.terminal_state));
      PutString(&payload, record.error);
      PutU64(&payload, record.num_facts);
      break;
  }
  std::string frame;
  frame.reserve(payload.size() + 2 * sizeof(uint32_t));
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU32(&frame, Crc32(payload));
  frame.append(payload);
  return frame;
}

JobJournal::JobJournal(std::string dir, Options options)
    : dir_(std::move(dir)), options_(options) {}

JobJournal::~JobJournal() {
  if (fd_ >= 0) ::close(fd_);
}

std::string JobJournal::SegmentPathFor(uint64_t seq) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "journal.%06" PRIu64 ".log", seq);
  return dir_ + "/" + buf;
}

Status JobJournal::OpenSegmentForAppend(uint64_t seq, uint64_t size) {
  const std::string path = SegmentPathFor(seq);
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open journal segment for append " +
                           path + ": " + std::string(std::strerror(errno)));
  }
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
  seq_ = seq;
  path_ = path;
  bytes_ = size;
  return Status::OK();
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
    // Fresh journal: segment 1 with just the header.
    const std::string path = journal->SegmentPathFor(1);
    const int fd = ::open(path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
      return Status::IoError("cannot create journal segment " + path +
                             ": " + std::string(std::strerror(errno)));
    }
    const std::string header = SegmentHeader();
    const Status written = WriteFully(fd, header);
    ::close(fd);
    KGFD_RETURN_NOT_OK(written);
    KGFD_RETURN_NOT_OK(journal->OpenSegmentForAppend(1, header.size()));
    replay->segment_seq = 1;
    return journal;
  }

  // Replay the newest segment only: rotation writes a complete snapshot,
  // so older segments are strictly stale (kept until this replay succeeds,
  // in case the newest one turns out not to be ours).
  const uint64_t seq = scan.seqs.back();
  const std::string path = journal->SegmentPathFor(seq);
  KGFD_ASSIGN_OR_RETURN(std::string data, ReadWholeFile(path));

  uint64_t valid_end = 0;
  if (data.size() < kHeaderBytes) {
    // Torn header: the segment was created but the crash hit before even
    // the 12 header bytes landed. Nothing was ever recorded in it —
    // rewrite the header and recover empty.
    replay->truncated_bytes = data.size();
    const int fd = ::open(path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
      return Status::IoError("cannot rewrite torn journal segment " + path +
                             ": " + std::string(std::strerror(errno)));
    }
    const std::string header = SegmentHeader();
    const Status written = WriteFully(fd, header);
    ::close(fd);
    KGFD_RETURN_NOT_OK(written);
    valid_end = header.size();
  } else {
    if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
      return Status::IoError("not a kgfd job journal (bad magic): " + path);
    }
    uint32_t version = 0;
    std::memcpy(&version, data.data() + sizeof(kMagic), sizeof(version));
    if (version != kFormatVersion) {
      return Status::IoError("unsupported job journal version " +
                             std::to_string(version) + ": " + path);
    }
    // Walk the frames. The first frame that is short, oversized, or fails
    // its CRC marks the torn/corrupt tail: truncate there and stop. A
    // CRC-valid but unparseable payload (version skew) truncates too —
    // nothing after an unintelligible record can be trusted to apply in
    // order.
    size_t at = kHeaderBytes;
    valid_end = at;
    while (data.size() - at >= 2 * sizeof(uint32_t)) {
      uint32_t len = 0;
      uint32_t crc = 0;
      std::memcpy(&len, data.data() + at, sizeof(len));
      std::memcpy(&crc, data.data() + at + sizeof(len), sizeof(crc));
      const size_t payload_at = at + 2 * sizeof(uint32_t);
      if (len > kMaxRecordBytes || len > data.size() - payload_at) break;
      if (Crc32(data.data() + payload_at, len) != crc) break;
      JournalRecord record;
      if (!ParseRecordPayload(data.data() + payload_at, len, &record)) break;
      replay->records.push_back(std::move(record));
      at = payload_at + len;
      valid_end = at;
    }
    replay->truncated_bytes = data.size() - valid_end;
    if (replay->truncated_bytes > 0) {
      if (::truncate(path.c_str(), static_cast<off_t>(valid_end)) != 0) {
        return Status::IoError("cannot truncate torn journal tail of " +
                               path + ": " +
                               std::string(std::strerror(errno)));
      }
    }
  }

  // The newest segment replayed: older ones are now provably stale.
  for (const uint64_t old_seq : scan.seqs) {
    if (old_seq != seq) ::unlink(journal->SegmentPathFor(old_seq).c_str());
  }
  KGFD_RETURN_NOT_OK(journal->OpenSegmentForAppend(seq, valid_end));
  replay->segment_seq = seq;
  return journal;
}

Status JobJournal::Append(const JournalRecord& record) {
  KGFD_FAIL_POINT(kFailPointJournalAppend);
  if (fd_ < 0) return Status::FailedPrecondition("journal is not open");
  const std::string frame = EncodeRecord(record);
  KGFD_RETURN_NOT_OK(WriteFully(fd_, frame));
  if (options_.fsync && ::fdatasync(fd_) != 0) {
    return Status::IoError("journal fdatasync failed: " +
                           std::string(std::strerror(errno)));
  }
  bytes_ += frame.size();
  return Status::OK();
}

Status JobJournal::Rotate(const std::vector<JournalRecord>& snapshot) {
  KGFD_FAIL_POINT(kFailPointJournalRotate);
  if (fd_ < 0) return Status::FailedPrecondition("journal is not open");
  const uint64_t next_seq = seq_ + 1;
  const std::string next_path = SegmentPathFor(next_seq);
  const std::string tmp_path = next_path + ".tmp";

  std::string contents = SegmentHeader();
  for (const JournalRecord& record : snapshot) {
    contents.append(EncodeRecord(record));
  }
  {
    const int fd = ::open(tmp_path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
      return Status::IoError("cannot create journal segment " + tmp_path +
                             ": " + std::string(std::strerror(errno)));
    }
    const Status written = WriteFully(fd, contents);
    if (!written.ok()) {
      ::close(fd);
      ::unlink(tmp_path.c_str());
      return written;
    }
    // The snapshot must be on disk before the rename makes it
    // authoritative, or a crash could leave a hollow newest segment.
    if (::fdatasync(fd) != 0) {
      const std::string err = std::strerror(errno);
      ::close(fd);
      ::unlink(tmp_path.c_str());
      return Status::IoError("journal fdatasync failed: " + err);
    }
    ::close(fd);
  }
  if (std::rename(tmp_path.c_str(), next_path.c_str()) != 0) {
    const std::string err = std::strerror(errno);
    ::unlink(tmp_path.c_str());
    return Status::IoError("rename failed: " + tmp_path + " -> " +
                           next_path + ": " + err);
  }
  const std::string old_path = path_;
  KGFD_RETURN_NOT_OK(OpenSegmentForAppend(next_seq, contents.size()));
  snapshot_bytes_ = contents.size();
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
