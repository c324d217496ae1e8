#ifndef KGFD_SERVER_JOB_JOURNAL_H_
#define KGFD_SERVER_JOB_JOURNAL_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/framed_log.h"
#include "util/status.h"

namespace kgfd {

/// Durable write-ahead journal for the job queue: every job lifecycle
/// transition (submitted / started / terminal) is appended to a
/// segment file under the server's --work_dir, so a crashed or redeployed
/// server can rebuild its queue on boot instead of silently dropping every
/// accepted job (see JobManager recovery in job_manager.h).
///
/// Durability model:
///  * Segments are framed files (util/framed_log.h, kJournalFormat): replay
///    checks each record's CRC before parsing a byte, so a torn tail (crash
///    mid-append) or a bit flip truncates the segment back to its last
///    valid record and recovery continues — never a SIGBUS, abort, or
///    garbage parse.
///  * Segments are rotated by *compaction*: a snapshot of the live state is
///    written to `journal.<seq+1>.log.tmp`, synced and atomically renamed
///    over the `.tmp` suffix, then older segments are unlinked. Replay
///    always uses the highest-numbered complete segment; a crash at any
///    point during rotation leaves either the old segment, or the old and
///    the new, or the new alone — all of which recover to the same state.
///  * Appends hit the page cache by default (a SIGKILL'd process's writes
///    survive; only a kernel crash or power loss can lose the tail). Set
///    Options::fsync for fdatasync-per-append when that window matters.
///
/// Not thread-safe: the owner (JobManager) serializes all calls under its
/// own lock.

/// Segment header of every journal.
inline constexpr FramedFormat kJournalFormat{"KGFDJNL1", 1, "job journal"};

/// One journal entry. The record grammar (DESIGN.md §10): a `kSubmitted`
/// record creates a job, `kStarted` marks one execution attempt, and
/// `kTerminal` closes the job. Type 3 was a per-relation progress record;
/// nothing writes it any more (progress lives in the job's resume
/// manifest), and replay skips it so older journals still load. Replay
/// tolerates duplicated, reordered, or orphaned records (each rule is
/// defensive; see JobManager::RecoverFromJournal).
struct JournalRecord {
  enum class Type : uint8_t {
    kSubmitted = 1,
    kStarted = 2,
    kTerminal = 4,
  };

  Type type = Type::kSubmitted;
  std::string job_id;
  /// kSubmitted: the original POST /jobs body, re-parsed on recovery.
  std::string config_text;
  /// kStarted: 1-based execution attempt (carries retry counts across
  /// restarts, so a job that crashes the server repeatedly is quarantined
  /// instead of crash-looping forever).
  uint32_t attempt = 0;
  /// kTerminal: stable on-disk encoding of JobState (see
  /// JobStateToJournal / JobStateFromJournal in job_manager.cc).
  uint8_t terminal_state = 0;
  std::string error;
  uint64_t num_facts = 0;
};

class JobJournal {
 public:
  struct Options {
    /// Rotate (compact) once the active segment exceeds this many bytes
    /// (and twice the last snapshot; see ShouldRotate).
    uint64_t rotate_bytes = 4ull << 20;
    /// fdatasync every append (power-loss durability; default relies on
    /// the page cache, which survives SIGKILL but not a kernel crash).
    /// JobManager also syncs each job's facts file and --work_dir before
    /// journaling the job's terminal record under this setting.
    bool fsync = false;
  };

  /// What Open() reconstructed, for logging/metrics and for the owner's
  /// state rebuild.
  struct ReplayResult {
    std::vector<JournalRecord> records;
    /// Bytes dropped from the active segment's torn/corrupt tail (0 on a
    /// clean shutdown). The segment was physically truncated to drop them.
    uint64_t truncated_bytes = 0;
    /// Sequence number of the segment replayed (and now active).
    uint64_t segment_seq = 1;
  };

  JobJournal(const JobJournal&) = delete;
  JobJournal& operator=(const JobJournal&) = delete;

  /// Opens (or creates) the journal in `dir`, replaying the highest
  /// complete segment into `replay`. Stale `.tmp` segments and — once the
  /// newest segment replayed successfully — older segments are removed.
  /// A segment that is not a kgfd journal (bad magic/version) yields a
  /// descriptive IoError and touches nothing; the caller decides whether
  /// to quarantine (QuarantineSegments) or abort startup.
  static Result<std::unique_ptr<JobJournal>> Open(const std::string& dir,
                                                  const Options& options,
                                                  ReplayResult* replay);

  /// Appends one record to the active segment (write-through to the OS;
  /// fdatasync when Options::fsync). An IoError truncates the torn frame
  /// away and leaves the journal usable — the record is simply not
  /// durable.
  Status Append(const JournalRecord& record);

  /// True once the owner should compact via Rotate(): the active segment
  /// holds at least Options::rotate_bytes and at least twice the last
  /// snapshot Rotate() wrote. The second bound keeps compaction amortized
  /// once the live state alone outgrows rotate_bytes; without it every
  /// append after that point would rewrite the whole snapshot.
  bool ShouldRotate() const {
    return bytes() >= std::max(options_.rotate_bytes, 2 * snapshot_bytes_);
  }

  /// Compacts: writes `snapshot` to a fresh segment (tmp + atomic rename),
  /// switches appends to it, then unlinks the previous segment. On error
  /// the old segment stays active and intact.
  Status Rotate(const std::vector<JournalRecord>& snapshot);

  /// Bytes in the active segment (header + records).
  uint64_t bytes() const { return log_->bytes(); }
  /// Active segment path (for tests and operator tooling).
  const std::string& segment_path() const { return log_->path(); }

  /// Renames every `journal.*.log` in `dir` to `<name>.corrupt` so a
  /// damaged journal can be inspected later while the server boots with a
  /// fresh one. Returns the number of segments moved.
  static Result<size_t> QuarantineSegments(const std::string& dir);

  /// The framed payload of one record.
  static std::string EncodePayload(const JournalRecord& record);

 private:
  JobJournal(std::string dir, Options options);

  std::string SegmentPathFor(uint64_t seq) const;
  FramedLog::Options LogOptions() const;

  std::string dir_;
  Options options_;
  std::unique_ptr<FramedLog> log_;
  uint64_t seq_ = 1;
  /// Size of the segment the last Rotate() wrote (0 before the first).
  uint64_t snapshot_bytes_ = 0;
};

}  // namespace kgfd

#endif  // KGFD_SERVER_JOB_JOURNAL_H_
