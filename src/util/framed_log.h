#ifndef KGFD_UTIL_FRAMED_LOG_H_
#define KGFD_UTIL_FRAMED_LOG_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace kgfd {

/// The one codec behind every durable kgfd file except model checkpoints:
/// job-journal segments, resume manifests and a server job's facts file
/// (DESIGN.md §10). A framed file is a header, `[8-byte magic][u32
/// version]`, followed by records framed `[u32 length][u32
/// crc32(payload)][payload]`, all in host (little-endian) byte order.
/// Readers check a frame's length and CRC before handing its payload to a
/// parser, so a torn tail or a bit flip ends the replay at the last whole
/// record instead of yielding bytes nobody wrote.

/// The fixed-width values a payload holds; size_t is uint64_t here.
template <typename T>
inline constexpr bool kPayloadScalar =
    std::is_same_v<T, uint8_t> || std::is_same_v<T, uint32_t> ||
    std::is_same_v<T, uint64_t> || std::is_same_v<T, double>;

/// Appends `v`'s bytes (doubles bit-exactly); PayloadReader::Get reads
/// them back.
template <typename T>
void Put(std::string* out, T v) {
  static_assert(kPayloadScalar<T>);
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
/// u64 length, then the bytes.
void PutString(std::string* out, std::string_view s);

/// Bounds-checked reads off one payload: each Get returns false on
/// underrun, so a CRC-valid but malformed (version-skewed) payload reads as
/// unparseable, never out of bounds.
struct PayloadReader {
  std::string_view data;
  size_t at = 0;

  /// Reads a value Put as the same type.
  template <typename T>
  bool Get(T* v) {
    static_assert(kPayloadScalar<T>);
    if (remaining() < sizeof(T)) return false;
    std::memcpy(v, data.data() + at, sizeof(T));
    at += sizeof(T);
    return true;
  }
  bool GetString(std::string* s);
  size_t remaining() const { return data.size() - at; }
};

/// One kind of framed file: the header's magic and version, and the name
/// its errors use ("job journal").
struct FramedFormat {
  std::string_view magic;  // exactly 8 bytes
  uint32_t version = 0;
  std::string_view name;
};

/// The header every file of `format` starts with.
std::string FramedHeader(const FramedFormat& format);

/// Appends one frame carrying `payload` to `out`.
void AppendFrame(std::string* out, std::string_view payload);

/// Receives each whole record's payload in file order; returning false
/// refuses the record, which ends the replay there (a record the parser
/// cannot apply makes everything after it untrustworthy too).
using FramedRecordFn = std::function<bool(std::string_view payload)>;

/// Reads `path` and replays its records into `on_record` without changing
/// the file. Returns the number of bytes past the last whole, accepted
/// record (0 for an intact file). IoError when the file cannot be read, is
/// shorter than its header, or has another magic or version.
Result<uint64_t> ReadFramedFile(const std::string& path,
                                const FramedFormat& format,
                                const FramedRecordFn& on_record);

/// A file holding exactly one record (the server's facts file): written
/// with WriteFileAtomic. Reading it is an IoError unless the file holds
/// that one whole, CRC-valid record and nothing else.
Status WriteFramedRecord(const std::string& path, const FramedFormat& format,
                         std::string_view payload, bool sync);
Result<std::string> ReadFramedRecord(const std::string& path,
                                     const FramedFormat& format);

/// Reads the whole of `path`.
Result<std::string> ReadWholeFile(const std::string& path);

/// Replaces `path` with `data` atomically: writes `path`.tmp, then renames
/// it over `path`, so a crash leaves the old file or the new one, never a
/// mix. With `sync`, the tmp file is fdatasynced before the rename and the
/// directory fsynced after it, so the new file also survives power loss.
Status WriteFileAtomic(const std::string& path, std::string_view data,
                       bool sync);

/// A framed file open for appending. Not thread-safe: owners serialize.
class FramedLog {
 public:
  struct Options {
    /// fdatasync after every append.
    bool sync = false;
    /// Fail-point site evaluated mid-append, after half the frame is
    /// written: an injected fault leaves the torn frame a failed write(2)
    /// would, which Append then truncates away.
    const char* fail_point = nullptr;
  };

  ~FramedLog();
  FramedLog(const FramedLog&) = delete;
  FramedLog& operator=(const FramedLog&) = delete;

  /// Writes `path` (WriteFileAtomic, `sync` as there) holding the header
  /// and one record per payload, and opens it for appending.
  static Result<std::unique_ptr<FramedLog>> Create(
      const std::string& path, const FramedFormat& format,
      const std::vector<std::string>& payloads, bool sync, Options options);

  /// Replays `path` into `on_record`, truncates the file back to its last
  /// whole record and opens it for appending there. A file shorter than
  /// its header was torn before anything was recorded in it; it is reset
  /// to a bare header. `truncated_bytes` receives the bytes dropped.
  static Result<std::unique_ptr<FramedLog>> Open(
      const std::string& path, const FramedFormat& format,
      const FramedRecordFn& on_record, Options options,
      uint64_t* truncated_bytes);

  /// Appends one record. On failure the file is truncated back to its last
  /// whole record, so a retried append never lands behind a torn frame; if
  /// even that fails, the log closes and refuses further appends.
  Status Append(std::string_view payload);

  /// Bytes in the file (header and whole records).
  uint64_t bytes() const { return bytes_; }
  const std::string& path() const { return path_; }

 private:
  FramedLog(std::string path, int fd, uint64_t bytes, Options options);

  static Result<std::unique_ptr<FramedLog>> OpenForAppend(
      const std::string& path, uint64_t bytes, Options options);

  std::string path_;
  int fd_ = -1;
  uint64_t bytes_ = 0;
  Options options_;
};

}  // namespace kgfd

#endif  // KGFD_UTIL_FRAMED_LOG_H_
