#include "util/framed_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/crc32.h"
#include "util/failpoint.h"

namespace kgfd {
namespace {

constexpr size_t kHeaderBytes = 8 + sizeof(uint32_t);

std::string ErrnoText() { return std::strerror(errno); }

/// Checks `data`'s header, then walks its frames. Returns the offset just
/// past the last whole, CRC-valid record `on_record` accepted.
Result<uint64_t> ScanFrames(std::string_view data, const FramedFormat& format,
                            const std::string& path,
                            const FramedRecordFn& on_record) {
  const std::string name(format.name);
  if (data.size() < kHeaderBytes) {
    return Status::IoError("truncated " + name + " header: " + path);
  }
  if (data.substr(0, format.magic.size()) != format.magic) {
    return Status::IoError("not a kgfd " + name + " (bad magic): " + path);
  }
  PayloadReader in{data, format.magic.size()};
  uint32_t version = 0;
  in.Get(&version);
  if (version != format.version) {
    return Status::IoError("unsupported " + name + " version " +
                           std::to_string(version) + " (expected " +
                           std::to_string(format.version) + "): " + path);
  }
  // A length past the end of the file is a torn tail (or a corrupt length
  // field); either way nothing is allocated for it.
  uint64_t valid_end = in.at;
  uint32_t len = 0;
  uint32_t crc = 0;
  while (in.Get(&len) && in.Get(&crc) && len <= in.remaining()) {
    const std::string_view payload = data.substr(in.at, len);
    if (Crc32(payload.data(), payload.size()) != crc) break;
    if (!on_record(payload)) break;
    in.at += len;
    valid_end = in.at;
  }
  return valid_end;
}

/// write(2)s every byte of `data` to `fd` (open on `path`), retrying short
/// writes and EINTR.
Status WriteFully(int fd, std::string_view data, const std::string& path) {
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n =
        ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("write to " + path + " failed: " + ErrnoText());
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// fsyncs the directory holding `path`, making a rename into it durable.
Status SyncParentDirectory(const std::string& path) {
  const size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open directory " + dir + ": " +
                           ErrnoText());
  }
  const bool synced = ::fsync(fd) == 0;
  const std::string err = synced ? "" : ErrnoText();
  ::close(fd);
  if (!synced) return Status::IoError("fsync " + dir + " failed: " + err);
  return Status::OK();
}

}  // namespace

void PutString(std::string* out, std::string_view s) {
  Put(out, s.size());
  out->append(s);
}

bool PayloadReader::GetString(std::string* s) {
  uint64_t n = 0;
  if (!Get(&n) || n > remaining()) return false;
  s->assign(data.data() + at, n);
  at += n;
  return true;
}

std::string FramedHeader(const FramedFormat& format) {
  std::string header(format.magic);
  Put(&header, format.version);
  return header;
}

void AppendFrame(std::string* out, std::string_view payload) {
  Put(out, static_cast<uint32_t>(payload.size()));
  Put(out, Crc32(payload.data(), payload.size()));
  out->append(payload);
}

Result<uint64_t> ReadFramedFile(const std::string& path,
                                const FramedFormat& format,
                                const FramedRecordFn& on_record) {
  KGFD_ASSIGN_OR_RETURN(const std::string data, ReadWholeFile(path));
  KGFD_ASSIGN_OR_RETURN(const uint64_t valid_end,
                        ScanFrames(data, format, path, on_record));
  return data.size() - valid_end;
}

Status WriteFramedRecord(const std::string& path, const FramedFormat& format,
                         std::string_view payload, bool sync) {
  std::string contents = FramedHeader(format);
  AppendFrame(&contents, payload);
  return WriteFileAtomic(path, contents, sync);
}

Result<std::string> ReadFramedRecord(const std::string& path,
                                     const FramedFormat& format) {
  std::string record;
  size_t records = 0;
  KGFD_ASSIGN_OR_RETURN(
      const uint64_t torn_bytes,
      ReadFramedFile(path, format, [&](std::string_view payload) {
        record.assign(payload);
        return ++records == 1;
      }));
  if (records != 1 || torn_bytes != 0) {
    return Status::IoError(std::string(format.name) +
                           " is truncated or fails its frame CRC: " + path);
  }
  return record;
}

Result<std::string> ReadWholeFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open " + path + ": " + ErrnoText());
  }
  std::string data;
  char chunk[1 << 16];
  while (true) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = ErrnoText();
      ::close(fd);
      return Status::IoError("read failed on " + path + ": " + err);
    }
    if (n == 0) break;
    data.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return data;
}

Status WriteFileAtomic(const std::string& path, std::string_view data,
                       bool sync) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot create " + tmp + ": " + ErrnoText());
  }
  Status status = WriteFully(fd, data, tmp);
  if (status.ok() && sync && ::fdatasync(fd) != 0) {
    status = Status::IoError("fdatasync " + tmp + " failed: " + ErrnoText());
  }
  ::close(fd);
  if (status.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    status = Status::IoError("rename " + tmp + " -> " + path +
                             " failed: " + ErrnoText());
  }
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  return sync ? SyncParentDirectory(path) : Status::OK();
}

FramedLog::FramedLog(std::string path, int fd, uint64_t bytes,
                     Options options)
    : path_(std::move(path)), fd_(fd), bytes_(bytes), options_(options) {}

FramedLog::~FramedLog() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<FramedLog>> FramedLog::OpenForAppend(
    const std::string& path, uint64_t bytes, Options options) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open " + path +
                           " for append: " + ErrnoText());
  }
  return std::unique_ptr<FramedLog>(
      new FramedLog(path, fd, bytes, options));
}

Result<std::unique_ptr<FramedLog>> FramedLog::Create(
    const std::string& path, const FramedFormat& format,
    const std::vector<std::string>& payloads, bool sync, Options options) {
  std::string contents = FramedHeader(format);
  for (const std::string& payload : payloads) AppendFrame(&contents, payload);
  KGFD_RETURN_NOT_OK(WriteFileAtomic(path, contents, sync));
  return OpenForAppend(path, contents.size(), options);
}

Result<std::unique_ptr<FramedLog>> FramedLog::Open(
    const std::string& path, const FramedFormat& format,
    const FramedRecordFn& on_record, Options options,
    uint64_t* truncated_bytes) {
  KGFD_ASSIGN_OR_RETURN(const std::string data, ReadWholeFile(path));
  uint64_t valid_end = kHeaderBytes;
  if (data.size() < kHeaderBytes) {
    KGFD_RETURN_NOT_OK(WriteFileAtomic(path, FramedHeader(format), false));
    *truncated_bytes = data.size();
  } else {
    KGFD_ASSIGN_OR_RETURN(valid_end,
                          ScanFrames(data, format, path, on_record));
    *truncated_bytes = data.size() - valid_end;
    if (valid_end < data.size() &&
        ::truncate(path.c_str(), static_cast<off_t>(valid_end)) != 0) {
      return Status::IoError("cannot truncate the torn tail of " + path +
                             ": " + ErrnoText());
    }
  }
  return OpenForAppend(path, valid_end, options);
}

Status FramedLog::Append(std::string_view payload) {
  if (fd_ < 0) {
    return Status::FailedPrecondition(path_ + " is not open for appending");
  }
  std::string frame;
  AppendFrame(&frame, payload);
  const std::string_view bytes = frame;
  const bool inject =
      options_.fail_point != nullptr && FailPoints::Instance().AnyArmed();
  const size_t split = inject ? bytes.size() / 2 : bytes.size();
  Status status = WriteFully(fd_, bytes.substr(0, split), path_);
  if (status.ok() && inject) {
    status = FailPoints::Instance().Evaluate(options_.fail_point);
  }
  if (status.ok()) status = WriteFully(fd_, bytes.substr(split), path_);
  if (status.ok() && options_.sync && ::fdatasync(fd_) != 0) {
    status = Status::IoError("fdatasync " + path_ + " failed: " + ErrnoText());
  }
  if (status.ok()) {
    bytes_ += bytes.size();
    return status;
  }
  if (::ftruncate(fd_, static_cast<off_t>(bytes_)) != 0) {
    const std::string err = ErrnoText();
    ::close(fd_);
    fd_ = -1;
    return Status::IoError(status.message() + "; cannot truncate the torn "
                           "frame off " + path_ + " (" + err +
                           "), so it takes no further appends");
  }
  return status;
}

}  // namespace kgfd
