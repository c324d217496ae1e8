#ifndef KGFD_BENCH_E2E_TRACE_H_
#define KGFD_BENCH_E2E_TRACE_H_

/// Benchmark-side spans. Each span wraps one call into a layer of kgfd
/// from the benchmark's own code: name, start, end, the span that caused
/// it, the relation or job it belongs to, and a work count recorded at the
/// same boundary. Spans go to per-thread buffers, are merged when the run
/// ends and written out as one JSON object per line.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace kgfd {
namespace e2e {

struct Span {
  /// A string literal naming the layer call, e.g. "rank_count".
  const char* name = "";
  uint64_t id = 0;
  /// 0 for a root span.
  uint64_t parent = 0;
  /// Relation id, job index or sweep index; -1 when none applies.
  int64_t subject = -1;
  /// Work done inside the span (pairs tried, entries scored, candidates
  /// ranked, facts kept, ...); 0 when the span counts nothing.
  uint64_t count = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t thread = 0;

  double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Span ids are unique across every tracer of the process, so the spans
  /// of several tracers can share one file.
  static uint64_t NextId();
  /// Nanoseconds on one process-wide steady clock, shared by all tracers.
  static int64_t Now();
  /// Appends to the calling thread's buffer.
  void Record(const Span& span);

  /// Every span recorded so far, ordered by start time. Call only while no
  /// thread is recording.
  std::vector<Span> Collect() const;

 private:
  struct Buffer {
    uint32_t thread = 0;
    std::vector<Span> spans;
  };
  Buffer* ThreadBuffer();

  const uint64_t generation_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
};

/// Times one layer call. A null tracer makes every member a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent,
             int64_t subject = -1);
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }
  void set_count(uint64_t count) { span_.count = count; }
  /// Records the span; later calls do nothing.
  void End();

 private:
  Tracer* tracer_;
  Span span_;
  bool open_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Indexed like `spans`.
std::vector<double> SelfSeconds(const std::vector<Span>& spans);

/// Per span name: summed duration, summed count and the number of spans,
/// over the spans for which `keep` is true.
struct NameTotals {
  double seconds = 0.0;
  uint64_t count = 0;
  size_t spans = 0;
};
std::map<std::string, NameTotals> TotalsByName(const std::vector<Span>& spans,
                                               const std::vector<bool>& keep);

/// Share of the summed duration of spans named `parent_name` that their
/// children cover.
double ChildCoverage(const std::vector<Span>& spans,
                     const std::vector<double>& self,
                     const std::string& parent_name);

/// For each span, the id of its outermost ancestor (itself for a root).
std::vector<uint64_t> RootIds(const std::vector<Span>& spans);

Status WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace e2e
}  // namespace kgfd

#endif  // KGFD_BENCH_E2E_TRACE_H_
