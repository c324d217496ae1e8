#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace kgfd {
namespace e2e {
namespace {

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::atomic<uint64_t> g_tracer_generation{1};
std::atomic<uint64_t> g_next_span_id{1};

/// The calling thread's buffer of the tracer generation it last recorded
/// into; a new Tracer (even at a reused address) never sees a stale one.
struct ThreadSlot {
  uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local ThreadSlot t_slot;

}  // namespace

Tracer::Tracer() : generation_(g_tracer_generation.fetch_add(1)) {}

uint64_t Tracer::NextId() {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

int64_t Tracer::Now() {
  static const int64_t epoch = SteadyNs();
  return SteadyNs() - epoch;
}

Tracer::Buffer* Tracer::ThreadBuffer() {
  if (t_slot.generation != generation_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->thread = static_cast<uint32_t>(buffers_.size() - 1);
    t_slot.generation = generation_;
    t_slot.buffer = buffers_.back().get();
  }
  return static_cast<Buffer*>(t_slot.buffer);
}

void Tracer::Record(const Span& span) {
  Buffer* buffer = ThreadBuffer();
  buffer->spans.push_back(span);
  buffer->spans.back().thread = buffer->thread;
}

std::vector<Span> Tracer::Collect() const {
  std::vector<Span> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buffer : buffers_) {
      all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    }
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, uint64_t parent,
                       int64_t subject)
    : tracer_(tracer), open_(tracer != nullptr) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.id = tracer_->NextId();
  span_.parent = parent;
  span_.subject = subject;
  span_.start_ns = tracer_->Now();
}

void ScopedSpan::End() {
  if (!open_) return;
  open_ = false;
  span_.end_ns = tracer_->Now();
  tracer_->Record(span_);
}

std::vector<double> SelfSeconds(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  // Children intervals per parent, clipped to the parent and merged so
  // overlapping children are not subtracted twice.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const Span& p = spans[it->second];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[it->second].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& c = children[i];
    std::sort(c.begin(), c.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = -1;
    for (const auto& [lo, hi] : c) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns -
                                  covered) *
              1e-9;
  }
  return self;
}

std::map<std::string, NameTotals> TotalsByName(const std::vector<Span>& spans,
                                               const std::vector<bool>& keep) {
  std::map<std::string, NameTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (!keep[i]) continue;
    NameTotals& t = totals[spans[i].name];
    t.seconds += spans[i].seconds();
    t.count += spans[i].count;
    ++t.spans;
  }
  return totals;
}

double ChildCoverage(const std::vector<Span>& spans,
                     const std::vector<double>& self,
                     const std::string& parent_name) {
  double total = 0.0;
  double uncovered = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (parent_name != spans[i].name) continue;
    total += spans[i].seconds();
    uncovered += self[i];
  }
  return total > 0.0 ? 1.0 - uncovered / total : 0.0;
}

std::vector<uint64_t> RootIds(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, uint64_t> parent_of;
  for (const Span& s : spans) parent_of[s.id] = s.parent;
  std::vector<uint64_t> roots(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    uint64_t id = spans[i].id;
    for (auto it = parent_of.find(id); it != parent_of.end() && it->second != 0;
         it = parent_of.find(id)) {
      id = it->second;
    }
    roots[i] = id;
  }
  return roots;
}

Status WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot open span file " + path);
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"subject\": %lld, \"count\": %llu, \"thread\": %u, "
                 "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.subject),
                 static_cast<unsigned long long>(s.count), s.thread,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  if (std::fclose(f) != 0) {
    return Status::IoError("cannot write span file " + path);
  }
  return Status::OK();
}

}  // namespace e2e
}  // namespace kgfd
