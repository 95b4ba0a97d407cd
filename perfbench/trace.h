// In-memory span recorder for the end-to-end benchmark.
//
// The benchmark wraps each public library call it makes in a Span (name, start,
// end, parent, request id). Spans stay in memory while the benchmark runs and are
// written once, at exit, as Chrome trace-event JSON (chrome://tracing, Perfetto).
// The per-layer metrics are computed from the same records: a span's self time is
// its duration minus the part of its interval that its children cover.
//
// Tracing is off unless the benchmark runs with --trace 1; a disabled Tracer makes
// every Span a no-op, so the untraced runs that produce the end-to-end metrics pay
// one branch per call site.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

// Microseconds on CLOCK_MONOTONIC (steady_clock on Linux), which every process on
// the host shares, so spans recorded by forked client processes line up with the
// server's.
inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int64_t id = -1;
  int64_t parent = -1;  // -1: a root span
  int64_t req = -1;     // request id shared by one request's spans; -1: none
  int pid = 0;
  int tid = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  int64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  // Records a finished span. `id` < 0 allocates one. Returns the span's id, or -1
  // when tracing is off.
  int64_t Add(std::string name, double start_us, double end_us, int64_t parent,
              int64_t req = -1, int64_t id = -1, int pid = 0) {
    if (!enabled_) return -1;
    SpanRecord r;
    r.name = std::move(name);
    r.start_us = start_us;
    r.end_us = end_us;
    r.id = id >= 0 ? id : NewId();
    r.parent = parent;
    r.req = req;
    r.pid = pid != 0 ? pid : static_cast<int>(::getpid());
    r.tid = ThreadIndex();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(r));
    return spans_.back().id;
  }

  // The innermost open Span on this thread (-1 outside any).
  static int64_t& Current() {
    thread_local int64_t current = -1;
    return current;
  }

  // Sum of self times, in ms, over the spans called `name`, and their count.
  std::pair<double, int64_t> SelfMs(const std::string& name) const {
    Index();
    double total = 0;
    int64_t n = 0;
    for (const SpanRecord& s : spans_) {
      if (s.name != name) continue;
      total += (s.end_us - s.start_us) - Covered(s);
      ++n;
    }
    return {total / 1000.0, n};
  }

  // Sum of durations, in ms, over the spans called `name`, and their count.
  std::pair<double, int64_t> TotalMs(const std::string& name) const {
    double total = 0;
    int64_t n = 0;
    for (const SpanRecord& s : spans_) {
      if (s.name != name) continue;
      total += s.end_us - s.start_us;
      ++n;
    }
    return {total / 1000.0, n};
  }

  // Share, in percent, of the time of the spans called `name` that none of their
  // children covers.
  double UnaccountedPct(const std::string& name) const {
    Index();
    double total = 0, uncovered = 0;
    for (const SpanRecord& s : spans_) {
      if (s.name != name) continue;
      total += s.end_us - s.start_us;
      uncovered += (s.end_us - s.start_us) - Covered(s);
    }
    return total > 0 ? 100.0 * uncovered / total : 0;
  }

  // Writes every span as a Chrome trace-event "complete" event. Returns false when
  // the file cannot be written.
  bool WriteChromeJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    double t0 = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      t0 = i == 0 ? spans_[i].start_us : std::min(t0, spans_[i].start_us);
    }
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                   "\"pid\":%d,\"tid\":%d,\"args\":{\"id\":%lld,\"parent\":%lld,"
                   "\"req\":%lld}}",
                   i == 0 ? "" : ",", s.name.c_str(), s.start_us - t0,
                   s.end_us - s.start_us, s.pid, s.tid, static_cast<long long>(s.id),
                   static_cast<long long>(s.parent), static_cast<long long>(s.req));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static int ThreadIndex() {
    static std::atomic<int> next{0};
    thread_local int index = next.fetch_add(1, std::memory_order_relaxed);
    return index;
  }

  // Builds the parent -> children map. Analysis runs after every thread that
  // records spans has stopped, so it reads spans_ without the lock.
  void Index() const {
    children_.clear();
    for (const SpanRecord& s : spans_) {
      if (s.parent >= 0) children_[s.parent].push_back(&s);
    }
  }

  // Length of the union of s's children's intervals, clipped to s.
  double Covered(const SpanRecord& s) const {
    auto it = children_.find(s.id);
    if (it == children_.end()) return 0;
    std::vector<std::pair<double, double>> iv;
    for (const SpanRecord* c : it->second) {
      double lo = std::max(c->start_us, s.start_us);
      double hi = std::min(c->end_us, s.end_us);
      if (hi > lo) iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0, cur_lo = 0, cur_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    return covered;
  }

  const bool enabled_;
  std::atomic<int64_t> next_id_{0};
  std::mutex mu_;  // guards spans_ while spans are being recorded
  std::vector<SpanRecord> spans_;
  mutable std::unordered_map<int64_t, std::vector<const SpanRecord*>> children_;
};

// Records the enclosing scope as a span, nested under the thread's innermost open
// span unless `parent` is given.
class Span {
 public:
  Span(Tracer* tracer, const char* name, int64_t req = -1, int64_t parent = -2)
      : tracer_(tracer->enabled() ? tracer : nullptr) {
    if (tracer_ == nullptr) return;
    name_ = name;
    req_ = req;
    id_ = tracer_->NewId();
    parent_ = parent == -2 ? Tracer::Current() : parent;
    saved_ = Tracer::Current();
    Tracer::Current() = id_;
    start_us_ = NowUs();
  }
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int64_t id() const { return id_; }

  void End() {
    if (tracer_ == nullptr) return;
    tracer_->Add(name_, start_us_, NowUs(), parent_, req_, id_);
    Tracer::Current() = saved_;
    tracer_ = nullptr;
  }

 private:
  Tracer* tracer_;
  const char* name_ = nullptr;
  int64_t req_ = -1;
  int64_t id_ = -1;
  int64_t parent_ = -1;
  int64_t saved_ = -1;
  double start_us_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
