#ifndef WHYPROV_PERFBENCH_TRACE_H_
#define WHYPROV_PERFBENCH_TRACE_H_

// In-memory spans for the traced run: name, start, end, parent span and
// request id, kept in a vector and written out at the end as Chrome
// trace-event JSON (load it in chrome://tracing or ui.perfetto.dev).
// A disabled tracer records nothing and reads no clock, so the same
// replay code runs traced and untraced and the difference is the
// tracing overhead.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::uint64_t request = 0;
  std::uint32_t id = 0;      ///< 1-based; 0 = none
  std::uint32_t parent = 0;  ///< 0 = a root (request) span
  double start = 0;          ///< seconds since the tracer's origin
  double end = 0;
  /// Placed from a phase timing the program reported (PlanTimings),
  /// not measured around a call; laid out back to back inside its parent.
  bool derived = false;
};

class Tracer {
 public:
  explicit Tracer(bool enabled)
      : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  /// Opens a span under the innermost open one.
  std::uint32_t Begin(const char* name, std::uint64_t request) {
    if (!enabled_) return 0;
    Span span;
    span.name = name;
    span.request = request;
    span.id = static_cast<std::uint32_t>(spans_.size() + 1);
    span.parent = open_.empty() ? 0 : open_.back();
    span.start = Now();
    spans_.push_back(span);
    open_.push_back(span.id);
    return span.id;
  }

  /// Closes span `id` (the innermost open one); returns its duration.
  double End(std::uint32_t id) {
    if (!enabled_ || id == 0) return 0;
    Span& span = spans_[id - 1];
    span.end = Now();
    open_.pop_back();
    return span.end - span.start;
  }

  /// Renames span `id` (e.g. once a call's outcome is known).
  void Rename(std::uint32_t id, const char* name) {
    if (enabled_ && id != 0) spans_[id - 1].name = name;
  }

  /// Start time of span `id`.
  double StartOf(std::uint32_t id) const {
    return enabled_ && id != 0 ? spans_[id - 1].start : 0;
  }

  /// Adds a derived child of `parent` covering [start, start + seconds).
  void AddDerived(const char* name, std::uint32_t parent, double start,
                  double seconds) {
    if (!enabled_ || parent == 0) return;
    Span span;
    span.name = name;
    span.request = spans_[parent - 1].request;
    span.id = static_cast<std::uint32_t>(spans_.size() + 1);
    span.parent = parent;
    span.start = start;
    span.end = start + seconds;
    span.derived = true;
    spans_.push_back(span);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the part of it that
  /// its direct children cover.
  std::vector<double> SelfTimes() const;

  /// Per span name: total self time and call count.
  std::map<std::string, std::pair<double, std::size_t>> SelfTimeByName() const;

  /// Writes Chrome trace-event JSON, at most `max_spans` spans (the
  /// statistics above always cover all of them).
  bool WriteChromeJson(const std::string& path, std::size_t max_spans) const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t request)
      : tracer_(tracer), id_(tracer.Begin(name, request)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

}  // namespace perfbench

#endif  // WHYPROV_PERFBENCH_TRACE_H_
