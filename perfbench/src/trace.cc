#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

std::vector<double> Tracer::SelfTimes() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent != 0) {
      children[span.parent - 1].emplace_back(span.start, span.end);
    }
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    // Union of the children, clipped to the parent.
    double covered = 0;
    double reach = span.start;
    for (auto [start, end] : intervals) {
      start = std::max(start, reach);
      end = std::min(end, span.end);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    self[i] = (span.end - span.start) - covered;
  }
  return self;
}

std::map<std::string, std::pair<double, std::size_t>> Tracer::SelfTimeByName()
    const {
  const std::vector<double> self = SelfTimes();
  std::map<std::string, std::pair<double, std::size_t>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& entry = out[spans_[i].name];
    entry.first += self[i];
    ++entry.second;
  }
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path,
                             std::size_t max_spans) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  const std::size_t count = std::min(max_spans, spans_.size());
  for (std::size_t i = 0; i < count; ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %u, "
                 "\"parent\": %u, \"request\": %llu%s}}%s\n",
                 span.name, span.start * 1e6, (span.end - span.start) * 1e6,
                 span.id, span.parent,
                 static_cast<unsigned long long>(span.request),
                 span.derived ? ", \"derived\": true" : "",
                 i + 1 < count ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
