// Latency percentiles and the JSON result line.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"

namespace perfbench {

std::vector<double> Latencies(const std::vector<Record>& records,
                              const std::vector<bool>& verified, Phase phase,
                              Measure measure, bool deltas) {
  std::vector<double> out;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& record = records[i];
    if (record.phase != phase || !record.open_loop) continue;
    if ((record.spec.kind == Kind::kDelta) != deltas) continue;
    const bool first = measure == Measure::kFirstMember;
    if (first && record.spec.kind != Kind::kEnumerate) continue;
    const bool ok = record.answered && !IsServingFailure(record.status) &&
                    i < verified.size() && verified[i];
    if (first && ok && record.status != 0) continue;
    const double end = first ? record.first_member : record.final;
    out.push_back(ok ? (end - record.due) * 1000 : kInfinite);
  }
  return out;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return kInfinite;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least q of the samples at
  // or below it. Infinite (failed) samples sort last, so they raise the
  // percentile exactly as a request that never completed should.
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

std::size_t SamplesFor(double q) {
  return static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9));
}

std::string ResultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    if (std::isfinite(metrics[i].value)) {
      std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    } else {
      // JSON has no infinity; a metric that could not be measured is
      // reported as null and the run as incorrect by the caller.
      std::snprintf(value, sizeof(value), "null");
    }
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
