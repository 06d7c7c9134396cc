#ifndef WHYPROV_PERFBENCH_LAYERS_H_
#define WHYPROV_PERFBENCH_LAYERS_H_

// The traced per-layer run: (a) a serial replay of the workload's
// request stream through each layer's public calls, with a span around
// every call, and (b) an in-process Service replay giving queue and
// execution times. See perfbench/README.md, "Per-layer metrics".

#include <string>
#include <vector>

#include "bench.h"
#include "loadgen.h"

namespace perfbench {

struct LayerReport {
  std::vector<Metric> metrics;
  double engine_p50_ms = 0;  ///< (a)'s median engine time per read
};

/// Runs (a) and (b) for about `seconds` against fresh in-process stacks
/// built from the stream's scenario, using `workdir` for scratch logs
/// (the stream's reference engine is not touched). Writes the Chrome
/// trace to `trace_out` when non-empty.
LayerReport RunLayers(const Stream& stream, double seconds,
                      const std::string& workdir,
                      const std::string& trace_out);

/// Adds the metrics that need the wire run and returns the full list.
std::vector<Metric> FinishLayers(const LayerReport& report,
                                 const WireRun& run,
                                 double wire_read_p50_ms);

}  // namespace perfbench

#endif  // WHYPROV_PERFBENCH_LAYERS_H_
