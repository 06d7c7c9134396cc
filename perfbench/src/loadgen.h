#ifndef WHYPROV_PERFBENCH_LOADGEN_H_
#define WHYPROV_PERFBENCH_LOADGEN_H_

// The wire-level load generator: launches whyprov_server as a child
// process, measures set-up, and drives it over loopback through a
// closed-loop capacity phase and two open-loop Poisson phases.

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

struct WireOptions {
  std::string server_binary;
  std::string workdir;  ///< fresh, inside the checkout; caller removes it
  double seconds = 10;  ///< capacity + nominal + busy
  std::size_t read_connections = 3;
  /// Poll STATS every 250 ms during the phases (the traced run's
  /// retained-snapshot maximum); the end-to-end run leaves it off.
  bool poll_stats = false;
};

struct PhaseWindow {
  double start = 0;
  double end = 0;
};

/// Everything a wire run measured, before the oracle ran.
struct WireRun {
  std::vector<Record> records;
  PhaseWindow windows[kNumPhases];
  std::vector<double> setup_seconds;
  double peak_rss_mb = 0;
  /// STATS polled during the run: the largest retained-snapshot count,
  /// and plan builds (plans_simplified) over the timed phases.
  std::uint64_t retained_snapshots_max = 0;
  std::uint64_t plan_builds = 0;
  std::string error;  ///< non-empty when the run could not complete
};

WireRun RunWire(const Stream& stream, const WireOptions& options);

/// The wire frame (type byte and body) of one request of the stream, as
/// the load generator sends it.
struct RequestFrame {
  std::uint8_t type = 0;
  std::string body;
};
RequestFrame EncodeRequest(const Stream& stream, const RequestSpec& spec,
                           std::uint64_t request_id);

/// Writes the seeded data_dir for tc-churn: the stream's history applied
/// through an in-process Service with the WAL on (checkpoint every 32,
/// fsync off: the engine defaults), so the server recovers a checkpoint
/// plus a WAL tail. Returns an error message or "".
std::string WriteHistory(const Stream& stream, const std::string& dir);

}  // namespace perfbench

#endif  // WHYPROV_PERFBENCH_LOADGEN_H_
