// perfbench_loadgen: the serving benchmark's load generator, oracle and
// traced per-layer run. perfbench/run.py builds it and calls
//
//   perfbench_loadgen --workload NAME --seed N --seconds S --trace 0|1
//                    --server PATH --workdir DIR [--trace-out FILE]
//   perfbench_loadgen --selftest
//
// The human-readable report goes to standard error; the last line of
// standard output is the JSON result. Exit status 1 on any oracle
// mismatch or failed run.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "layers.h"
#include "loadgen.h"

namespace perfbench {
int RunSelfTests();
}  // namespace perfbench

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string server;
  std::string workdir;
  std::string trace_out;
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value);
    } else if (flag == "--server") {
      args.server = value;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return args.selftest || (!args.workload.empty() && !args.server.empty() &&
                           !args.workdir.empty() && args.seconds > 0);
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

std::string Fmt(double value) {
  if (!std::isfinite(value)) return "inf";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", value);
  return buffer;
}

void ReportLatency(const char* name, const std::vector<double>& samples) {
  std::fprintf(stderr,
               "  %-22s p50 %9s ms  p90 %9s ms  p99 %9s ms  (n=%zu%s)\n",
               name, Fmt(Percentile(samples, 0.5)).c_str(),
               Fmt(Percentile(samples, 0.9)).c_str(),
               Fmt(Percentile(samples, 0.99)).c_str(), samples.size(),
               samples.size() < SamplesFor(0.99) ? ", p99 under-sampled" : "");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_loadgen --workload NAME --seed N --seconds "
                 "S --trace 0|1 --server PATH --workdir DIR [--trace-out F]\n"
                 "       perfbench_loadgen --selftest\n");
    return 2;
  }
  if (args.selftest) return RunSelfTests();
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "error: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());

  std::unique_ptr<Stream> stream = MakeStream(*workload, args.seed, cores);
  if (stream == nullptr) {
    std::fprintf(stderr, "error: cannot build the %s stream\n",
                 workload->name.c_str());
    return 1;
  }

  WireOptions options;
  options.server_binary = args.server;
  options.workdir = args.workdir;
  // The traced run spends part of its time on the in-process replays.
  options.seconds = args.trace != 0 ? args.seconds * 0.4 : args.seconds;
  options.read_connections = std::max<std::size_t>(1, std::min<std::size_t>(
                                                          4, cores) - 1);
  options.poll_stats = args.trace != 0;
  WireRun run = RunWire(*stream, options);
  if (!run.error.empty()) {
    std::fprintf(stderr, "error: %s: %s\n", workload->name.c_str(),
                 run.error.c_str());
    return 1;
  }

  LayerReport layers;
  if (args.trace != 0) {
    layers = RunLayers(*stream, args.seconds * 0.6, args.workdir,
                       args.trace_out);
  }

  const std::uint64_t base_version = stream->reference->model_version();
  std::vector<bool> verified;
  const std::vector<std::string> mismatches =
      CheckRecords(*stream, run.records, cores, &verified);

  // --- accounting over the timed phases --------------------------------
  std::uint64_t attempted = 0, failed = 0, capacity_reads = 0;
  for (std::size_t i = 0; i < run.records.size(); ++i) {
    const Record& record = run.records[i];
    if (record.phase == kWarmup) continue;
    ++attempted;
    if (!record.answered || IsServingFailure(record.status)) ++failed;
    if (record.phase == kCapacity && record.spec.kind != Kind::kDelta &&
        verified[i] && record.final <= run.windows[kCapacity].end) {
      ++capacity_reads;
    }
  }
  const PhaseWindow& cap = run.windows[kCapacity];
  const double capacity_qps =
      static_cast<double>(capacity_reads) / (cap.end - cap.start);
  const auto& records = run.records;
  const auto nominal =
      Latencies(records, verified, kNominal, Measure::kFinal, false);
  const auto busy = Latencies(records, verified, kBusy, Measure::kFinal, false);
  const auto first =
      Latencies(records, verified, kNominal, Measure::kFirstMember, false);
  auto writes = Latencies(records, verified, kNominal, Measure::kFinal, true);
  const auto busy_writes =
      Latencies(records, verified, kBusy, Measure::kFinal, true);
  writes.insert(writes.end(), busy_writes.begin(), busy_writes.end());

  // --- the report --------------------------------------------------------
  std::fprintf(stderr, "workload %s seed %llu: %zu targets, base version "
               "%llu\n", workload->name.c_str(),
               static_cast<unsigned long long>(args.seed),
               stream->targets.size(),
               static_cast<unsigned long long>(base_version));
  std::fprintf(stderr, "  setup_s samples:");
  for (double s : run.setup_seconds) std::fprintf(stderr, " %.4f", s);
  std::fprintf(stderr, "\n  capacity_qps %.1f (%llu verified reads)\n",
               capacity_qps, static_cast<unsigned long long>(capacity_reads));
  for (Phase phase : {kNominal, kBusy}) {
    std::vector<double> lateness;
    for (const Record& record : run.records) {
      if (record.phase == phase && record.open_loop) {
        lateness.push_back((record.sent - record.due) * 1000);
      }
    }
    const double late_p99 = Percentile(lateness, 0.99);
    std::fprintf(stderr, "  %s phase: generator lateness p99 %.3f ms%s\n",
                 PhaseName(phase), late_p99,
                 late_p99 > kMaxLatenessMs ? "  INVALID (generator fell "
                                             "behind its schedule)" : "");
  }
  ReportLatency("read (nominal)", nominal);
  ReportLatency("read (busy)", busy);
  ReportLatency("first_member (nominal)", first);
  if (workload->churn) {
    ReportLatency("write (both phases)", writes);
  } else {
    std::fprintf(stderr, "  write                  n/a (read-only)\n");
  }
  std::fprintf(stderr, "  attempted %llu failed %llu (failed_ratio %.6f)\n",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed),
               attempted > 0 ? static_cast<double>(failed) /
                                   static_cast<double>(attempted)
                             : 0.0);
  for (std::size_t i = 0; i < mismatches.size() && i < 5; ++i) {
    std::fprintf(stderr, "MISMATCH %s\n", mismatches[i].c_str());
  }
  if (mismatches.size() > 5) {
    std::fprintf(stderr, "... %zu mismatches in total\n", mismatches.size());
  }

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = {
        {"setup_s", Median(run.setup_seconds), "s"},
        {"peak_rss_mb", run.peak_rss_mb, "MB"},
        {"capacity_qps", capacity_qps, "req/s"},
        {"read_p50_ms", Percentile(nominal, 0.5), "ms"},
        {"first_member_p50_ms", Percentile(first, 0.5), "ms"},
        {"ok_ratio",
         attempted > 0 ? 1.0 - static_cast<double>(failed) /
                                   static_cast<double>(attempted)
                       : 0.0,
         "ratio"},
    };
  } else {
    metrics = FinishLayers(layers, run, Percentile(nominal, 0.5));
    for (const Metric& metric : metrics) {
      std::fprintf(stderr, "  %-34s %14.6f %s\n", metric.name.c_str(),
                   metric.value, metric.unit.c_str());
    }
  }
  bool correct = mismatches.empty();
  for (const Metric& metric : metrics) {
    if (!std::isfinite(metric.value)) correct = false;
  }
  std::printf("%s\n", ResultJson(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
