#ifndef WHYPROV_PERFBENCH_BENCH_H_
#define WHYPROV_PERFBENCH_BENCH_H_

// Shared declarations of the serving benchmark: workload definitions,
// the seeded request stream, the per-request records the load
// generator fills, the answer oracle, latency statistics, and the
// traced per-layer run. See perfbench/README.md for what each workload
// and metric means.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "scenarios/scenarios.h"
#include "util/rng.h"

namespace perfbench {

// --- workloads ---------------------------------------------------------------

/// One named workload: the scenario database, how targets are drawn, and
/// the frozen open-loop rates. Rates are constants (not recomputed per
/// run) so that a change that moves capacity shows up as latency at the
/// same offered load.
struct Workload {
  std::string name;
  /// Target pool: `pool_size` answers sampled with the engine's fixed
  /// sampling seed (in sample order, which is the Zipf rank order);
  /// 0 = every answer of the query.
  std::size_t pool_size = 0;
  /// Zipf(1) over the pool when true, uniform otherwise.
  bool zipf = false;
  /// Open-loop deltas beside the reads, with a recovered WAL history.
  bool churn = false;
  double nominal_qps = 0;  ///< about 1/4 of capacity
  double busy_qps = 0;     ///< about 2/5 of capacity
  /// Requests each read connection keeps outstanding in the closed loop.
  std::size_t closed_window = 0;
  whyprov::scenarios::GeneratedScenario (*make)() = nullptr;
};

/// The workload named `name`, or nullptr.
const Workload* FindWorkload(const std::string& name);

// Churn parameters (tc-churn only).
inline constexpr double kDeltaQps = 20;
inline constexpr std::size_t kEdgesPerDelta = 2;
inline constexpr std::size_t kHistoryDeltas = 80;
inline constexpr std::size_t kChurnPool = 64;  ///< edges the chain draws from

// Read mix and request shape (every workload).
inline constexpr std::size_t kMaxMembers = 8;
inline constexpr int kEnumeratePerTen = 7;
inline constexpr int kDecidePerTen = 2;  // the remaining one: Explain
inline constexpr double kDeadlineSeconds = 10;
/// An open-loop phase whose sends ran later than this at p99 is marked
/// invalid in the report: the generator, not the server, set its pace.
inline constexpr double kMaxLatenessMs = 5;

// --- the request stream ------------------------------------------------------

enum class Kind : std::uint8_t { kEnumerate, kDecide, kExplain, kDelta };

const char* KindName(Kind kind);

/// One request of the stream. Reads name a target (and a Decide
/// candidate or Explain index); deltas name an entry of Stream::deltas.
struct RequestSpec {
  Kind kind = Kind::kEnumerate;
  std::uint32_t target = 0;
  std::uint32_t candidate = 0;  ///< index into Target::candidates
  std::uint32_t index = 0;      ///< Explain member index, or delta index
};

struct Target {
  std::string text;
  whyprov::datalog::FactId id = whyprov::datalog::kInvalidFact;
  /// The first kMaxMembers members at the base version, rendered.
  std::vector<std::vector<std::string>> members;
  /// Decide candidates: two base-version members, then two perturbed
  /// members built to fail. The oracle checks every verdict.
  std::vector<std::vector<std::string>> candidates;
};

struct Delta {
  std::vector<std::string> added;
  std::vector<std::string> removed;
};

/// Everything derived from (workload, seed) before any load is offered:
/// the scenario text, the reference engine at the base version, the
/// targets with their candidates, and (tc-churn) the history plus the
/// timed delta sequence. Same seed, same Stream.
struct Stream {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  std::string program_text;
  std::string database_text;
  std::string answer_predicate;
  std::vector<Target> targets;
  std::vector<double> zipf_cdf;  ///< empty = uniform
  std::vector<Delta> history;    ///< written to the seeded data_dir
  std::vector<Delta> deltas;     ///< sent during the run, in order
  /// Reference engine at the base version (after the history).
  std::unique_ptr<whyprov::Engine> reference;
  double reference_eval_seconds = 0;
};

/// Builds the stream: parses and evaluates the scenario, samples the
/// targets, enumerates their base-version members (with `threads`
/// workers), builds Decide candidates, and lays out the deltas.
std::unique_ptr<Stream> MakeStream(const Workload& workload,
                                   std::uint64_t seed, std::size_t threads);

/// The read mix of one phase, drawn from its own seeded generator. The
/// kind mix is stratified: every block of ten reads holds exactly seven
/// enumerations, two decisions and one explanation, in a seeded order.
/// Uniform pools are walked as a sequence of seeded permutations, so a
/// phase visits every target about equally often whatever the seed; a
/// Zipf pool draws each target independently.
class ReadMix {
 public:
  ReadMix(const Stream& stream, std::uint64_t phase);
  RequestSpec Next();

 private:
  const Stream& stream_;
  whyprov::util::Rng rng_;
  std::vector<std::uint32_t> order_;
  std::size_t order_pos_ = 0;
  std::vector<Kind> kinds_;
  std::size_t kind_pos_ = 0;
};

/// Seeds one phase's generator from the run seed (deterministic).
whyprov::util::Rng PhaseRng(std::uint64_t seed, std::uint64_t phase);

/// Exponential inter-arrival gap at `rate` per second.
double PoissonGap(whyprov::util::Rng& rng, double rate);

// --- records -----------------------------------------------------------------

enum Phase : std::uint8_t {
  kWarmup = 0,
  kCapacity = 1,
  kNominal = 2,
  kBusy = 3,
  kNumPhases = 4,
};
const char* PhaseName(Phase phase);

inline constexpr double kInfinite = std::numeric_limits<double>::infinity();

/// What the load generator saw for one request. Times are seconds since
/// the run's time origin; a request that never finished keeps final=inf.
struct Record {
  RequestSpec spec;
  Phase phase = kWarmup;
  bool open_loop = false;
  double due = 0;   ///< scheduled send time (closed loop: send time)
  double sent = 0;  ///< actual send time
  double first_member = kInfinite;
  double final = kInfinite;
  std::uint64_t request_id = 0;
  std::uint8_t status = 0;  ///< whyprov_status of the FINAL frame
  bool answered = false;
  std::uint64_t version = 0;
  /// Version bounds while in flight (tc-churn): deltas acknowledged
  /// before the send, and deltas sent before the FINAL arrived.
  std::uint64_t version_lo = 0;
  std::uint64_t version_hi = 0;
  std::uint64_t bytes = 0;   ///< request + response frame bytes
  std::uint64_t answer = 0;  ///< Digest() of the response's canonical text
};

// --- the oracle --------------------------------------------------------------

/// Canonical text of an Enumerate answer (members in order, count,
/// flags); Decide verdict; Explain member + proof tree; delta counters.
/// Wire responses and reference answers are rendered through these, so
/// "matches" means byte-identical.
std::string CanonicalMembers(const std::vector<std::vector<std::string>>& m,
                             std::uint64_t emitted, std::uint32_t flags);
std::string CanonicalVerdict(bool member);
std::string CanonicalExplain(const std::vector<std::string>& member,
                             const std::string& tree);
std::string CanonicalDelta(const std::uint64_t counters[6]);

/// 64-bit FNV-1a of a canonical text: records keep the digest rather
/// than the text so a run's memory stays flat at high request rates.
std::uint64_t Digest(const std::string& text);

/// Decide candidates parsed against one engine's symbol table,
/// [target][candidate].
using Candidates =
    std::vector<std::vector<std::vector<whyprov::datalog::Fact>>>;
Candidates ParseCandidates(const whyprov::Engine& engine,
                           const Stream& stream);

/// The canonical text ("status=N" line plus the answer) of one read at
/// `engine`'s current version, computed through the engine entry points
/// the service executes for it.
std::string ReferenceText(const whyprov::Engine& engine, const Stream& stream,
                          const Candidates& candidates,
                          const RequestSpec& spec);

/// True for statuses the serving stack produces on its own (refused,
/// cancelled, deadline missed): counted as failed requests, not checked
/// as answers.
bool IsServingFailure(std::uint8_t status);

/// Checks every record against the reference engine at the record's
/// model version, advancing the reference through `stream.deltas` in
/// order (tc-churn). Returns the mismatch messages (empty = all
/// correct), each naming the request. `verified` counts the reads that
/// matched. Consumes the stream's reference engine (it advances).
std::vector<std::string> CheckRecords(Stream& stream,
                                      const std::vector<Record>& records,
                                      std::size_t threads,
                                      std::vector<bool>* verified);

// --- statistics --------------------------------------------------------------

enum class Measure { kFinal, kFirstMember };

/// Latencies (ms) from due time to the FINAL frame (or the first MEMBERS
/// frame) of the phase's open-loop reads, or of its deltas. A request
/// that was refused, missed its deadline, never answered, or failed the
/// oracle counts as infinitely late. First-member latency skips correct
/// answers that carry no member (an absent target).
std::vector<double> Latencies(const std::vector<Record>& records,
                              const std::vector<bool>& verified, Phase phase,
                              Measure measure, bool deltas);

/// Nearest-rank percentile of `values` (q in [0, 1]); infinite values
/// (failed requests) sort last. Returns inf when the rank lands on one.
double Percentile(std::vector<double> values, double q);

/// Samples a percentile needs so that at least ten lie beyond it.
std::size_t SamplesFor(double q);

// --- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The last line of standard output: the run's JSON result.
std::string ResultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // WHYPROV_PERFBENCH_BENCH_H_
