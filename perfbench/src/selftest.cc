// Self-tests of the benchmark itself (perfbench_loadgen --selftest, also
// registered as a ctest in perfbench/CMakeLists.txt): the oracle catches
// corrupted responses, the latency statistics treat failures as
// infinitely late, and one seed always yields one request stream.

#include <cmath>
#include <cstdio>
#include <string>

#include "bench.h"

namespace perfbench {

namespace wp = whyprov;

namespace {

int failures = 0;

void Check(bool condition, const char* what) {
  std::fprintf(stderr, "  %s %s\n", condition ? "ok  " : "FAIL", what);
  if (!condition) ++failures;
}

wp::scenarios::GeneratedScenario SmallGraph() {
  return wp::scenarios::MakeTransClosure(wp::scenarios::GraphKind::kSparse, 40,
                                         70, 3);
}

/// A tiny tc-churn-shaped workload: Zipf pool, WAL-style history.
const Workload& TestWorkload() {
  static const Workload workload = [] {
    Workload w;
    w.name = "selftest";
    w.pool_size = 8;
    w.zipf = true;
    w.churn = true;
    w.nominal_qps = 100;
    w.busy_qps = 200;
    w.closed_window = 2;
    w.make = SmallGraph;
    return w;
  }();
  return workload;
}

/// A correct transcript: reads at the base version, one delta, reads at
/// base+1 — answers computed on a second stream's reference engine.
std::vector<Record> Transcript(std::uint64_t seed) {
  std::unique_ptr<Stream> truth = MakeStream(TestWorkload(), seed, 1);
  const Candidates candidates = ParseCandidates(*truth->reference, *truth);
  const std::uint64_t base = truth->reference->model_version();
  std::vector<Record> records;
  ReadMix mix(*truth, 0);
  auto add_reads = [&](std::uint64_t version) {
    for (int i = 0; i < 30; ++i) {
      Record record;
      record.spec = mix.Next();
      record.phase = kNominal;
      record.open_loop = true;
      record.answered = true;
      record.version = version;
      record.version_lo = version;
      record.version_hi = version;
      const std::string text =
          ReferenceText(*truth->reference, *truth, candidates, record.spec);
      record.status =
          static_cast<std::uint8_t>(std::atoi(text.c_str() + 7));
      record.answer = Digest(text);
      records.push_back(record);
    }
  };
  add_reads(base);
  wp::DeltaRequest request;
  request.added_fact_texts = truth->deltas[0].added;
  request.removed_fact_texts = truth->deltas[0].removed;
  auto stats = truth->reference->ApplyDelta(request);
  Record delta;
  delta.spec.kind = Kind::kDelta;
  delta.spec.index = 0;
  delta.phase = kNominal;
  delta.open_loop = true;
  delta.answered = true;
  if (stats.ok()) {
    const std::uint64_t counters[6] = {
        stats.value().facts_added,   stats.value().facts_removed,
        stats.value().facts_derived, stats.value().facts_deleted,
        stats.value().facts_rederived, stats.value().facts_touched};
    delta.version = stats.value().model_version;
    delta.answer = Digest("status=0\n" + CanonicalDelta(counters));
  }
  records.push_back(delta);
  add_reads(base + 1);
  return records;
}

std::size_t Mismatches(std::uint64_t seed, const std::vector<Record>& records) {
  std::unique_ptr<Stream> stream = MakeStream(TestWorkload(), seed, 1);
  std::vector<bool> verified;
  return CheckRecords(*stream, records, 2, &verified).size();
}

/// Index of the first record of `kind` answered OK at `version`.
std::size_t Find(const std::vector<Record>& records, Kind kind,
                 std::uint64_t version) {
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].spec.kind == kind && records[i].status == 0 &&
        records[i].version == version) {
      return i;
    }
  }
  return records.size();
}

void TestOracle() {
  std::fprintf(stderr, "oracle\n");
  const std::uint64_t seed = 7;
  const std::vector<Record> good = Transcript(seed);
  Check(Mismatches(seed, good) == 0, "a correct transcript passes");

  std::unique_ptr<Stream> stream = MakeStream(TestWorkload(), seed, 1);
  const Candidates candidates = ParseCandidates(*stream->reference, *stream);
  const std::uint64_t base = stream->reference->model_version();

  // A wrong member: the first enumeration's answer with one fact of its
  // first member replaced by another database fact.
  {
    std::vector<Record> bad = good;
    const std::size_t i = Find(bad, Kind::kEnumerate, base);
    Check(i < bad.size(), "the transcript has an enumeration");
    if (i < bad.size()) {
      std::string text = ReferenceText(*stream->reference, *stream, candidates,
                                       bad[i].spec);
      const std::size_t open = text.find('{');
      const std::size_t comma = text.find_first_of(",}", open);
      text.replace(open + 1, comma - open - 1, "edge(nowhere, nothing)");
      bad[i].answer = Digest(text);
      Check(Mismatches(seed, bad) == 1, "a wrong member is caught");
    }
  }
  // A flipped verdict.
  {
    std::vector<Record> bad = good;
    const std::size_t i = Find(bad, Kind::kDecide, base);
    Check(i < bad.size(), "the transcript has a decision");
    if (i < bad.size()) {
      const std::string text = ReferenceText(*stream->reference, *stream,
                                             candidates, bad[i].spec);
      const bool member = text.find("not-member") == std::string::npos;
      bad[i].answer = Digest("status=0\n" + CanonicalVerdict(!member));
      Check(Mismatches(seed, bad) == 1, "a flipped verdict is caught");
    }
  }
  // A skipped version: the delta claims base+2, and a read claims a
  // version the run never reached.
  {
    std::vector<Record> bad = good;
    const std::size_t i = Find(bad, Kind::kDelta, base + 1);
    Check(i < bad.size(), "the transcript has a delta");
    if (i < bad.size()) {
      bad[i].version = base + 2;
      Check(Mismatches(seed, bad) >= 1, "a skipped delta version is caught");
    }
    std::vector<Record> late = good;
    const std::size_t j = Find(late, Kind::kEnumerate, base + 1);
    if (j < late.size()) {
      late[j].version = base + 2;
      late[j].version_hi = base + 2;
      Check(Mismatches(seed, late) == 1,
            "a read at a version past the last delta is caught");
    }
  }
  // A read answered at the wrong version (right text, stale snapshot).
  {
    std::vector<Record> bad = good;
    const std::size_t i = Find(bad, Kind::kEnumerate, base);
    if (i < bad.size()) {
      bad[i].version_lo = base + 1;
      bad[i].version_hi = base + 1;
      Check(Mismatches(seed, bad) == 1,
            "a read older than its in-flight window is caught");
    }
  }
}

void TestStatistics() {
  std::fprintf(stderr, "statistics\n");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  Check(Percentile(hundred, 0.5) == 50, "p50 of 1..100 is 50 (nearest rank)");
  Check(Percentile(hundred, 0.99) == 99, "p99 of 1..100 is 99");
  Check(Percentile({3, 1, 2}, 1.0) == 3, "p100 is the maximum");
  Check(std::isinf(Percentile({}, 0.5)), "no samples reads as infinite");
  hundred[0] = kInfinite;  // one failed request among 100
  Check(Percentile(hundred, 0.99) == 100, "one failure in 100 moves p99 up");
  hundred[1] = kInfinite;
  Check(std::isinf(Percentile(hundred, 0.99)),
        "two failures in 100 make p99 infinite");
  Check(SamplesFor(0.99) == 1000, "p99 needs 1000 samples");
  Check(SamplesFor(0.5) == 20, "p50 needs 20 samples");
  Check(SamplesFor(0.9) == 100, "p90 needs 100 samples");

  // Failures become infinite latencies: refused, deadline, unanswered,
  // oracle-rejected; a correct absent-target answer is a normal sample.
  std::vector<Record> records(6);
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].phase = kNominal;
    records[i].open_loop = true;
    records[i].answered = true;
    records[i].due = 1.0;
    records[i].final = 1.002;
    records[i].first_member = 1.001;
  }
  records[1].status = 5;  // RESOURCE_EXHAUSTED (refused)
  records[2].status = 7;  // DEADLINE_EXCEEDED
  records[3].answered = false;
  records[5].status = 3;  // NOT_FOUND, verified correct by the oracle
  std::vector<bool> verified = {true, true, true, true, false, true};
  const std::vector<double> reads =
      Latencies(records, verified, kNominal, Measure::kFinal, false);
  Check(reads.size() == 6, "every read of the phase is a sample");
  int infinite = 0;
  for (double value : reads) infinite += std::isinf(value) ? 1 : 0;
  Check(infinite == 4, "refused, late, unanswered and wrong reads are inf");
  Check(std::fabs(reads[0] - 2.0) < 1e-6, "latency runs from the due time");
  const std::vector<double> first =
      Latencies(records, verified, kNominal, Measure::kFirstMember, false);
  Check(first.size() == 5, "an absent target has no first-member sample");
  Check(Latencies(records, verified, kBusy, Measure::kFinal, false).empty(),
        "other phases are not counted");
}

void TestSeeds() {
  std::fprintf(stderr, "seeds\n");
  auto a = MakeStream(TestWorkload(), 11, 2);
  auto b = MakeStream(TestWorkload(), 11, 1);
  auto c = MakeStream(TestWorkload(), 12, 1);
  bool same_targets = a->targets.size() == b->targets.size();
  for (std::size_t i = 0; same_targets && i < a->targets.size(); ++i) {
    same_targets = a->targets[i].text == b->targets[i].text &&
                   a->targets[i].members == b->targets[i].members &&
                   a->targets[i].candidates == b->targets[i].candidates;
  }
  Check(same_targets, "same seed, same targets, members and candidates");
  bool same_deltas = a->deltas.size() == b->deltas.size() &&
                     a->history.size() == b->history.size();
  for (std::size_t i = 0; same_deltas && i < a->deltas.size(); ++i) {
    same_deltas = a->deltas[i].added == b->deltas[i].added &&
                  a->deltas[i].removed == b->deltas[i].removed;
  }
  Check(same_deltas, "same seed, same history and delta sequence");

  auto sequence = [](const Stream& stream, std::uint64_t phase) {
    ReadMix mix(stream, phase);
    wp::util::Rng arrivals = PhaseRng(stream.seed, 10 + phase);
    std::string out;
    for (int i = 0; i < 1000; ++i) {
      const RequestSpec spec = mix.Next();
      out += std::to_string(static_cast<int>(spec.kind)) + ":" +
             std::to_string(spec.target) + ":" +
             std::to_string(spec.candidate) + ":" +
             std::to_string(spec.index) + ":" +
             std::to_string(PoissonGap(arrivals, 100)) + ";";
    }
    return out;
  };
  Check(sequence(*a, kNominal) == sequence(*b, kNominal),
        "same seed, same request stream and arrival times");
  Check(sequence(*a, kNominal) != sequence(*c, kNominal),
        "another seed, another request stream");
  Check(sequence(*a, kNominal) != sequence(*a, kBusy),
        "phases draw from their own generators");

  ReadMix mix(*a, kNominal);
  int kinds[3] = {0, 0, 0};
  for (int i = 0; i < 1000; ++i) ++kinds[static_cast<int>(mix.Next().kind)];
  Check(kinds[0] == 700 && kinds[1] == 200 && kinds[2] == 100,
        "the read mix is exactly 70/20/10 per block of ten");
}

}  // namespace

int RunSelfTests() {
  TestStatistics();
  TestSeeds();
  TestOracle();
  std::fprintf(stderr, "%s (%d failure%s)\n", failures == 0 ? "PASS" : "FAIL",
               failures, failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
