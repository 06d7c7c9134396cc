// The traced per-layer run.
//
// (a) Serial replay: one request at a time through each layer's public
//     calls (net::Encode/Decode*, Engine::Prepare, PreparedQuery::
//     Enumerate/Decide/Explain, Enumeration::Next, Engine::FactToText,
//     Engine::ApplyDelta, WriteAheadLog::Append, EncodeCheckpoint), with
//     a span around every call. The same request list runs once with
//     the tracer off and once with it on, on two fresh engines; the
//     ratio of their walls is the tracing overhead.
// (b) In-process Service replay of the same read mix, closed loop and
//     then open loop at the workload's busy rate: Response::queue_seconds
//     and exec_seconds, worker busy ratio, refusals, plan-cache counters.
//
// Delta and storage layers that a read-only workload never reaches are
// measured by a probe on that workload's own database (the same delta
// shape as tc-churn) so that every metric is present on every workload;
// perfbench/README.md marks them as off the workload's path.

#include "layers.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <numeric>
#include <thread>

#include "datalog/parser.h"
#include "net/wire.h"
#include "service/service.h"
#include "storage/checkpoint.h"
#include "storage/wal.h"
#include "trace.h"
#include "util/mutex.h"

namespace perfbench {

namespace wp = whyprov;
namespace net = whyprov::net;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::size_t kCheckpointEvery = 32;  // the engine default
constexpr std::size_t kProbeDeltas = 32;
constexpr std::size_t kMaxTraceSpans = 200000;

double Seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

const char* RootName(Kind kind) {
  switch (kind) {
    case Kind::kEnumerate:
      return "request.enumerate";
    case Kind::kDecide:
      return "request.decide";
    case Kind::kExplain:
      return "request.explain";
    case Kind::kDelta:
      return "request.delta";
  }
  return "request";
}

/// Counts the traced pass records beside its spans.
struct Counts {
  std::vector<double> cnf_vars, cnf_clauses, simplify_ratio;
  double conflicts = 0, propagations = 0, decisions = 0, members = 0;
  std::vector<wp::DeltaStats> deltas;
  std::vector<double> wal_bytes;
};

/// Replays requests serially against one engine, wrapping every call
/// into a layer in a span.
class Replayer {
 public:
  Replayer(const Stream& stream, wp::Engine& engine, Tracer& tracer,
           Counts* counts, wp::storage::WriteAheadLog* wal,
           std::string checkpoint_path)
      : stream_(stream),
        engine_(engine),
        tracer_(tracer),
        counts_(counts),
        wal_(wal),
        checkpoint_path_(std::move(checkpoint_path)),
        candidates_(ParseCandidates(engine, stream)) {}

  void Read(const RequestSpec& spec, std::uint64_t id) {
    const Target& target = stream_.targets[spec.target];
    ScopedSpan root(tracer_, RootName(spec.kind), id);
    Codec(id, [&] { return RequestCodec(spec, id); });

    util_result<wp::PreparedQuery> prepared;
    bool cold = false;
    {
      const std::size_t misses = engine_.plan_cache_stats().misses;
      ScopedSpan span(tracer_, "engine.plan_lookup", id);
      prepared.emplace(engine_.Prepare(target.text));
      if (engine_.plan_cache_stats().misses != misses &&
          prepared->ok()) {
        cold = true;
        tracer_.Rename(span.id(), "engine.plan_build");
        const wp::provenance::PlanTimings& t = prepared->value().timings();
        const double start = tracer_.StartOf(span.id());
        tracer_.AddDerived("provenance.closure", span.id(), start,
                           t.closure_seconds);
        tracer_.AddDerived("provenance.encode", span.id(),
                           start + t.closure_seconds, t.encode_seconds);
        tracer_.AddDerived("sat.simplify", span.id(),
                           start + t.closure_seconds + t.encode_seconds,
                           t.simplify_seconds);
        if (counts_ != nullptr) {
          const auto& simplify = prepared->value().plan()->simplify_stats();
          const auto& formula = prepared->value().formula();
          // Encoder output: the counts before simplification (the
          // formula itself when the pass did not run).
          const bool simplified = simplify.clauses_before > 0;
          counts_->cnf_vars.push_back(
              simplified ? static_cast<double>(simplify.vars_before)
                         : static_cast<double>(formula.num_vars));
          counts_->cnf_clauses.push_back(
              simplified ? static_cast<double>(simplify.clauses_before)
                         : static_cast<double>(formula.num_clauses()));
          if (simplified) {
            counts_->simplify_ratio.push_back(
                static_cast<double>(simplify.clauses_after) /
                static_cast<double>(simplify.clauses_before));
          }
        }
      }
    }
    if (cold) {
      // A workload whose replay never repeats a target (galen-cold) still
      // gets cached lookups: one right after each build.
      ScopedSpan span(tracer_, "probe.plan_lookup", id);
      (void)engine_.Prepare(target.text);
    }
    if (!prepared->ok()) {
      Codec(id, [&] { return FinalCodec(id, nullptr); });
      return;
    }
    const wp::PreparedQuery& plan = prepared->value();

    net::FinalFrame final;
    final.request_id = id;
    std::vector<std::vector<std::string>> members;
    switch (spec.kind) {
      case Kind::kEnumerate: {
        wp::EnumerateRequest request;
        request.max_members = kMaxMembers;
        util_result<wp::Enumeration> enumeration;
        {
          ScopedSpan span(tracer_, "sat.load", id);
          enumeration.emplace(plan.Enumerate(request));
        }
        if (!enumeration->ok()) break;
        wp::Enumeration& handle = enumeration->value();
        while (true) {
          std::optional<std::vector<wp::datalog::Fact>> member;
          {
            ScopedSpan span(tracer_,
                            members.empty() ? "sat.first_member"
                                            : "sat.next_member",
                            id);
            member = handle.Next();
            if (!member.has_value()) tracer_.Rename(span.id(), "sat.exhaust");
          }
          if (!member.has_value()) break;
          ScopedSpan span(tracer_, "engine.render", id);
          std::vector<std::string> rendered;
          for (const auto& fact : *member) {
            rendered.push_back(engine_.FactToText(fact));
          }
          members.push_back(std::move(rendered));
        }
        if (counts_ != nullptr) {
          const auto stats = handle.solver().stats();
          counts_->conflicts += static_cast<double>(stats.conflicts);
          counts_->propagations += static_cast<double>(stats.propagations);
          counts_->decisions += static_cast<double>(stats.decisions);
          counts_->members += static_cast<double>(members.size());
        }
        final.members_emitted = members.size();
        break;
      }
      case Kind::kDecide: {
        wp::DecideRequest request;
        request.candidate = candidates_[spec.target][spec.candidate];
        ScopedSpan span(tracer_, "provenance.decide", id);
        auto verdict = plan.Decide(request);
        final.verdict = verdict.ok() && verdict.value() ? 1 : 0;
        break;
      }
      case Kind::kExplain: {
        wp::ExplainRequest request;
        request.member_index = spec.index;
        util_result<wp::Explanation> explanation;
        {
          ScopedSpan span(tracer_, "provenance.explain", id);
          explanation.emplace(plan.Explain(request));
        }
        if (!explanation->ok()) break;
        ScopedSpan span(tracer_, "engine.render", id);
        for (const auto& fact : explanation->value().member) {
          final.explanation_member.push_back(engine_.FactToText(fact));
        }
        const auto state = engine_.PinSnapshot();
        const wp::util::MutexLock lock(*state->parse_mutex);
        final.proof_tree =
            explanation->value().tree.ToString(engine_.program().symbols());
        final.has_explanation = 1;
        break;
      }
      case Kind::kDelta:
        break;
    }
    Codec(id, [&] {
      std::size_t bytes = 0;
      for (auto& member : members) {
        net::MembersFrame batch;
        batch.request_id = id;
        batch.members.push_back(std::move(member));
        const std::string body = net::Encode(batch);
        bytes += body.size() + 5;
        if (!net::DecodeMembers(body).ok()) return bytes;
      }
      return bytes + FinalCodec(id, &final);
    });
  }

  void ApplyDelta(const RequestSpec& spec, std::uint64_t id) {
    const Delta& delta = stream_.deltas[spec.index];
    ScopedSpan root(tracer_, RootName(Kind::kDelta), id);
    Codec(id, [&] { return RequestCodec(spec, id); });
    if (wal_ != nullptr) {
      ScopedSpan span(tracer_, "storage.wal_append", id);
      auto bytes = wal_->Append(delta.added, delta.removed);
      if (counts_ != nullptr && bytes.ok()) {
        counts_->wal_bytes.push_back(static_cast<double>(bytes.value()));
      }
    }
    wp::DeltaRequest request;
    request.added_fact_texts = delta.added;
    request.removed_fact_texts = delta.removed;
    util_result<wp::DeltaStats> stats;
    {
      ScopedSpan span(tracer_, "datalog.apply_delta", id);
      stats.emplace(engine_.ApplyDelta(request));
    }
    if (stats->ok() && counts_ != nullptr) {
      counts_->deltas.push_back(stats->value());
    }
    if (++applied_ % kCheckpointEvery == 0) {
      ScopedSpan span(tracer_, "storage.checkpoint", id);
      Checkpoint(engine_, checkpoint_path_, applied_);
    }
    net::FinalFrame final;
    final.request_id = id;
    final.kind = net::kFrameDelta;
    Codec(id, [&] { return FinalCodec(id, &final); });
  }

  static void Checkpoint(const wp::Engine& engine, const std::string& path,
                         std::uint64_t folded) {
    const auto state = engine.PinSnapshot();
    std::string image;
    {
      const wp::util::MutexLock lock(*state->parse_mutex);
      image = wp::storage::EncodeCheckpoint(state->model,
                                            state->model_version, folded);
    }
    (void)wp::storage::WriteCheckpointFile(path, image);
  }

 private:
  // std::optional stand-in for util::Result, which has no default state.
  template <typename T>
  using util_result = std::optional<wp::util::Result<T>>;

  template <typename F>
  void Codec(std::uint64_t id, F&& work) {
    ScopedSpan span(tracer_, "net.codec", id);
    bytes_ += work();
  }

  std::size_t RequestCodec(const RequestSpec& spec, std::uint64_t id) {
    const RequestFrame frame = EncodeRequest(stream_, spec, id);
    bool ok = false;
    switch (frame.type) {
      case net::kFrameEnumerate:
        ok = net::DecodeEnumerate(frame.body).ok();
        break;
      case net::kFrameDecide:
        ok = net::DecodeDecide(frame.body).ok();
        break;
      case net::kFrameExplain:
        ok = net::DecodeExplain(frame.body).ok();
        break;
      default:
        ok = net::DecodeDelta(frame.body).ok();
        break;
    }
    return frame.body.size() + 5 + (ok ? 0 : 1);
  }

  static std::size_t FinalCodec(std::uint64_t id, const net::FinalFrame* f) {
    net::FinalFrame frame;
    if (f != nullptr) frame = *f;
    frame.request_id = id;
    const std::string body = net::Encode(frame);
    return body.size() + 5 + (net::DecodeFinal(body).ok() ? 0 : 1);
  }

  const Stream& stream_;
  wp::Engine& engine_;
  Tracer& tracer_;
  Counts* counts_;
  wp::storage::WriteAheadLog* wal_;
  std::string checkpoint_path_;
  Candidates candidates_;
  std::size_t applied_ = 0;
  std::size_t bytes_ = 0;
};

std::unique_ptr<wp::Engine> FreshEngine(const Stream& stream,
                                        wp::EngineOptions options = {}) {
  auto engine = wp::Engine::FromText(stream.program_text,
                                     stream.database_text,
                                     stream.answer_predicate, options);
  if (!engine.ok()) return nullptr;
  auto out = std::make_unique<wp::Engine>(std::move(engine).value());
  for (const Delta& delta : stream.history) {
    wp::DeltaRequest request;
    request.added_fact_texts = delta.added;
    request.removed_fact_texts = delta.removed;
    if (!out->ApplyDelta(request).ok()) return nullptr;
  }
  return out;
}

/// The replay list of (a): the read mix from its own seeded generator,
/// with tc-churn's deltas interleaved at the nominal read:delta ratio.
struct Step {
  bool delta = false;
  RequestSpec spec;
};

std::vector<Step> MakeSteps(const Stream& stream, std::size_t count) {
  ReadMix mix(stream, 30);
  const std::size_t every =
      stream.workload->churn
          ? static_cast<std::size_t>(stream.workload->nominal_qps / kDeltaQps)
          : 0;
  std::vector<Step> steps;
  std::size_t deltas = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (every > 0 && i % every == every - 1 &&
        deltas < stream.deltas.size()) {
      Step step;
      step.delta = true;
      step.spec.kind = Kind::kDelta;
      step.spec.index = static_cast<std::uint32_t>(deltas++);
      steps.push_back(step);
    } else {
      steps.push_back({false, mix.Next()});
    }
  }
  return steps;
}

/// Runs `steps` on a fresh engine; returns the wall time.
double ReplaySteps(const Stream& stream, const std::vector<Step>& steps,
                   Tracer& tracer, Counts* counts, const std::string& dir) {
  auto engine = FreshEngine(stream);
  if (engine == nullptr) return 0;
  std::filesystem::create_directories(dir);
  auto wal = wp::storage::WriteAheadLog::Open(dir + "/wal.log", false);
  Replayer replayer(stream, *engine, tracer, counts,
                    wal.ok() ? &wal.value() : nullptr, dir + "/checkpoint");
  const auto start = Clock::now();
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (steps[i].delta) {
      replayer.ApplyDelta(steps[i].spec, i + 1);
    } else {
      replayer.Read(steps[i].spec, i + 1);
    }
  }
  return Seconds(start);
}

/// How many steps fit `seconds` of serial replay: grows the list until
/// an untimed probe pass runs long enough.
std::size_t StepsFor(const Stream& stream, double seconds,
                     const std::string& dir) {
  std::size_t count = 16;
  while (true) {
    Tracer off(false);
    const double wall = ReplaySteps(stream, MakeSteps(stream, count), off,
                                    nullptr, dir + "/probe");
    std::filesystem::remove_all(dir + "/probe");
    if (wall >= seconds * 0.25 || count >= (1u << 20) || wall <= 0) {
      const double scale = wall > 0 ? seconds / wall : 1;
      return std::max<std::size_t>(
          16, static_cast<std::size_t>(static_cast<double>(count) * scale));
    }
    count *= 4;
  }
}

wp::Request ToRequest(const Stream& stream, const RequestSpec& spec,
                      const Candidates& candidates) {
  const Target& target = stream.targets[spec.target];
  wp::Request request;
  request.deadline_seconds = kDeadlineSeconds;
  if (spec.kind == Kind::kEnumerate) {
    wp::EnumerateRequest op;
    op.target_text = target.text;
    op.max_members = kMaxMembers;
    request.op = op;
  } else if (spec.kind == Kind::kDecide) {
    wp::DecideRequest op;
    op.target_text = target.text;
    op.candidate = candidates[spec.target][spec.candidate];
    request.op = op;
  } else {
    wp::ExplainRequest op;
    op.target_text = target.text;
    op.member_index = spec.index;
    request.op = op;
  }
  return request;
}

wp::Request ToDelta(const Delta& delta) {
  wp::DeltaRequest op;
  op.added_fact_texts = delta.added;
  op.removed_fact_texts = delta.removed;
  wp::Request request;
  request.op = op;
  request.deadline_seconds = kDeadlineSeconds;
  return request;
}

struct ServiceNumbers {
  std::vector<double> queue_ms, exec_ms;
  double busy_ratio = 0;
  double capacity_qps = 0;  ///< reads completed per second, closed loop
  double refused = 0;
  wp::PlanCacheStats before, after;
};

/// (b): closed loop with `window` callers, then open loop at the busy
/// rate; tc-churn's deltas flow beside both at kDeltaQps.
ServiceNumbers ReplayService(const Stream& stream, double seconds,
                             std::size_t window) {
  ServiceNumbers out;
  auto engine = FreshEngine(stream);
  if (engine == nullptr) return out;
  const auto candidates = ParseCandidates(*engine, stream);
  wp::Service service(std::move(*engine));
  out.before = service.engine().plan_cache_stats();
  std::atomic<std::size_t> refused{0};
  std::size_t next_delta = 0;  // the two delta phases run one after another

  // Deltas one at a time, as on the wire (see LoadGen::OfferDelta).
  auto run_deltas = [&](double duration, std::uint64_t phase) {
    if (!stream.workload->churn) return;
    wp::util::Rng rng = PhaseRng(stream.seed, 60 + phase);
    const auto start = Clock::now();
    double due = PoissonGap(rng, kDeltaQps);
    while (due < duration) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(due)));
      auto ticket = service.Submit(ToDelta(stream.deltas[next_delta++]));
      if (ticket.ok()) {
        ticket.value().Wait();
      } else {
        ++refused;
      }
      due += PoissonGap(rng, kDeltaQps);
    }
  };

  // Closed loop: `window` callers, each with one request outstanding.
  const double closed = seconds * 0.5;
  std::atomic<double> exec_total{0};
  std::atomic<std::size_t> reads_total{0};
  {
    const auto start = Clock::now();
    std::vector<std::thread> callers;
    for (std::size_t c = 0; c < window; ++c) {
      callers.emplace_back([&, c] {
        ReadMix mix(stream, 40 + c);
        double exec = 0;
        std::size_t completed = 0;
        while (Seconds(start) < closed) {
          auto ticket =
              service.Submit(ToRequest(stream, mix.Next(), candidates));
          if (!ticket.ok()) {
            ++refused;
            continue;
          }
          exec += ticket.value().Wait().exec_seconds;
          ++completed;
        }
        double total = exec_total.load();
        while (!exec_total.compare_exchange_weak(total, total + exec)) {
        }
        reads_total += completed;
      });
    }
    std::thread deltas([&] { run_deltas(closed, 0); });
    for (std::thread& caller : callers) caller.join();
    deltas.join();
    const double wall = Seconds(start);
    out.busy_ratio = exec_total.load() /
                     (static_cast<double>(service.num_threads()) * wall);
    out.capacity_qps = static_cast<double>(reads_total.load()) / wall;
  }

  // Open loop at the busy rate: a submitter on the Poisson schedule and
  // a collector waiting on the tickets in submission order.
  {
    const double open = seconds * 0.5;
    wp::util::Mutex mutex;
    std::deque<wp::Ticket> pending;
    std::atomic<bool> done{false};
    std::thread collector([&] {
      while (true) {
        std::optional<wp::Ticket> ticket;
        {
          const wp::util::MutexLock lock(mutex);
          if (!pending.empty()) {
            ticket = std::move(pending.front());
            pending.pop_front();
          }
        }
        if (!ticket.has_value()) {
          if (done) {
            const wp::util::MutexLock lock(mutex);
            if (pending.empty()) return;
            continue;
          }
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          continue;
        }
        const wp::Response& response = ticket->Wait();
        out.queue_ms.push_back(response.queue_seconds * 1000);
        out.exec_ms.push_back(response.exec_seconds * 1000);
      }
    });
    std::thread deltas([&] { run_deltas(open, 1); });
    ReadMix mix(stream, 50);
    wp::util::Rng rng = PhaseRng(stream.seed, 55);
    const auto start = Clock::now();
    double due = PoissonGap(rng, stream.workload->busy_qps);
    while (due < open) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(due)));
      auto ticket =
          service.Submit(ToRequest(stream, mix.Next(), candidates));
      if (ticket.ok()) {
        const wp::util::MutexLock lock(mutex);
        pending.push_back(std::move(ticket).value());
      } else {
        ++refused;
      }
      due += PoissonGap(rng, stream.workload->busy_qps);
    }
    done = true;
    collector.join();
    deltas.join();
  }
  out.refused = static_cast<double>(refused.load());
  out.after = service.engine().plan_cache_stats();
  return out;
}

/// Medians of repeated constructions with and without the seeded
/// data_dir; the difference is what recovery adds to set-up.
std::pair<double, double> RecoveryProbe(const Stream& stream,
                                        const std::string& dir) {
  std::vector<Delta> history = stream.history;
  if (history.empty()) {
    history.assign(stream.deltas.begin(),
                   stream.deltas.begin() +
                       static_cast<std::ptrdiff_t>(std::min(
                           kHistoryDeltas, stream.deltas.size())));
  }
  Stream seeded_stream;
  seeded_stream.workload = stream.workload;
  seeded_stream.program_text = stream.program_text;
  seeded_stream.database_text = stream.database_text;
  seeded_stream.answer_predicate = stream.answer_predicate;
  seeded_stream.history = history;
  const std::string seeded = dir + "/seeded";
  if (!WriteHistory(seeded_stream, seeded).empty()) return {0, 0};

  std::vector<double> with, without;
  double replayed = 0;
  for (int k = 0; k < 3; ++k) {
    const std::string copy = dir + "/copy-" + std::to_string(k);
    std::filesystem::copy(seeded, copy,
                          std::filesystem::copy_options::recursive);
    for (int variant = 0; variant < 2; ++variant) {
      wp::EngineOptions options;
      if (variant == 0) options.data_dir = copy;
      const auto start = Clock::now();
      auto engine =
          wp::Engine::FromText(stream.program_text, stream.database_text,
                               stream.answer_predicate, options);
      if (!engine.ok()) return {0, 0};
      wp::Service service(std::move(engine).value());
      (variant == 0 ? with : without).push_back(Seconds(start));
      if (variant == 0) {
        replayed =
            static_cast<double>(service.stats().recovery_replayed_deltas);
      }
    }
  }
  return {Percentile(with, 0.5) - Percentile(without, 0.5), replayed};
}

}  // namespace

Candidates ParseCandidates(const wp::Engine& engine, const Stream& stream) {
  Candidates out(stream.targets.size());
  const auto state = engine.PinSnapshot();
  const wp::util::MutexLock lock(*state->parse_mutex);
  for (std::size_t t = 0; t < stream.targets.size(); ++t) {
    for (const auto& candidate : stream.targets[t].candidates) {
      std::vector<wp::datalog::Fact> facts;
      for (const std::string& text : candidate) {
        auto fact = wp::datalog::Parser::ParseFact(
            engine.program().symbols_ptr(), text);
        if (fact.ok()) facts.push_back(std::move(fact).value());
      }
      out[t].push_back(std::move(facts));
    }
  }
  return out;
}

LayerReport RunLayers(const Stream& stream, double seconds,
                      const std::string& workdir,
                      const std::string& trace_out) {
  LayerReport report;
  std::vector<Metric>& m = report.metrics;
  const std::string dir = workdir + "/layers";
  std::filesystem::create_directories(dir);

  // (a) serial replay on fresh engines, alternating untraced and traced
  // passes so that neither side gets the warmer caches; the statistics
  // come from the last traced pass.
  const double serial = seconds * 0.45;
  const std::vector<Step> steps =
      MakeSteps(stream, StepsFor(stream, serial / 4, dir));
  Tracer off(false);
  Tracer first_traced(true);
  double untraced = ReplaySteps(stream, steps, off, nullptr, dir + "/u1");
  double traced =
      ReplaySteps(stream, steps, first_traced, nullptr, dir + "/t1");
  untraced += ReplaySteps(stream, steps, off, nullptr, dir + "/u2");
  Tracer tracer(true);
  Counts counts;
  traced += ReplaySteps(stream, steps, tracer, &counts, dir + "/t2");

  // Per-span and per-request statistics from the traced pass.
  std::map<std::string, std::vector<double>> durations;  // ms
  std::map<std::uint64_t, double> codec_ms, request_ms;
  for (const Span& span : tracer.spans()) {
    const double ms = (span.end - span.start) * 1000;
    durations[span.name].push_back(ms);
    if (std::string(span.name) == "net.codec") codec_ms[span.request] += ms;
    if (span.parent == 0) request_ms[span.request] = ms;
  }
  std::vector<double> engine_ms, codec_us;
  for (const auto& [request, ms] : request_ms) {
    if (steps[request - 1].delta) continue;
    engine_ms.push_back(ms - codec_ms[request]);
    codec_us.push_back(codec_ms[request] * 1000);
  }
  report.engine_p50_ms = Percentile(engine_ms, 0.5);

  // Coverage: request-span time not covered by child spans, per kind.
  const std::vector<double> self = tracer.SelfTimes();
  std::map<std::string, std::pair<double, double>> coverage;
  double unattributed = 0, total = 0;
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const Span& span = tracer.spans()[i];
    if (span.parent != 0) continue;
    auto& entry = coverage[span.name];
    entry.first += self[i];
    entry.second += span.end - span.start;
    unattributed += self[i];
    total += span.end - span.start;
  }
  std::fprintf(stderr, "  serial replay: %zu requests, %zu spans per traced "
               "pass; two passes each: untraced %.3f s, traced %.3f s\n",
               steps.size(),
               tracer.spans().size(), untraced, traced);
  for (const auto& [name, entry] : coverage) {
    std::fprintf(stderr, "    %-20s child spans cover %.2f%%\n", name.c_str(),
                 100.0 * (1.0 - entry.first / entry.second));
  }
  std::fprintf(stderr, "  self time by span (ms total / calls):\n");
  for (const auto& [name, entry] : tracer.SelfTimeByName()) {
    std::fprintf(stderr, "    %-22s %12.3f / %zu\n", name.c_str(),
                 entry.first * 1000, entry.second);
  }
  if (!trace_out.empty() &&
      !tracer.WriteChromeJson(trace_out, kMaxTraceSpans)) {
    std::fprintf(stderr, "  warning: cannot write %s\n", trace_out.c_str());
  }

  // Off-path delta probe for read-only workloads.
  if (counts.deltas.empty()) {
    auto engine = FreshEngine(stream);
    std::filesystem::create_directories(dir + "/probe-delta");
    auto wal =
        wp::storage::WriteAheadLog::Open(dir + "/probe-delta/wal.log", false);
    Tracer probe_tracer(true);
    Replayer replayer(stream, *engine, probe_tracer, &counts,
                      wal.ok() ? &wal.value() : nullptr,
                      dir + "/probe-delta/checkpoint");
    for (std::size_t k = 0; k < kProbeDeltas && k < stream.deltas.size();
         ++k) {
      RequestSpec spec;
      spec.kind = Kind::kDelta;
      spec.index = static_cast<std::uint32_t>(k);
      replayer.ApplyDelta(spec, k + 1);
    }
    for (const Span& span : probe_tracer.spans()) {
      if (span.name == std::string("storage.wal_append") ||
          span.name == std::string("storage.checkpoint")) {
        durations[span.name].push_back((span.end - span.start) * 1000);
      }
    }
  }
  std::vector<double> delta_eval, delta_total, touched;
  double deleted = 0, rederived = 0;
  for (const wp::DeltaStats& stats : counts.deltas) {
    delta_eval.push_back(stats.eval_seconds * 1000);
    delta_total.push_back(stats.total_seconds * 1000);
    touched.push_back(static_cast<double>(stats.facts_touched));
    deleted += static_cast<double>(stats.facts_deleted);
    rederived += static_cast<double>(stats.facts_rederived);
  }
  if (durations["storage.checkpoint"].empty()) {
    auto engine = FreshEngine(stream);
    for (int k = 0; k < 3; ++k) {
      const auto start = Clock::now();
      Replayer::Checkpoint(*engine, dir + "/checkpoint-probe", 1);
      durations["storage.checkpoint"].push_back(Seconds(start) * 1000);
    }
  }

  // (b) in-process Service replay.
  const ServiceNumbers service = ReplayService(
      stream, seconds * 0.4, 8);
  const double lookups =
      static_cast<double>((service.after.hits - service.before.hits) +
                          (service.after.misses - service.before.misses));

  const auto recovery = RecoveryProbe(stream, dir + "/recovery");
  std::filesystem::remove_all(dir);

  // A layer the replay never reached (no warm lookup, no second member)
  // reads 0 rather than failing the run.
  auto median = [](const std::vector<double>& values) {
    return values.empty() ? 0.0 : Percentile(values, 0.5);
  };
  auto p50 = [&](const char* name) { return median(durations[name]); };
  auto tail = [](const std::vector<double>& values) {
    return values.empty() ? 0.0 : Percentile(values, 0.99);
  };
  std::vector<double> solve = durations["sat.next_member"];
  double solve_seconds = 0;
  for (const char* name :
       {"sat.first_member", "sat.next_member", "sat.exhaust"}) {
    for (double ms : durations[name]) solve_seconds += ms / 1000;
  }
  const double members = std::max(1.0, counts.members);
  std::vector<double> lookup_us;
  for (const char* name : {"engine.plan_lookup", "probe.plan_lookup"}) {
    for (double ms : durations[name]) lookup_us.push_back(ms * 1000);
  }
  std::vector<double> render_us;
  for (double ms : durations["engine.render"]) render_us.push_back(ms * 1000);

  m = {
      {"net.codec_us", median(codec_us), "us"},
      {"service.queue_p50_ms", median(service.queue_ms), "ms"},
      {"service.queue_p99_ms", tail(service.queue_ms), "ms"},
      {"service.exec_p50_ms", median(service.exec_ms), "ms"},
      {"service.exec_p99_ms", tail(service.exec_ms), "ms"},
      {"service.busy_ratio", service.busy_ratio, "ratio"},
      {"service.capacity_qps", service.capacity_qps, "req/s"},
      {"service.refused", service.refused, "count"},
      {"engine.plan_hit_ratio",
       lookups > 0 ? static_cast<double>(service.after.hits -
                                         service.before.hits) /
                         lookups
                   : 0,
       "ratio"},
      {"engine.plan_evictions",
       static_cast<double>(service.after.evictions - service.before.evictions),
       "count"},
      {"engine.plan_invalidated",
       static_cast<double>(service.after.invalidated -
                           service.before.invalidated),
       "count"},
      {"engine.plan_coalesced",
       static_cast<double>(service.after.coalesced - service.before.coalesced),
       "count"},
      {"engine.plan_lookup_us", median(lookup_us), "us"},
      {"engine.render_us_per_member", median(render_us), "us"},
      {"provenance.closure_ms", p50("provenance.closure"), "ms"},
      {"provenance.encode_ms", p50("provenance.encode"), "ms"},
      {"provenance.cnf_vars", median(counts.cnf_vars), "count"},
      {"provenance.cnf_clauses", median(counts.cnf_clauses), "count"},
      {"provenance.decide_ms", p50("provenance.decide"), "ms"},
      {"provenance.explain_ms", p50("provenance.explain"), "ms"},
      {"sat.simplify_ms", p50("sat.simplify"), "ms"},
      {"sat.simplify_clause_ratio", median(counts.simplify_ratio),
       "ratio"},
      {"sat.load_us", p50("sat.load") * 1000, "us"},
      {"sat.first_member_ms", p50("sat.first_member"), "ms"},
      {"sat.solve_ms_per_member_p50", median(solve), "ms"},
      {"sat.solve_ms_per_member_p99", tail(solve), "ms"},
      {"sat.conflicts_per_member", counts.conflicts / members, "count"},
      {"sat.propagations_per_member", counts.propagations / members, "count"},
      {"sat.decisions_per_member", counts.decisions / members, "count"},
      {"sat.propagations_per_s",
       solve_seconds > 0 ? counts.propagations / solve_seconds : 0, "1/s"},
      {"datalog.eval_s", stream.reference_eval_seconds, "s"},
      {"datalog.delta_eval_ms", median(delta_eval), "ms"},
      {"datalog.delta_total_ms", median(delta_total), "ms"},
      {"datalog.facts_touched_per_delta", Mean(touched), "count"},
      {"datalog.dred_rederived_ratio",
       deleted + rederived > 0 ? rederived / (deleted + rederived) : 0,
       "ratio"},
      {"storage.wal_append_us", p50("storage.wal_append") * 1000, "us"},
      {"storage.wal_bytes_per_delta", Mean(counts.wal_bytes), "bytes"},
      {"storage.checkpoint_ms", p50("storage.checkpoint"), "ms"},
      {"storage.recovery_s", recovery.first, "s"},
      {"storage.replayed_deltas", recovery.second, "count"},
      {"trace.overhead_ratio", untraced > 0 ? traced / untraced : 0, "ratio"},
      {"trace.unattributed_ratio", total > 0 ? unattributed / total : 0,
       "ratio"},
  };
  return report;
}

std::vector<Metric> FinishLayers(const LayerReport& report,
                                 const WireRun& run,
                                 double wire_read_p50_ms) {
  std::vector<double> bytes;
  for (const Record& record : run.records) {
    if (record.answered && record.spec.kind != Kind::kDelta) {
      bytes.push_back(static_cast<double>(record.bytes));
    }
  }
  std::vector<Metric> out = {
      {"net.bytes_per_req", Mean(bytes), "bytes"},
      {"net.residual_p50_ms", wire_read_p50_ms - report.engine_p50_ms, "ms"},
      {"engine.plan_builds", static_cast<double>(run.plan_builds), "count"},
      {"engine.retained_snapshots_max",
       static_cast<double>(run.retained_snapshots_max), "count"},
  };
  out.insert(out.end(), report.metrics.begin(), report.metrics.end());
  return out;
}

}  // namespace perfbench
