// Workload definitions and the seeded request stream.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "bench.h"
#include "datalog/parser.h"
#include "util/mutex.h"

namespace perfbench {

namespace wp = whyprov;

namespace {

/// The databases stay at the repository's bench-suite seed so their
/// sizes match the ones documented in perfbench/README.md; the run seed
/// drives everything offered to the server.
constexpr std::uint64_t kSuiteSeed = 20240611;

wp::scenarios::GeneratedScenario MakeTc() {
  return wp::scenarios::MakeTransClosure(wp::scenarios::GraphKind::kSparse,
                                         600, 900, kSuiteSeed);
}

wp::scenarios::GeneratedScenario MakeGalen() {
  return wp::scenarios::MakeGalen(20, kSuiteSeed);
}

/// Rates are frozen from the capacity measured on a 4-vCPU VM
/// (perfbench/README.md, "Load shape"): nominal about 1/4, busy about 2/5.
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = [] {
    std::vector<Workload> all(3);
    all[0].name = "tc-hot";
    all[0].pool_size = 32;
    all[0].zipf = true;
    all[0].nominal_qps = 2800;
    all[0].busy_qps = 5000;
    all[0].closed_window = 8;
    all[0].make = MakeTc;

    all[1].name = "galen-cold";
    all[1].pool_size = 0;
    all[1].nominal_qps = 22;
    all[1].busy_qps = 40;
    all[1].closed_window = 4;
    all[1].make = MakeGalen;

    all[2].name = "tc-churn";
    all[2].pool_size = 32;
    all[2].zipf = true;
    all[2].churn = true;
    all[2].nominal_qps = 2000;
    all[2].busy_qps = 4000;
    all[2].closed_window = 8;
    all[2].make = MakeTc;
    return all;
  }();
  return workloads;
}

std::vector<std::string> Render(const wp::Engine& engine,
                                const std::vector<wp::datalog::Fact>& facts) {
  std::vector<std::string> out;
  out.reserve(facts.size());
  for (const wp::datalog::Fact& fact : facts) {
    out.push_back(engine.FactToText(fact));
  }
  return out;
}

/// The base-version members of every target, `threads` at a time.
void EnumerateTargets(const wp::Engine& engine, std::vector<Target>& targets,
                      std::size_t threads) {
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (std::size_t i = next++; i < targets.size(); i = next++) {
      wp::EnumerateRequest request;
      request.target = targets[i].id;
      request.max_members = kMaxMembers;
      auto enumeration = engine.Enumerate(request);
      if (!enumeration.ok()) continue;
      while (auto member = enumeration.value().Next()) {
        targets[i].members.push_back(Render(engine, *member));
      }
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < std::max<std::size_t>(1, threads); ++t) {
    pool.emplace_back(work);
  }
  work();
  for (std::thread& thread : pool) thread.join();
}

/// Two member candidates and two perturbed ones per target: a member
/// minus its last fact (a broken derivation), or, for one-fact members,
/// plus a database fact it does not contain.
void MakeCandidates(const std::vector<std::string>& database_facts,
                    Target& target, wp::util::Rng& rng) {
  if (target.members.empty()) return;
  for (int i = 0; i < 2; ++i) {
    const auto& member =
        target.members[rng.UniformInt(target.members.size())];
    target.candidates.push_back(member);
  }
  for (int i = 0; i < 2; ++i) {
    std::vector<std::string> facts =
        target.members[rng.UniformInt(target.members.size())];
    if (facts.size() >= 2) {
      facts.pop_back();
    } else {
      for (int tries = 0; tries < 16; ++tries) {
        const std::string& extra =
            database_facts[rng.UniformInt(database_facts.size())];
        if (std::find(facts.begin(), facts.end(), extra) == facts.end()) {
          facts.push_back(extra);
          break;
        }
      }
    }
    target.candidates.push_back(std::move(facts));
  }
}

/// The churn chain: delta k removes kEdgesPerDelta fresh random edges
/// and restores the ones delta k-1 removed. Applied in order, the
/// database never drifts more than one delta from the scenario's.
std::vector<Delta> MakeChurn(const std::vector<std::string>& edges,
                             std::size_t count, wp::util::Rng& rng,
                             std::vector<std::string>& removed) {
  std::vector<Delta> deltas;
  deltas.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    Delta delta;
    delta.added = removed;
    while (delta.removed.size() < kEdgesPerDelta) {
      const std::string& edge = edges[rng.UniformInt(edges.size())];
      if (std::find(removed.begin(), removed.end(), edge) == removed.end() &&
          std::find(delta.removed.begin(), delta.removed.end(), edge) ==
              delta.removed.end()) {
        delta.removed.push_back(edge);
      }
    }
    removed = delta.removed;
    deltas.push_back(std::move(delta));
  }
  return deltas;
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : Workloads()) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kEnumerate:
      return "enumerate";
    case Kind::kDecide:
      return "decide";
    case Kind::kExplain:
      return "explain";
    case Kind::kDelta:
      return "delta";
  }
  return "?";
}

const char* PhaseName(Phase phase) {
  switch (phase) {
    case kWarmup:
      return "warmup";
    case kCapacity:
      return "capacity";
    case kNominal:
      return "nominal";
    case kBusy:
      return "busy";
    default:
      return "?";
  }
}

wp::util::Rng PhaseRng(std::uint64_t seed, std::uint64_t phase) {
  return wp::util::Rng(seed * 0x9E3779B97F4A7C15ULL + phase * 7919 + 1);
}

double PoissonGap(wp::util::Rng& rng, double rate) {
  return -std::log(1.0 - rng.UniformDouble()) / rate;
}

ReadMix::ReadMix(const Stream& stream, std::uint64_t phase)
    : stream_(stream), rng_(PhaseRng(stream.seed, phase)) {}

RequestSpec ReadMix::Next() {
  if (kind_pos_ == kinds_.size()) {
    kinds_.assign(kEnumeratePerTen, Kind::kEnumerate);
    kinds_.insert(kinds_.end(), kDecidePerTen, Kind::kDecide);
    kinds_.resize(10, Kind::kExplain);
    rng_.Shuffle(kinds_);
    kind_pos_ = 0;
  }
  RequestSpec spec;
  spec.kind = kinds_[kind_pos_++];
  const std::size_t pool = stream_.targets.size();
  if (!stream_.zipf_cdf.empty()) {
    const double u = rng_.UniformDouble();
    spec.target = static_cast<std::uint32_t>(std::min<std::size_t>(
        pool - 1,
        std::lower_bound(stream_.zipf_cdf.begin(), stream_.zipf_cdf.end(), u) -
            stream_.zipf_cdf.begin()));
  } else {
    if (order_pos_ == order_.size()) {
      order_.resize(pool);
      for (std::size_t i = 0; i < pool; ++i) {
        order_[i] = static_cast<std::uint32_t>(i);
      }
      rng_.Shuffle(order_);
      order_pos_ = 0;
    }
    spec.target = order_[order_pos_++];
  }
  const Target& target = stream_.targets[spec.target];
  if (target.members.empty()) {
    spec.kind = Kind::kEnumerate;
  } else if (spec.kind == Kind::kDecide) {
    spec.candidate =
        static_cast<std::uint32_t>(rng_.UniformInt(target.candidates.size()));
  } else if (spec.kind == Kind::kExplain) {
    spec.index =
        static_cast<std::uint32_t>(rng_.UniformInt(target.members.size()));
  }
  return spec;
}

std::unique_ptr<Stream> MakeStream(const Workload& workload,
                                   std::uint64_t seed, std::size_t threads) {
  auto stream = std::make_unique<Stream>();
  stream->workload = &workload;
  stream->seed = seed;
  wp::scenarios::GeneratedScenario scenario = workload.make();
  stream->program_text = scenario.program.ToString();
  stream->database_text = scenario.database.ToString();
  stream->answer_predicate = scenario.answer_predicate;

  auto engine = wp::Engine::FromText(stream->program_text,
                                     stream->database_text,
                                     stream->answer_predicate);
  if (!engine.ok()) return nullptr;
  stream->reference = std::make_unique<wp::Engine>(std::move(engine).value());
  stream->reference_eval_seconds = stream->reference->eval_seconds();
  wp::Engine& reference = *stream->reference;

  std::vector<std::string> database_facts =
      Render(reference, reference.database().facts());
  wp::util::Rng rng = PhaseRng(seed, 100);

  // Every workload gets a delta chain: tc-churn sends it, and the traced
  // run probes the delta and storage layers with it on the others. The
  // chain is part of the workload, like the target pool: which edges
  // churn, and in which order, decides which hot plans the deltas
  // invalidate and how often a hot target is briefly absent, and with a
  // per-seed chain capacity moved 1.5x between seeds. The seed still
  // drives when each delta is due.
  std::vector<std::string> churn_pool = database_facts;
  wp::util::Rng chain_rng(kSuiteSeed);
  chain_rng.Shuffle(churn_pool);
  churn_pool.resize(std::min(churn_pool.size(), kChurnPool));
  std::vector<std::string> removed;
  if (workload.churn) {
    stream->history =
        MakeChurn(churn_pool, kHistoryDeltas, chain_rng, removed);
  }
  stream->deltas = MakeChurn(churn_pool,
                             static_cast<std::size_t>(kDeltaQps * 200),
                             chain_rng, removed);

  // The pool is part of the workload, not of the seed: a seed that made
  // an expensive answer the Zipf head would change the work itself, and
  // runs with different seeds would no longer measure the same thing.
  // It is sampled before the history, so tc-churn reads exactly the
  // targets tc-hot reads.
  const std::vector<wp::datalog::FactId> ids =
      workload.pool_size == 0 ? reference.AnswerFactIds()
                              : reference.SampleAnswers(workload.pool_size);
  for (wp::datalog::FactId id : ids) {
    Target target;
    target.id = id;
    target.text = reference.FactToText(id);
    stream->targets.push_back(std::move(target));
  }
  if (stream->targets.empty()) return nullptr;

  for (const Delta& delta : stream->history) {
    wp::DeltaRequest request;
    request.added_fact_texts = delta.added;
    request.removed_fact_texts = delta.removed;
    if (!reference.ApplyDelta(request).ok()) return nullptr;
  }

  if (workload.zipf) {
    double total = 0;
    for (std::size_t k = 1; k <= stream->targets.size(); ++k) {
      total += 1.0 / static_cast<double>(k);
    }
    double running = 0;
    for (std::size_t k = 1; k <= stream->targets.size(); ++k) {
      running += 1.0 / static_cast<double>(k) / total;
      stream->zipf_cdf.push_back(running);
    }
  }

  EnumerateTargets(reference, stream->targets, threads);
  for (Target& target : stream->targets) {
    MakeCandidates(database_facts, target, rng);
  }
  return stream;
}

}  // namespace perfbench
