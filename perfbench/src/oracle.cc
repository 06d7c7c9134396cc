// The answer oracle: every wire response is checked against an
// in-process reference engine built from the same scenario, at the
// model version the response reports. On tc-churn the reference walks
// the same delta sequence after the timed phases end, so each version
// is visited once and every read answered at it is checked there.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <thread>
#include <tuple>

#include "bench.h"
#include "net/whyprov_c.h"
#include "util/mutex.h"

namespace perfbench {

namespace wp = whyprov;

std::string CanonicalMembers(const std::vector<std::vector<std::string>>& m,
                             std::uint64_t emitted, std::uint32_t flags) {
  std::string out = "members=" + std::to_string(emitted) +
                    " flags=" + std::to_string(flags) + "\n";
  for (const auto& member : m) {
    out += "{";
    for (std::size_t i = 0; i < member.size(); ++i) {
      if (i > 0) out += ", ";
      out += member[i];
    }
    out += "}\n";
  }
  return out;
}

std::string CanonicalVerdict(bool member) {
  return member ? "member\n" : "not-member\n";
}

std::string CanonicalExplain(const std::vector<std::string>& member,
                             const std::string& tree) {
  return CanonicalMembers({member}, 1, 0) + tree + "\n";
}

std::uint64_t Digest(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    hash = (hash ^ c) * 1099511628211ULL;
  }
  return hash;
}

std::string CanonicalDelta(const std::uint64_t counters[6]) {
  std::string out = "delta";
  for (int i = 0; i < 6; ++i) {
    out += ' ';
    out += std::to_string(counters[i]);
  }
  return out + "\n";
}

namespace {

std::string StatusText(int code) {
  return "status=" + std::to_string(code) + "\n";
}

using Key = std::tuple<Kind, std::uint32_t, std::uint32_t>;

Key KeyOf(const RequestSpec& spec) {
  return {spec.kind, spec.target,
          spec.kind == Kind::kDecide    ? spec.candidate
          : spec.kind == Kind::kExplain ? spec.index
                                        : 0};
}

}  // namespace

std::string ReferenceText(const wp::Engine& engine, const Stream& stream,
                          const Candidates& candidates,
                          const RequestSpec& spec) {
  const Target& target = stream.targets[spec.target];
  switch (spec.kind) {
    case Kind::kEnumerate: {
      wp::EnumerateRequest request;
      request.target_text = target.text;
      request.max_members = kMaxMembers;
      auto enumeration = engine.Enumerate(request);
      if (!enumeration.ok()) {
        return StatusText(static_cast<int>(enumeration.status().code()));
      }
      std::vector<std::vector<std::string>> members;
      while (auto member = enumeration.value().Next()) {
        std::vector<std::string> rendered;
        for (const auto& fact : *member) {
          rendered.push_back(engine.FactToText(fact));
        }
        members.push_back(std::move(rendered));
      }
      const wp::Enumeration& done = enumeration.value();
      if (!done.interruption_status().ok()) {
        return StatusText(static_cast<int>(done.interruption_status().code()));
      }
      std::uint32_t flags = 0;
      if (done.exhausted()) flags |= WHYPROV_ENUM_EXHAUSTED;
      if (done.incomplete()) flags |= WHYPROV_ENUM_INCOMPLETE;
      if (done.hit_member_cap()) flags |= WHYPROV_ENUM_HIT_MEMBER_CAP;
      if (done.hit_timeout()) flags |= WHYPROV_ENUM_HIT_TIMEOUT;
      return StatusText(0) +
             CanonicalMembers(members, members.size(), flags);
    }
    case Kind::kDecide: {
      wp::DecideRequest request;
      request.target_text = target.text;
      request.candidate = candidates[spec.target][spec.candidate];
      auto verdict = engine.Decide(request);
      if (!verdict.ok()) {
        return StatusText(static_cast<int>(verdict.status().code()));
      }
      return StatusText(0) + CanonicalVerdict(verdict.value());
    }
    case Kind::kExplain: {
      wp::ExplainRequest request;
      request.target_text = target.text;
      request.member_index = spec.index;
      auto explanation = engine.Explain(request);
      if (!explanation.ok()) {
        return StatusText(static_cast<int>(explanation.status().code()));
      }
      std::vector<std::string> member;
      for (const auto& fact : explanation.value().member) {
        member.push_back(engine.FactToText(fact));
      }
      std::string tree;
      {
        const auto state = engine.PinSnapshot();
        const wp::util::MutexLock lock(*state->parse_mutex);
        tree = explanation.value().tree.ToString(engine.program().symbols());
      }
      return StatusText(0) + CanonicalExplain(member, tree);
    }
    case Kind::kDelta:
      break;
  }
  return "?";
}

namespace {

/// Computes the reference answer of every key, `threads` at a time.
std::map<Key, std::string> ComputeAll(const wp::Engine& engine,
                                      const Stream& stream,
                                      const Candidates& candidates,
                                      const std::vector<RequestSpec>& specs,
                                      std::size_t threads) {
  std::vector<std::string> answers(specs.size());
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (std::size_t i = next++; i < specs.size(); i = next++) {
      answers[i] = ReferenceText(engine, stream, candidates, specs[i]);
    }
  };
  std::vector<std::thread> pool;
  const std::size_t helpers =
      std::min(std::max<std::size_t>(1, threads), specs.size());
  for (std::size_t t = 1; t < helpers; ++t) pool.emplace_back(work);
  work();
  for (std::thread& thread : pool) thread.join();
  std::map<Key, std::string> out;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    out.emplace(KeyOf(specs[i]), std::move(answers[i]));
  }
  return out;
}

std::string Describe(const Record& record, std::size_t index,
                     const Stream& stream) {
  std::string text = "request #" + std::to_string(index) + " (" +
                     PhaseName(record.phase) + ", " +
                     KindName(record.spec.kind);
  if (record.spec.kind != Kind::kDelta) {
    text += " " + stream.targets[record.spec.target].text;
    if (record.spec.kind == Kind::kDecide) {
      text += " candidate " + std::to_string(record.spec.candidate);
    } else if (record.spec.kind == Kind::kExplain) {
      text += " member " + std::to_string(record.spec.index);
    }
  } else {
    text += ' ';
    text += std::to_string(record.spec.index);
  }
  return text + ", version " + std::to_string(record.version) + ")";
}

}  // namespace

bool IsServingFailure(std::uint8_t status) {
  return status == WHYPROV_RESOURCE_EXHAUSTED ||
         status == WHYPROV_CANCELLED || status == WHYPROV_DEADLINE_EXCEEDED;
}

std::vector<std::string> CheckRecords(Stream& stream,
                                      const std::vector<Record>& records,
                                      std::size_t threads,
                                      std::vector<bool>* verified) {
  std::vector<std::string> mismatches;
  verified->assign(records.size(), false);
  wp::Engine& reference = *stream.reference;
  const std::uint64_t base = reference.model_version();

  const auto candidates = ParseCandidates(reference, stream);

  // Deltas in the order the server applied them. The service applies
  // deltas one at a time but does not promise submission order for
  // deltas pipelined without waiting (docs/ARCHITECTURE.md, invariant
  // 3), so the reference follows the versions the server reported; they
  // must be exactly base+1, base+2, ... with no gap or repeat. Reads are
  // bucketed by the version they may be checked at: exactly the reported
  // one when answered OK, any version the request was in flight across
  // when it failed (a failed response carries no version).
  std::vector<std::size_t> deltas;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].answered && records[i].spec.kind == Kind::kDelta) {
      deltas.push_back(i);
    }
  }
  std::sort(deltas.begin(), deltas.end(), [&](std::size_t a, std::size_t b) {
    return records[a].version < records[b].version;
  });
  for (std::size_t k = 0; k < deltas.size(); ++k) {
    if (records[deltas[k]].version != base + 1 + k) {
      mismatches.push_back(Describe(records[deltas[k]], deltas[k], stream) +
                           ": expected the next applied version " +
                           std::to_string(base + 1 + k));
      return mismatches;
    }
  }
  const std::uint64_t top = base + deltas.size();

  std::map<std::uint64_t, std::vector<std::size_t>> exact;
  std::vector<std::size_t> failed_reads;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& record = records[i];
    if (!record.answered || record.spec.kind == Kind::kDelta) continue;
    if (record.status == WHYPROV_OK) {
      if (record.version < std::max(base, record.version_lo) ||
          record.version > std::min(top, record.version_hi)) {
        mismatches.push_back(
            Describe(record, i, stream) + ": version outside [" +
            std::to_string(std::max(base, record.version_lo)) + ", " +
            std::to_string(std::min(top, record.version_hi)) + "]");
        continue;
      }
      exact[record.version].push_back(i);
    } else if (!IsServingFailure(record.status)) {
      failed_reads.push_back(i);
    }
  }
  std::vector<bool> failure_matched(records.size(), false);

  for (std::uint64_t version = base; version <= top; ++version) {
    std::vector<std::size_t> due;
    if (auto it = exact.find(version); it != exact.end()) due = it->second;
    for (std::size_t i : failed_reads) {
      if (!failure_matched[i] && records[i].version_lo <= version &&
          version <= records[i].version_hi) {
        due.push_back(i);
      }
    }
    std::map<Key, RequestSpec> distinct;
    for (std::size_t i : due) {
      distinct.emplace(KeyOf(records[i].spec), records[i].spec);
    }
    std::vector<RequestSpec> specs;
    for (const auto& [key, spec] : distinct) specs.push_back(spec);
    const std::map<Key, std::string> answers =
        ComputeAll(reference, stream, candidates, specs, threads);
    for (std::size_t i : due) {
      const std::string& expected = answers.at(KeyOf(records[i].spec));
      if (records[i].status != WHYPROV_OK) {
        if (Digest(expected) == records[i].answer) {
          failure_matched[i] = true;
          (*verified)[i] = true;
        }
        continue;
      }
      if (Digest(expected) == records[i].answer) {
        (*verified)[i] = true;
      } else {
        mismatches.push_back(Describe(records[i], i, stream) +
                             ": response differs from the reference, "
                             "which answers\n" + expected);
      }
    }
    if (version == top) break;

    // Advance the reference through the next delta and check the
    // delta's own response (version and fact counters).
    const Record& delta_record = records[deltas[version - base]];
    const Delta& delta = stream.deltas[delta_record.spec.index];
    wp::DeltaRequest request;
    request.added_fact_texts = delta.added;
    request.removed_fact_texts = delta.removed;
    auto applied = reference.ApplyDelta(request);
    if (!applied.ok()) {
      mismatches.push_back(Describe(delta_record, deltas[version - base],
                                    stream) +
                           ": the reference rejected the delta: " +
                           applied.status().message());
      return mismatches;
    }
    const wp::DeltaStats& stats = applied.value();
    const std::uint64_t counters[6] = {
        stats.facts_added,   stats.facts_removed,   stats.facts_derived,
        stats.facts_deleted, stats.facts_rederived, stats.facts_touched};
    const std::string expected = StatusText(0) + CanonicalDelta(counters);
    if (delta_record.status != WHYPROV_OK ||
        delta_record.version != stats.model_version ||
        delta_record.answer != Digest(expected)) {
      mismatches.push_back(
          Describe(delta_record, deltas[version - base], stream) +
          ": delta response differs from the reference (reference version " +
          std::to_string(stats.model_version) + "), which answers\n" +
          expected);
      return mismatches;
    }
    (*verified)[deltas[version - base]] = true;
  }
  for (std::size_t i : failed_reads) {
    if (!failure_matched[i]) {
      mismatches.push_back(Describe(records[i], i, stream) + ": status " +
                           std::to_string(records[i].status) +
                           " matches the reference at no version in [" +
                           std::to_string(records[i].version_lo) + ", " +
                           std::to_string(records[i].version_hi) + "]");
    }
  }
  return mismatches;
}

}  // namespace perfbench
