// The wire-level load generator. One process, two threads: a sender
// that issues requests at their due times (open loop) and the tc-churn
// deltas, and a receiver that polls every connection, reassembles
// responses, and keeps the closed-loop windows full. Latency runs from
// each request's due time, so a stalled server charges the wait to
// every request it delayed (the coordinated-omission correction).

#include "loadgen.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "net/wire.h"
#include "service/service.h"
#include "util/mutex.h"
#include "util/socket.h"

namespace perfbench {

namespace wp = whyprov;
namespace net = whyprov::net;
using Clock = std::chrono::steady_clock;

namespace {

constexpr double kStatsPeriodSeconds = 0.25;
constexpr double kWarmupSeconds = 1.5;
constexpr double kDrainTimeoutSeconds = 30;
/// Launches per run; setup_s is their median.
constexpr std::size_t kSetupRepeats = 9;

/// whyprov_server as a child process: stdin is its stop signal (EOF),
/// stdout announces the bound port.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  std::string Launch(const std::vector<std::string>& argv) {
    int in[2];
    int out[2];
    if (::pipe2(in, O_CLOEXEC) != 0) return "pipe failed";
    if (::pipe2(out, O_CLOEXEC) != 0) {
      ::close(in[0]);
      ::close(in[1]);
      return "pipe failed";
    }
    std::vector<char*> args;
    for (const std::string& arg : argv) {
      args.push_back(const_cast<char*>(arg.c_str()));
    }
    args.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ == 0) {
      ::dup2(in[0], 0);
      ::dup2(out[1], 1);
      ::execv(args[0], args.data());
      ::_exit(127);
    }
    ::close(in[0]);
    ::close(out[1]);
    stdin_fd_ = in[1];
    stdout_fd_ = out[0];
    if (pid_ < 0) return "fork failed";

    // Wait for "serving '...' on 127.0.0.1:PORT".
    std::string line;
    const auto deadline = Clock::now() + std::chrono::seconds(120);
    while (Clock::now() < deadline) {
      pollfd fd{stdout_fd_, POLLIN, 0};
      if (::poll(&fd, 1, 100) <= 0) continue;
      char c = 0;
      if (::read(stdout_fd_, &c, 1) != 1) return "server exited during set-up";
      if (c != '\n') {
        line += c;
        continue;
      }
      const std::size_t at = line.find("127.0.0.1:");
      if (at != std::string::npos) {
        port_ = static_cast<std::uint16_t>(std::atoi(line.c_str() + at + 10));
        return port_ != 0 ? "" : "server printed no port";
      }
      line.clear();
    }
    return "server did not announce its port";
  }

  std::uint16_t port() const { return port_; }

  /// VmHWM of the child: its peak resident set so far.
  double PeakRssMb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (status >> key) {
      if (key == "VmHWM:") {
        double kb = 0;
        status >> kb;
        return kb / 1024.0;
      }
    }
    return 0;
  }

  /// Closes stdin (the server's stop signal) and reaps the child,
  /// killing it if it has not exited within 20 s.
  void Stop() {
    if (stdin_fd_ >= 0) ::close(stdin_fd_);
    stdin_fd_ = -1;
    if (pid_ > 0) {
      const auto deadline = Clock::now() + std::chrono::seconds(20);
      int status = 0;
      while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (Clock::now() > deadline) {
          ::kill(pid_, SIGKILL);
          ::waitpid(pid_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      pid_ = -1;
    }
    if (stdout_fd_ >= 0) ::close(stdout_fd_);
    stdout_fd_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  std::uint16_t port_ = 0;
};

struct Conn {
  wp::util::Socket socket;
  /// Serialises frame writes (sender thread vs the receiver's closed-loop
  /// refills). Never held while waiting for `inflight_mutex` readers.
  wp::util::Mutex write_mutex;
  wp::util::Mutex inflight_mutex;
  /// Record indices in submission order: the server answers in it.
  std::deque<std::size_t> inflight GUARDED_BY(inflight_mutex);
  /// Members streamed so far for the request at the front (receiver).
  std::vector<std::vector<std::string>> streamed;
};

class LoadGen {
 public:
  LoadGen(const Stream& stream, const WireOptions& options, WireRun& run,
          std::uint64_t base_version)
      : stream_(stream), options_(options), run_(run), base_(base_version) {
    acked_version_ = base_version;
  }

  std::string Connect(std::uint16_t port) {
    const std::size_t count =
        options_.read_connections + (stream_.workload->churn ? 1 : 0);
    for (std::size_t i = 0; i < count; ++i) {
      auto socket = wp::util::ConnectTcp("127.0.0.1", port);
      if (!socket.ok()) return "connect failed: " + socket.status().message();
      conns_.push_back(std::make_unique<Conn>());
      conns_.back()->socket = std::move(socket).value();
    }
    return "";
  }

  std::string Run() {
    const Workload& workload = *stream_.workload;
    const double s = options_.seconds;
    const double durations[kNumPhases] = {kWarmupSeconds, 0.3 * s, 0.4 * s,
                                          0.3 * s};
    std::size_t capacity = 1000;
    capacity += static_cast<std::size_t>(
        (durations[kWarmup] + durations[kCapacity]) * 40000);
    capacity += static_cast<std::size_t>(
        1.5 * (durations[kNominal] * workload.nominal_qps +
               durations[kBusy] * workload.busy_qps));
    capacity += static_cast<std::size_t>(
        2 * (kDeltaQps + 1 / kStatsPeriodSeconds) * (s + kWarmupSeconds));
    run_.records.resize(capacity);

    origin_ = Clock::now();
    std::thread receiver([this] { Receive(); });
    std::string error;
    for (int p = kWarmup; p < kNumPhases && error.empty(); ++p) {
      const Phase phase = static_cast<Phase>(p);
      if (phase == kCapacity) {
        error = Probe();
        if (!error.empty()) break;
        const wp::util::MutexLock lock(stats_mutex_);
        builds_before_ = last_stats_.plans_simplified;
      }
      const double rate = phase == kNominal ? workload.nominal_qps
                          : phase == kBusy  ? workload.busy_qps
                                            : 0;
      error = RunPhase(phase, durations[phase], rate);
    }
    if (error.empty()) error = Probe();
    stop_ = true;
    receiver.join();
    if (error.empty()) error = receiver_error_;
    run_.records.resize(std::min(next_record_.load(), run_.records.size()));
    {
      const wp::util::MutexLock lock(stats_mutex_);
      run_.retained_snapshots_max = retained_max_;
      run_.plan_builds = last_stats_.plans_simplified - builds_before_;
    }
    if (overflow_) error = "record capacity exceeded";
    return error;
  }

 private:
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  void SleepUntil(double t) const {
    std::this_thread::sleep_until(
        origin_ + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(t)));
  }

  std::string RunPhase(Phase phase, double duration, double read_rate) {
    const double start = Now();
    const double end = start + duration;
    run_.windows[phase] = {start, end};
    ReadMix reads_mix(stream_, phase);
    wp::util::Rng arrival_rng = PhaseRng(stream_.seed, 10 + phase);
    wp::util::Rng delta_rng = PhaseRng(stream_.seed, 20 + phase);
    const bool churn = stream_.workload->churn;
    const std::size_t reads = options_.read_connections;

    if (read_rate == 0) {
      // Closed loop: every read connection keeps a fixed window full;
      // the receiver sends the next read as each one completes.
      closed_phase_ = phase;
      closed_end_ = end;
      closed_active_ = true;
      for (std::size_t c = 0; c < reads; ++c) {
        for (std::size_t k = 0; k < stream_.workload->closed_window; ++k) {
          RequestSpec spec;
          {
            const wp::util::MutexLock lock(closed_mutex_);
            spec = closed_mix_.Next();
          }
          if (!Send(c, spec, phase, /*open_loop=*/false, Now())) {
            return "send failed";
          }
        }
      }
    }

    double next_read = read_rate > 0
                           ? start + PoissonGap(arrival_rng, read_rate)
                           : kInfinite;
    double next_delta =
        churn ? start + PoissonGap(delta_rng, kDeltaQps) : kInfinite;
    double next_stats =
        options_.poll_stats ? start + kStatsPeriodSeconds : kInfinite;
    std::size_t read_conn = 0;
    while (true) {
      const double due = std::min({next_read, next_delta, next_stats});
      if (due >= end) break;
      SleepUntil(due);
      bool ok = true;
      if (due == next_read) {
        ok = Send(read_conn, reads_mix.Next(), phase, true, due);
        read_conn = (read_conn + 1) % reads;
        next_read += PoissonGap(arrival_rng, read_rate);
      } else if (due == next_delta) {
        ok = OfferDelta(phase, due);
        next_delta += PoissonGap(delta_rng, kDeltaQps);
      } else {
        ok = SendStats(0);
        next_stats += kStatsPeriodSeconds;
      }
      if (!ok) return overflow_ ? "record capacity exceeded" : "send failed";
    }
    SleepUntil(end);
    closed_active_ = false;
    return Drain();
  }

  /// Deltas go out one at a time, in sequence order: the service applies
  /// concurrent deltas in whatever order its workers reach the delta
  /// lane, and an out-of-order pair would leave the churn chain's edges
  /// removed for good. A delta due while another is in flight waits in
  /// the backlog (its latency still runs from its due time) and the
  /// receiver sends it when the previous one completes.
  bool OfferDelta(Phase phase, double due) {
    RequestSpec spec;
    spec.kind = Kind::kDelta;
    {
      const wp::util::MutexLock lock(delta_mutex_);
      if (delta_in_flight_) {
        delta_backlog_.emplace_back(due, phase);
        return true;
      }
      delta_in_flight_ = true;
      spec.index = static_cast<std::uint32_t>(next_delta_index_++);
    }
    return spec.index < stream_.deltas.size() &&
           Send(options_.read_connections, spec, phase, true, due);
  }

  /// Receiver side of OfferDelta: sends the oldest waiting delta.
  bool NextDelta() {
    RequestSpec spec;
    spec.kind = Kind::kDelta;
    std::pair<double, Phase> next;
    {
      const wp::util::MutexLock lock(delta_mutex_);
      if (delta_backlog_.empty()) {
        delta_in_flight_ = false;
        return true;
      }
      next = delta_backlog_.front();
      delta_backlog_.pop_front();
      spec.index = static_cast<std::uint32_t>(next_delta_index_++);
    }
    return spec.index < stream_.deltas.size() &&
           Send(options_.read_connections, spec, next.second, true,
                next.first);
  }

  std::string Drain() {
    const double limit = Now() + kDrainTimeoutSeconds;
    while (outstanding_.load() > 0) {
      if (receiver_failed_) return receiver_error_;
      if (Now() > limit) return "responses did not drain";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return "";
  }

  std::string Probe() {
    if (!SendStats(0)) return "send failed";
    return Drain();
  }

  bool SendStats(std::size_t c) {
    net::StatsFrame frame;
    frame.request_id = ++stats_ids_ | (std::uint64_t{1} << 63);
    const std::string body = net::Encode(frame);
    Conn& conn = *conns_[c];
    const wp::util::MutexLock write(conn.write_mutex);
    {
      const wp::util::MutexLock lock(conn.inflight_mutex);
      conn.inflight.push_back(kStatsSlot);
    }
    ++outstanding_;
    return net::WriteFrame(conn.socket, net::kFrameStats, body).ok();
  }

  bool Send(std::size_t c, const RequestSpec& spec, Phase phase,
            bool open_loop, double due) {
    const std::size_t index = next_record_++;
    if (index >= run_.records.size()) {
      overflow_ = true;
      return false;
    }
    Record& record = run_.records[index];
    record.spec = spec;
    record.phase = phase;
    record.open_loop = open_loop;
    record.due = due;
    record.request_id = index + 1;
    record.version_lo = acked_version_.load();

    const RequestFrame frame =
        EncodeRequest(stream_, spec, record.request_id);
    if (spec.kind == Kind::kDelta) ++deltas_sent_;
    record.bytes = 5 + frame.body.size();

    Conn& conn = *conns_[c];
    const wp::util::MutexLock write(conn.write_mutex);
    record.sent = Now();
    if (!open_loop) record.due = record.sent;
    {
      const wp::util::MutexLock lock(conn.inflight_mutex);
      conn.inflight.push_back(index);
    }
    ++outstanding_;
    return net::WriteFrame(conn.socket, frame.type, frame.body).ok();
  }

  void Fail(const std::string& message) {
    if (receiver_error_.empty()) receiver_error_ = message;
    receiver_failed_ = true;
  }

  void Receive() {
    std::vector<pollfd> fds(conns_.size());
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      fds[c] = {conns_[c]->socket.fd(), POLLIN, 0};
    }
    while (!stop_ && !receiver_failed_) {
      if (::poll(fds.data(), fds.size(), 2) <= 0) continue;
      for (std::size_t c = 0; c < conns_.size(); ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        std::uint8_t type = 0;
        std::string body;
        if (!net::ReadFrame(conns_[c]->socket, &type, &body).ok()) {
          Fail("connection " + std::to_string(c) + " closed by the server");
          return;
        }
        Handle(c, type, body);
      }
    }
  }

  std::size_t Front(Conn& conn, bool pop) {
    const wp::util::MutexLock lock(conn.inflight_mutex);
    if (conn.inflight.empty()) return kNoSlot;
    const std::size_t index = conn.inflight.front();
    if (pop) conn.inflight.pop_front();
    return index;
  }

  void Handle(std::size_t c, std::uint8_t type, const std::string& body) {
    Conn& conn = *conns_[c];
    const double now = Now();
    const std::uint64_t frame_bytes = 5 + body.size();
    switch (type) {
      case net::kFrameMembers: {
        const std::size_t index = Front(conn, false);
        auto frame = net::DecodeMembers(body);
        if (index == kNoSlot || index == kStatsSlot || !frame.ok()) {
          return Fail("unexpected MEMBERS frame");
        }
        Record& record = run_.records[index];
        if (frame.value().request_id != record.request_id) {
          return Fail("MEMBERS frame for the wrong request");
        }
        if (conn.streamed.empty()) record.first_member = now;
        record.bytes += frame_bytes;
        for (auto& member : frame.value().members) {
          conn.streamed.push_back(std::move(member));
        }
        return;
      }
      case net::kFrameStatsReply: {
        const std::size_t index = Front(conn, true);
        auto frame = net::DecodeStatsReply(body);
        if (index != kStatsSlot || !frame.ok()) {
          return Fail("unexpected STATS_REPLY frame");
        }
        {
          const wp::util::MutexLock lock(stats_mutex_);
          last_stats_ = frame.value().stats;
          retained_max_ = std::max<std::uint64_t>(
              retained_max_, frame.value().stats.retained_snapshots);
        }
        --outstanding_;
        return;
      }
      case net::kFrameFinal:
        break;
      default: {
        auto error = net::DecodeError(body);
        return Fail("server error frame: " +
                    (error.ok() ? error.value().message : "undecodable"));
      }
    }
    const std::size_t index = Front(conn, true);
    auto decoded = net::DecodeFinal(body);
    if (index == kNoSlot || index == kStatsSlot || !decoded.ok()) {
      return Fail("unexpected FINAL frame");
    }
    const net::FinalFrame& frame = decoded.value();
    Record& record = run_.records[index];
    if (frame.request_id != record.request_id) {
      return Fail("FINAL frame for the wrong request");
    }
    record.final = now;
    record.status = frame.status_code;
    record.version = frame.model_version;
    record.version_hi = base_ + deltas_sent_.load();
    record.bytes += frame_bytes;
    std::string answer = "status=" + std::to_string(frame.status_code) + "\n";
    if (frame.status_code == WHYPROV_OK) {
      switch (record.spec.kind) {
        case Kind::kEnumerate:
          answer += CanonicalMembers(
              conn.streamed, frame.members_emitted, frame.enumerate_flags);
          break;
        case Kind::kDecide:
          answer += CanonicalVerdict(frame.verdict != 0);
          break;
        case Kind::kExplain:
          answer += frame.has_explanation != 0
                               ? CanonicalExplain(frame.explanation_member,
                                                  frame.proof_tree)
                               : "no-explanation\n";
          break;
        case Kind::kDelta: {
          const std::uint64_t counters[6] = {
              frame.delta.facts_added,   frame.delta.facts_removed,
              frame.delta.facts_derived, frame.delta.facts_deleted,
              frame.delta.facts_rederived, frame.delta.facts_touched};
          answer += CanonicalDelta(counters);
          std::uint64_t acked = acked_version_.load();
          while (frame.model_version > acked &&
                 !acked_version_.compare_exchange_weak(acked,
                                                       frame.model_version)) {
          }
          break;
        }
      }
    }
    record.answer = Digest(answer);
    conn.streamed.clear();
    record.answered = true;
    if (record.spec.kind == Kind::kDelta && !NextDelta()) {
      Fail(overflow_ ? "record capacity exceeded" : "delta send failed");
    }
    if (!record.open_loop && record.spec.kind != Kind::kDelta &&
        closed_active_ && now < closed_end_) {
      RequestSpec spec;
      {
        const wp::util::MutexLock lock(closed_mutex_);
        spec = closed_mix_.Next();
      }
      if (!Send(c, spec, closed_phase_, false, Now())) {
        Fail(overflow_ ? "record capacity exceeded" : "send failed");
      }
    }
    --outstanding_;
  }

  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  static constexpr std::size_t kStatsSlot = static_cast<std::size_t>(-2);

  const Stream& stream_;
  const WireOptions& options_;
  WireRun& run_;
  const std::uint64_t base_;
  std::vector<std::unique_ptr<Conn>> conns_;
  Clock::time_point origin_;

  std::atomic<std::size_t> next_record_{0};
  std::atomic<long> outstanding_{0};
  std::atomic<std::uint64_t> acked_version_{0};
  std::atomic<std::uint64_t> deltas_sent_{0};
  std::atomic<bool> overflow_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> receiver_failed_{false};
  std::string receiver_error_;  // written by the receiver before failing

  // Closed-loop state shared by the sender (initial fill) and receiver.
  wp::util::Mutex closed_mutex_;
  ReadMix closed_mix_ GUARDED_BY(closed_mutex_){stream_, kNumPhases};
  std::atomic<bool> closed_active_{false};
  std::atomic<double> closed_end_{0};
  std::atomic<Phase> closed_phase_{kWarmup};

  wp::util::Mutex delta_mutex_;
  bool delta_in_flight_ GUARDED_BY(delta_mutex_) = false;
  std::deque<std::pair<double, Phase>> delta_backlog_ GUARDED_BY(delta_mutex_);
  std::size_t next_delta_index_ GUARDED_BY(delta_mutex_) = 0;
  std::uint64_t stats_ids_ = 0;       // sender only

  wp::util::Mutex stats_mutex_;
  whyprov_stats last_stats_ GUARDED_BY(stats_mutex_) = {};
  std::uint64_t retained_max_ GUARDED_BY(stats_mutex_) = 0;
  std::uint64_t builds_before_ = 0;
};

std::string WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return out.good() ? "" : "cannot write " + path;
}

}  // namespace

RequestFrame EncodeRequest(const Stream& stream, const RequestSpec& spec,
                           std::uint64_t request_id) {
  const Target& target = stream.targets[spec.target];
  switch (spec.kind) {
    case Kind::kEnumerate: {
      net::EnumerateFrame frame;
      frame.request_id = request_id;
      frame.target = target.text;
      frame.max_members = kMaxMembers;
      frame.deadline_seconds = kDeadlineSeconds;
      frame.stream = 1;
      frame.batch_size = 1;  // each member in its own frame
      return {net::kFrameEnumerate, net::Encode(frame)};
    }
    case Kind::kDecide: {
      net::DecideFrame frame;
      frame.request_id = request_id;
      frame.target = target.text;
      frame.candidate_facts = target.candidates[spec.candidate];
      frame.deadline_seconds = kDeadlineSeconds;
      return {net::kFrameDecide, net::Encode(frame)};
    }
    case Kind::kExplain: {
      net::ExplainFrame frame;
      frame.request_id = request_id;
      frame.target = target.text;
      frame.member_index = spec.index;
      frame.deadline_seconds = kDeadlineSeconds;
      return {net::kFrameExplain, net::Encode(frame)};
    }
    case Kind::kDelta:
      break;
  }
  net::DeltaFrame frame;
  frame.request_id = request_id;
  frame.added_facts = stream.deltas[spec.index].added;
  frame.removed_facts = stream.deltas[spec.index].removed;
  frame.deadline_seconds = kDeadlineSeconds;
  return {net::kFrameDelta, net::Encode(frame)};
}

std::string WriteHistory(const Stream& stream, const std::string& dir) {
  wp::EngineOptions options;
  options.data_dir = dir;
  auto engine = wp::Engine::FromText(stream.program_text, stream.database_text,
                                     stream.answer_predicate, options);
  if (!engine.ok()) return engine.status().message();
  wp::Service service(std::move(engine).value());
  for (const Delta& delta : stream.history) {
    wp::DeltaRequest op;
    op.added_fact_texts = delta.added;
    op.removed_fact_texts = delta.removed;
    wp::Request request;
    request.op = std::move(op);
    auto ticket = service.Submit(std::move(request));
    if (!ticket.ok()) return ticket.status().message();
    if (!ticket.value().Wait().status.ok()) {
      return ticket.value().Wait().status.message();
    }
  }
  return "";
}

WireRun RunWire(const Stream& stream, const WireOptions& options) {
  namespace fs = std::filesystem;
  WireRun run;
  const std::string program = options.workdir + "/program.dl";
  const std::string database = options.workdir + "/database.dl";
  run.error = WriteFile(program, stream.program_text);
  if (run.error.empty()) run.error = WriteFile(database, stream.database_text);
  const std::string seeded = options.workdir + "/seeded";
  if (run.error.empty() && stream.workload->churn) {
    run.error = WriteHistory(stream, seeded);
  }
  if (!run.error.empty()) return run;

  // Set-up, several times: launch to the first answered request. Each
  // launch gets a fresh data_dir (a copy of the seeded history on
  // tc-churn); the last server stays up for the load phases.
  ServerProcess server;
  for (std::size_t k = 0; k < kSetupRepeats; ++k) {
    server.Stop();
    std::vector<std::string> argv = {options.server_binary,
                                     "--port=0",
                                     "--program=" + program,
                                     "--database=" + database,
                                     "--answer=" + stream.answer_predicate};
    if (stream.workload->churn) {
      const std::string dir = options.workdir + "/data-" + std::to_string(k);
      std::error_code ec;
      fs::copy(seeded, dir, fs::copy_options::recursive, ec);
      if (ec) {
        run.error = "cannot copy the seeded data_dir: " + ec.message();
        return run;
      }
      argv.push_back("--data-dir=" + dir);
    }
    const auto start = Clock::now();
    run.error = server.Launch(argv);
    if (!run.error.empty()) return run;
    auto socket = wp::util::ConnectTcp("127.0.0.1", server.port());
    if (!socket.ok()) {
      run.error = "connect failed: " + socket.status().message();
      return run;
    }
    std::uint8_t type = 0;
    std::string body;
    if (!net::WriteFrame(socket.value(), net::kFrameStats,
                         net::Encode(net::StatsFrame{1}))
             .ok() ||
        !net::ReadFrame(socket.value(), &type, &body).ok() ||
        type != net::kFrameStatsReply) {
      run.error = "no answer to the first request";
      return run;
    }
    run.setup_seconds.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
  }

  LoadGen load(stream, options, run, stream.reference->model_version());
  run.error = load.Connect(server.port());
  if (run.error.empty()) run.error = load.Run();
  run.peak_rss_mb = server.PeakRssMb();
  server.Stop();
  return run;
}

}  // namespace perfbench
