// Coordinator half of the sharded sweep: plans shards, places attempts
// on workers through a Transport (fork+pipe or supervised sockets —
// hec/shard/transport.h), supervises them through the lease table, and
// merges the per-shard frontiers. See hec/shard/shard.h for the
// robustness model.
//
// Threading: exactly one extra thread — the monitor (a PeriodicTask)
// that scans the lease table and queues revocations. All process and
// socket operations happen on the caller's thread. The monitor
// callback and fork() serialise on one mutex, so a child is never
// created while the monitor is mid-operation and the child never
// inherits a locked lock it could trip over.
#include "hec/shard/shard.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include <poll.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "hec/bench/json.h"
#include "hec/config/evaluate.h"
#include "hec/obs/obs.h"
#include "hec/parallel/periodic.h"
#include "hec/pareto/streaming.h"
#include "hec/resilience/journal.h"
#include "hec/shard/lease.h"
#include "hec/shard/protocol.h"
#include "hec/shard/result_file.h"
#include "hec/shard/telemetry.h"
#include "hec/shard/transport.h"
#include "hec/sweep/kernel.h"
#include "hec/util/atomic_file.h"
#include "hec/util/failpoint.h"
#include "internal.h"

namespace hec::shard {

namespace {

using Clock = std::chrono::steady_clock;

struct ShardState {
  IndexRange range;
  std::size_t attempts = 0;  ///< spawns so far (every respawn costs budget)
  bool complete = false;
  bool failed = false;  ///< retry budget exhausted
  double eligible_at_s = 0.0;
  std::vector<TimeEnergyPoint> frontier;
};

struct RunningWorker {
  std::unique_ptr<WorkerLink> link;
  std::size_t shard = 0;
  std::uint64_t attempt = 0;
  /// How the attempt's messages concluded it this turn: recycle the
  /// link for the next assignment (D delivered a loadable result, or F
  /// — the connection itself behaved), or quarantine it (garbage or a
  /// D without a result: the peer is broken, never reuse the link).
  enum class Concluded { kNo, kRecycle, kQuarantine } concluded =
      Concluded::kNo;
};

/// Restores the previous SIGPIPE disposition on scope exit. The
/// coordinator writes to worker links (socket assignments, pings); a
/// peer dying mid-write must surface as EPIPE on the write loop, never
/// as SIGPIPE process death.
struct SigPipeGuard {
  void (*previous)(int);
  SigPipeGuard() { previous = std::signal(SIGPIPE, SIG_IGN); }
  ~SigPipeGuard() {
    if (previous != SIG_ERR) std::signal(SIGPIPE, previous);
  }
};

void make_state_dir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0775) == 0 || errno == EEXIST) return;
  throw IoError("cannot create shard state dir '" + dir +
                "': " + std::strerror(errno));
}

/// Mints the per-run id that fingerprints telemetry sidecars and tags
/// the assignment lines. Wall clock + pid hashed together: two runs of
/// the same sweep in the same state directory must never collide, or a
/// stale sidecar could merge into the wrong run.
std::uint64_t mint_run_id() {
  const auto wall =
      std::chrono::system_clock::now().time_since_epoch().count();
  return resilience::fnv1a64(std::to_string(wall) + ":" +
                             std::to_string(::getpid()));
}

/// Rate observed between an attempt's first and last cursor reports.
struct AttemptInfo {
  std::size_t shard = 0;
  pid_t pid = -1;
  bool saw_cursor = false;
  std::size_t first_cursor = 0;
  double first_seen_s = 0.0;
  std::size_t last_cursor = 0;
  double last_seen_s = 0.0;
  bool completed = false;
  bool superseded = false;

  double configs_per_s() const {
    if (!saw_cursor || last_seen_s <= first_seen_s ||
        last_cursor <= first_cursor) {
      return 0.0;
    }
    return static_cast<double>(last_cursor - first_cursor) /
           (last_seen_s - first_seen_s);
  }
};

/// The whole supervision state, shared between the caller's thread and
/// the monitor thread (only `lease` and `revocations` cross threads).
class Coordinator {
 public:
  Coordinator(const ShardedSweepSpec& spec, const ShardedSweepOptions& opts)
      : spec_(spec),
        opts_(opts),
        signature_(internal::sweep_signature(spec)),
        run_id_(mint_run_id()),
        merger_(telemetry_fingerprint(internal::sweep_signature(spec),
                                      run_id_)),
        lease_(opts.heartbeat_timeout_s, opts.progress_timeout_s),
        start_(Clock::now()) {}

  ShardedSweepResult run();

 private:
  double now_s() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  void plan_shards();
  void make_transport();
  bool load_result(std::size_t shard);
  bool try_reuse_result(std::size_t shard);
  bool spawn(std::size_t shard);
  void spawn_eligible();
  void drain_revocations();
  void pump_links();
  /// Drains worker `idx` and fully resolves what came out: messages,
  /// conclusion (recycle/quarantine), or death. May erase the entry.
  void service_link(std::size_t idx);
  /// Drops a connection that sent garbage (corrupt frame or malformed
  /// record) and requeues its shard. Socket-transport only; the same
  /// connection is never retried.
  void quarantine(std::size_t idx, const std::string& why);
  void handle_line(RunningWorker& worker, const Message& m);
  void requeue(std::size_t shard, std::uint64_t attempt, const char* cause,
               bool backoff);
  void kill_all();
  std::optional<std::size_t> find_running(std::size_t shard,
                                          std::uint64_t attempt) const;
  bool work_remains() const;
  ShardedSweepResult finish();

  /// True when workers ship telemetry sidecars this run.
  bool telemetry_enabled() const {
#ifdef HEC_OBS_DISABLE
    return false;
#else
    return opts_.telemetry_interval_s >= 0.0;
#endif
  }
  /// Records a coordinator decision as an instant event for the merged
  /// trace's decisions track.
  void note(const char* name, std::string detail);
  /// Reads every known attempt's sidecar into the merger.
  void ingest_telemetry();
  /// Time-gated telemetry ingest + status/progress emission; called
  /// once per supervision-loop turn and unconditionally from finish().
  void observe(bool final_pass);
  /// Atomically replaces the hec-sweep-status/v1 document (and emits
  /// the opt-in stderr progress line).
  void write_status(bool final_pass);
  /// Indices covered so far: committed shards plus live lease progress.
  std::size_t configs_covered() const;

  const ShardedSweepSpec& spec_;
  const ShardedSweepOptions& opts_;
  const std::string signature_;
  const std::uint64_t run_id_;

  /// Declared before running_ so links are destroyed before their
  /// transport (links deregister fds / close sockets through it).
  std::unique_ptr<Transport> transport_;
  std::vector<ShardState> shards_;
  std::vector<RunningWorker> running_;
  std::uint64_t spawn_ordinal_ = 0;
  bool deadline_hit_ = false;
  ShardedSweepResult tally_;

  TelemetryMerger merger_;
  std::map<std::uint64_t, AttemptInfo> attempts_;
  std::vector<obs::InstantEvent> instants_;
  double last_ingest_s_ = 0.0;
  double last_status_s_ = 0.0;

  LeaseTable lease_;
  /// Serialises fork() with the monitor callback and guards
  /// `revocations_` (see file comment).
  std::mutex fork_mutex_;
  std::vector<LeaseRevocation> revocations_;
  const Clock::time_point start_;
};

void Coordinator::plan_shards() {
  const std::size_t parts =
      opts_.shards != 0 ? opts_.shards
                        : std::max<std::size_t>(1, 4 * opts_.workers);
  for (const IndexRange& range : slice_index_space(spec_.total, parts)) {
    ShardState state;
    state.range = range;
    shards_.push_back(std::move(state));
  }
  tally_.shards_total = shards_.size();
  tally_.configs_total = spec_.total;
}

/// Loads shard's result file if present and fingerprint-valid, marking
/// the shard complete. No reuse accounting — callers decide whether a
/// load counts as the first delivery or a recovery.
bool Coordinator::load_result(std::size_t shard) {
  ShardState& state = shards_[shard];
  if (state.complete) return true;
  const std::string path = shard_result_path(opts_.state_dir, shard);
  std::string why;
  std::optional<ShardResult> result =
      load_shard_result(path, signature_, state.range, &why);
  if (!result) {
    if (!why.empty()) {
      std::fprintf(stderr,
                   "warning: ignoring shard result %s (%s); recomputing "
                   "shard %zu from scratch\n",
                   path.c_str(), why.c_str(), shard);
    }
    return false;
  }
  state.complete = true;
  state.frontier = std::move(result->frontier);
  return true;
}

/// load_result plus recovery accounting: a result found on disk outside
/// the normal D-delivery path was salvaged, not computed this attempt.
bool Coordinator::try_reuse_result(std::size_t shard) {
  if (shards_[shard].complete || !load_result(shard)) {
    return shards_[shard].complete;
  }
  ++tally_.results_reused;
  HEC_COUNTER_INC("shard.results_reused");
  return true;
}

bool Coordinator::spawn(std::size_t shard) {
  ShardState& state = shards_[shard];
  HEC_FAILPOINT_HIT("shard.assign");

  // The assignment travels as its encoded protocol record — the A line
  // carries the slice, run id, and seed frontier the worker will prune
  // with, so wire format and behavior can never drift apart. The
  // attempt ordinal is provisional until the transport actually places
  // it (a socket transport with nobody idle places nothing).
  Message assign;
  assign.kind = MessageKind::kAssign;
  assign.shard = shard;
  assign.attempt = spawn_ordinal_ + 1;
  assign.first = state.range.first;
  assign.last = state.range.last;
  assign.run = run_id_;
  assign.seed = spec_.seed_frontier;

  std::unique_ptr<WorkerLink> link = transport_->assign(assign);
  if (!link) return false;
  const std::uint64_t attempt = ++spawn_ordinal_;
  const std::string who = link->describe();
  const pid_t pid = link->pid();

  running_.push_back({std::move(link), shard, attempt});
  ++state.attempts;
  lease_.grant(shard, attempt, state.range.first, now_s());
  ++tally_.spawns;
  HEC_COUNTER_INC("shard.spawns");
  AttemptInfo& info = attempts_[attempt];
  info.shard = shard;
  info.pid = pid;
  note("shard.spawn", "shard=" + std::to_string(shard) +
                          " attempt=" + std::to_string(attempt) + " worker=" +
                          who + " slice=" + describe(state.range));
  return true;
}

void Coordinator::spawn_eligible() {
  while (running_.size() < opts_.workers) {
    const double now = now_s();
    std::optional<std::size_t> pick;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const ShardState& s = shards_[i];
      if (s.complete || s.failed || s.eligible_at_s > now) continue;
      if (find_running(i, 0).has_value()) continue;  // already leased
      pick = i;
      break;
    }
    if (!pick) return;
    if (!spawn(*pick)) return;  // transport has no capacity right now
  }
}

std::optional<std::size_t> Coordinator::find_running(
    std::size_t shard, std::uint64_t attempt) const {
  for (std::size_t i = 0; i < running_.size(); ++i) {
    if (running_[i].shard == shard &&
        (attempt == 0 || running_[i].attempt == attempt)) {
      return i;
    }
  }
  return std::nullopt;
}

/// Schedules the next attempt of `shard` (or marks it failed when the
/// budget is gone). A result file committed by a dying worker that
/// never delivered its D line is discovered and reused here — the
/// at-least-once idempotence path.
void Coordinator::requeue(std::size_t shard, std::uint64_t attempt,
                          const char* cause, bool backoff) {
  ShardState& state = shards_[shard];
  if (try_reuse_result(shard)) return;
  // No reusable result: whatever the dead attempt counted will be
  // recounted by its successor (journal resume keeps the *frontier*
  // exact, but the successor's completion counter spans the whole
  // slice). Supersede the attempt so the merge never double-counts;
  // its spans stay in the trace, tagged.
  if (auto it = attempts_.find(attempt); it != attempts_.end()) {
    it->second.superseded = true;
  }
  merger_.mark_superseded(attempt);
  if (state.attempts > opts_.max_retries) {
    state.failed = true;
    note("shard.failed", "shard=" + std::to_string(shard) + " attempts=" +
                             std::to_string(state.attempts));
    std::fprintf(stderr,
                 "error: shard %zu (slice %s) exhausted its retry budget "
                 "(%zu attempts) %s; giving up\n",
                 shard, describe(state.range).c_str(), state.attempts,
                 cause);
    return;
  }
  // attempts-1 doublings of the base delay, capped; steals skip the
  // backoff entirely (the shard did nothing wrong, its worker did).
  const double delay =
      backoff ? std::min(opts_.retry_backoff_max_s,
                         opts_.retry_backoff_s *
                             static_cast<double>(
                                 std::uint64_t{1} << std::min<std::size_t>(
                                     state.attempts - 1, 32)))
              : 0.0;
  state.eligible_at_s = now_s() + delay;
}

void Coordinator::kill_all() {
  for (RunningWorker& worker : running_) {
    lease_.release(worker.shard, worker.attempt);
    worker.link->kill();
  }
  running_.clear();
}

void Coordinator::drain_revocations() {
  std::vector<LeaseRevocation> pending;
  {
    std::lock_guard lock(fork_mutex_);
    pending.swap(revocations_);
  }
  for (const LeaseRevocation& rev : pending) {
    const std::optional<std::size_t> idx = find_running(rev.shard, rev.attempt);
    if (!idx || !lease_.release(rev.shard, rev.attempt)) continue;
    const bool steal = rev.action == LeaseAction::kSteal;
    std::fprintf(stderr,
                 "warning: shard %zu attempt %llu %s for %.2fs; %s\n",
                 rev.shard, static_cast<unsigned long long>(rev.attempt),
                 steal ? "made no progress" : "sent no heartbeat", rev.idle_s,
                 steal ? "stealing the shard (journal keeps its progress)"
                       : "presuming the worker dead and requeueing");
    running_[*idx].link->kill();
    running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(*idx));
    if (steal) {
      ++tally_.steals;
      HEC_COUNTER_INC("shard.steals");
      note("shard.steal",
           "shard=" + std::to_string(rev.shard) + " attempt=" +
               std::to_string(rev.attempt) + " idle_s=" +
               std::to_string(rev.idle_s));
      requeue(rev.shard, rev.attempt, "stalling", /*backoff=*/false);
    } else {
      ++tally_.reassignments;
      HEC_COUNTER_INC("shard.reassignments");
      note("shard.reassign",
           "shard=" + std::to_string(rev.shard) + " attempt=" +
               std::to_string(rev.attempt) + " cause=heartbeat-timeout");
      requeue(rev.shard, rev.attempt, "losing heartbeats", /*backoff=*/true);
    }
  }
}

void Coordinator::handle_line(RunningWorker& worker, const Message& m) {
  // A message from a superseded attempt (a straggler racing its killer)
  // must never mutate shard state; the attempt check filters it.
  if (m.shard != worker.shard || m.attempt != worker.attempt) return;
  const double now = now_s();
  switch (m.kind) {
    case MessageKind::kProgress: {
      const std::optional<double> gap = lease_.heartbeat_gap_s(m.shard, now);
      if (lease_.heartbeat(m.shard, m.attempt, m.cursor, now)) {
        HEC_COUNTER_INC("shard.heartbeats");
        if (gap) HEC_HISTOGRAM_OBSERVE("shard.heartbeat_gap_s", *gap);
      }
      AttemptInfo& info = attempts_[m.attempt];
      if (!info.saw_cursor) {
        info.saw_cursor = true;
        info.first_cursor = m.cursor;
        info.first_seen_s = now;
        info.last_cursor = m.cursor;
        info.last_seen_s = now;
      } else if (m.cursor >= info.last_cursor) {
        // A reordered or stale heartbeat (pipe scheduling, socket
        // buffering) can arrive with a cursor behind what we already
        // recorded; rewinding would corrupt coverage and rate
        // accounting, so recorded progress is monotone per attempt.
        // (The lease table applies the same guard independently.)
        info.last_cursor = m.cursor;
        info.last_seen_s = now;
      }
      break;
    }
    case MessageKind::kResult: {
      // Socket transport's durable-result carrier: the worker committed
      // this frontier locally, then shipped it so a coordinator without
      // a shared filesystem can commit its own copy BEFORE the D that
      // follows — the same durability ordering as the local path. The D
      // handler then verifies the file like any other.
      if (shards_[m.shard].complete) break;
      try {
        write_shard_result(shard_result_path(opts_.state_dir, m.shard),
                           signature_, {shards_[m.shard].range, m.seed});
      } catch (const IoError& e) {
        std::fprintf(stderr,
                     "warning: cannot commit shipped result of shard %zu: "
                     "%s\n",
                     m.shard, e.what());
      }
      break;
    }
    case MessageKind::kDone: {
      lease_.release(m.shard, m.attempt);
      if (!load_result(m.shard)) {
        // D without a loadable result is a broken worker; retry (and
        // never hand this connection another assignment).
        worker.concluded = RunningWorker::Concluded::kQuarantine;
        ++tally_.retries;
        HEC_COUNTER_INC("shard.retries");
        note("shard.retry",
             "shard=" + std::to_string(m.shard) + " attempt=" +
                 std::to_string(m.attempt) + " cause=no-result");
        requeue(m.shard, m.attempt, "reporting done without a loadable result",
                /*backoff=*/true);
      } else {
        worker.concluded = RunningWorker::Concluded::kRecycle;
        if (m.has_stats) {
          // Best-effort evaluated/pruned accounting (see shard.h): only
          // attempts that completed their shard this run contribute.
          tally_.configs_evaluated += m.evaluated;
          tally_.configs_pruned += m.pruned;
          HEC_COUNTER_ADD("shard.configs_pruned",
                          static_cast<double>(m.pruned));
        }
        AttemptInfo& info = attempts_[m.attempt];
        info.completed = true;
        if (info.saw_cursor) {
          // Credit the slice tail, so a completed attempt's rate spans
          // its whole observed run rather than stopping at the last
          // heartbeat before the result commit.
          info.last_cursor = shards_[m.shard].range.first +
                             shards_[m.shard].range.size();
          info.last_seen_s = now;
        }
        note("shard.done", "shard=" + std::to_string(m.shard) +
                               " attempt=" + std::to_string(m.attempt));
      }
      break;
    }
    case MessageKind::kFailed: {
      lease_.release(m.shard, m.attempt);
      worker.concluded = RunningWorker::Concluded::kRecycle;
      std::fprintf(stderr, "warning: shard %zu attempt %llu failed: %s\n",
                   m.shard, static_cast<unsigned long long>(m.attempt),
                   m.detail.c_str());
      ++tally_.retries;
      HEC_COUNTER_INC("shard.retries");
      note("shard.retry", "shard=" + std::to_string(m.shard) + " attempt=" +
                              std::to_string(m.attempt) + " error=" + m.detail);
      requeue(m.shard, m.attempt, "failing", /*backoff=*/true);
      break;
    }
    case MessageKind::kAssign:
    case MessageKind::kHello:
    case MessageKind::kWelcome:
    case MessageKind::kPing:
    case MessageKind::kBye:
      break;  // not worker→coordinator report traffic; ignore
  }
}

void Coordinator::quarantine(std::size_t idx, const std::string& why) {
  RunningWorker& worker = running_[idx];
  std::fprintf(stderr,
               "warning: shard %zu attempt %llu sent garbage (%s); "
               "quarantining the connection and requeueing\n",
               worker.shard, static_cast<unsigned long long>(worker.attempt),
               why.c_str());
  HEC_COUNTER_INC("shard.net.frames_rejected");
  HEC_COUNTER_INC("shard.net.disconnects");
  worker.link->kill();
  if (!shards_[worker.shard].complete &&
      lease_.release(worker.shard, worker.attempt)) {
    ++tally_.reassignments;
    HEC_COUNTER_INC("shard.reassignments");
    note("shard.reassign",
         "shard=" + std::to_string(worker.shard) + " attempt=" +
             std::to_string(worker.attempt) + " cause=garbage");
    requeue(worker.shard, worker.attempt, "sending garbage",
            /*backoff=*/true);
  }
  running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(idx));
}

void Coordinator::service_link(std::size_t idx) {
  RunningWorker& worker = running_[idx];
  const DrainResult drained = worker.link->drain();
  const bool socket = std::strcmp(worker.link->kind(), "socket") == 0;
  for (const std::string& line : drained.lines) {
    const std::optional<Message> m = parse(line);
    if (!m) {
      if (socket) {
        // A framed-but-malformed record past the handshake: the peer
        // is broken or lying. Quarantine — never parse-and-hope on the
        // same connection.
        quarantine(idx, "malformed record: " + line);
        return;
      }
      std::fprintf(stderr,
                   "warning: shard %zu attempt %llu sent a malformed "
                   "report (%s); treating the worker as failed\n",
                   worker.shard,
                   static_cast<unsigned long long>(worker.attempt),
                   line.c_str());
      continue;  // its exit (or lease expiry) triggers the requeue
    }
    handle_line(worker, *m);
  }
  if (drained.corrupt) {
    quarantine(idx, drained.why);
    return;
  }
  if (worker.concluded != RunningWorker::Concluded::kNo) {
    // The attempt reported D/F: release the link. A broken peer's link
    // (quarantine) is severed; a healthy one goes back to the transport
    // (socket: idle pool; pipe: reap the exited child).
    std::unique_ptr<WorkerLink> link = std::move(worker.link);
    const bool broken =
        worker.concluded == RunningWorker::Concluded::kQuarantine;
    running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(idx));
    if (broken) {
      if (socket) HEC_COUNTER_INC("shard.net.disconnects");
      link->kill();
    } else {
      transport_->recycle(std::move(link));
    }
    return;
  }
  if (drained.closed) {
    // Gone without a conclusion: dead-worker path — identical for a
    // SIGKILLed child and a dropped connection.
    const std::string how =
        worker.link->check_dead().value_or(drained.why.empty()
                                               ? "connection closed"
                                               : drained.why);
    worker.link->kill();
    if (!shards_[worker.shard].complete &&
        lease_.release(worker.shard, worker.attempt)) {
      std::fprintf(stderr,
                   "warning: shard %zu attempt %llu exited (%s) without "
                   "reporting; requeueing\n",
                   worker.shard,
                   static_cast<unsigned long long>(worker.attempt),
                   how.c_str());
      if (socket) HEC_COUNTER_INC("shard.net.disconnects");
      ++tally_.reassignments;
      HEC_COUNTER_INC("shard.reassignments");
      note("shard.reassign",
           "shard=" + std::to_string(worker.shard) + " attempt=" +
               std::to_string(worker.attempt) + " cause=exit");
      requeue(worker.shard, worker.attempt, "dying repeatedly",
              /*backoff=*/true);
    }
    running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(idx));
  }
}

void Coordinator::pump_links() {
  const bool capacity_appeared = transport_->pump(now_s());
  if (capacity_appeared) {
    // A connection was just welcomed into the idle pool: return to the
    // supervision loop without sleeping so the pending shard is
    // assigned now, not one tick later.
    return;
  }
  std::vector<pollfd> fds;
  fds.reserve(running_.size());
  for (const RunningWorker& worker : running_) {
    const int fd = worker.link->poll_fd();
    if (fd >= 0) fds.push_back({fd, POLLIN, 0});
  }
  if (fds.empty()) {
    // Nothing to listen to (no live links / backoff wait): sleep one
    // supervision tick instead of spinning.
    ::poll(nullptr, 0, 20);
    return;
  }
  const int ready = ::poll(fds.data(), fds.size(), 20);
  if (ready <= 0) return;
  for (const pollfd& p : fds) {
    if ((p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    // Re-locate by fd each time: servicing may have erased entries.
    const std::optional<std::size_t> idx = [&]() -> std::optional<std::size_t> {
      for (std::size_t i = 0; i < running_.size(); ++i) {
        if (running_[i].link->poll_fd() == p.fd) return i;
      }
      return std::nullopt;
    }();
    if (!idx) continue;
    service_link(*idx);
  }
}

void Coordinator::note(const char* name, std::string detail) {
#ifndef HEC_OBS_DISABLE
  instants_.push_back({name, obs::tracer().now_us(), std::move(detail)});
#else
  (void)name;
  (void)detail;
#endif
}

void Coordinator::ingest_telemetry() {
  if (!telemetry_enabled()) return;
  for (const auto& [attempt, info] : attempts_) {
    (void)info;
    std::string why;
    if (merger_.ingest_file(shard_telemetry_path(opts_.state_dir, attempt),
                            &why)) {
      HEC_COUNTER_INC("shard.telemetry_ingests");
    } else if (!why.empty()) {
      HEC_COUNTER_INC("shard.telemetry_rejected");
      obs::log(2, "rejecting telemetry sidecar of attempt " +
                      std::to_string(attempt) + ": " + why);
    }
  }
}

std::size_t Coordinator::configs_covered() const {
  std::size_t covered = 0;
  for (const ShardState& s : shards_) {
    if (s.complete) covered += s.range.size();
  }
  // Live attempts on incomplete shards: the lease cursor is durable
  // progress (journaled), so count it even though the shard may still
  // die and resume.
  for (const RunningWorker& w : running_) {
    if (shards_[w.shard].complete) continue;
    const auto it = attempts_.find(w.attempt);
    if (it != attempts_.end() && it->second.saw_cursor &&
        it->second.last_cursor > shards_[w.shard].range.first) {
      covered += it->second.last_cursor - shards_[w.shard].range.first;
    }
  }
  return covered;
}

void Coordinator::write_status(bool final_pass) {
  using bench::json::Value;
  const double now = now_s();
  std::size_t complete = 0;
  std::size_t failed = 0;
  for (const ShardState& s : shards_) {
    if (s.complete) ++complete;
    if (s.failed) ++failed;
  }
  const bool all_done = complete == shards_.size();
  const std::size_t covered = all_done ? spec_.total : configs_covered();
  const double coverage_pct =
      all_done || spec_.total == 0
          ? 100.0
          : 100.0 * static_cast<double>(covered) /
                static_cast<double>(spec_.total);
  const double rate = now > 0.0 ? static_cast<double>(covered) / now : 0.0;
  const std::size_t frontier_size = [&] {
    if (final_pass) return tally_.frontier.size();
    std::vector<std::vector<TimeEnergyPoint>> partials;
    for (const ShardState& s : shards_) {
      if (s.complete) partials.push_back(s.frontier);
    }
    return merge_frontiers(partials).size();
  }();

  Value doc;
  doc["schema"] = "hec-sweep-status/v1";
  doc["run_id"] = std::to_string(run_id_);  // string: ids exceed 2^53
  doc["elapsed_s"] = now;
  doc["complete"] = all_done;
  doc["deadline_hit"] = deadline_hit_;
  doc["shards"]["total"] = shards_.size();
  doc["shards"]["complete"] = complete;
  doc["shards"]["failed"] = failed;
  doc["shards"]["running"] = running_.size();
  doc["configs"]["total"] = spec_.total;
  doc["configs"]["visited"] = covered;
  doc["coverage_pct"] = coverage_pct;
  doc["configs_per_s"] = rate;
  if (rate > 0.0 && covered < spec_.total) {
    doc["eta_s"] = static_cast<double>(spec_.total - covered) / rate;
  } else {
    doc["eta_s"] = Value();  // null: done, or no observed progress yet
  }
  doc["frontier_size"] = frontier_size;
  doc["spawns"] = tally_.spawns;
  doc["reassignments"] = tally_.reassignments;
  doc["steals"] = tally_.steals;
  doc["retries"] = tally_.retries;
  doc["results_reused"] = tally_.results_reused;
  doc["telemetry"]["records"] = merger_.records();
  doc["telemetry"]["rejected"] = merger_.rejected();
  doc["telemetry"]["superseded"] = merger_.superseded();

  Value::Array workers;
  for (const RunningWorker& w : running_) {
    const auto it = attempts_.find(w.attempt);
    if (it == attempts_.end()) continue;
    const AttemptInfo& info = it->second;
    Value entry;
    entry["attempt"] = w.attempt;
    entry["shard"] = w.shard;
    entry["pid"] = info.pid;
    entry["cursor"] =
        info.saw_cursor ? info.last_cursor : shards_[w.shard].range.first;
    entry["configs_per_s"] = info.configs_per_s();
    if (info.saw_cursor) {
      entry["heartbeat_age_s"] = now - info.last_seen_s;
    } else {
      entry["heartbeat_age_s"] = Value();  // spawned, nothing heard yet
    }
    workers.push_back(std::move(entry));
  }
  doc["workers"] = std::move(workers);

  // Every attempt ever spawned, not just the live ones: the final
  // document (live list empty) still carries the whole run's rates,
  // which is what the bench throughput-spread metric reads.
  Value::Array rates;
  for (const auto& [attempt, info] : attempts_) {
    Value entry;
    entry["attempt"] = attempt;
    entry["shard"] = info.shard;
    entry["configs_per_s"] = info.configs_per_s();
    entry["completed"] = info.completed;
    entry["superseded"] = info.superseded;
    rates.push_back(std::move(entry));
  }
  doc["worker_rates"] = std::move(rates);

  try {
    util::atomic_write_file(opts_.status_path, doc.dump(true) + "\n");
  } catch (const IoError& e) {
    // Status is best-effort: a bad path must not kill a healthy sweep.
    obs::log(2, std::string("status write failed: ") + e.what());
  }

  // The opt-in progress line (visible at --log-level info and up). The
  // "sharded sweep:" prefix is the contract output-comparison scripts
  // filter on.
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "sharded sweep: %5.1f%% (%zu/%zu configs) | %.0f configs/s | "
                "eta %.1fs | workers %zu | retries %zu steals %zu | "
                "frontier %zu",
                coverage_pct, covered, spec_.total, rate,
                rate > 0.0 && covered < spec_.total
                    ? static_cast<double>(spec_.total - covered) / rate
                    : 0.0,
                running_.size(), tally_.retries, tally_.steals, frontier_size);
  std::string line(buf);
  for (const RunningWorker& w : running_) {
    const auto it = attempts_.find(w.attempt);
    if (it == attempts_.end()) continue;
    char rate_buf[64];
    std::snprintf(rate_buf, sizeof(rate_buf), " a%llu=%.0f/s",
                  static_cast<unsigned long long>(w.attempt),
                  it->second.configs_per_s());
    line += rate_buf;
  }
  obs::log(1, line);
}

void Coordinator::observe(bool final_pass) {
  const double now = now_s();
  // Sidecar ingest is decoupled from the status cadence: merged
  // counters matter even when no status file was requested (a
  // --metrics-out dump at the end must see every flushed delta).
  constexpr double kIngestInterval = 0.5;
  if (telemetry_enabled() &&
      (final_pass || now - last_ingest_s_ >= kIngestInterval)) {
    last_ingest_s_ = now;
    ingest_telemetry();
  }
  if (!opts_.status_path.empty() &&
      (final_pass || now - last_status_s_ >= opts_.status_interval_s)) {
    last_status_s_ = now;
    write_status(final_pass);
  }
}

bool Coordinator::work_remains() const {
  if (!running_.empty()) return true;
  for (const ShardState& s : shards_) {
    if (!s.complete && !s.failed) return true;
  }
  return false;
}

ShardedSweepResult Coordinator::finish() {
  HEC_SPAN("shard.merge");
  std::vector<std::vector<TimeEnergyPoint>> partials;
  partials.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    ShardState& state = shards_[i];
    if (!state.complete) {
      if (state.failed) tally_.failed_shards.push_back(i);
      continue;
    }
    HEC_FAILPOINT_HIT("shard.merge");
    ++tally_.shards_complete;
    tally_.configs_visited += state.range.size();
    partials.push_back(std::move(state.frontier));
  }
  tally_.frontier = merge_frontiers(partials);
  tally_.complete = tally_.shards_complete == tally_.shards_total;
  tally_.deadline_hit = deadline_hit_;
  tally_.run_id = run_id_;
  if (telemetry_enabled()) {
    // The last ingest pass sees every final flush (workers final-flush
    // before their result commit, and all workers are reaped by now),
    // then the non-superseded deltas fold into the coordinator registry
    // so one --metrics-out dump covers the whole fleet.
    ingest_telemetry();
    merger_.apply(obs::registry());
    tally_.trace = merger_.build_trace(std::move(instants_));
  }
  for (const auto& [attempt, info] : attempts_) {
    tally_.worker_rates.push_back({attempt, info.shard, info.configs_per_s(),
                                   info.completed, info.superseded});
  }
  HEC_GAUGE_SET("shard.shards_complete",
                static_cast<double>(tally_.shards_complete));
  HEC_GAUGE_SET("shard.configs_visited",
                static_cast<double>(tally_.configs_visited));
  HEC_GAUGE_SET("sweep.frontier_size",
                static_cast<double>(tally_.frontier.size()));
  if (!opts_.status_path.empty()) write_status(/*final_pass=*/true);
  return std::move(tally_);
}

void Coordinator::make_transport() {
  if (!opts_.listen.empty() || opts_.listener != nullptr) {
    SocketTransportConfig config;
    config.run_id = run_id_;
    config.space_fp = space_fingerprint(spec_);
    config.net_timeout_s = opts_.net_timeout_s;
    if (opts_.listener != nullptr) {
      config.listener = opts_.listener;
    } else {
      config.owned = std::make_unique<Listener>(util::parse_endpoint(
          opts_.listen, "listen endpoint", /*allow_port_zero=*/true));
      std::fprintf(stderr, "sharded sweep: listening on %s (run %llu)\n",
                   config.owned->describe().c_str(),
                   static_cast<unsigned long long>(run_id_));
    }
    transport_ = make_socket_transport(std::move(config));
  } else {
    transport_ = make_fork_pipe_transport(spec_, opts_, fork_mutex_);
  }
}

ShardedSweepResult Coordinator::run() {
  HEC_SPAN("shard.coordinator");
  // See SigPipeGuard: worker links are written to from this process.
  SigPipeGuard sigpipe_guard;
  make_state_dir(opts_.state_dir);
  make_transport();
  plan_shards();
  for (std::size_t i = 0; i < shards_.size(); ++i) try_reuse_result(i);

  // The monitor: scans leases, queues revocations. It shares
  // fork_mutex_ with spawn() so fork() never interleaves with it.
  const double scan_interval = std::clamp(
      std::min(opts_.heartbeat_timeout_s, opts_.progress_timeout_s) / 4.0,
      0.01, 1.0);
  PeriodicTask monitor(scan_interval, [this] {
    std::lock_guard lock(fork_mutex_);
    std::vector<LeaseRevocation> expired = lease_.expired(now_s());
    revocations_.insert(revocations_.end(), expired.begin(), expired.end());
  });

  try {
    while (work_remains()) {
      if (now_s() >= opts_.deadline_s) {
        deadline_hit_ = true;
        note("shard.deadline",
             "deadline_s=" + std::to_string(opts_.deadline_s) +
                 " outstanding=" + std::to_string(running_.size()));
        std::fprintf(stderr,
                     "warning: global deadline (%.3fs) reached with %zu "
                     "worker(s) outstanding; emitting the partial frontier\n",
                     opts_.deadline_s, running_.size());
        kill_all();
        break;
      }
      drain_revocations();
      spawn_eligible();
      pump_links();
      observe(/*final_pass=*/false);
    }
  } catch (...) {
    // Whatever went wrong, never leak live children, connections or
    // the monitor.
    monitor.stop();
    kill_all();
    transport_->shutdown();
    throw;
  }
  monitor.stop();
  kill_all();
  // Socket transport: tell idle workers the run is over (B line) and
  // close the listener so redialing workers see ECONNREFUSED.
  transport_->shutdown();
  return finish();
}

}  // namespace

std::string shard_journal_path(const std::string& state_dir, std::size_t id) {
  return state_dir + "/shard-" + std::to_string(id) + ".journal";
}

std::string shard_result_path(const std::string& state_dir, std::size_t id) {
  return state_dir + "/shard-" + std::to_string(id) + ".result";
}

ShardedSweepResult run_sharded(const ShardedSweepSpec& spec,
                               const ShardedSweepOptions& opts) {
  if (opts.workers == 0) {
    throw std::invalid_argument("sharded sweep needs at least one worker");
  }
  if (!spec.body) {
    throw std::invalid_argument("sharded sweep needs a sweep body");
  }
  if (spec.claim == 0) {
    throw std::invalid_argument("sharded sweep claim must be positive");
  }
  if (opts.state_dir.empty()) {
    throw std::invalid_argument(
        "sharded sweep needs a state_dir for journals and results");
  }
  Coordinator coordinator(spec, opts);
  return coordinator.run();
}

ShardedSweepResult sharded_sweep_frontier(const NodeTypeModel& arm_model,
                                          const NodeTypeModel& amd_model,
                                          const EnumerationLimits& limits,
                                          double work_units,
                                          const ShardedSweepOptions& opts) {
  HEC_SPAN("shard.sweep_frontier");
  // Characterize once, fork many: the memo tables, the kernel's per-side
  // rates and SoA batches, and the seed frontier are all built before any
  // worker exists and shared copy-on-write with all of them. The seed
  // pass runs on this thread, so no pool thread is alive across fork.
  const MemoizedConfigEvaluator memo(arm_model, amd_model, limits);
  TwoTypeSweepKernel::Options kopts;
  kopts.prune = opts.prune;
  kopts.simd = opts.simd;
  kopts.chunk = opts.prune_chunk;
  const TwoTypeSweepKernel kernel(memo, work_units, kopts);
  ShardedSweepSpec spec;
  spec.signature = memo.layout().describe();
  spec.total = memo.size();
  spec.work_units = work_units;
  // Global incumbents ride every A line, so each shard prunes against
  // the same bound no matter which worker runs it or when.
  spec.seed_frontier = kernel.incumbents();
  spec.body = [&kernel](std::size_t first, std::size_t count,
                        ParetoAccumulator& acc) {
    kernel.consume(first, count, acc);
  };
  spec.body_stats = [&kernel] {
    const KernelStats s = kernel.stats();
    return std::pair<std::size_t, std::size_t>(s.evaluated, s.pruned);
  };
  ShardedSweepResult result = run_sharded(spec, opts);
  result.configs_seeded = kernel.stats().seeded;
  return result;
}

}  // namespace hec::shard
