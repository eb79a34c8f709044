// Fault-tolerant sharded sweeps: a coordinator/worker substrate that
// partitions a configuration space into contiguous index slices
// ("shards"), runs each shard in a worker process, and merges the
// per-shard Pareto frontiers into a result bit-identical to an
// uninterrupted single-process sweep.
//
// Two transports (hec/shard/transport.h) plug into one supervision
// loop: fork + pipe on one machine (the default), or supervised TCP
// sockets (`listen` below) where standalone workers — tools/
// hecsim_worker, or anything calling run_worker_loop — dial in,
// authenticate with the space fingerprint, and serve attempts over
// CRC-framed protocol lines. The durability scheme (per-shard journals
// + result files under `state_dir`, hec/shard/result_file.h) is
// transport-agnostic; over sockets the result frontier additionally
// rides the wire (P line) so the coordinator commits its own copy
// without a shared filesystem.
//
// Robustness model
// ----------------
//   * Workers heartbeat (R lines) on a fixed cadence; the coordinator's
//     monitor thread tracks leases (hec/shard/lease.h).
//   * Heartbeat silence ≥ heartbeat_timeout_s → the worker is presumed
//     dead (also detected sooner via waitpid): SIGKILL + requeue. Obs:
//     `shard.reassignments`.
//   * Heartbeats without cursor movement ≥ progress_timeout_s → the
//     worker is a straggler: the shard is *stolen* — the attempt is
//     killed and relaunched; the replacement resumes from the shard's
//     journal, so the straggler's progress is kept, not discarded. Obs:
//     `shard.steals`.
//   * Failed attempts retry with exponential backoff under a bounded
//     per-shard budget; an exhausted shard is reported, not retried
//     forever. Obs: `shard.retries`.
//   * A finished shard's frontier is committed durably *before* the
//     done report, so duplicate delivery and coordinator restarts are
//     idempotent: results found on disk are fingerprint-verified and
//     reused. Obs: `shard.results_reused`.
//   * On the global deadline the coordinator kills outstanding workers
//     and returns the exact merge of completed shards with coverage
//     accounting (`deadline_hit`, configs_visited/configs_total);
//     callers map that to exit 75.
//
// Failpoint sites (HEC_FAILPOINT): `shard.assign` (coordinator, before
// each spawn), `shard.heartbeat` (worker, each heartbeat send),
// `shard.merge` (coordinator, per merged shard), and the dynamic
// `shard.attempt.<ordinal>` (worker, each progress boundary of the
// ordinal-th spawned attempt) — the last is how tests SIGKILL exactly
// k of n workers mid-shard, deterministically. The socket transport
// adds net.{accept,read,write,frame.corrupt,partition}; see
// hec/shard/transport.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "hec/config/enumerate.h"
#include "hec/model/node_model.h"
#include "hec/obs/export.h"
#include "hec/resilience/resumable.h"
#include "hec/sweep/slices.h"
#include "hec/sweep/sweep.h"

namespace hec::shard {

class Listener;  // hec/shard/transport.h

/// A deadline-stopped sharded sweep exits with the same code as a
/// deadline-stopped resumable sweep: partial results, resume finishes.
inline constexpr int kExitPartial = resilience::kExitPartial;

/// The sweep to distribute, described as an opaque index space — the
/// same contract as resilience::resumable_sweep_indexed, which is what
/// each worker runs over its slice.
struct ShardedSweepSpec {
  /// Fingerprint of the space and every parameter shaping per-index
  /// outcomes. Shard journals and result files extend it with slice
  /// bounds, so artifacts can never migrate between shards or sweeps.
  std::string signature;
  std::size_t total = 0;       ///< index space size
  std::size_t claim = 4096;    ///< block size workers claim at a time
  double work_units = 1.0;
  /// Evaluates indices [first, first+count) into the accumulator. Runs
  /// in worker processes — it must not depend on parent-side threads,
  /// and any expensive setup it captures should be built before
  /// run_sharded so fork shares it copy-on-write.
  std::function<void(std::size_t first, std::size_t count,
                     ParetoAccumulator& acc)>
      body;
  /// Already-evaluated points of the global space (genuine (t, e, tag)
  /// triples — sharded_sweep_frontier uses two_type_incumbents). The
  /// coordinator carries them on every assignment's A line; workers fold
  /// them into their slice sweep's initial carry so bound-and-prune
  /// fires from each shard's first chunk. The merged frontier is
  /// unchanged (the points belong to the space); the seed is also folded
  /// into the sweep signature, so journals and result files from
  /// differently-seeded runs never cross.
  std::vector<TimeEnergyPoint> seed_frontier;
  /// Optional: the body's (evaluated, pruned) accounting so far, read in
  /// the worker process right after its slice completes and reported on
  /// the D line (sharded_sweep_frontier wires this to the kernel's
  /// stats). Null reports the v1 short form.
  std::function<std::pair<std::size_t, std::size_t>()> body_stats;
};

struct ShardedSweepOptions {
  /// Concurrent worker processes (fork+pipe transport), or the cap on
  /// concurrent assignments (socket transport — connections beyond it
  /// idle until a slot frees).
  std::size_t workers = 2;
  /// Shard count (work units handed to workers). 0 derives 4× workers,
  /// so work stealing and requeues have slack to rebalance.
  std::size_t shards = 0;
  /// Directory for per-shard journals and result files. Required; the
  /// CLI uses `<journal>.shards` or a temp dir.
  std::string state_dir;
  /// Worker heartbeat cadence.
  double heartbeat_interval_s = 0.05;
  /// Heartbeat silence after which a worker is presumed dead.
  double heartbeat_timeout_s = 10.0;
  /// Heartbeats-without-progress span after which a shard is stolen.
  /// Infinity disables stealing.
  double progress_timeout_s = std::numeric_limits<double>::infinity();
  /// Retry budget per shard beyond the first attempt.
  std::size_t max_retries = 3;
  /// Exponential backoff for retries: first delay, doubling per attempt
  /// up to the cap. Steals relaunch immediately (the shard did nothing
  /// wrong; its worker did).
  double retry_backoff_s = 0.05;
  double retry_backoff_max_s = 2.0;
  /// Global wall-clock budget; infinity runs to completion.
  double deadline_s = std::numeric_limits<double>::infinity();
  /// Wall seconds between a worker's journal commits (0 = every epoch;
  /// the default keeps steals cheap to resume).
  double checkpoint_interval_s = 0.0;
  /// Threads per worker process (each worker builds its own pool after
  /// fork — parent threads do not survive into children). 0 = serial.
  std::size_t threads_per_worker = 0;
  /// Minimum wall seconds between a worker's telemetry sidecar flushes
  /// (hec/shard/telemetry.h). Flushes piggyback on journal commits, so
  /// the effective cadence is max(this, checkpoint cadence); 0 flushes
  /// at every commit (deterministic, for tests and traced CLI runs),
  /// negative disables telemetry shipping entirely. Ignored under
  /// HEC_OBS_DISABLE builds (no sidecars are written).
  double telemetry_interval_s = 0.25;
  /// Bound-and-prune layer inside the model-backed workers
  /// (sharded_sweep_frontier); false evaluates everything. Opaque
  /// run_sharded specs manage pruning inside their own body.
  bool prune = true;
  /// SoA/SIMD inner kernel in the model-backed workers; false keeps the
  /// scalar path. Bit-identical either way.
  bool simd = true;
  /// Index granularity of the workers' pruning decisions.
  std::size_t prune_chunk = 32;
  /// TCP listen endpoint ("host:port", ":port" or bare "port"; port 0
  /// binds an ephemeral port). Non-empty switches the transport from
  /// fork+pipe to supervised sockets: the coordinator spawns nothing —
  /// workers dial in (tools/hecsim_worker / run_worker_loop) and
  /// `workers` caps how many serve attempts at once.
  std::string listen;
  /// Alternative to `listen` for tests: a pre-bound Listener
  /// (hec/shard/transport.h) whose real port was read back before
  /// workers were started. Borrowed for the run, but CLOSED at the end
  /// of it so dialing workers see ECONNREFUSED and exit.
  Listener* listener = nullptr;
  /// Socket transport: per-connection I/O timeout (blocked writes,
  /// handshake deadline) and the idle keepalive cadence (pings at a
  /// third of it). Workers use the same budget for their idle-read
  /// partition escape.
  double net_timeout_s = 10.0;
  /// Live status document (hec-sweep-status/v1 JSON), atomically
  /// replaced every status_interval_s and once more at the end. Empty
  /// disables. Derived from protocol state, so it works — coverage, ETA,
  /// per-worker rates — even under HEC_OBS_DISABLE.
  std::string status_path;
  double status_interval_s = 0.5;
};

struct ShardedSweepResult {
  /// Exact merge of the completed shards' frontiers. When every shard
  /// completed this is bit-identical to the single-process sweep of the
  /// whole space.
  std::vector<TimeEnergyPoint> frontier;
  bool complete = false;      ///< every shard finished
  bool deadline_hit = false;  ///< the global deadline stopped the run
  std::size_t shards_total = 0;
  std::size_t shards_complete = 0;
  std::size_t configs_total = 0;
  std::size_t configs_visited = 0;  ///< indices covered by merged shards
  /// Evaluated/pruned split summed from the D-line reports of the
  /// attempts that completed their shard this run. Best-effort
  /// accounting: shards recovered from reusable result files (or workers
  /// speaking the v1 short form) contribute nothing — the frontier and
  /// configs_visited stay exact regardless.
  std::size_t configs_evaluated = 0;
  std::size_t configs_pruned = 0;
  /// Configs the coordinator's seed pass evaluated before any shard ran
  /// (sharded_sweep_frontier; 0 for run_sharded alone).
  std::size_t configs_seeded = 0;
  /// Shards whose retry budget ran out (empty unless something is
  /// persistently wrong with the body or the machine).
  std::vector<std::size_t> failed_shards;
  /// Process-level accounting, mirrored in the obs counters.
  std::size_t spawns = 0;
  std::size_t reassignments = 0;
  std::size_t steals = 0;
  std::size_t retries = 0;
  std::size_t results_reused = 0;
  /// Run id minted for this invocation; fingerprints telemetry sidecars
  /// and correlates worker spans with the coordinator (protocol.h).
  std::uint64_t run_id = 0;
  /// Merged worker spans (one track per attempt, superseded attempts
  /// tagged) plus coordinator decision markers, ready for
  /// obs::write_chrome_trace's `external` parameter. Empty when
  /// telemetry shipping was disabled or compiled out.
  obs::ExternalTrace trace;
  /// Observed throughput per attempt (cursor movement between its first
  /// and last heartbeat), for the status surface and bench reporting.
  struct WorkerRate {
    std::uint64_t attempt = 0;
    std::size_t shard = 0;
    double configs_per_s = 0.0;
    bool completed = false;   ///< attempt reported D
    bool superseded = false;  ///< attempt was requeued/stolen
  };
  std::vector<WorkerRate> worker_rates;
};

/// Runs `spec` sharded across worker processes. Throws hec::IoError
/// when `state_dir` is unusable and std::invalid_argument on nonsense
/// options (0 workers, empty body, empty state_dir).
ShardedSweepResult run_sharded(const ShardedSweepSpec& spec,
                               const ShardedSweepOptions& opts);

/// Sharded twin of sweep_frontier / resumable_sweep_frontier: the
/// two-type paper space. Characterizes both models once (the memoized
/// evaluator), then forks workers that share the tables copy-on-write.
ShardedSweepResult sharded_sweep_frontier(const NodeTypeModel& arm_model,
                                          const NodeTypeModel& amd_model,
                                          const EnumerationLimits& limits,
                                          double work_units,
                                          const ShardedSweepOptions& opts);

/// Path of shard `id`'s journal / result file under `state_dir` (the
/// layout is part of the durability contract; tests and operators may
/// inspect these).
std::string shard_journal_path(const std::string& state_dir, std::size_t id);
std::string shard_result_path(const std::string& state_dir, std::size_t id);

}  // namespace hec::shard
