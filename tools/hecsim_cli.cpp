// hecsim_cli — command-line front end for the canonical query:
//
//   "Which cluster configuration services this workload within this
//    deadline using the least energy?"
//
//   hecsim_cli <workload> <deadline_ms>
//              [--units N]            job size (default: paper's analysis size)
//              [--budget WATTS]       peak-power cap on the configuration
//              [--max-arm N]          low-power pool size (default 10)
//              [--max-amd N]          high-performance pool size (default 10)
//              [--method exhaustive|bnb|greedy]   search strategy
//              [--arm-inputs FILE]    load ARM workload inputs from FILE
//              [--amd-inputs FILE]    load AMD workload inputs from FILE
//              [--mttf-h H]           per-node MTTF in hours (enables faults)
//              [--straggler-prob P]   per-node straggler probability
//              [--checkpoint-s S]     checkpoint interval in seconds
//              [--trials N]           Monte Carlo fault seeds (default 64)
//              [--seed S]             Monte Carlo base seed
//              [--trace-out FILE]     write a Chrome trace of the run
//              [--metrics-out FILE]   write a Prometheus-style metrics dump
//              [--status-out FILE]    live sweep status JSON (sharded runs)
//              [--log-level N]        stderr verbosity (0 quiet .. 2 debug)
//              [--journal FILE]       crash-safe sweep checkpoint journal
//              [--journal-interval-s S]  min seconds between checkpoints
//              [--deadline-s S]       wall-clock budget for the sweep
//              [--shards N]           fault-tolerant sweep across N worker
//                                     processes (hec/shard)
//              [--shard-timeout-s S]  per-worker heartbeat timeout
//              [--max-retries N]      per-shard retry budget
//              [--profile-out FILE]   hec-profile/v1 span-tree profile
//                                     (.folded => collapsed flamegraph stacks)
//              [--sweep-stats]        print the sweep's evaluated/pruned/
//                                     memo breakdown after the result
//              [--no-prune]           disable the bound-and-prune layer
//              [--no-simd]            disable the SoA/SIMD inner kernel
//              [--ledger FILE]        append a hec-run-ledger/v1 record
//              [--version]            print version + build provenance
//              [--build-info]         same, as a JSON document
//
// Flags accept both "--flag value" and "--flag=value".
//
// Workloads: EP, memcached, x264, blackscholes, Julius, RSA-2048.
//
// Environment: HEC_DEADLINE_S is the wall-clock budget when --deadline-s
// is absent; HEC_FAILPOINT arms the deterministic failpoint harness
// (hec/resilience/failpoint.h) for crash testing. Malformed values of
// either are usage errors (exit 64), never silently ignored.
//
// Exit codes: 0 success; 2 no feasible configuration; 64 usage error;
// 65 malformed input file (ParseError); 70 internal contract violation;
// 74 file write failure (IoError); 75 partial result (wall-clock
// deadline stopped the sweep; resume via --journal); 1 any other error.
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "hec/bench/json.h"
#include "hec/bench/ledger.h"
#include "hec/config/budget.h"
#include "hec/config/enumerate.h"
#include "hec/config/evaluate.h"
#include "hec/config/robust_evaluate.h"
#include "hec/hw/catalog.h"
#include "hec/io/table.h"
#include "hec/model/characterize.h"
#include "hec/model/inputs_io.h"
#include "hec/obs/export.h"
#include "hec/obs/obs.h"
#include "hec/obs/profile.h"
#include "hec/pareto/frontier.h"
#include "hec/pareto/streaming.h"
#include "hec/resilience/failpoint.h"
#include "hec/resilience/resumable.h"
#include "hec/search/optimizer.h"
#include "hec/shard/shard.h"
#include "hec/shard/telemetry.h"
#include "hec/sweep/sweep.h"
#include "hec/util/atomic_file.h"
#include "hec/util/build_info.h"
#include "hec/util/env.h"
#include "hec/util/expect.h"
#include "hec/workloads/workload.h"

namespace {

/// Bad command line (unknown flag, malformed value, missing argument):
/// exit code 64, after sysexits.h EX_USAGE.
class UsageError : public std::runtime_error {
 public:
  explicit UsageError(const std::string& what) : std::runtime_error(what) {}
};

void print_usage(std::ostream& out) {
  out <<
      "usage: hecsim_cli <workload> <deadline_ms> [options]\n"
      "  workloads: EP, memcached, x264, blackscholes, Julius, RSA-2048\n"
      "  --units N            job size in work units\n"
      "  --budget W           peak-power cap in watts\n"
      "  --max-arm N          low-power pool size (default 10)\n"
      "  --max-amd N          high-performance pool size (default 10)\n"
      "  --method M           exhaustive | bnb | greedy (default exhaustive)\n"
      "  --arm-inputs FILE    load ARM workload inputs instead of measuring\n"
      "  --amd-inputs FILE    load AMD workload inputs instead of measuring\n"
      "  --mttf-h H           per-node mean time to failure in hours\n"
      "  --straggler-prob P   per-node straggler probability in [0, 1]\n"
      "  --checkpoint-s S     checkpoint interval in seconds\n"
      "  --trials N           Monte Carlo fault seeds (default 64)\n"
      "  --seed S             Monte Carlo base seed\n"
      "  --trace-out FILE     Chrome trace JSON (.jsonl for a JSONL log);\n"
      "                       sharded runs merge every worker's spans into\n"
      "                       per-process tracks\n"
      "  --metrics-out FILE   Prometheus-style metrics dump; sharded runs\n"
      "                       fold worker telemetry into one dump\n"
      "  --status-out FILE    hec-sweep-status/v1 JSON, atomically replaced\n"
      "                       while a sharded sweep runs (coverage, ETA,\n"
      "                       per-worker rates); requires --shards\n"
      "  --log-level N        stderr verbosity: 0 quiet .. 2 debug\n"
      "  --journal FILE       crash-safe sweep checkpoint journal; if FILE\n"
      "                       holds a checkpoint of this sweep, resume it\n"
      "  --journal-interval-s S  min seconds between checkpoints (default 1)\n"
      "  --deadline-s S       wall-clock budget for the sweep; on expiry\n"
      "                       report the partial result and exit 75\n"
      "                       (HEC_DEADLINE_S when the flag is absent)\n"
      "  --shards N           run the sweep sharded across N worker\n"
      "                       processes with heartbeats, retries and work\n"
      "                       stealing; shard state lives in\n"
      "                       <journal>.shards/ (or a temp dir)\n"
      "  --shard-timeout-s S  heartbeat silence before a worker is presumed\n"
      "                       dead and its shard requeued (default 10)\n"
      "  --max-retries N      attempts per shard beyond the first\n"
      "                       (default 3); an exhausted shard fails the run\n"
      "  --listen HOST:PORT   accept sharded-sweep workers over TCP instead\n"
      "                       of forking them (hecsim_worker dials in);\n"
      "                       ':PORT' binds localhost, port 0 picks an\n"
      "                       ephemeral port (HEC_SHARD_LISTEN when the\n"
      "                       flag is absent); requires --shards\n"
      "  --net-timeout-s S    socket I/O timeout: handshake wait, blocked\n"
      "                       writes and idle-link ping window (default 10)\n"
      "  --profile-out FILE   hec-profile/v1 aggregated span-tree profile\n"
      "                       (counts + total/self wall time per call path);\n"
      "                       a .folded suffix writes collapsed flamegraph\n"
      "                       stacks instead\n"
      "  --sweep-stats        print the sweep's evaluated/pruned/memo\n"
      "                       breakdown after the result (exit codes and\n"
      "                       default output are unchanged)\n"
      "  --no-prune           disable the analytic bound-and-prune layer\n"
      "                       (every exhaustive query without --budget;\n"
      "                       frontier unchanged)\n"
      "  --no-simd            disable the SoA/SIMD inner kernel and use the\n"
      "                       scalar path (every exhaustive query without\n"
      "                       --budget; bit-identical results)\n"
      "  --ledger FILE        append one hec-run-ledger/v1 record (run id,\n"
      "                       build info, argv, key counters, wall, RSS,\n"
      "                       exit code) to FILE; see hecsim_obsreport\n"
      "  --version            print version and build provenance, exit 0\n"
      "  --build-info         print build provenance as JSON, exit 0\n"
      "journal/deadline/shard runs require --method exhaustive, no --budget\n"
      "flags accept both '--flag value' and '--flag=value'\n"
      "exit codes: 0 ok, 2 infeasible, 64 usage, 65 bad input file,\n"
      "            70 contract violation, 74 i/o error, 75 partial result,\n"
      "            1 other error\n";
}

struct Options {
  std::string workload;
  double deadline_ms = 0.0;
  std::optional<double> units;
  std::optional<double> budget_w;
  int max_arm = 10;
  int max_amd = 10;
  std::string method = "exhaustive";
  std::optional<std::string> arm_inputs;
  std::optional<std::string> amd_inputs;
  std::optional<double> mttf_h;
  std::optional<double> straggler_prob;
  std::optional<double> checkpoint_s;
  int trials = 64;
  std::optional<std::uint64_t> seed;
  std::optional<std::string> trace_out;
  std::optional<std::string> metrics_out;
  std::optional<std::string> status_out;
  int log_level = 0;
  std::optional<std::string> journal;
  std::optional<double> journal_interval_s;
  std::optional<double> wall_deadline_s;
  std::optional<std::size_t> shards;
  double shard_timeout_s = 10.0;
  std::size_t max_retries = 3;
  std::optional<std::string> listen;
  double net_timeout_s = 10.0;
  std::optional<std::string> profile_out;
  std::optional<std::string> ledger_out;
  bool sweep_stats = false;
  bool prune = true;
  bool simd = true;

  /// True when the sweep runs as coordinator + worker processes.
  bool sharded_requested() const { return shards.has_value(); }

  bool faults_requested() const {
    return mttf_h || straggler_prob || checkpoint_s;
  }
  bool obs_requested() const {
    return trace_out.has_value() || metrics_out.has_value() ||
           profile_out.has_value();
  }
  /// True when the run goes through the crash-safe resumable sweep
  /// instead of the plain in-memory one. Gated on the journal/deadline
  /// flags (plus HEC_DEADLINE_S); both yield the same frontier.
  bool resilience_requested() const {
    return journal.has_value() || wall_deadline_s.has_value() ||
           hec::resilience::deadline_from_env() <
               std::numeric_limits<double>::infinity();
  }
};

double parse_number(const std::string& text, const std::string& what) {
  double value = 0.0;
  const char* begin = text.data();
  auto [ptr, ec] = std::from_chars(begin, begin + text.size(), value);
  if (ec != std::errc{} || ptr != begin + text.size()) {
    throw UsageError("bad " + what + ": '" + text + "'");
  }
  return value;
}

double parse_positive(const std::string& text, const std::string& what) {
  const double value = parse_number(text, what);
  if (!(value > 0.0)) {
    throw UsageError(what + " must be positive, got '" + text + "'");
  }
  return value;
}

/// Parses a whole number in [lo, hi]. Fractions, exponents, nan and
/// out-of-range values are usage errors naming the flag, never a cast.
template <typename T>
T parse_integer(const std::string& text, const std::string& what,
                T lo = std::numeric_limits<T>::min(),
                T hi = std::numeric_limits<T>::max()) {
  T value{};
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end || value < lo || value > hi) {
    throw UsageError(what + " must be an integer in [" + std::to_string(lo) +
                     ", " + std::to_string(hi) + "], got '" + text + "'");
  }
  return value;
}

Options parse_args(int argc, char** argv) {
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Normalise "--flag=value" to "--flag" "value" so both spellings go
    // through the same parsing and produce the same diagnostics.
    if (arg.rfind("--", 0) == 0) {
      if (const auto eq = arg.find('='); eq != std::string::npos) {
        args.push_back(arg.substr(0, eq));
        args.push_back(arg.substr(eq + 1));
        continue;
      }
    }
    args.push_back(std::move(arg));
  }
  if (args.size() < 2) throw UsageError("missing arguments");
  Options opts;
  opts.workload = args[0];
  opts.deadline_ms = parse_positive(args[1], "deadline");
  for (std::size_t i = 2; i < args.size(); ++i) {
    auto next = [&]() -> std::string {
      if (++i >= args.size()) {
        throw UsageError("missing value after " + args[i - 1]);
      }
      return args[i];
    };
    if (args[i] == "--units") {
      opts.units = parse_positive(next(), "--units");
    } else if (args[i] == "--budget") {
      opts.budget_w = parse_positive(next(), "--budget");
    } else if (args[i] == "--max-arm") {
      // Negative sizes parse: the enumeration rejects them (exit 70).
      opts.max_arm = parse_integer<int>(next(), "--max-arm");
    } else if (args[i] == "--max-amd") {
      opts.max_amd = parse_integer<int>(next(), "--max-amd");
    } else if (args[i] == "--method") {
      opts.method = next();
    } else if (args[i] == "--arm-inputs") {
      opts.arm_inputs = next();
    } else if (args[i] == "--amd-inputs") {
      opts.amd_inputs = next();
    } else if (args[i] == "--mttf-h") {
      opts.mttf_h = parse_positive(next(), "--mttf-h");
    } else if (args[i] == "--straggler-prob") {
      const double p = parse_number(next(), "--straggler-prob");
      if (p < 0.0 || p > 1.0) {
        throw UsageError("--straggler-prob must be in [0, 1]");
      }
      opts.straggler_prob = p;
    } else if (args[i] == "--checkpoint-s") {
      opts.checkpoint_s = parse_positive(next(), "--checkpoint-s");
    } else if (args[i] == "--trials") {
      opts.trials = parse_integer<int>(next(), "--trials", 1);
    } else if (args[i] == "--seed") {
      opts.seed = parse_integer<std::uint64_t>(next(), "--seed");
    } else if (args[i] == "--trace-out") {
      opts.trace_out = next();
    } else if (args[i] == "--metrics-out") {
      opts.metrics_out = next();
    } else if (args[i] == "--status-out") {
      opts.status_out = next();
    } else if (args[i] == "--profile-out") {
      opts.profile_out = next();
    } else if (args[i] == "--sweep-stats") {
      opts.sweep_stats = true;
    } else if (args[i] == "--no-prune") {
      opts.prune = false;
    } else if (args[i] == "--no-simd") {
      opts.simd = false;
    } else if (args[i] == "--ledger") {
      opts.ledger_out = next();
    } else if (args[i] == "--journal") {
      opts.journal = next();
    } else if (args[i] == "--journal-interval-s") {
      const double s = parse_number(next(), "--journal-interval-s");
      if (s < 0.0) {
        throw UsageError("--journal-interval-s must be >= 0");
      }
      opts.journal_interval_s = s;
    } else if (args[i] == "--deadline-s") {
      opts.wall_deadline_s = parse_positive(next(), "--deadline-s");
    } else if (args[i] == "--shards") {
      opts.shards = parse_integer<std::size_t>(next(), "--shards", 1);
    } else if (args[i] == "--shard-timeout-s") {
      opts.shard_timeout_s = parse_positive(next(), "--shard-timeout-s");
    } else if (args[i] == "--listen") {
      opts.listen = next();
    } else if (args[i] == "--net-timeout-s") {
      opts.net_timeout_s = parse_positive(next(), "--net-timeout-s");
    } else if (args[i] == "--max-retries") {
      opts.max_retries = parse_integer<std::size_t>(next(), "--max-retries");
    } else if (args[i] == "--log-level") {
      opts.log_level = parse_integer<int>(next(), "--log-level", 0, 2);
    } else {
      throw UsageError("unknown option: " + args[i]);
    }
  }
  if (opts.method != "exhaustive" && opts.method != "bnb" &&
      opts.method != "greedy") {
    throw UsageError("unknown method: " + opts.method);
  }
  if (opts.resilience_requested() || opts.sharded_requested()) {
    // The journal fingerprints the plain exhaustive enumeration; the
    // searchers and the budget filter evaluate a different (pruned)
    // sequence, so checkpoints would not describe their progress.
    if (opts.method != "exhaustive") {
      throw UsageError(
          "--journal/--deadline-s/--shards require --method exhaustive");
    }
    if (opts.budget_w) {
      throw UsageError(
          "--journal/--deadline-s/--shards cannot combine with --budget");
    }
  }
  if (opts.status_out && !opts.sharded_requested()) {
    throw UsageError("--status-out requires --shards");
  }
  if (!opts.listen) {
    if (const char* env = std::getenv("HEC_SHARD_LISTEN");
        env != nullptr && *env != '\0') {
      opts.listen = env;
    }
  }
  if (opts.listen) {
    if (!opts.sharded_requested()) {
      throw UsageError("--listen requires --shards");
    }
    // Fail at the CLI boundary, not mid-run inside the coordinator.
    hec::util::parse_endpoint(*opts.listen, "--listen", true);
  }
  return opts;
}

void print_outcome(const hec::ConfigOutcome& best, double work_units,
                   const hec::NodeSpec& arm, const hec::NodeSpec& amd,
                   const std::optional<double>& budget_w) {
  using hec::TablePrinter;
  std::cout << "\nRecommended configuration:\n";
  hec::TablePrinter table({"Side", "Nodes", "Cores", "Clock [GHz]",
                           "Work share"});
  table.set_alignment({hec::Align::kLeft, hec::Align::kRight,
                       hec::Align::kRight, hec::Align::kRight,
                       hec::Align::kRight});
  if (best.config.uses_arm()) {
    table.add_row({arm.name, std::to_string(best.config.arm.nodes),
                   std::to_string(best.config.arm.cores),
                   TablePrinter::num(best.config.arm.f_ghz, 1),
                   TablePrinter::num(best.units_arm, 0)});
  }
  if (best.config.uses_amd()) {
    table.add_row({amd.name, std::to_string(best.config.amd.nodes),
                   std::to_string(best.config.amd.cores),
                   TablePrinter::num(best.config.amd.f_ghz, 1),
                   TablePrinter::num(best.units_amd, 0)});
  }
  table.print(std::cout);
  std::cout << "\nService time : " << TablePrinter::num(best.t_s * 1e3, 1)
            << " ms\nJob energy   : "
            << TablePrinter::num(best.energy_j, 2) << " J (for "
            << TablePrinter::num(work_units, 0) << " work units)\n"
            << "Peak power   : "
            << TablePrinter::num(
                   config_peak_power_w(arm, amd, best.config), 1)
            << " W";
  if (budget_w) {
    std::cout << " (budget " << TablePrinter::num(*budget_w, 0) << " W)";
  }
  std::cout << "\n";
}

hec::FaultConfig fault_config_from(const Options& opts, double deadline_s) {
  hec::FaultConfig faults;
  if (opts.mttf_h) faults.mttf_s = *opts.mttf_h * 3600.0;
  if (opts.straggler_prob) {
    faults.straggler_prob = *opts.straggler_prob;
    // A straggler window spanning the nominal deadline: once a node
    // degrades it stays degraded for the rest of a typical job.
    faults.straggler_window_s = deadline_s;
  }
  if (opts.checkpoint_s) faults.checkpoint_interval_s = *opts.checkpoint_s;
  return faults;
}

void print_robust(const hec::RobustOutcome& robust, int trials,
                  double deadline_ms) {
  using hec::TablePrinter;
  std::cout << "\nUnder faults (" << trials << " Monte Carlo trials):\n"
            << "Expected time   : "
            << TablePrinter::num(robust.mean_t_s * 1e3, 1) << " ms\n"
            << "Expected energy : "
            << TablePrinter::num(robust.mean_energy_j, 2) << " J ("
            << TablePrinter::num(robust.mean_wasted_j, 2)
            << " J on lost work)\n"
            << "Deadline misses : "
            << TablePrinter::num(robust.miss_prob * 100.0, 1) << " % of "
            << TablePrinter::num(deadline_ms, 0) << " ms runs\n"
            << "Mean crashes    : "
            << TablePrinter::num(robust.mean_crashes, 2) << " per job\n";
}

/// Registers the metric schema up front so a dump always lists every
/// subsystem's counters, including those a particular run never hits
/// (a no-fault run still shows fault.crashes = 0).
void declare_metrics() {
  auto& reg = hec::obs::registry();
  for (const char* name :
       {"sim.events_processed", "sim.node_runs", "sim.work_units",
        "sim.core_busy_s", "sim.nic_busy_s", "sim.mem_stall_cycles",
        "model.predictions", "model.match_splits", "model.characterizations",
        "cluster.runs", "config.evaluations", "config.mc_trials",
        "sweep.blocks_pruned",
        "fault.runs", "fault.crashes", "fault.checkpoints", "fault.rematches",
        "fault.wasted_units", "pareto.frontier_calls", "search.evaluations"}) {
    reg.counter(name);
  }
  for (const char* name :
       {"resilience.checkpoints", "resilience.resumes",
        "resilience.journal_corrupt", "resilience.journal_bytes"}) {
    reg.counter(name);
  }
  for (const char* name :
       {"shard.spawns", "shard.reassignments", "shard.steals",
        "shard.retries", "shard.heartbeats", "shard.results_reused",
        "shard.telemetry_ingests", "shard.telemetry_rejected",
        "shard.configs_pruned",
        "shard.net.accepts", "shard.net.disconnects", "shard.net.reconnects",
        "shard.net.frames_rejected", "shard.net.partitions"}) {
    reg.counter(name);
  }
  reg.gauge("pareto.frontier_size");
  reg.gauge("sim.queue_depth");
  reg.gauge("resilience.configs_visited");
  reg.gauge("shard.shards_complete");
  reg.gauge("shard.configs_visited");
  reg.histogram("config.eval_wall_s");
  reg.histogram("shard.heartbeat_gap_s");
}

/// Provenance to append after run() returns. Populated by run() once
/// --ledger is parsed, consumed by main() — the record must carry the
/// final exit code, which only main() sees (including the error paths).
struct LedgerState {
  std::string path;
  std::vector<std::string> argv;
  std::string run_id;
  std::map<std::string, double> counters;
};
std::optional<LedgerState> g_ledger;

void write_observability(const Options& opts,
                         const hec::obs::ExternalTrace* external = nullptr) {
  // Atomic commits (hec::IoError → exit 74): an export never leaves a
  // truncated trace/metrics file behind, even on ENOSPC mid-write.
  if (opts.trace_out) {
    hec::util::AtomicFileWriter out(*opts.trace_out);
    if (opts.trace_out->ends_with(".jsonl")) {
      hec::obs::write_jsonl(out.stream(), hec::obs::tracer(),
                            hec::obs::registry());
    } else {
      hec::obs::write_chrome_trace(out.stream(), hec::obs::tracer(),
                                   &hec::obs::registry(), external);
    }
    out.commit();
    hec::obs::log(1, "wrote trace to " + *opts.trace_out);
  }
  if (opts.metrics_out) {
    hec::util::AtomicFileWriter out(*opts.metrics_out);
    hec::obs::write_prometheus(out.stream(), hec::obs::registry(),
                               &hec::obs::tracer());
    out.commit();
    hec::obs::log(1, "wrote metrics to " + *opts.metrics_out);
  }
  if (opts.profile_out) {
    hec::obs::ProfileTree tree;
    tree.add(hec::obs::tracer());
    if (external != nullptr) tree.add(*external);
    hec::util::AtomicFileWriter out(*opts.profile_out);
    if (opts.profile_out->ends_with(".folded")) {
      tree.write_collapsed(out.stream());
    } else {
      tree.write_json(out.stream());
    }
    out.commit();
    hec::obs::log(1, "wrote profile to " + *opts.profile_out);
  }
}

int run(int argc, char** argv) {
  if (argc >= 2) {
    const std::string first = argv[1];
    if (first == "--help" || first == "-h") {
      print_usage(std::cout);
      return 0;
    }
    if (first == "--version") {
      std::cout << "hecsim_cli "
                << hec::util::describe(hec::util::build_info()) << "\n";
      return 0;
    }
    if (first == "--build-info") {
      const hec::util::BuildInfo& build = hec::util::build_info();
      hec::bench::json::Value v;
      v["build_type"] = build.build_type;
      v["git_sha"] = build.git_sha;
      v["obs"] = build.obs_enabled;
      v["tool"] = "hecsim_cli";
      v["version"] = build.version;
      std::cout << v.dump() << "\n";
      return 0;
    }
  }
  const Options opts = parse_args(argc, argv);
  if (opts.ledger_out) {
    g_ledger.emplace();
    g_ledger->path = *opts.ledger_out;
    for (int i = 0; i < argc; ++i) g_ledger->argv.emplace_back(argv[i]);
  }
  hec::obs::set_log_level(opts.log_level);
  if (opts.obs_requested()) declare_metrics();
  const hec::Workload workload = hec::find_workload(opts.workload);
  const double units = opts.units.value_or(workload.analysis_units);
  const double deadline_s = opts.deadline_ms * 1e-3;

  const hec::NodeSpec arm = hec::arm_cortex_a9();
  const hec::NodeSpec amd = hec::amd_opteron_k10();
  std::cout << "Characterising " << workload.name << " ("
            << hec::to_string(workload.bottleneck)
            << "-bound) on both node types...\n";
  // A side with a persisted inputs file skips the (expensive) workload
  // baseline runs; power characterisation is cheap and always measured.
  const auto make_model = [&](const hec::NodeSpec& spec,
                              const std::optional<std::string>& inputs_file) {
    if (!inputs_file) return build_node_model(spec, workload);
    return hec::NodeTypeModel(spec, hec::load_workload_inputs(*inputs_file),
                              characterize_power(spec));
  };
  const auto models = [&] {
    HEC_SPAN("cli.characterize");
    auto arm_m = make_model(arm, opts.arm_inputs);
    auto amd_m = make_model(amd, opts.amd_inputs);
    return std::pair{std::move(arm_m), std::move(amd_m)};
  }();
  const hec::NodeTypeModel& arm_model = models.first;
  const hec::NodeTypeModel& amd_model = models.second;
  const hec::ConfigEvaluator evaluator(arm_model, amd_model);
  const hec::EnumerationLimits limits{opts.max_arm, opts.max_amd};
  hec::SweepOptions sweep_options;
  sweep_options.prune = opts.prune;
  sweep_options.simd = opts.simd;

  std::optional<hec::ConfigOutcome> best;
  std::size_t evaluations = 0;
  bool partial = false;              // wall deadline stopped the sweep
  bool shards_failed = false;        // a shard exhausted its retry budget
  std::size_t configs_total = 0;     // coverage denominator when partial
  // Evaluated/pruned split for --sweep-stats and the ledger. Present on
  // the sweep-engine paths (in-memory, resumable, sharded); the budget
  // loop and the searchers evaluate everything they visit, so pruned
  // stays 0 there.
  bool have_sweep_split = false;
  std::size_t sweep_evaluated = 0;
  std::size_t sweep_pruned = 0;
  // Configs the seed pass evaluated before the walk (in-memory and
  // sharded sweeps; the resumable sweep never self-seeds). Reported on
  // their own: the walk's evaluated + pruned still covers the space.
  std::size_t sweep_seeded = 0;
  // Worker spans + coordinator decisions from a sharded run, threaded
  // into the Chrome trace export. Empty (and skipped by the writer) on
  // every other path.
  hec::obs::ExternalTrace merged_trace;
  // The answer rule of every exhaustive path: the cheapest
  // deadline-feasible frontier point (on an equal-energy plateau, the
  // fastest configuration), re-evaluated for the full outcome. Tags are
  // enumeration indices. An empty (partial) frontier has no answer.
  const auto best_from_frontier =
      [&](std::vector<hec::TimeEnergyPoint> frontier) {
        if (frontier.empty()) return;
        const hec::EnergyDeadlineCurve curve(std::move(frontier));
        if (const auto pick = curve.best_for_deadline(deadline_s)) {
          const hec::ConfigSpaceLayout layout(arm, amd, limits);
          best = evaluator.evaluate(layout.config(pick->tag), units);
        }
      };
  {
    HEC_SPAN("cli.evaluate");
    if (opts.sharded_requested()) {
      // Fault-tolerant multi-process path: shard the space across
      // worker processes with heartbeats, retries and work stealing.
      hec::shard::ShardedSweepOptions sop;
      sop.workers = *opts.shards;
      sop.heartbeat_timeout_s = opts.shard_timeout_s;
      sop.max_retries = opts.max_retries;
      sop.deadline_s =
          opts.wall_deadline_s.value_or(hec::resilience::deadline_from_env());
      sop.prune = opts.prune;
      sop.simd = opts.simd;
      if (opts.listen) sop.listen = *opts.listen;
      sop.net_timeout_s = opts.net_timeout_s;
      if (opts.status_out) sop.status_path = *opts.status_out;
      // A traced/metered run flushes telemetry at every journal commit:
      // deterministic sidecar contents are worth more than the saved
      // writes when the user asked to observe the run.
      if (opts.obs_requested()) sop.telemetry_interval_s = 0.0;
      bool temp_state = false;
      if (opts.journal) {
        sop.state_dir = *opts.journal + ".shards";
      } else {
        char tmpl[] = "/tmp/hecsim-shards-XXXXXX";
        if (::mkdtemp(tmpl) == nullptr) {
          throw hec::IoError("cannot create shard state dir");
        }
        sop.state_dir = tmpl;
        temp_state = true;
      }
      hec::shard::ShardedSweepResult sweep =
          hec::shard::sharded_sweep_frontier(arm_model, amd_model, limits,
                                             units, sop);
      merged_trace = std::move(sweep.trace);
      evaluations = sweep.configs_visited;
      partial = sweep.deadline_hit;
      shards_failed = !sweep.failed_shards.empty();
      configs_total = sweep.configs_total;
      have_sweep_split = true;
      sweep_evaluated = sweep.configs_evaluated;
      sweep_pruned = sweep.configs_pruned;
      sweep_seeded = sweep.configs_seeded;
      if (g_ledger) {
        char run_id[32];
        std::snprintf(run_id, sizeof(run_id), "%016llx",
                      static_cast<unsigned long long>(sweep.run_id));
        g_ledger->run_id = run_id;
        g_ledger->counters["shard.spawns"] =
            static_cast<double>(sweep.spawns);
        g_ledger->counters["shard.reassignments"] =
            static_cast<double>(sweep.reassignments);
        g_ledger->counters["shard.steals"] =
            static_cast<double>(sweep.steals);
        g_ledger->counters["shard.retries"] =
            static_cast<double>(sweep.retries);
        g_ledger->counters["shard.results_reused"] =
            static_cast<double>(sweep.results_reused);
      }
      std::cout << "(sharded sweep: " << sweep.shards_complete << "/"
                << sweep.shards_total << " shards across " << sop.workers
                << " workers; " << sweep.spawns << " spawns, "
                << sweep.reassignments << " reassignments, " << sweep.steals
                << " steals, " << sweep.retries << " retries, "
                << sweep.results_reused << " results reused)\n";
      best_from_frontier(std::move(sweep.frontier));
      if (sweep.complete && temp_state) {
        // Ephemeral state dir: nothing to resume, leave nothing behind.
        for (std::size_t i = 0; i < sweep.shards_total; ++i) {
          std::remove(
              hec::shard::shard_result_path(sop.state_dir, i).c_str());
          std::remove(
              hec::shard::shard_journal_path(sop.state_dir, i).c_str());
        }
        for (std::uint64_t a = 1; a <= sweep.spawns; ++a) {
          std::remove(
              hec::shard::shard_telemetry_path(sop.state_dir, a).c_str());
        }
        ::rmdir(sop.state_dir.c_str());
      }
    } else if (opts.resilience_requested()) {
      // Crash-safe path: checkpointed, deadline-bounded streaming sweep
      // over the full space (bit-identical frontier to the in-memory one).
      hec::resilience::ResilienceOptions rop;
      if (opts.journal) rop.journal_path = *opts.journal;
      if (opts.journal_interval_s) {
        rop.checkpoint_interval_s = *opts.journal_interval_s;
      }
      rop.deadline_s =
          opts.wall_deadline_s.value_or(hec::resilience::deadline_from_env());
      hec::resilience::ResumableSweepResult sweep =
          hec::resilience::resumable_sweep_frontier(
              arm_model, amd_model, limits, units, sweep_options, rop);
      evaluations = sweep.configs_visited;
      partial = !sweep.complete;
      configs_total = sweep.configs_total;
      have_sweep_split = true;
      sweep_evaluated = sweep.stats.evaluated;
      sweep_pruned = sweep.stats.pruned;
      if (sweep.resumed) {
        std::cout << "(resumed from checkpoint: " << sweep.resume_cursor
                  << " of " << sweep.configs_total
                  << " configurations already evaluated)\n";
      }
      best_from_frontier(std::move(sweep.frontier));
    } else if (opts.budget_w) {
      // The sweep engine has no power cap, so budgeted queries (under any
      // --method: the searchers' bounds ignore the cap too) evaluate the
      // within-cap configurations one by one into a frontier.
      const hec::ConfigSpaceLayout layout(arm, amd, limits);
      hec::ParetoAccumulator within_cap;
      // Batch-level timer: per-config clock reads would dominate the
      // ~100 ns evaluations they measure (see ConfigEvaluator::evaluate_all).
      HEC_SCOPED_TIMER("config.eval_wall_s");
      for (std::size_t i = 0; i < layout.size(); ++i) {
        const hec::ClusterConfig config = layout.config(i);
        if (config_peak_power_w(arm, amd, config) > *opts.budget_w) continue;
        const hec::ConfigOutcome outcome = evaluator.evaluate(config, units);
        within_cap.add({outcome.t_s, outcome.energy_j, i});
        ++evaluations;
      }
      best_from_frontier(within_cap.take());
    } else if (opts.method == "exhaustive") {
      hec::SweepResult sweep = hec::sweep_frontier(arm_model, amd_model,
                                                   limits, units,
                                                   sweep_options);
      evaluations = sweep.stats.configs;
      have_sweep_split = true;
      sweep_evaluated = sweep.stats.evaluated;
      sweep_pruned = sweep.stats.pruned;
      sweep_seeded = sweep.stats.seeded;
      best_from_frontier(std::move(sweep.frontier));
    } else {
      const auto result =
          opts.method == "bnb"
              ? branch_and_bound_search(evaluator, arm, amd, limits, units,
                                        deadline_s)
              : greedy_search(evaluator, arm, amd, limits, units, deadline_s);
      if (result) {
        best = result->best;
        evaluations = result->evaluations;
      }
    }
  }
  if (g_ledger) {
    // Protocol-derived tallies only: these come from the sweep results
    // themselves, so the record is identical under HEC_OBS_DISABLE.
    g_ledger->counters["sweep.configs_visited"] =
        static_cast<double>(evaluations);
    if (configs_total > 0) {
      g_ledger->counters["sweep.configs_total"] =
          static_cast<double>(configs_total);
    }
    if (have_sweep_split) {
      g_ledger->counters["sweep.configs_evaluated"] =
          static_cast<double>(sweep_evaluated);
      g_ledger->counters["sweep.configs_pruned"] =
          static_cast<double>(sweep_pruned);
      g_ledger->counters["sweep.configs_seeded"] =
          static_cast<double>(sweep_seeded);
    }
  }
  if (partial) {
    std::cout << "Partial sweep: visited " << evaluations << " of "
              << configs_total
              << " configurations before the wall-clock deadline";
    if (opts.journal) {
      std::cout << "; re-run with --journal " << *opts.journal
                << " to continue";
    }
    std::cout << ".\n";
  }
  if (shards_failed) {
    std::cout << "Sharded sweep: some shards exhausted their retry budget "
                 "(see stderr); covered " << evaluations << " of "
              << configs_total << " configurations.\n";
  }
  if (opts.sweep_stats) {
    // Opt-in diagnostics: strictly additive output, exit codes and the
    // default byte stream are untouched.
    const std::size_t visited = sweep_evaluated + sweep_pruned;
    std::cout << "(sweep stats: ";
    if (have_sweep_split) {
      const double frac =
          visited > 0 ? static_cast<double>(sweep_pruned) /
                            static_cast<double>(visited) * 100.0
                      : 0.0;
      char pct[16];
      std::snprintf(pct, sizeof pct, "%.1f", frac);
      const hec::ConfigSpaceLayout layout(arm, amd, limits);
      std::cout << visited << " visited = " << sweep_evaluated
                << " evaluated + " << sweep_pruned << " pruned [" << pct
                << "%]; seed: " << sweep_seeded << " evaluated; memo: "
                << layout.arm_points() + layout.amd_points()
                << " deployment tables served "
                << sweep_evaluated + sweep_seeded << " evaluations";
    } else {
      std::cout << evaluations << " evaluated, 0 pruned (method "
                << opts.method << " evaluates everything it visits)";
    }
    std::cout << ")\n";
  }
  if (!best) {
    std::cout << "No configuration of up to " << opts.max_arm << " ARM + "
              << opts.max_amd << " AMD nodes"
              << (opts.budget_w ? " within the power budget" : "")
              << (partial ? " in the visited prefix" : "") << " meets "
              << opts.deadline_ms << " ms.\n";
    write_observability(opts, &merged_trace);
    if (shards_failed) return 1;
    return partial ? hec::resilience::kExitPartial : 2;
  }
  std::cout << "(" << evaluations << " model evaluations, method "
            << opts.method << (partial ? ", partial" : "") << ")\n";
  print_outcome(*best, units, arm, amd, opts.budget_w);

  if (opts.faults_requested()) {
    HEC_SPAN("cli.robust");
    const hec::FaultConfig faults = fault_config_from(opts, deadline_s);
    hec::MonteCarloOptions mc;
    mc.trials = opts.trials;
    if (opts.seed) mc.base_seed = *opts.seed;
    const hec::RobustConfigEvaluator robust(arm_model, amd_model, faults,
                                            mc);
    print_robust(robust.evaluate(best->config, units, deadline_s),
                 mc.trials, opts.deadline_ms);
  }
  write_observability(opts, &merged_trace);
  if (shards_failed) return 1;
  return partial ? hec::resilience::kExitPartial : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto start = std::chrono::steady_clock::now();
  const int code = [&] {
    try {
      hec::util::arm_failpoints_from_env();
      return run(argc, argv);
    } catch (const UsageError& e) {
      std::cerr << "usage error: " << e.what() << "\n";
      print_usage(std::cerr);
      return 64;
    } catch (const hec::util::FailpointParseError& e) {
      std::cerr << "usage error: " << e.what() << "\n";
      return 64;
    } catch (const hec::util::EnvParseError& e) {
      // Malformed environment knobs (HEC_DEADLINE_S etc.) are user
      // input: diagnose and exit 64 rather than silently running
      // without them.
      std::cerr << "usage error: " << e.what() << "\n";
      return 64;
    } catch (const hec::ParseError& e) {
      std::cerr << "parse error: " << e.what() << "\n";
      return 65;
    } catch (const hec::ContractViolation& e) {
      std::cerr << "contract violation: " << e.what() << "\n";
      return 70;
    } catch (const hec::IoError& e) {
      std::cerr << "i/o error: " << e.what() << "\n";
      return hec::util::kExitIoError;
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }();
  if (g_ledger) {
    // Best-effort provenance: a failed append warns but never changes
    // the exit code the query itself earned.
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    hec::bench::ledger::Record rec =
        hec::bench::ledger::make_record("hecsim_cli", g_ledger->argv);
    rec.run_id = g_ledger->run_id;
    rec.exit_code = code;
    rec.wall_s = wall.count();
    rec.counters = std::move(g_ledger->counters);
    try {
      hec::bench::ledger::append(g_ledger->path, rec);
    } catch (const std::exception& e) {
      std::cerr << "warning: " << e.what() << "\n";
    }
  }
  return code;
}
