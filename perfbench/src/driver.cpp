// perfbench_driver: runs one workload of the benchmark and prints its
// metrics as the last line of standard output.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --work-dir DIR --trace-dir DIR --cli HECSIM_CLI
//                    [--threads N]
//   perfbench_driver --list-ops NAME SEED COUNT   (the generated operations)
//   perfbench_driver --catalog                    (workloads and metrics)
//
// Exit 0 with a result line, or non-zero without one on a usage error or
// when the benchmark itself cannot run.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>

#include "bench.h"
#include "stats.h"

namespace perfbench {

namespace {

struct CatalogEntry {
  const char* name;
  const char* unit;
  const char* better;  ///< "higher" or "lower"
};

const std::vector<CatalogEntry> kEndToEnd = {
    {"setup_s", "s", "lower"},
    {"op_p50_ms", "ms", "lower"},
    {"op_tail_ms", "ms", "lower"},
    {"configs_per_s", "configs/s", "higher"},
    {"peak_rss_mb", "MiB", "lower"},
    {"ok_ops_frac", "fraction", "higher"},
};

// Every traced run prints every entry (see probe_layers in traced.cpp).
const std::vector<CatalogEntry> kPerLayer = {
    {"tools.exec_floor_ms", "ms", "lower"},
    {"tools.unattributed_ms", "ms", "lower"},
    {"model.characterize_ms", "ms", "lower"},
    {"model.models", "count", "lower"},
    {"config.evaluate_ms", "ms", "lower"},
    {"config.evaluate_ns_per_config", "ns", "lower"},
    {"config.compile_ms", "ms", "lower"},
    {"config.deployments", "count", "lower"},
    {"sweep.bounds_ms", "ms", "lower"},
    {"sweep.bounds_mb", "MiB", "lower"},
    {"sweep.kernel_build_ms", "ms", "lower"},
    {"sweep.consume_ms", "ms", "lower"},
    {"sweep.ns_per_evaluated", "ns", "lower"},
    {"sweep.evaluated", "count", "lower"},
    {"sweep.pruned", "count", "higher"},
    {"sweep.chunks_pruned", "count", "higher"},
    {"sweep.configs", "count", "lower"},
    {"sweep.prune_frac", "fraction", "higher"},
    {"sweep.prune_frac.EP", "fraction", "higher"},
    {"sweep.prune_frac.memcached", "fraction", "higher"},
    {"sweep.prune_frac.x264", "fraction", "higher"},
    {"sweep.prune_frac.blackscholes", "fraction", "higher"},
    {"sweep.prune_frac.Julius", "fraction", "higher"},
    {"sweep.prune_frac.RSA-2048", "fraction", "higher"},
    {"sweep.useful_frac", "fraction", "higher"},
    {"sweep.unattributed_ms", "ms", "lower"},
    {"sweep.serial_call_ms", "ms", "lower"},
    {"sweep.pooled_pruned_spread", "fraction", "lower"},
    {"sweep.soa.flops_per_eval_computed", "flop", "lower"},
    {"sweep.soa.bytes_per_eval_computed", "B", "lower"},
    {"sweep.soa.flops_per_byte_computed", "flop/B", "higher"},
    {"sweep.scalar.flops_per_eval_computed", "flop", "lower"},
    {"sweep.scalar.bytes_per_eval_computed", "B", "lower"},
    {"sweep.scalar.flops_per_byte_computed", "flop/B", "higher"},
    {"pareto.merge_ms", "ms", "lower"},
    {"pareto.points_seen", "count", "lower"},
    {"pareto.frontier_points", "count", "lower"},
    {"parallel.speedup_x", "x", "higher"},
    {"parallel.serial_ms", "ms", "lower"},
    {"parallel.pooled_ms", "ms", "lower"},
    {"parallel.cpu_per_wall", "ratio", "higher"},
    {"parallel.workers", "count", "higher"},
    {"shard.spawns", "count", "lower"},
    {"shard.retries", "count", "lower"},
    {"shard.reassignments", "count", "lower"},
    {"shard.steals", "count", "lower"},
    {"shard.lead_in_ms", "ms", "lower"},
    {"shard.run_ms", "ms", "lower"},
    {"shard.tail_ms", "ms", "lower"},
    {"shard.wall_ms", "ms", "lower"},
    {"shard.worker_configs_per_s", "configs/s", "higher"},
    {"shard.one_process_ms", "ms", "lower"},
    {"shard.crossover_wall_ms.w1", "ms", "lower"},
    {"shard.crossover_wall_ms.w2", "ms", "lower"},
    {"shard.crossover_wall_ms.w3", "ms", "lower"},
    {"shard.speedup_x.w1", "x", "higher"},
    {"shard.speedup_x.w2", "x", "higher"},
    {"shard.speedup_x.w3", "x", "higher"},
    {"resilience.commit_ms", "ms", "lower"},
    {"resilience.commit_points", "count", "lower"},
    {"resilience.worker_checkpoint_ms", "ms", "lower"},
    {"resilience.worker_checkpoints", "count", "lower"},
    {"obs.trace_overhead_frac", "fraction", "lower"},
    {"obs.traced_ms", "ms", "lower"},
    {"obs.untraced_ms", "ms", "lower"},
    // The N-type (EX2) path, from the layer probe's three-type sweeps.
    {"config.multi.compile_ms", "ms", "lower"},
    {"config.multi.deployments", "count", "lower"},
    {"sweep.multi.bounds_ms", "ms", "lower"},
    {"sweep.multi.bounds_mb", "MiB", "lower"},
    {"sweep.multi.consume_ms", "ms", "lower"},
    {"sweep.multi.ns_per_evaluated", "ns", "lower"},
    {"sweep.multi.evaluated", "count", "lower"},
    {"sweep.multi.pruned", "count", "higher"},
    {"sweep.multi.chunks_pruned", "count", "higher"},
    {"sweep.multi.configs", "count", "lower"},
    {"sweep.multi.prune_frac", "fraction", "higher"},
    {"sweep.multi.prune_frac.EP", "fraction", "higher"},
    {"sweep.multi.prune_frac.memcached", "fraction", "higher"},
    {"sweep.multi.prune_frac.x264", "fraction", "higher"},
    {"sweep.multi.prune_frac.blackscholes", "fraction", "higher"},
    {"sweep.multi.prune_frac.Julius", "fraction", "higher"},
    {"sweep.multi.prune_frac.RSA-2048", "fraction", "higher"},
    {"sweep.multi.useful_frac", "fraction", "higher"},
    {"sweep.multi.unattributed_ms", "ms", "lower"},
    {"sweep.multi.serial_call_ms", "ms", "lower"},
    {"sweep.multi.pooled_pruned_spread", "fraction", "lower"},
    {"pareto.multi.merge_ms", "ms", "lower"},
    {"pareto.multi.points_seen", "count", "lower"},
    {"pareto.multi.frontier_points", "count", "lower"},
    {"parallel.multi.speedup_x", "x", "higher"},
    {"parallel.multi.serial_ms", "ms", "lower"},
    {"parallel.multi.pooled_ms", "ms", "lower"},
    {"parallel.multi.cpu_per_wall", "ratio", "higher"},
    {"parallel.multi.workers", "count", "higher"},
    {"obs.multi.trace_overhead_frac", "fraction", "lower"},
    {"obs.multi.traced_ms", "ms", "lower"},
    {"obs.multi.untraced_ms", "ms", "lower"},
};

std::string json_number(double v) {
  char text[64];
  std::snprintf(text, sizeof text, "%.17g", v);
  return text;
}

/// The result line: every catalogue metric, in catalogue order.
std::string result_line(const RunResult& result,
                        const std::vector<CatalogEntry>& catalog) {
  std::map<std::string, const Metric*> measured;
  for (const Metric& m : result.metrics) measured[m.name] = &m;
  std::string line = "{\"correct\": ";
  line += result.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const auto it = measured.find(catalog[i].name);
    double value = 0.0;
    if (it != measured.end()) {
      if (it->second->unit != catalog[i].unit) {
        throw std::logic_error(std::string("unit mismatch for ") + catalog[i].name);
      }
      value = it->second->value;
      measured.erase(it);
    }
    if (!std::isfinite(value)) {
      throw std::runtime_error(std::string("metric ") + catalog[i].name +
                               " is not finite");
    }
    line += std::string(i == 0 ? "" : ", ") + "\"" + catalog[i].name +
            "\": {\"value\": " + json_number(value) + ", \"unit\": \"" +
            catalog[i].unit + "\"}";
  }
  if (!measured.empty()) {
    throw std::logic_error("metric outside the catalogue: " + measured.begin()->first);
  }
  return line + "}}";
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// The workloads and metric catalogues, as JSON (BENCHMARK.json must
/// list the same; the contract test compares them).
void print_catalog() {
  const auto dump = [](const std::vector<CatalogEntry>& c) {
    std::string text = "[";
    for (std::size_t i = 0; i < c.size(); ++i) {
      text += std::string(i == 0 ? "" : ", ") + "{\"name\": " + json_string(c[i].name) +
              ", \"unit\": " + json_string(c[i].unit) +
              ", \"better\": " + json_string(c[i].better) + "}";
    }
    return text + "]";
  };
  std::string workloads_text = "[";
  for (const WorkloadInfo& w : workloads()) {
    workloads_text += std::string(workloads_text.size() > 1 ? ", " : "") +
                      "{\"name\": " + json_string(w.name) +
                      ", \"why\": " + json_string(w.why) + "}";
  }
  std::cout << "{\"workloads\": " << workloads_text << "], \"end_to_end\": "
            << dump(kEndToEnd) << ", \"per_layer\": " << dump(kPerLayer) << "}\n";
}

std::uint64_t parse_u64(const std::string& text, const char* what) {
  std::size_t used = 0;
  const unsigned long long v = std::stoull(text, &used);
  if (used != text.size()) throw std::invalid_argument(std::string("bad ") + what);
  return v;
}

int run(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--catalog") {
      print_catalog();
      return 0;
    }
    if (flag == "--list-ops" && i + 3 < argc) {
      const WorkloadInfo* w = find_workload(argv[i + 1]);
      if (w == nullptr) throw std::invalid_argument("unknown workload");
      for (const Op& op : make_ops(w->kind, parse_u64(argv[i + 2], "seed"),
                                   parse_u64(argv[i + 3], "count"))) {
        std::cout << describe(op) << "\n";
      }
      return 0;
    }
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("bad argument '" + flag + "'");
    }
    args[flag.substr(2)] = argv[++i];
  }
  for (const char* required :
       {"workload", "seed", "seconds", "trace", "work-dir", "trace-dir", "cli"}) {
    if (args.count(required) == 0) {
      throw std::invalid_argument(std::string("missing --") + required);
    }
  }
  RunContext ctx;
  ctx.workload = find_workload(args["workload"]);
  if (ctx.workload == nullptr) {
    throw std::invalid_argument("unknown workload '" + args["workload"] + "'");
  }
  ctx.seed = parse_u64(args["seed"], "seed");
  ctx.seconds = std::stod(args["seconds"]);
  const bool trace = args["trace"] == "1";
  if (!trace && args["trace"] != "0") throw std::invalid_argument("--trace is 0 or 1");
  ctx.work_dir = args["work-dir"];
  ctx.trace_dir = args["trace-dir"];
  ctx.cli_path = args["cli"];
  if (args.count("threads") != 0) ctx.threads = parse_u64(args["threads"], "threads");
  if (ctx.threads == 0 || !(ctx.seconds > 0.0)) {
    throw std::invalid_argument("--threads and --seconds must be positive");
  }

  // The oracle forks before any thread exists.
  Oracle oracle;
  ctx.oracle = &oracle;
  std::filesystem::remove_all(ctx.work_dir);
  std::filesystem::create_directories(ctx.work_dir);
  std::filesystem::create_directories(ctx.trace_dir);
  const bool cli = ctx.workload->kind == Kind::kCliQuery;
  RunResult result = trace ? run_traced(ctx)
                           : (cli ? run_cli_query(ctx) : run_in_process(ctx));
  if (!trace) {
    result.add("ok_ops_frac",
               1.0 - static_cast<double>(result.failed) /
                         static_cast<double>(result.attempted),
               "fraction");
  }
  oracle.stop();
  std::filesystem::remove_all(ctx.work_dir);

  for (const std::string& failure : result.failures) {
    std::cerr << "FAILED " << failure << "\n";
  }
  std::cerr << ctx.workload->name << " seed " << ctx.seed << ": "
            << result.attempted << " operations, " << result.failed
            << " failed\n";
  std::cout << result_line(result, trace ? kPerLayer : kEndToEnd) << std::endl;
  return 0;
}

}  // namespace

std::string trace_path(const RunContext& ctx) {
  return ctx.trace_dir + "/" + ctx.workload->name + "-seed" +
         std::to_string(ctx.seed) + ".trace.json";
}

void add_end_to_end(RunResult& result, const WorkloadInfo& workload,
                    double setup_s, const std::vector<double>& op_s,
                    double configs, double peak_rss_mb) {
  if (op_s.empty()) throw std::runtime_error("no operation completed");
  result.add("setup_s", setup_s, "s");
  result.add("op_p50_ms", median(op_s) * 1e3, "ms");
  result.add("op_tail_ms", percentile(op_s, workload.tail_pct) * 1e3, "ms");
  result.add("configs_per_s", configs / sum(op_s), "configs/s");
  result.add("peak_rss_mb", peak_rss_mb, "MiB");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
}
