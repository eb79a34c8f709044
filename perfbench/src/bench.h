// Shared types of the benchmark driver: what a run knows and reports.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ops.h"
#include "oracle.h"

namespace perfbench {

struct RunContext {
  const WorkloadInfo* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  std::string work_dir;   ///< scratch space inside the checkout
  std::string trace_dir;  ///< where the traced run writes its spans
  std::string cli_path;  ///< hecsim_cli binary
  std::size_t threads = 4;  ///< library pool size (HEC_THREADS)
  Oracle* oracle = nullptr;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  ///< "describe(op): verdict", capped

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts one checked operation; a non-empty verdict fails it.
  void record(const Op& op, const std::string& verdict) {
    ++attempted;
    if (verdict.empty()) return;
    ++failed;
    if (failures.size() < 20) failures.push_back(describe(op) + ": " + verdict);
  }
};

/// A closed loop stops at the end of a generator row once its operations
/// have run for ctx.seconds and at least min_ops completed -- or, as a
/// guard for the 180 s budget, when the loop (checks included) has taken
/// kLoopWallCapS.
inline constexpr double kLoopWallCapS = 120.0;
inline bool loop_done(const RunContext& ctx, const Op& last, double op_total_s,
                      std::size_t ops) {
  return last.row_end && op_total_s >= ctx.seconds && ops >= ctx.workload->min_ops;
}

class SpanLog;

RunResult run_cli_query(const RunContext& ctx);
RunResult run_in_process(const RunContext& ctx);
/// The traced run: per-layer metrics of the workload's own operations,
/// plus a fixed layer probe for the layers they do not run.
RunResult run_traced(const RunContext& ctx);

/// Traced hecsim_cli queries: each of `ops` untraced, then with
/// --profile-out (tools, model, config.evaluate and obs metrics).
void trace_cli(const RunContext& ctx, const std::vector<Op>& ops, SpanLog& log,
               RunResult& result);

/// Operation indices of the layer probe start here, apart from the
/// workload's own.
inline constexpr std::size_t kProbeIndexBase = 1000000;

/// Where a traced run writes its spans: one Chrome trace per run.
std::string trace_path(const RunContext& ctx);

/// The end-to-end metrics every workload reports.
void add_end_to_end(RunResult& result, const WorkloadInfo& workload,
                    double setup_s, const std::vector<double>& op_s,
                    double configs, double peak_rss_mb);

}  // namespace perfbench
