// In-process operations: frontier sweeps and sharded sweeps called through
// the library's public entry points, shared by the end-to-end loop and
// the traced run.
#pragma once

#include <memory>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "hec/shard/shard.h"
#include "hec/sweep/sweep.h"
#include "spans.h"

namespace perfbench {

/// Every (program, node type) model a workload's operations use.
struct Models {
  std::vector<std::vector<std::unique_ptr<hec::NodeTypeModel>>> by_program;

  /// The program's models in the workload's node-type order.
  std::vector<const hec::NodeTypeModel*> of(int program) const;
};

/// build_node_model for every program and node type of `kind`; with a
/// log, each model is built inside a "model.characterize" span.
Models build_models(Kind kind, SpanLog* log = nullptr);

/// The program's analysis job size (the paper's Section IV-B units).
double work_units(int program);

/// Worker processes of sharded operations: one core is left to the
/// coordinator.
std::size_t shard_workers(const RunContext& ctx);

struct OpRun {
  Frontier frontier;
  hec::SweepStats stats;                   ///< frontier operations
  hec::shard::ShardedSweepResult sharded;  ///< sharded operations
  double wall_s = 0.0;                     ///< the library call alone
  double begin_us = 0.0;  ///< obs tracer clock around the call (sharded)
  double end_us = 0.0;
};

/// Runs one operation of kind `kind`; only the library call is timed.
/// `sweep` applies to frontier operations, `workers` (0 = shard_workers)
/// to sharded ones.
OpRun run_op(const RunContext& ctx, Kind kind, const Op& op,
             const Models& models, const hec::SweepOptions& sweep = {},
             std::size_t workers = 0);

/// Every output check of one operation.
Verdict check_op(const RunContext& ctx, Kind kind, const Op& op,
                 const OpRun& run, const Models& models);

/// run_op then check_op; an exception fails the operation. Returns the
/// call's wall seconds and the verdict.
std::pair<double, Verdict> run_and_check(const RunContext& ctx, Kind kind,
                                         const Op& op, const Models& models);

}  // namespace perfbench
