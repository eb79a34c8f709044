#include "inprocess.h"

#include <algorithm>
#include <filesystem>

#include "hec/model/characterize.h"
#include "hec/obs/span.h"
#include "hec/parallel/thread_pool.h"
#include "hec/workloads/workload.h"
#include "stats.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;


hec::EnumerationLimits two_type_limits(const Op& op) {
  return {op.pools[0], op.pools[1]};
}

std::string shard_state_dir(const RunContext& ctx) {
  return ctx.work_dir + "/shards";
}

}  // namespace

std::vector<const hec::NodeTypeModel*> Models::of(int program) const {
  std::vector<const hec::NodeTypeModel*> models;
  for (const auto& m : by_program[static_cast<std::size_t>(program)]) {
    models.push_back(m.get());
  }
  return models;
}

Models build_models(Kind kind, SpanLog* log) {
  Models models;
  for (std::size_t p = 0; p < kPrograms.size(); ++p) {
    const hec::Workload workload = hec::find_workload(kPrograms[p]);
    auto& row = models.by_program.emplace_back();
    for (const NodeType type : node_types(kind)) {
      const auto build = [&] {
        row.push_back(std::make_unique<hec::NodeTypeModel>(
            hec::build_node_model(spec_of(type), workload)));
      };
      if (log != nullptr) {
        log->span(0, "model.characterize", build);
      } else {
        build();
      }
    }
  }
  return models;
}

double work_units(int program) {
  return hec::find_workload(kPrograms[static_cast<std::size_t>(program)])
      .analysis_units;
}

std::size_t shard_workers(const RunContext& ctx) {
  return std::max<std::size_t>(1, ctx.threads - 1);
}

OpRun run_op(const RunContext& ctx, Kind kind, const Op& op,
             const Models& models, const hec::SweepOptions& sweep,
             std::size_t workers) {
  const std::vector<const hec::NodeTypeModel*> m = models.of(op.program);
  const double units = work_units(op.program);
  OpRun run;
  switch (kind) {
    case Kind::kFrontier2: {
      const double start = now_s();
      hec::SweepResult r =
          hec::sweep_frontier(*m[0], *m[1], two_type_limits(op), units, sweep);
      run.wall_s = now_s() - start;
      run.frontier = std::move(r.frontier);
      run.stats = r.stats;
      break;
    }
    case Kind::kFrontier3: {
      const double start = now_s();
      hec::SweepResult r = hec::sweep_multi_frontier(m, op.pools, units, sweep);
      run.wall_s = now_s() - start;
      run.frontier = std::move(r.frontier);
      run.stats = r.stats;
      break;
    }
    case Kind::kSharded: {
      // A fresh state directory per operation: durable results of an
      // earlier operation must never be reused.
      const std::string dir = shard_state_dir(ctx);
      fs::remove_all(dir);
      fs::create_directories(dir);
      hec::shard::ShardedSweepOptions opts;
      opts.workers = workers == 0 ? shard_workers(ctx) : workers;
      opts.state_dir = dir;
      run.begin_us = hec::obs::tracer().now_us();
      const double start = now_s();
      run.sharded = hec::shard::sharded_sweep_frontier(
          *m[0], *m[1], two_type_limits(op), units, opts);
      run.wall_s = now_s() - start;
      run.end_us = hec::obs::tracer().now_us();
      run.frontier = run.sharded.frontier;
      fs::remove_all(dir);
      break;
    }
    case Kind::kCliQuery:
      break;
  }
  return run;
}

Verdict check_op(const RunContext& ctx, Kind kind, const Op& op,
                 const OpRun& run, const Models& models) {
  try {
    const SpaceEvaluator space(models.of(op.program), op.pools,
                               work_units(op.program));
    if (kind == Kind::kSharded) {
      const hec::shard::ShardedSweepResult& r = run.sharded;
      if (!r.complete || !r.failed_shards.empty() ||
          r.configs_visited != r.configs_total) {
        return "incomplete sharded run: " + std::to_string(r.shards_complete) +
               "/" + std::to_string(r.shards_total) + " shards, " +
               std::to_string(r.configs_visited) + "/" +
               std::to_string(r.configs_total) + " configs";
      }
      Verdict v = check_points(run.frontier, space);
      if (!v.empty()) return v;
      return check_identical(
          run.frontier,
          ctx.oracle->ask(Oracle::Query::kTwoEngine, op.program, op.pools),
          "the one-process sweep_frontier");
    }
    const Frontier* reference = nullptr;
    if (op.reference) {
      reference = &ctx.oracle->ask(kind == Kind::kFrontier2
                                       ? Oracle::Query::kTwoReference
                                       : Oracle::Query::kMultiReference,
                                   op.program, op.pools);
    }
    return check_frontier(run.frontier, space, op.sample_seed, reference);
  } catch (const std::exception& e) {
    return std::string("check raised: ") + e.what();
  }
}

std::pair<double, Verdict> run_and_check(const RunContext& ctx, Kind kind,
                                         const Op& op, const Models& models) {
  const double start = now_s();
  try {
    const OpRun run = run_op(ctx, kind, op, models);
    return {run.wall_s, check_op(ctx, kind, op, run, models)};
  } catch (const std::exception& e) {
    return {now_s() - start, std::string("operation raised: ") + e.what()};
  }
}

RunResult run_in_process(const RunContext& ctx) {
  RunResult result;
  const Kind kind = ctx.workload->kind;

  // Set-up: every model the operations use, plus the library pool's
  // start (once: the pool is a process-wide singleton). The models are
  // built again, untimed for the operations, after every row; setup_s is
  // the median of all builds, so it samples the whole run rather than
  // its first instant.
  const double pool_start = now_s();
  hec::global_pool();
  const double pool_s = now_s() - pool_start;
  std::vector<double> setup_s;
  const auto timed_build = [&] {
    const double start = now_s();
    Models built = build_models(kind);
    setup_s.push_back(now_s() - start + pool_s);
    return built;
  };
  const Models models = timed_build();

  const Op warmup = warmup_op(kind);
  result.record(warmup, run_and_check(ctx, kind, warmup, models).second);

  const std::vector<Op> ops = make_ops(kind, ctx.seed, 20000);
  std::vector<double> op_s;
  double op_total = 0.0;
  double configs = 0.0;
  const double loop_start = now_s();
  for (const Op& op : ops) {
    if (now_s() - loop_start > kLoopWallCapS) break;
    const auto [wall_s, verdict] = run_and_check(ctx, kind, op, models);
    op_s.push_back(wall_s);
    op_total += wall_s;
    configs += static_cast<double>(config_count(kind, op));
    result.record(op, verdict);
    if (loop_done(ctx, op, op_total, op_s.size())) break;
    if (op.row_end) timed_build();
  }
  // The oracle is a separate process, so this is the program's memory.
  add_end_to_end(result, *ctx.workload, median(setup_s), op_s, configs,
                 peak_rss_self_mb());
  return result;
}

}  // namespace perfbench
