#include "hec/sweep/sweep.h"

#include <atomic>
#include <optional>
#include <utility>

#include "hec/obs/obs.h"
#include "hec/pareto/robust_frontier.h"
#include "hec/pareto/streaming.h"
#include "hec/sweep/kernel.h"
#include "hec/sweep/reduction.h"
#include "hec/util/expect.h"

namespace hec {

namespace {

ThreadPool& sweep_pool(const SweepOptions& opts) {
  return opts.pool != nullptr ? *opts.pool : global_pool();
}

/// Runs the generic streaming reduction (hec/sweep/reduction.h) over the
/// whole index space in one pass; per-worker partial frontiers merge at
/// the end. The result is bit-identical for any claim size, worker count
/// or compaction limit (see hec/pareto/streaming.h). `seed` pre-loads
/// every worker's accumulator with already-evaluated points of the
/// space (see two_type_incumbents) so bound-and-prune can fire from
/// each worker's first chunk.
template <typename ConsumeBlock>
SweepResult run_streaming_reduction(std::size_t total, std::size_t claim,
                                    const SweepOptions& opts,
                                    std::vector<TimeEnergyPoint> seed,
                                    const ConsumeBlock& consume_block) {
  SweepResult result;
  result.stats.configs = total;
  RangeReduction reduction =
      reduce_index_range(sweep_pool(opts), opts.parallel, 0, total, claim,
                         opts.compact_limit, std::move(seed), consume_block);
  result.stats.blocks = reduction.blocks;
  result.stats.workers = reduction.workers;
  result.frontier = merge_frontiers(reduction.partials);
  return result;
}

SweepResult finish(SweepResult result) {
  HEC_GAUGE_SET("sweep.frontier_size",
                static_cast<double>(result.frontier.size()));
  HEC_COUNTER_ADD("sweep.configs",
                  static_cast<double>(result.stats.configs));
  return result;
}

std::vector<TimeEnergyPoint> outcome_points(
    std::span<const ConfigOutcome> outcomes) {
  std::vector<TimeEnergyPoint> points;
  points.reserve(outcomes.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    points.push_back({outcomes[i].t_s, outcomes[i].energy_j, i});
  }
  return points;
}

/// Shared evaluated/pruned accounting for the non-kernel sweep paths
/// (robust, multi), accumulated relaxed across workers.
struct PruneCounters {
  std::atomic<std::size_t> evaluated{0};
  std::atomic<std::size_t> pruned{0};
  std::atomic<std::size_t> chunks_pruned{0};

  void store_into(SweepStats& stats) const {
    stats.evaluated = evaluated.load(std::memory_order_relaxed);
    stats.pruned = pruned.load(std::memory_order_relaxed);
    stats.blocks_pruned = chunks_pruned.load(std::memory_order_relaxed);
  }
};

/// walk_with_bounds (hec/sweep/bounds.h) plus the shared-counter and
/// observability accounting every non-kernel sweep body needs.
template <typename EvalRange>
void consume_with_bounds(const BlockBoundTable* bounds, std::size_t first,
                         std::size_t count, ParetoAccumulator& acc,
                         PruneCounters& counters, const EvalRange& eval) {
  const BoundWalkStats walk = walk_with_bounds(bounds, first, count, acc, eval);
  counters.evaluated.fetch_add(walk.evaluated, std::memory_order_relaxed);
  counters.pruned.fetch_add(walk.pruned, std::memory_order_relaxed);
  counters.chunks_pruned.fetch_add(walk.chunks_pruned,
                                   std::memory_order_relaxed);
  if (walk.chunks_pruned > 0) {
    HEC_COUNTER_ADD("sweep.blocks_pruned",
                    static_cast<double>(walk.chunks_pruned));
  }
}

}  // namespace

SweepResult sweep_frontier(const NodeTypeModel& arm_model,
                           const NodeTypeModel& amd_model,
                           const EnumerationLimits& limits,
                           double work_units, const SweepOptions& opts) {
  HEC_SPAN("sweep.frontier");
  const MemoizedConfigEvaluator memo(arm_model, amd_model, limits);
  const TwoTypeSweepKernel kernel(memo, work_units,
                                  {opts.prune, opts.simd, opts.prune_chunk});
  SweepResult result = run_streaming_reduction(
      memo.size(), opts.block, opts,
      kernel.incumbents(opts.parallel ? &sweep_pool(opts) : nullptr),
      [&](std::size_t first, std::size_t count, ParetoAccumulator& acc) {
        kernel.consume(first, count, acc);
      });
  const KernelStats ks = kernel.stats();
  result.stats.evaluated = ks.evaluated;
  result.stats.pruned = ks.pruned;
  result.stats.blocks_pruned = ks.chunks_pruned;
  result.stats.seeded = ks.seeded;
  return finish(std::move(result));
}

SweepResult sweep_frontier_reference(const NodeTypeModel& arm_model,
                                     const NodeTypeModel& amd_model,
                                     const EnumerationLimits& limits,
                                     double work_units,
                                     const SweepOptions& opts) {
  HEC_SPAN("sweep.frontier_reference");
  // The reference still materialises every outcome and sorts globally —
  // that is the pipeline it measures — but compiles each node type's
  // deployments once (DeploymentTable) instead of recompiling the full
  // model per configuration. Outcomes are bit-identical either way (see
  // MemoizedConfigEvaluator), so the frontier is unchanged.
  const MemoizedConfigEvaluator memo(arm_model, amd_model, limits);
  std::vector<ConfigOutcome> outcomes(memo.size());
  const auto eval_at = [&](std::size_t i) {
    outcomes[i] = memo.evaluate_at(i, work_units);
  };
  if (opts.parallel) {
    parallel_for(0, memo.size(), eval_at, sweep_pool(opts));
  } else {
    for (std::size_t i = 0; i < memo.size(); ++i) eval_at(i);
  }
  HEC_COUNTER_ADD("config.evaluations", static_cast<double>(memo.size()));
  SweepResult result;
  result.stats.configs = memo.size();
  result.stats.blocks = 1;
  result.stats.evaluated = memo.size();
  result.frontier = pareto_frontier(outcome_points(outcomes));
  return finish(std::move(result));
}

SweepResult sweep_robust_frontier(const RobustConfigEvaluator& evaluator,
                                  const EnumerationLimits& limits,
                                  double work_units, double deadline_s,
                                  double max_miss_prob,
                                  const SweepOptions& opts) {
  HEC_EXPECTS(max_miss_prob >= 0.0 && max_miss_prob <= 1.0);
  HEC_SPAN("sweep.robust_frontier");
  const ConfigSpaceLayout layout(evaluator.arm_model().spec(),
                                 evaluator.amd_model().spec(), limits);
  // Pruning against nominal bounds is sound only when the fault model is
  // inert: every outcome is then one exact nominal trial plus overheads
  // that only add time and energy, so the nominal corner stays a lower
  // bound on (E[time], E[energy]). Active faults (stragglers, thermal
  // caps, crashes) can reshape outcomes in either direction — pruning
  // disables and the sweep degrades to evaluate-everything.
  const bool prune =
      opts.prune && !evaluator.faults().enabled() && work_units > 0.0;
  std::optional<MemoizedConfigEvaluator> nominal;
  std::optional<BlockBoundTable> bounds;
  if (prune) {
    nominal.emplace(evaluator.arm_model(), evaluator.amd_model(), limits);
    bounds.emplace(BlockBoundTable::for_two_type(*nominal, work_units,
                                                 opts.prune_chunk));
  }
  PruneCounters counters;
  SweepResult result = run_streaming_reduction(
      layout.size(), opts.robust_block, opts, {},
      [&](std::size_t first, std::size_t count, ParetoAccumulator& acc) {
        consume_with_bounds(
            bounds.has_value() ? &*bounds : nullptr, first, count, acc,
            counters,
            [&](std::size_t s, std::size_t e, ParetoAccumulator& a) {
              for (std::size_t i = s; i < e; ++i) {
                const RobustOutcome o =
                    evaluator.evaluate(layout.config(i), work_units,
                                       deadline_s, /*parallel=*/false);
                // Same admissibility test as robust_pareto_frontier.
                if (o.miss_prob <= max_miss_prob) {
                  a.add({o.mean_t_s, o.mean_energy_j, i});
                }
              }
            });
      });
  counters.store_into(result.stats);
  return finish(std::move(result));
}

SweepResult sweep_robust_frontier_reference(
    const RobustConfigEvaluator& evaluator, const EnumerationLimits& limits,
    double work_units, double deadline_s, double max_miss_prob,
    const SweepOptions& opts) {
  HEC_SPAN("sweep.robust_frontier_reference");
  const std::vector<ClusterConfig> configs = enumerate_configs(
      evaluator.arm_model().spec(), evaluator.amd_model().spec(), limits);
  const std::vector<RobustOutcome> outcomes =
      evaluator.evaluate_all(configs, work_units, deadline_s, opts.parallel);
  std::vector<RobustPoint> points;
  points.reserve(outcomes.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    points.push_back(
        {outcomes[i].mean_t_s, outcomes[i].mean_energy_j,
         outcomes[i].miss_prob, i});
  }
  SweepResult result;
  result.stats.configs = configs.size();
  result.stats.blocks = 1;
  result.stats.evaluated = configs.size();
  result.frontier = robust_pareto_frontier(points, max_miss_prob);
  return finish(std::move(result));
}

SweepResult sweep_multi_frontier(std::vector<const NodeTypeModel*> models,
                                 std::span<const int> limits,
                                 double work_units,
                                 const SweepOptions& opts) {
  HEC_SPAN("sweep.multi_frontier");
  const MemoizedMultiEvaluator memo(std::move(models), limits);
  std::optional<BlockBoundTable> bounds;
  if (opts.prune && work_units > 0.0) {
    bounds.emplace(
        BlockBoundTable::for_multi(memo, work_units, opts.prune_chunk));
  }
  PruneCounters counters;
  SweepResult result = run_streaming_reduction(
      memo.size(), opts.block, opts, {},
      [&](std::size_t first, std::size_t count, ParetoAccumulator& acc) {
        consume_with_bounds(
            bounds.has_value() ? &*bounds : nullptr, first, count, acc,
            counters,
            [&](std::size_t s, std::size_t e, ParetoAccumulator& a) {
              for (std::size_t i = s; i < e; ++i) {
                const MultiOutcome o = memo.evaluate_at(i, work_units);
                a.add({o.t_s, o.energy_j, i});
              }
              HEC_COUNTER_ADD("config.evaluations",
                              static_cast<double>(e - s));
            });
      });
  counters.store_into(result.stats);
  return finish(std::move(result));
}

SweepResult sweep_multi_frontier_reference(
    std::vector<const NodeTypeModel*> models, std::span<const int> limits,
    double work_units, const SweepOptions& opts) {
  HEC_SPAN("sweep.multi_frontier_reference");
  std::vector<NodeSpec> specs;
  specs.reserve(models.size());
  for (const NodeTypeModel* m : models) {
    HEC_EXPECTS(m != nullptr);
    specs.push_back(m->spec());
  }
  const std::vector<MultiClusterConfig> configs =
      enumerate_multi(specs, limits);
  const MultiEvaluator evaluator(std::move(models));
  const std::vector<MultiOutcome> outcomes =
      evaluator.evaluate_all(configs, work_units, opts.parallel);
  std::vector<TimeEnergyPoint> points;
  points.reserve(outcomes.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    points.push_back({outcomes[i].t_s, outcomes[i].energy_j, i});
  }
  SweepResult result;
  result.stats.configs = configs.size();
  result.stats.blocks = 1;
  result.stats.evaluated = configs.size();
  result.frontier = pareto_frontier(std::move(points));
  return finish(std::move(result));
}

}  // namespace hec
