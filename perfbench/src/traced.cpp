// The traced run. Frontier operations run as the end-to-end loop runs
// them, again inside a span, again on one worker, and are then replayed
// stage by stage through the public functions the engine is built from,
// each stage in its own span. Sharded operations add the shard and
// resilience layers; cli_query's traced queries live in cli.cpp.
#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>

#include "hec/config/evaluate.h"
#include "hec/config/multi_space.h"
#include "hec/parallel/thread_pool.h"
#include "hec/pareto/streaming.h"
#include "hec/resilience/journal.h"
#include "hec/shard/critical_path.h"
#include "hec/sweep/bounds.h"
#include "hec/sweep/kernel.h"
#include "hec/sweep/reduction.h"
#include "inprocess.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

namespace {

// Kernel intensity, computed from the code each path runs (not measured;
// caches are ignored). CompiledOperatingPoint::predict performs 37
// floating-point operations per side, max and min included.
constexpr double kPredictFlops = 37.0;
// Two-type SoA kernel, per heterogeneous lane: two predictions, the
// matched split (3 + 1) and the combination (max, sum). It reads the
// eight per-entry AMD-side arrays; the ARM side is loaded once per row.
constexpr double kSoaFlops = 2.0 * kPredictFlops + 4.0 + 2.0;
constexpr double kSoaBytes = 8.0 * sizeof(double);
// N-type scalar path (MemoizedMultiEvaluator::evaluate_at) with all three
// types active, which is nearly every configuration: per type one
// prediction plus 1/k, the rate sum, the share (mul, div), max and the
// energy sum. Per type it reads the 16 scalars predict() uses, the cached
// time_per_unit and the NodeConfig copied into the outcome.
constexpr double kScalarTypes = 3.0;
constexpr double kScalarFlops = kScalarTypes * (kPredictFlops + 6.0);
constexpr double kScalarBytes =
    kScalarTypes * (16.0 * sizeof(double) + sizeof(double) + sizeof(hec::NodeConfig));

/// One operation replayed on one worker, stage by stage.
struct Replay {
  Frontier frontier;
  double compile_ms = 0.0;
  double bounds_ms = 0.0;
  double kernel_ctor_ms = 0.0;  ///< two-type only; includes its own bounds
  double incumbents_ms = 0.0;   ///< two-type only
  double consume_ms = 0.0;
  double merge_ms = 0.0;
  double bounds_mb = 0.0;
  double deployments = 0.0;
  double evaluated = 0.0;
  double pruned = 0.0;
  double chunks_pruned = 0.0;
  double points_seen = 0.0;

  /// The stages the real one-worker call runs.
  double stages_ms() const {
    return kernel_ctor_ms > 0.0
               ? compile_ms + kernel_ctor_ms + incumbents_ms + consume_ms + merge_ms
               : compile_ms + bounds_ms + consume_ms + merge_ms;
  }
};

/// sweep_frontier, stage by stage (hec/sweep/sweep.cpp).
Replay replay_two(SpanLog& log, const Op& op, const Models& models) {
  const std::vector<const hec::NodeTypeModel*> m = models.of(op.program);
  const double units = work_units(op.program);
  const hec::SweepOptions defaults;
  const std::uint64_t id = op.index;
  Replay r;
  std::optional<hec::MemoizedConfigEvaluator> memo;
  r.compile_ms = log.span(id, "config.compile", [&] {
    memo.emplace(*m[0], *m[1], hec::EnumerationLimits{op.pools[0], op.pools[1]});
  });
  std::optional<hec::BlockBoundTable> bounds;
  r.bounds_ms = log.span(id, "sweep.bounds", [&] {
    bounds.emplace(hec::BlockBoundTable::for_two_type(*memo, units, defaults.prune_chunk));
  });
  std::optional<hec::TwoTypeSweepKernel> kernel;
  r.kernel_ctor_ms = log.span(id, "sweep.kernel_build", [&] {
    kernel.emplace(*memo, units,
                   hec::TwoTypeSweepKernel::Options{defaults.prune, defaults.simd,
                                                    defaults.prune_chunk});
  });
  Frontier seed;
  r.incumbents_ms = log.span(id, "sweep.incumbents", [&] { seed = kernel->incumbents(); });
  hec::RangeReduction reduction;
  std::size_t seen = 0;
  r.consume_ms = log.span(id, "sweep.consume", [&] {
    reduction = hec::reduce_index_range(
        hec::global_pool(), false, 0, memo->size(), defaults.block,
        defaults.compact_limit, std::move(seed),
        [&](std::size_t first, std::size_t count, hec::ParetoAccumulator& acc) {
          kernel->consume(first, count, acc);
          seen = acc.points_seen();
        });
  });
  r.merge_ms = log.span(id, "pareto.merge",
                        [&] { r.frontier = hec::merge_frontiers(reduction.partials); });
  const hec::KernelStats ks = kernel->stats();
  r.bounds_mb = static_cast<double>(bounds->chunks()) * 2.0 * sizeof(double) / 1048576.0;
  r.deployments = static_cast<double>(memo->arm_table().size() + memo->amd_table().size());
  r.evaluated = static_cast<double>(ks.evaluated);
  r.pruned = static_cast<double>(ks.pruned);
  r.chunks_pruned = static_cast<double>(ks.chunks_pruned);
  r.points_seen = static_cast<double>(seen);
  return r;
}

/// sweep_multi_frontier, stage by stage (hec/sweep/sweep.cpp).
Replay replay_multi(SpanLog& log, const Op& op, const Models& models) {
  const double units = work_units(op.program);
  const hec::SweepOptions defaults;
  const std::uint64_t id = op.index;
  Replay r;
  std::optional<hec::MemoizedMultiEvaluator> memo;
  r.compile_ms = log.span(id, "config.compile",
                          [&] { memo.emplace(models.of(op.program), op.pools); });
  std::optional<hec::BlockBoundTable> bounds;
  r.bounds_ms = log.span(id, "sweep.bounds", [&] {
    bounds.emplace(hec::BlockBoundTable::for_multi(*memo, units, defaults.prune_chunk));
  });
  hec::RangeReduction reduction;
  std::size_t seen = 0;
  hec::BoundWalkStats walked;
  r.consume_ms = log.span(id, "sweep.consume", [&] {
    reduction = hec::reduce_index_range(
        hec::global_pool(), false, 0, memo->size(), defaults.block,
        defaults.compact_limit, {},
        [&](std::size_t first, std::size_t count, hec::ParetoAccumulator& acc) {
          const hec::BoundWalkStats w = hec::walk_with_bounds(
              &*bounds, first, count, acc,
              [&](std::size_t s, std::size_t e, hec::ParetoAccumulator& a) {
                for (std::size_t i = s; i < e; ++i) {
                  const hec::MultiOutcome o = memo->evaluate_at(i, units);
                  a.add({o.t_s, o.energy_j, i});
                }
              });
          walked.evaluated += w.evaluated;
          walked.pruned += w.pruned;
          walked.chunks_pruned += w.chunks_pruned;
          seen = acc.points_seen();
        });
  });
  r.merge_ms = log.span(id, "pareto.merge",
                        [&] { r.frontier = hec::merge_frontiers(reduction.partials); });
  r.bounds_mb = static_cast<double>(bounds->chunks()) * 2.0 * sizeof(double) / 1048576.0;
  for (std::size_t t = 0; t < memo->types(); ++t) {
    r.deployments += static_cast<double>(memo->table(t).size());
  }
  r.evaluated = static_cast<double>(walked.evaluated);
  r.pruned = static_cast<double>(walked.pruned);
  r.chunks_pruned = static_cast<double>(walked.chunks_pruned);
  r.points_seen = static_cast<double>(seen);
  return r;
}

/// Runs `op` untraced and inside a span, in alternating order so neither
/// side always runs warm; checks both outputs.
std::pair<OpRun, OpRun> plain_and_traced(const RunContext& ctx, Kind kind,
                                         SpanLog& log, const Op& op,
                                         const Models& models, RunResult& result,
                                         double* cpu_s_plain) {
  OpRun plain;
  OpRun traced;
  const auto run_plain = [&] {
    const double cpu = cpu_s();
    plain = run_op(ctx, kind, op, models);
    *cpu_s_plain = cpu_s() - cpu;
  };
  const auto run_traced = [&] {
    log.span(op.index, "op", [&] { traced = run_op(ctx, kind, op, models); });
  };
  if (op.index % 2 == 0) {
    run_plain();
    run_traced();
  } else {
    run_traced();
    run_plain();
  }
  result.record(op, check_op(ctx, kind, op, plain, models));
  result.record(op, check_op(ctx, kind, op, traced, models));
  return {std::move(plain), std::move(traced)};
}

void add_model_metrics(RunResult& result, const SpanLog& log) {
  std::vector<double> model_ms;
  for (const SpanLog::Span& s : log.spans()) {
    if (s.name == "model.characterize") model_ms.push_back((s.end_us - s.start_us) * 1e-3);
  }
  result.add("model.characterize_ms", median(model_ms), "ms");
  result.add("model.models", static_cast<double>(model_ms.size()), "count");
}

void trace_frontier(const RunContext& ctx, Kind kind, const std::vector<Op>& ops,
                    SpanLog& log, const Models& models, RunResult& result) {
  std::vector<double> compile_ms, bounds_ms, bounds_mb, kernel_build_ms, consume_ms,
      merge_ms, deployments, unattributed_ms, serial_ms, plain_ms, traced_ms,
      overhead;
  double consume_total = 0.0, evaluated = 0.0, pruned = 0.0, chunks_pruned = 0.0,
         configs = 0.0, frontier_points = 0.0, points_seen = 0.0, cpu_total = 0.0,
         workers = 0.0, pooled_spread = 0.0;
  std::map<int, std::pair<double, double>> pruned_by_program;  // pruned, configs
  for (const Op& op : ops) {
    double cpu = 0.0;
    const auto [plain, traced] =
        plain_and_traced(ctx, kind, log, op, models, result, &cpu);
    hec::SweepOptions one_worker;
    one_worker.parallel = false;
    OpRun serial;
    log.span(op.index, "op.one_worker",
             [&] { serial = run_op(ctx, kind, op, models, one_worker); });
    const Replay r = kind == Kind::kFrontier2 ? replay_two(log, op, models)
                                              : replay_multi(log, op, models);
    result.record(op, check_identical(serial.frontier, traced.frontier, "the pooled frontier"));
    result.record(op, check_identical(r.frontier, traced.frontier, "the engine's frontier"));

    const double n = static_cast<double>(config_count(kind, op));
    compile_ms.push_back(r.compile_ms);
    bounds_ms.push_back(r.bounds_ms);
    bounds_mb.push_back(r.bounds_mb);
    if (kind == Kind::kFrontier2) kernel_build_ms.push_back(r.kernel_ctor_ms - r.bounds_ms);
    consume_ms.push_back(r.consume_ms);
    merge_ms.push_back(r.merge_ms);
    deployments.push_back(r.deployments);
    unattributed_ms.push_back(serial.wall_s * 1e3 - r.stages_ms());
    serial_ms.push_back(serial.wall_s * 1e3);
    plain_ms.push_back(plain.wall_s * 1e3);
    traced_ms.push_back(traced.wall_s * 1e3);
    overhead.push_back(traced.wall_s / plain.wall_s - 1.0);
    consume_total += r.consume_ms;
    evaluated += r.evaluated;
    pruned += r.pruned;
    chunks_pruned += r.chunks_pruned;
    configs += n;
    frontier_points += static_cast<double>(r.frontier.size());
    points_seen += r.points_seen;
    cpu_total += cpu;
    workers = std::max(workers, static_cast<double>(plain.stats.workers));
    pooled_spread = std::max(
        pooled_spread,
        std::abs(static_cast<double>(plain.stats.pruned) -
                 static_cast<double>(traced.stats.pruned)) / n);
    pruned_by_program[op.program].first += r.pruned;
    pruned_by_program[op.program].second += n;
  }
  result.add("config.compile_ms", median(compile_ms), "ms");
  result.add("config.deployments", median(deployments), "count");
  result.add("sweep.bounds_ms", median(bounds_ms), "ms");
  result.add("sweep.bounds_mb", median(bounds_mb), "MiB");
  if (!kernel_build_ms.empty()) {
    result.add("sweep.kernel_build_ms", median(kernel_build_ms), "ms");
  }
  result.add("sweep.consume_ms", median(consume_ms), "ms");
  result.add("sweep.ns_per_evaluated", consume_total * 1e6 / evaluated, "ns");
  result.add("sweep.evaluated", evaluated, "count");
  result.add("sweep.pruned", pruned, "count");
  result.add("sweep.chunks_pruned", chunks_pruned, "count");
  result.add("sweep.configs", configs, "count");
  result.add("sweep.prune_frac", pruned / configs, "fraction");
  for (const auto& [program, counts] : pruned_by_program) {
    result.add(std::string("sweep.prune_frac.") + kPrograms[static_cast<std::size_t>(program)],
               counts.first / counts.second, "fraction");
  }
  result.add("sweep.useful_frac", frontier_points / evaluated, "fraction");
  result.add("sweep.unattributed_ms", median(unattributed_ms), "ms");
  result.add("sweep.serial_call_ms", median(serial_ms), "ms");
  result.add("sweep.pooled_pruned_spread", pooled_spread, "fraction");
  result.add("pareto.merge_ms", median(merge_ms), "ms");
  result.add("pareto.points_seen", points_seen, "count");
  result.add("pareto.frontier_points", frontier_points, "count");
  const double plain_total = sum(plain_ms);
  result.add("parallel.speedup_x", sum(serial_ms) / plain_total, "x");
  result.add("parallel.serial_ms", mean(serial_ms), "ms");
  result.add("parallel.pooled_ms", mean(plain_ms), "ms");
  result.add("parallel.cpu_per_wall", cpu_total * 1e3 / plain_total, "ratio");
  result.add("parallel.workers", workers, "count");
  // The median per-operation ratio; its bases are the mean walls.
  result.add("obs.trace_overhead_frac", median(overhead), "fraction");
  result.add("obs.traced_ms", mean(traced_ms), "ms");
  result.add("obs.untraced_ms", mean(plain_ms), "ms");
}

void trace_sharded(const RunContext& ctx, const std::vector<Op>& ops, SpanLog& log,
                   const Models& models, RunResult& result) {
  double spawns = 0.0, retries = 0.0, reassignments = 0.0, steals = 0.0;
  std::vector<double> lead_in_ms, run_ms, tail_ms, wall_ms, commit_ms,
      commit_points, checkpoint_ms;
  double worker_configs = 0.0, worker_sweep_us = 0.0;
  for (const Op& op : ops) {
    double cpu = 0.0;
    const auto [plain, traced] =
        plain_and_traced(ctx, Kind::kSharded, log, op, models, result, &cpu);
    const hec::shard::ShardedSweepResult& r = traced.sharded;
    spawns += static_cast<double>(r.spawns);
    retries += static_cast<double>(r.retries);
    reassignments += static_cast<double>(r.reassignments);
    steals += static_cast<double>(r.steals);
    const hec::shard::CriticalPath path =
        hec::shard::critical_path(r.trace.instants, traced.begin_us, traced.end_us);
    double lead_in = 0.0, running = 0.0, tail = 0.0;
    for (const hec::shard::PathSegment& s : path.segments) {
      if (s.kind == hec::shard::SegmentKind::kLeadIn) {
        lead_in += s.dur_us();
      } else if (s.kind == hec::shard::SegmentKind::kTail) {
        tail += s.dur_us();
      } else {
        running += s.dur_us();
      }
    }
    lead_in_ms.push_back(lead_in * 1e-3);
    run_ms.push_back(running * 1e-3);
    tail_ms.push_back(tail * 1e-3);
    wall_ms.push_back(path.wall_us() * 1e-3);
    // Worker spans shipped back in the result: the slice sweep of each
    // attempt, and the durable checkpoint commits inside it.
    for (const hec::obs::ExternalTrack& track : r.trace.tracks) {
      for (const hec::obs::ExternalSpan& span : track.spans) {
        if (span.name == "shard.worker_sweep") worker_sweep_us += span.dur_us;
        if (span.name == "resilience.checkpoint") checkpoint_ms.push_back(span.dur_us * 1e-3);
      }
    }
    worker_configs += static_cast<double>(r.configs_visited);
    // One durable commit of a checkpoint carrying this operation's
    // frontier, as every epoch of a shard commits one.
    const std::size_t total = config_count(Kind::kSharded, op);
    hec::resilience::SweepJournal journal(ctx.work_dir + "/commit.journal",
                                          "perfbench commit probe", total,
                                          work_units(op.program));
    hec::resilience::JournalCheckpoint checkpoint;
    checkpoint.cursor = total;
    checkpoint.seq = 1;
    checkpoint.frontier = traced.frontier;
    commit_ms.push_back(
        log.span(op.index, "resilience.commit", [&] { journal.commit(checkpoint); }));
    commit_points.push_back(static_cast<double>(traced.frontier.size()));
    journal.remove();
  }
  result.add("shard.spawns", spawns, "count");
  result.add("shard.retries", retries, "count");
  result.add("shard.reassignments", reassignments, "count");
  result.add("shard.steals", steals, "count");
  result.add("shard.lead_in_ms", median(lead_in_ms), "ms");
  result.add("shard.run_ms", median(run_ms), "ms");
  result.add("shard.tail_ms", median(tail_ms), "ms");
  result.add("shard.wall_ms", median(wall_ms), "ms");
  result.add("shard.worker_configs_per_s",
             worker_sweep_us > 0.0 ? worker_configs / (worker_sweep_us * 1e-6) : 0.0,
             "configs/s");
  result.add("resilience.commit_ms", median(commit_ms), "ms");
  result.add("resilience.commit_points", median(commit_points), "count");
  result.add("resilience.worker_checkpoint_ms",
             checkpoint_ms.empty() ? 0.0 : median(checkpoint_ms), "ms");
  result.add("resilience.worker_checkpoints", static_cast<double>(checkpoint_ms.size()),
             "count");

  // --shards crossover: the largest of the first six operations, at 1 ..
  // nproc-1 workers, beside the one-process sweep of the same operation.
  // Wall-clock scaling is only claimed up to the core count.
  const Op& probe = *std::max_element(
      ops.begin(), ops.begin() + static_cast<std::ptrdiff_t>(std::min<std::size_t>(6, ops.size())),
      [](const Op& a, const Op& b) {
        return config_count(Kind::kSharded, a) < config_count(Kind::kSharded, b);
      });
  const std::vector<const hec::NodeTypeModel*> m = models.of(probe.program);
  std::vector<double> one_ms;
  for (int rep = 0; rep < 3; ++rep) {
    one_ms.push_back(log.span(probe.index, "crossover.one_process", [&] {
      hec::sweep_frontier(*m[0], *m[1], {probe.pools[0], probe.pools[1]},
                          work_units(probe.program));
    }));
  }
  const double one = median(one_ms);
  result.add("shard.one_process_ms", one, "ms");
  for (std::size_t w = 1; w <= 3; ++w) {
    const std::string suffix = ".w" + std::to_string(w);
    if (w > shard_workers(ctx)) {
      result.add("shard.crossover_wall_ms" + suffix, 0.0, "ms");
      result.add("shard.speedup_x" + suffix, 0.0, "x");
      continue;
    }
    std::vector<double> walls;
    for (int rep = 0; rep < 3; ++rep) {
      OpRun run;
      log.span(probe.index, "crossover.sharded" + suffix,
               [&] { run = run_op(ctx, Kind::kSharded, probe, models, {}, w); });
      result.record(probe, check_op(ctx, Kind::kSharded, probe, run, models));
      walls.push_back(run.wall_s * 1e3);
    }
    result.add("shard.crossover_wall_ms" + suffix, median(walls), "ms");
    result.add("shard.speedup_x" + suffix, one / median(walls), "x");
  }
}

/// Adds `from`'s operation counts and failures to `into`, and the metrics
/// `into` does not have yet.
void absorb(RunResult& into, const RunResult& from) {
  std::set<std::string> have;
  for (const Metric& m : into.metrics) have.insert(m.name);
  for (const Metric& m : from.metrics) {
    if (have.insert(m.name).second) into.metrics.push_back(m);
  }
  into.attempted += from.attempted;
  into.failed += from.failed;
  into.failures.insert(into.failures.end(), from.failures.begin(), from.failures.end());
}

/// Measures every layer on fixed inputs -- the six programs on the 10+10
/// space of Figs. 4-5 as hecsim_cli queries and in-process two-type
/// sweeps, one generator row of sharded sweeps (1M-24M configs, large
/// enough for shards to commit checkpoints) and one generator row of
/// three-type (EX2) sweeps -- and adds the metrics the workload's own
/// operations did not produce. So every traced run prints every per-layer
/// metric, measured. The N-type path's metrics are named
/// <layer>.multi.<metric>.
void probe_layers(const RunContext& ctx, SpanLog& log, RunResult& result) {
  std::vector<Op> probe = make_setup_queries(ctx.seed, kPrograms.size());
  std::vector<Op> sharded = make_ops(Kind::kSharded, ctx.seed, kPrograms.size());
  std::vector<Op> multi = make_ops(Kind::kFrontier3, ctx.seed, kPrograms.size() + 1);
  std::size_t next = kProbeIndexBase;
  for (std::vector<Op>* ops : {&probe, &sharded, &multi}) {
    for (Op& op : *ops) op.index = next++;
  }
  RunResult two_type;
  trace_cli(ctx, probe, log, two_type);
  const Models models = build_models(Kind::kFrontier2);
  trace_frontier(ctx, Kind::kFrontier2, probe, log, models, two_type);
  trace_sharded(ctx, sharded, log, models, two_type);
  absorb(result, two_type);
  RunResult n_type;
  trace_frontier(ctx, Kind::kFrontier3, multi, log, build_models(Kind::kFrontier3), n_type);
  for (Metric& m : n_type.metrics) m.name.insert(m.name.find('.') + 1, "multi.");
  absorb(result, n_type);
}

}  // namespace

RunResult run_traced(const RunContext& ctx) {
  RunResult result;
  SpanLog log;
  hec::global_pool();
  const Kind kind = ctx.workload->kind;
  if (kind == Kind::kCliQuery) {
    // Two rows: every pool of the paper, and 10+10 for every program.
    trace_cli(ctx, make_ops(kind, ctx.seed, 36), log, result);
  } else {
    const Models models = build_models(kind, &log);
    add_model_metrics(result, log);
    const Op warmup = warmup_op(kind);
    result.record(warmup, run_and_check(ctx, kind, warmup, models).second);
    // Two rows: each program at least twice, every size stratum and two
    // reference-sized operations.
    trace_frontier(ctx, kind, make_ops(kind, ctx.seed, 14), log, models, result);
    // The shard and resilience layers run on two-type spaces, so the
    // two-type workload's traced run measures them on spaces of its own.
    trace_sharded(ctx, make_ops(Kind::kSharded, ctx.seed, 12), log, models, result);
  }
  probe_layers(ctx, log, result);
  result.add("sweep.soa.flops_per_eval_computed", kSoaFlops, "flop");
  result.add("sweep.soa.bytes_per_eval_computed", kSoaBytes, "B");
  result.add("sweep.soa.flops_per_byte_computed", kSoaFlops / kSoaBytes, "flop/B");
  result.add("sweep.scalar.flops_per_eval_computed", kScalarFlops, "flop");
  result.add("sweep.scalar.bytes_per_eval_computed", kScalarBytes, "B");
  result.add("sweep.scalar.flops_per_byte_computed", kScalarFlops / kScalarBytes, "flop/B");
  log.write_chrome_trace(trace_path(ctx));
  return result;
}

}  // namespace perfbench
