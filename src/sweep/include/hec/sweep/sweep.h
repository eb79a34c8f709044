// Sweep engine: frontier extraction over huge configuration spaces.
//
// The paper's methodology (Fig. 1) evaluates every configuration and
// keeps the energy-deadline Pareto frontier. The legacy pipeline
// materialises the whole space (enumerate_configs), predicts every point
// from scratch (ConfigEvaluator::evaluate_all) and sorts every outcome
// (pareto_frontier) — O(A·B) memory and O(A·B) full model predictions
// for A arm × B amd deployments. This engine composes the three
// structural optimisations that remove both costs while producing
// bit-identical frontiers:
//
//   1. Per-type memoization (hec/config DeploymentTable): the A+B
//      single-type deployments are compiled once; each pair combines two
//      cached entries in O(1) via the closed-form matched split.
//   2. Streaming enumeration (ConfigSpaceLayout): configurations are
//      decoded from their index on the fly — peak memory is O(block),
//      not O(space).
//   3. Thread-local Pareto reduction (hec/pareto ParetoAccumulator):
//      each worker keeps a partial frontier of the blocks it drained
//      from an atomic cursor; partials k-way-merge at the end. No
//      all-outcomes vector, no global sort.
//
// Every sweep_* function has a sweep_*_reference twin that runs the
// legacy pipeline; the equivalence tests assert bit-identical frontiers
// (same times, energies, tags, order) between the two on every workload.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "hec/config/enumerate.h"
#include "hec/config/evaluate.h"
#include "hec/config/multi_space.h"
#include "hec/config/robust_evaluate.h"
#include "hec/parallel/thread_pool.h"
#include "hec/pareto/frontier.h"

namespace hec {

/// Tuning knobs for the sweep engine. The defaults suit spaces from
/// thousands to hundreds of millions of points; correctness never
/// depends on them (the frontier is identical for any block/compaction
/// sizing).
struct SweepOptions {
  /// Configurations a worker claims from the shared cursor at a time.
  std::size_t block = 4096;
  /// ParetoAccumulator buffer bound (peak per-worker memory knob).
  std::size_t compact_limit = 16384;
  /// Claim size for the robust sweep, whose per-config cost is ~1000×
  /// the nominal one (Monte Carlo trials inside).
  std::size_t robust_block = 16;
  /// False forces the single-threaded path even on a multi-worker pool.
  bool parallel = true;
  /// Pool to run on; nullptr uses the library's global_pool().
  ThreadPool* pool = nullptr;
  /// Analytic bound-and-prune layer (hec/sweep/bounds.h): skips chunks
  /// of the index space whose optimistic (time, energy) corner is
  /// already dominated by the worker's partial frontier. The frontier is
  /// bit-identical either way; false restores evaluate-everything.
  bool prune = true;
  /// SoA/SIMD inner kernel (hec/sweep/kernel.h) for the two-type space;
  /// false keeps the scalar per-index path. Bit-identical either way.
  bool simd = true;
  /// Index-space granularity of pruning decisions: one (t_lo, e_lo)
  /// bound per `prune_chunk` consecutive indices.
  std::size_t prune_chunk = 32;
};

/// What a sweep did (for logs and benchmarks; not part of equivalence).
struct SweepStats {
  std::size_t configs = 0;  ///< points visited (evaluated + pruned)
  std::size_t blocks = 0;   ///< cursor claims issued
  std::size_t workers = 1;  ///< concurrent consumers
  std::size_t evaluated = 0;      ///< configs the model actually ran on
  std::size_t pruned = 0;         ///< configs skipped by bound-and-prune
  std::size_t blocks_pruned = 0;  ///< bound chunks skipped whole
  /// Configs the seed pass evaluated before the walk (two_type_incumbents;
  /// 0 when nothing seeds). Not part of `configs`: the walk still visits
  /// every index, so evaluated + pruned == configs.
  std::size_t seeded = 0;
};

/// A sweep's product: the Pareto frontier, tagged with global
/// enumeration indices (tag i ↔ enumerate order position i), plus stats.
struct SweepResult {
  std::vector<TimeEnergyPoint> frontier;
  SweepStats stats;
};

/// Frontier of the full two-type space (heterogeneous mixes plus both
/// homogeneous sweeps) for a job of `work_units`. Bit-identical to
/// sweep_frontier_reference, in O(A+B) model compilations and
/// O(block + frontier) memory.
SweepResult sweep_frontier(const NodeTypeModel& arm_model,
                           const NodeTypeModel& amd_model,
                           const EnumerationLimits& limits,
                           double work_units, const SweepOptions& opts = {});

/// Legacy pipeline (materialise + per-point model predictions + global
/// sort); the oracle the equivalence tests and benchmarks compare with.
SweepResult sweep_frontier_reference(const NodeTypeModel& arm_model,
                                     const NodeTypeModel& amd_model,
                                     const EnumerationLimits& limits,
                                     double work_units,
                                     const SweepOptions& opts = {});

/// Robust frontier under a fault model: evaluates every configuration by
/// Monte Carlo (RobustConfigEvaluator), discards points whose deadline
/// miss probability exceeds `max_miss_prob`, and reduces the survivors'
/// (E[time], E[energy]) points streamingly. Bit-identical to
/// sweep_robust_frontier_reference. Configurations stream in
/// opts.robust_block claims (per-config cost is large and variable, so
/// small dynamic claims load-balance).
SweepResult sweep_robust_frontier(const RobustConfigEvaluator& evaluator,
                                  const EnumerationLimits& limits,
                                  double work_units, double deadline_s,
                                  double max_miss_prob,
                                  const SweepOptions& opts = {});

/// Legacy robust pipeline (materialise + evaluate_all +
/// robust_pareto_frontier).
SweepResult sweep_robust_frontier_reference(
    const RobustConfigEvaluator& evaluator, const EnumerationLimits& limits,
    double work_units, double deadline_s, double max_miss_prob,
    const SweepOptions& opts = {});

/// Frontier of the N-type space (enumerate_multi order, no size cap)
/// via per-type memoization and streaming decode. Bit-identical to
/// sweep_multi_frontier_reference where the reference is allowed to
/// materialise.
SweepResult sweep_multi_frontier(std::vector<const NodeTypeModel*> models,
                                 std::span<const int> limits,
                                 double work_units,
                                 const SweepOptions& opts = {});

/// Legacy multi-type pipeline (enumerate_multi + evaluate_all + sort);
/// subject to enumerate_multi's max_points cap.
SweepResult sweep_multi_frontier_reference(
    std::vector<const NodeTypeModel*> models, std::span<const int> limits,
    double work_units, const SweepOptions& opts = {});

}  // namespace hec
