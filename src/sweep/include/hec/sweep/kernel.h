// Bound-and-prune + SoA/SIMD evaluation kernel for the two-type space.
//
// The kernel is the consume-block body of the fast sweeps, composing the
// two layers of the engine's fast path:
//
//   Layer 1 — analytic pruning: when a worker reaches a chunk of indices
//   it computes the chunk's optimistic (time, energy) corner from the
//   per-side rates (TwoTypeBounds, hec/sweep/bounds.h) and checks it
//   against the accumulator's compacted frontier
//   (ParetoAccumulator::corner_dominated). A dominated corner means every
//   point of the chunk would have been rejected by the accumulator's
//   prefilter, so the whole chunk is skipped — a batched prefilter,
//   result-identical by construction. incumbents() supplies the seed
//   frontier (the per-side product) that makes the test bite from the
//   first chunk in every worker.
//
//   Layer 2 — SoA/SIMD evaluation: surviving chunks are evaluated from
//   structure-of-arrays copies of the per-side DeploymentTable scalars,
//   laid out along the inner (P-state-fastest) enumeration axis. The
//   inner loop is straight-line arithmetic over contiguous arrays — the
//   exact operation sequence of CompiledOperatingPoint::predict and the
//   matched split, in the same order — so plain -O3 autovectorizes it
//   (no intrinsics, no -ffast-math, no FMA contraction on the baseline
//   target) and results stay bit-identical to the scalar path.
//
// The scalar fallback (simd = false) routes every index through
// MemoizedConfigEvaluator::evaluate_at, the pre-existing engine path. A
// table whose "uniform" per-type scalars turn out to vary per entry
// (impossible with the current model, but checked, not assumed) also
// falls back automatically.
//
// Thread-safety: consume() is const and touches only the caller's
// accumulator plus relaxed atomic counters, so one kernel instance is
// shared read-only by all sweep workers — and, via fork, by all shard
// worker processes.
#pragma once

#include <atomic>
#include <cstddef>
#include <optional>
#include <vector>

#include "hec/config/evaluate.h"
#include "hec/parallel/thread_pool.h"
#include "hec/pareto/streaming.h"
#include "hec/sweep/bounds.h"

namespace hec {

/// Evaluated / pruned accounting of one kernel's lifetime (summed over
/// every consume() call in this process).
struct KernelStats {
  std::size_t evaluated = 0;      ///< configs the model ran on
  std::size_t pruned = 0;         ///< configs skipped by bound-and-prune
  std::size_t chunks_pruned = 0;  ///< chunk ranges skipped whole
  std::size_t seeded = 0;         ///< configs incumbents() evaluated
};

class TwoTypeSweepKernel {
 public:
  struct Options {
    bool prune = true;
    bool simd = true;
    std::size_t chunk = 32;   ///< pruning granularity (indices per bound)
  };

  /// `memo` must outlive the kernel. Building takes one pass over the
  /// A+B table entries: the per-side rates the chunk corners come from,
  /// and the SoA arrays. Nothing of size O(A·B) is built.
  TwoTypeSweepKernel(const MemoizedConfigEvaluator& memo, double work_units,
                     const Options& opts);

  /// Evaluates indices [first, first + count) into `acc`, pruning
  /// dominated chunks. Safe to call concurrently with distinct
  /// accumulators.
  void consume(std::size_t first, std::size_t count,
               ParetoAccumulator& acc) const;

  /// Seed frontier of the kernel's space: the Pareto frontier of the
  /// per-side product. A config's time is W / Σr and its energy
  /// W · ΣP / Σr, so in real arithmetic a config holding a beaten
  /// deployment is beaten by the same config with the better deployment
  /// in its place, and the frontier lies inside the product of the
  /// per-side sets (per_side_set; the Pareto-set composition of
  /// Nemhauser and Ullmann). The pass evaluates every pair of the two
  /// sets plus both sets alone, with the kernel's own arithmetic (SoA or
  /// scalar, as consume() would), one accumulator per thread of `pool`
  /// when given and on the calling thread otherwise; the frontier and
  /// the count do not depend on the pool. Tags are global enumeration
  /// indices.
  ///
  /// The seed speeds the walk up; it is not the answer. Rounding can
  /// put frontier points outside the product (memcached's starved-core
  /// times), so sweeps preload the seed into every worker and still walk
  /// the whole space, skipping only chunks the seed provably dominates.
  /// Seed points are genuine points of the space, so the final frontier
  /// is unchanged (duplicates collapse in the scan). Empty when pruning
  /// is off. The evaluations count in stats().seeded, not in
  /// stats().evaluated.
  std::vector<TimeEnergyPoint> incumbents(ThreadPool* pool = nullptr) const;

  KernelStats stats() const {
    return {evaluated_.load(std::memory_order_relaxed),
            pruned_.load(std::memory_order_relaxed),
            chunks_pruned_.load(std::memory_order_relaxed),
            seeded_.load(std::memory_order_relaxed)};
  }

 private:
  /// Per-side SoA mirror of a DeploymentTable: one contiguous array per
  /// entry-varying scalar, plus the type-uniform scalars checked at
  /// build time.
  struct SideSoA {
    std::vector<double> k;        ///< time_per_unit
    std::vector<double> n;        ///< node count
    std::vector<double> f_hz;
    std::vector<double> cact;
    std::vector<double> n_cact;
    std::vector<double> spi_mem;
    std::vector<double> p_act;
    std::vector<double> p_stall;
    // Uniform across the table (verified; `usable` false otherwise).
    double inst_per_unit = 0.0;
    double wpi = 0.0;
    double spi_core = 0.0;
    double io_s_per_unit = 0.0;
    double io_bytes_per_unit = 0.0;
    double bandwidth_bytes_s = 0.0;
    double mem_active_w = 0.0;
    double io_active_w = 0.0;
    double idle_w = 0.0;
    bool eq17 = false;
    bool usable = true;
  };
  static SideSoA build_soa(const DeploymentTable& table);
  /// The lanes of `side` at `entries`, in order; uniform scalars copied.
  static SideSoA select(const SideSoA& side,
                        const std::vector<std::size_t>& entries);

  void evaluate_range(std::size_t first, std::size_t last,
                      ParetoAccumulator& acc) const;
  /// Times and energies of ARM entry `arm_index` paired with lanes
  /// [base, base + len) of `amd` (len <= the slice width).
  void hetero_slice(std::size_t arm_index, const SideSoA& amd,
                    std::size_t base, std::size_t len, double* tbuf,
                    double* ebuf) const;
  /// Times and energies of lanes [base, base + len) of `side` alone.
  void homogeneous_slice(const SideSoA& side, std::size_t base,
                         std::size_t len, double* tbuf, double* ebuf) const;
  void hetero_run(std::size_t arm_index, std::size_t amd_first,
                  std::size_t amd_last, std::size_t tag_base,
                  ParetoAccumulator& acc) const;
  void homogeneous_run(const SideSoA& side, std::size_t entry_first,
                       std::size_t entry_last, std::size_t tag_base,
                       ParetoAccumulator& acc) const;

  const MemoizedConfigEvaluator* memo_;
  double work_units_;
  bool prune_;
  bool simd_;
  std::size_t chunk_;
  std::optional<TwoTypeBounds> bounds_;
  SideSoA arm_;
  SideSoA amd_;
  std::size_t hetero_ = 0;      ///< arm_points * amd_points
  std::size_t arm_points_ = 0;
  std::size_t amd_points_ = 0;

  mutable std::atomic<std::size_t> evaluated_{0};
  mutable std::atomic<std::size_t> pruned_{0};
  mutable std::atomic<std::size_t> chunks_pruned_{0};
  mutable std::atomic<std::size_t> seeded_{0};
};

/// The seed frontier of the two-type space on its own, evaluated on the
/// calling thread: TwoTypeSweepKernel(memo, work_units, {}).incumbents().
std::vector<TimeEnergyPoint> two_type_incumbents(
    const MemoizedConfigEvaluator& memo, double work_units);

}  // namespace hec
