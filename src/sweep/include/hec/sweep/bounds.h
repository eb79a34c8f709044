// Analytic lower bounds for the bound-and-prune sweep layer.
//
// Every configuration's (time, energy) is exactly linear-homogeneous in
// the work amount W: a heterogeneous pair with per-side execution rates
// r = 1/time_per_unit and busy powers P = energy_per_unit * r satisfies
//
//   t = W / (r_arm + r_amd)            (matched split, Eq. 1)
//   e = t * (P_arm + P_amd)            (Eq. 12)
//
// in real arithmetic, and a homogeneous deployment is the single-type
// special case. Both are exact per configuration: e = W · (ΣP / Σr) is
// the config's true energy, not an estimate. Over any chunk of
// consecutive enumeration indices the per-chunk extremes
// R = max Σ rates and U = min (ΣP / Σr) therefore give the tightest
// axis-aligned optimistic corner the chunk admits:
//
//   t_lo = W / R * (1 - δ)     e_lo = W * U * (1 - δ)
//
// — the chunk's true minimum time and true minimum energy (over
// different configs, in general); δ = 1e-9 absorbs the gap between
// this real-arithmetic bound and the engine's floating-point replay
// (relative error ≲ 1e-13). The extremes are scanned from the actual
// compiled table entries — not derived from knob monotonicity — so
// the bounds stay sound for any calibration, including non-monotone
// SPImem profiles; pathological (non-finite) entries collapse a chunk's
// corner to -infinity, which can never be dominated, i.e. the chunk is
// simply evaluated.
//
// A chunk whose corner is dominated by the accumulator's own compacted
// frontier (ParetoAccumulator::corner_dominated) can be skipped without
// evaluating it: every one of its points would have been rejected by the
// accumulator's O(log frontier) prefilter anyway, with margin. Pruning
// is therefore a batched prefilter — result-identical for any worker
// count, chunk alignment, or resume state, which is why the journaled
// and sharded sweeps need no extra bookkeeping to stay bit-identical.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "hec/config/evaluate.h"
#include "hec/config/multi_space.h"
#include "hec/pareto/frontier.h"
#include "hec/pareto/streaming.h"

namespace hec {

/// Optimistic (time, energy) corner of a run of enumeration indices:
/// no index in the run is faster than t_lo or cheaper than e_lo. -inf
/// marks a run that can never be pruned.
struct BoundCorner {
  double t_lo;
  double e_lo;
};

/// The corner of a run whose combined rates peak at `rate_max` and
/// whose energy per work unit bottoms out at `epu_min`: W / rate_max and
/// W · epu_min, both shrunk by the slack. Anything non-finite (degenerate
/// entries, an empty run) collapses to -infinity. Every corner the
/// engine uses, tabled or computed on the fly, comes from here.
BoundCorner corner_from_extremes(double rate_max, double epu_min,
                                 double work_units);

/// Running extremes of a run of configurations: max Σr and min ΣP/Σr.
/// A matched split equalises per-side times, so a configuration with
/// combined rate R = Σ 1/k and combined busy power P = Σ e/k services W
/// units in exactly t = W/R seconds for exactly e = W·P/R joules; the
/// two extremes give the run's true minimum time and true minimum
/// energy, the tightest axis-aligned corner it admits. A NaN never
/// replaces an extreme, and neither extreme depends on the order the
/// configurations come in.
class RunExtremes {
 public:
  /// Folds one configuration of combined rate `rate` and combined busy
  /// power `power`.
  void add(double rate, double power) { fold(0, rate, power / rate); }
  /// Folds configs j in [0, n) whose rate is rb + r[j] and whose busy
  /// power is pb + p[j] (rb = pb = 0 for a single-type run).
  void feed(double rb, double pb, const double* r, const double* p,
            std::size_t n);
  /// corner_from_extremes of everything folded so far.
  BoundCorner corner(double work_units) const;

 private:
  // feed() keeps kLanes independent max/min chains, so consecutive
  // configs do not wait on each other's comparison (the sweep walk
  // computes one corner per chunk it reaches).
  static constexpr std::size_t kLanes = 4;
  static constexpr double kInf = std::numeric_limits<double>::infinity();
  void fold(std::size_t lane, double rate, double epu) {
    rate_max_[lane] = rate > rate_max_[lane] ? rate : rate_max_[lane];
    epu_min_[lane] = epu < epu_min_[lane] ? epu : epu_min_[lane];
  }
  double rate_max_[kLanes] = {-kInf, -kInf, -kInf, -kInf};
  double epu_min_[kLanes] = {kInf, kInf, kInf, kInf};
};

/// Per-entry execution rate (1/k) and busy power (energy per unit ×
/// rate) of one node type's deployments.
struct SideRates {
  std::vector<double> rate;
  std::vector<double> power;
};

/// The SideRates of a compiled deployment table, entry by entry.
SideRates side_rates(const DeploymentTable& table);

/// The two-type space's bounds without a table: the O(A+B) per-side
/// rates and busy powers, from which any run's corner is computed on
/// demand. Sweep workers call corner() on each chunk they reach, so no
/// serial O(A·B) pass runs before the sweep and nothing of size O(A·B)
/// is stored.
class TwoTypeBounds {
 public:
  /// `memo` need not outlive the bounds. work_units must be > 0.
  TwoTypeBounds(const MemoizedConfigEvaluator& memo, double work_units);

  /// Corner of global indices [first, last) of the layout (hetero
  /// ARM-major, then ARM-only, then AMD-only), through RunExtremes.
  BoundCorner corner(std::size_t first, std::size_t last) const;

  std::size_t size() const { return hetero_ + arm_points_ + amd_points_; }
  const SideRates& arm() const { return arm_; }
  const SideRates& amd() const { return amd_; }

 private:
  SideRates arm_;
  SideRates amd_;
  std::size_t arm_points_;
  std::size_t amd_points_;
  std::size_t hetero_;
  double work_units_;
};

/// Per-chunk optimistic lower bounds on (time, energy) over an index
/// space, aligned to global index 0. Immutable after construction and
/// shared read-only across sweep workers. The two-type kernel computes
/// its corners in the workers instead (TwoTypeBounds); the table serves
/// the robust and N-type sweeps.
class BlockBoundTable {
 public:
  /// Bounds for the two-type space (sweep_frontier's layout: hetero
  /// ARM-major, then ARM-only, then AMD-only); chunk c's corner is
  /// TwoTypeBounds::corner over the chunk.
  static BlockBoundTable for_two_type(const MemoizedConfigEvaluator& memo,
                                      double work_units, std::size_t chunk);

  /// Bounds for the N-type space (sweep_multi_frontier's odometer
  /// layout); an absent type contributes rate 0 and power 0.
  static BlockBoundTable for_multi(const MemoizedMultiEvaluator& memo,
                                   double work_units, std::size_t chunk);

  std::size_t chunk_size() const { return chunk_; }
  std::size_t chunks() const { return t_lo_.size(); }

  /// Optimistic corner of chunk c, valid for every index in
  /// [c * chunk_size(), (c + 1) * chunk_size()) ∩ [0, total).
  double t_lo(std::size_t c) const { return t_lo_[c]; }
  double e_lo(std::size_t c) const { return e_lo_[c]; }

 private:
  BlockBoundTable(std::size_t chunk, std::vector<double> t_lo,
                  std::vector<double> e_lo);

  std::size_t chunk_;
  std::vector<double> t_lo_;  ///< per chunk; -inf disables pruning it
  std::vector<double> e_lo_;
};

/// One side's per-side set: the indices of the deployments that no
/// other deployment of the same type beats, in ascending order. j is
/// beaten by i when rate[i] >= rate[j] and power[i] <= power[j]; on an
/// exact tie in both the lower index survives. Entries with a
/// non-finite or non-positive rate, or a non-finite power, are left
/// out. One sort: by rate descending, power ascending, index ascending,
/// then a running-minimum scan over power.
std::vector<std::size_t> per_side_set(const SideRates& side);

/// What one bounded walk over a claimed block did.
struct BoundWalkStats {
  std::size_t evaluated = 0;      ///< indices handed to eval()
  std::size_t pruned = 0;         ///< indices skipped whole-chunk
  std::size_t chunks_pruned = 0;  ///< chunks skipped
};

/// Layer-1 walk shared by every sweep body that is not kernel-backed:
/// visits [first, first + count) in `bounds` chunks, skips chunks whose
/// optimistic corner the accumulator's own frontier dominates, and hands
/// each surviving sub-range to `eval(sub_first, sub_last, acc)`. With
/// bounds == nullptr everything evaluates (pruning off). Skipping is a
/// batched form of the accumulator's prefilter, so the resulting
/// frontier — partial or final — is bit-identical either way.
template <typename EvalRange>
BoundWalkStats walk_with_bounds(const BlockBoundTable* bounds,
                                std::size_t first, std::size_t count,
                                ParetoAccumulator& acc,
                                const EvalRange& eval) {
  BoundWalkStats stats;
  const std::size_t last = first + count;
  // Fold buffered survivors into the compacted frontier first: the
  // corner test only sees compacted points, and a fresher frontier
  // prunes strictly more (result-identical either way).
  if (bounds != nullptr) acc.refresh();
  std::size_t s = first;
  while (s < last) {
    std::size_t e = last;
    if (bounds != nullptr) {
      const std::size_t c = s / bounds->chunk_size();
      e = std::min(last, (c + 1) * bounds->chunk_size());
      if (acc.corner_dominated(bounds->t_lo(c), bounds->e_lo(c))) {
        stats.pruned += e - s;
        ++stats.chunks_pruned;
        s = e;
        continue;
      }
    }
    eval(s, e, acc);
    stats.evaluated += e - s;
    s = e;
  }
  return stats;
}

}  // namespace hec
