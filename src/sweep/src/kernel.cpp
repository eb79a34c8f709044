#include "hec/sweep/kernel.h"

#include <algorithm>

#include "hec/obs/obs.h"
#include "hec/util/expect.h"

namespace hec {

namespace {

/// Inner-loop slice width: small enough for stack buffers, large enough
/// that the autovectorized loop amortises its prologue.
constexpr std::size_t kSlice = 64;

}  // namespace

TwoTypeSweepKernel::SideSoA TwoTypeSweepKernel::build_soa(
    const DeploymentTable& table) {
  SideSoA s;
  const std::size_t n = table.size();
  s.k.resize(n);
  s.n.resize(n);
  s.f_hz.resize(n);
  s.cact.resize(n);
  s.n_cact.resize(n);
  s.spi_mem.resize(n);
  s.p_act.resize(n);
  s.p_stall.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const DeploymentEntry& e = table.entry(i);
    const CompiledOperatingPoint::Scalars sc = e.op.scalars();
    s.k[i] = e.time_per_unit;
    s.n[i] = sc.n;
    s.f_hz[i] = sc.f_hz;
    s.cact[i] = sc.cact;
    s.n_cact[i] = sc.n_cact;
    s.spi_mem[i] = sc.spi_mem;
    s.p_act[i] = sc.p_act_w;
    s.p_stall[i] = sc.p_stall_w;
    if (i == 0) {
      s.inst_per_unit = sc.inst_per_unit;
      s.wpi = sc.wpi;
      s.spi_core = sc.spi_core;
      s.io_s_per_unit = sc.io_s_per_unit;
      s.io_bytes_per_unit = sc.io_bytes_per_unit;
      s.bandwidth_bytes_s = sc.bandwidth_bytes_s;
      s.mem_active_w = sc.mem_active_w;
      s.io_active_w = sc.io_active_w;
      s.idle_w = sc.idle_w;
      s.eq17 = sc.accounting == EnergyAccounting::kPaperEq17;
    } else if (sc.inst_per_unit != s.inst_per_unit || sc.wpi != s.wpi ||
               sc.spi_core != s.spi_core ||
               sc.io_s_per_unit != s.io_s_per_unit ||
               sc.io_bytes_per_unit != s.io_bytes_per_unit ||
               sc.bandwidth_bytes_s != s.bandwidth_bytes_s ||
               sc.mem_active_w != s.mem_active_w ||
               sc.io_active_w != s.io_active_w || sc.idle_w != s.idle_w ||
               (sc.accounting == EnergyAccounting::kPaperEq17) != s.eq17) {
      // A scalar assumed type-uniform varies per entry: the SoA replay
      // would read the wrong value, so the kernel falls back to the
      // scalar path for this space (never silently diverges).
      s.usable = false;
    }
  }
  return s;
}

TwoTypeSweepKernel::SideSoA TwoTypeSweepKernel::select(
    const SideSoA& side, const std::vector<std::size_t>& entries) {
  SideSoA s = side;
  for (std::vector<double>* lane :
       {&s.k, &s.n, &s.f_hz, &s.cact, &s.n_cact, &s.spi_mem, &s.p_act,
        &s.p_stall}) {
    std::vector<double> picked;
    picked.reserve(entries.size());
    for (const std::size_t i : entries) picked.push_back((*lane)[i]);
    *lane = std::move(picked);
  }
  return s;
}

TwoTypeSweepKernel::TwoTypeSweepKernel(const MemoizedConfigEvaluator& memo,
                                       double work_units,
                                       const Options& opts)
    : memo_(&memo),
      work_units_(work_units),
      prune_(opts.prune),
      simd_(opts.simd),
      chunk_(opts.chunk),
      arm_(build_soa(memo.arm_table())),
      amd_(build_soa(memo.amd_table())),
      arm_points_(memo.layout().arm_points()),
      amd_points_(memo.layout().amd_points()) {
  hetero_ = arm_points_ * amd_points_;
  // Degenerate work amounts make the analytic bounds meaningless, so
  // pruning silently disables (everything evaluates, nothing changes).
  if (prune_ && work_units > 0.0) {
    HEC_EXPECTS(chunk_ >= 1);
    bounds_.emplace(memo, work_units);
  }
}

std::vector<TimeEnergyPoint> TwoTypeSweepKernel::incumbents(
    ThreadPool* pool) const {
  if (!bounds_.has_value()) return {};
  HEC_SPAN("sweep.seed");
  std::vector<std::size_t> arm_set = per_side_set(bounds_->arm());
  const std::vector<std::size_t> amd_set = per_side_set(bounds_->amd());
  // Fastest ARM rows first: their points dominate most of the slower
  // rows, so the accumulators reject those before buffering them. The
  // product's frontier does not depend on the order.
  const std::vector<double>& arm_rate = bounds_->arm().rate;
  std::sort(arm_set.begin(), arm_set.end(),
            [&](std::size_t x, std::size_t y) {
              return arm_rate[x] != arm_rate[y] ? arm_rate[x] > arm_rate[y]
                                                : x < y;
            });
  const bool soa = simd_ && arm_.usable && amd_.usable;
  const SideSoA arm_sel = soa ? select(arm_, arm_set) : SideSoA{};
  const SideSoA amd_sel = soa ? select(amd_, amd_set) : SideSoA{};
  // Rows of the product: each ARM-set entry with the whole AMD set, then
  // the ARM set alone, then the AMD set alone.
  const std::size_t rows = arm_set.size() + 2;
  const auto run_row = [&](std::size_t r, ParetoAccumulator& acc) {
    const bool pairs = r < arm_set.size();
    const bool arm_alone = r == arm_set.size();
    const std::vector<std::size_t>& lanes = arm_alone ? arm_set : amd_set;
    const std::size_t tag_base = pairs       ? arm_set[r] * amd_points_
                                 : arm_alone ? hetero_
                                             : hetero_ + arm_points_;
    double tbuf[kSlice];
    double ebuf[kSlice];
    for (std::size_t base = 0; base < lanes.size(); base += kSlice) {
      const std::size_t len = std::min(kSlice, lanes.size() - base);
      if (!soa) {
        for (std::size_t j = 0; j < len; ++j) {
          const ConfigOutcome o =
              memo_->evaluate_at(tag_base + lanes[base + j], work_units_);
          tbuf[j] = o.t_s;
          ebuf[j] = o.energy_j;
        }
      } else if (pairs) {
        hetero_slice(arm_set[r], amd_sel, base, len, tbuf, ebuf);
      } else {
        homogeneous_slice(arm_alone ? arm_sel : amd_sel, base, len, tbuf,
                          ebuf);
      }
      for (std::size_t j = 0; j < len; ++j) {
        acc.add({tbuf[j], ebuf[j], tag_base + lanes[base + j]});
      }
    }
    // Fold the row into the compacted frontier the prefilter reads.
    acc.refresh();
  };
  // One accumulator per pool thread, each taking every tasks-th row.
  // Every pair is evaluated, so the count does not depend on the split.
  const std::size_t tasks = pool != nullptr ? pool->thread_count() : 1;
  std::vector<std::vector<TimeEnergyPoint>> partials(tasks);
  const auto run_task = [&](std::size_t k) {
    ParetoAccumulator acc;
    for (std::size_t r = k; r < rows; r += tasks) run_row(r, acc);
    partials[k] = acc.take();
  };
  if (pool != nullptr) {
    parallel_for(0, tasks, run_task, *pool, /*grain=*/1);
  } else {
    run_task(0);
  }
  const std::size_t count =
      (arm_set.size() + 1) * amd_set.size() + arm_set.size();
  seeded_.fetch_add(count, std::memory_order_relaxed);
  HEC_COUNTER_ADD("config.evaluations", static_cast<double>(count));
  std::vector<TimeEnergyPoint> points;
  for (const std::vector<TimeEnergyPoint>& partial : partials) {
    points.insert(points.end(), partial.begin(), partial.end());
  }
  return pareto_frontier(std::move(points));
}

void TwoTypeSweepKernel::consume(std::size_t first, std::size_t count,
                                 ParetoAccumulator& acc) const {
  const std::size_t last = first + count;
  std::size_t evaluated = 0;
  std::size_t pruned = 0;
  std::size_t chunks_pruned = 0;
  if (!prune_ || !bounds_.has_value()) {
    evaluate_range(first, last, acc);
    evaluated = count;
  } else {
    // Fold any buffered survivors into the compacted frontier first:
    // corner_dominated only sees compacted points, and a fresher
    // frontier prunes strictly more (result-identical either way).
    acc.refresh();
    std::size_t s = first;
    while (s < last) {
      // The prune_chunk grid, clipped to this claim: the corner covers
      // only indices this call would otherwise evaluate.
      const std::size_t e = std::min(last, (s / chunk_ + 1) * chunk_);
      const BoundCorner corner = bounds_->corner(s, e);
      if (acc.corner_dominated(corner.t_lo, corner.e_lo)) {
        pruned += e - s;
        ++chunks_pruned;
      } else {
        evaluate_range(s, e, acc);
        evaluated += e - s;
      }
      s = e;
    }
  }
  evaluated_.fetch_add(evaluated, std::memory_order_relaxed);
  pruned_.fetch_add(pruned, std::memory_order_relaxed);
  chunks_pruned_.fetch_add(chunks_pruned, std::memory_order_relaxed);
  // Batch accounting, as the pre-kernel consume bodies did: the memoized
  // evaluator never bumps per call, so counters stay comparable with the
  // naive path. Pruned chunks flow through worker telemetry to the
  // sharded coordinator's merged registry like any other counter.
  HEC_COUNTER_ADD("config.evaluations", static_cast<double>(evaluated));
  if (chunks_pruned > 0) {
    HEC_COUNTER_ADD("sweep.blocks_pruned",
                    static_cast<double>(chunks_pruned));
  }
}

void TwoTypeSweepKernel::evaluate_range(std::size_t first, std::size_t last,
                                        ParetoAccumulator& acc) const {
  if (!simd_ || !arm_.usable || !amd_.usable) {
    for (std::size_t i = first; i < last; ++i) {
      const ConfigOutcome o = memo_->evaluate_at(i, work_units_);
      acc.add({o.t_s, o.energy_j, i});
    }
    return;
  }
  std::size_t i = first;
  while (i < last) {
    if (i < hetero_) {
      const std::size_t a = i / amd_points_;
      const std::size_t row_end = std::min(last, (a + 1) * amd_points_);
      hetero_run(a, i - a * amd_points_, row_end - a * amd_points_, i, acc);
      i = row_end;
    } else if (i < hetero_ + arm_points_) {
      const std::size_t end = std::min(last, hetero_ + arm_points_);
      homogeneous_run(arm_, i - hetero_, end - hetero_, i, acc);
      i = end;
    } else {
      const std::size_t base = hetero_ + arm_points_;
      homogeneous_run(amd_, i - base, last - base, i, acc);
      i = last;
    }
  }
}

// The two slice bodies below replay, per lane, the exact operation
// sequence of MemoizedConfigEvaluator::evaluate_hetero /
// evaluate_*_only: the k-based matched split followed by
// CompiledOperatingPoint::predict on each side and max/sum combination.
// Same operations, same order, same operands — so the straight-line
// form is bit-identical to the scalar path (the w == 0 early-out in
// predict() is equivalent to running the expressions through: every
// term is exactly +0.0). Keeping the loops branch-free over contiguous
// arrays is what lets -O3 autovectorize them without -ffast-math.

void TwoTypeSweepKernel::hetero_run(std::size_t arm_index,
                                    std::size_t amd_first,
                                    std::size_t amd_last,
                                    std::size_t tag_base,
                                    ParetoAccumulator& acc) const {
  double tbuf[kSlice];
  double ebuf[kSlice];
  for (std::size_t base = amd_first; base < amd_last; base += kSlice) {
    const std::size_t len = std::min(kSlice, amd_last - base);
    hetero_slice(arm_index, amd_, base, len, tbuf, ebuf);
    const std::size_t tag0 = tag_base + (base - amd_first);
    for (std::size_t j = 0; j < len; ++j) {
      acc.add({tbuf[j], ebuf[j], tag0 + j});
    }
  }
}

void TwoTypeSweepKernel::hetero_slice(std::size_t arm_index,
                                      const SideSoA& amd, std::size_t base,
                                      std::size_t len, double* __restrict tbuf,
                                      double* __restrict ebuf) const {
  const double work = work_units_;
  const double k_a = arm_.k[arm_index];
  const double a_n = arm_.n[arm_index];
  const double a_f = arm_.f_hz[arm_index];
  const double a_cact = arm_.cact[arm_index];
  const double a_ncact = arm_.n_cact[arm_index];
  const double a_spimem = arm_.spi_mem[arm_index];
  const double a_pact = arm_.p_act[arm_index];
  const double a_pstall = arm_.p_stall[arm_index];

  const double* __restrict d_k = amd.k.data() + base;
  const double* __restrict d_n = amd.n.data() + base;
  const double* __restrict d_f = amd.f_hz.data() + base;
  const double* __restrict d_cact = amd.cact.data() + base;
  const double* __restrict d_ncact = amd.n_cact.data() + base;
  const double* __restrict d_spimem = amd.spi_mem.data() + base;
  const double* __restrict d_pact = amd.p_act.data() + base;
  const double* __restrict d_pstall = amd.p_stall.data() + base;
  for (std::size_t j = 0; j < len; ++j) {
    // match_split(k_a, k_d, work): shares proportional to rates.
    const double k_d = d_k[j];
    const double units_a = work * k_d / (k_a + k_d);
    const double units_d = work - units_a;

    // ARM side: predict(units_a) on the fixed arm entry.
    const double ti_a = units_a * arm_.inst_per_unit;
    const double ic_a = ti_a / a_ncact;
    const double tcore_a = ic_a * (arm_.wpi + arm_.spi_core) / a_f;
    const double tmem_a = ic_a * (arm_.wpi + a_spimem) / a_f;
    const double tcpu_a = std::max(tcore_a, tmem_a);
    const double tio_a = units_a * arm_.io_s_per_unit / a_n;
    const double t_a = std::max(tcpu_a, tio_a);
    const double tact_a = ic_a * arm_.wpi / a_f;
    double tstall_a;
    double membusy_a;
    if (arm_.eq17) {
      tstall_a = ic_a * arm_.spi_core / a_f;
      membusy_a = tmem_a;
    } else {
      tstall_a = std::max(0.0, tcpu_a - tact_a);
      const double pcms_a = ic_a * a_spimem / a_f;
      membusy_a = std::min(t_a, a_cact * pcms_a);
    }
    const double ecore_a = (a_pact * tact_a + a_pstall * tstall_a) * a_cact;
    const double emem_a = arm_.mem_active_w * membusy_a;
    const double transfer_a =
        units_a * arm_.io_bytes_per_unit / arm_.bandwidth_bytes_s / a_n;
    const double eio_a =
        arm_.io_active_w * (arm_.eq17 ? tio_a : transfer_a);
    const double eidle_a = arm_.idle_w * t_a;
    const double e_a =
        ecore_a * a_n + emem_a * a_n + eio_a * a_n + eidle_a * a_n;

    // AMD side: predict(units_d) on the lane's amd entry.
    const double ti_d = units_d * amd.inst_per_unit;
    const double ic_d = ti_d / d_ncact[j];
    const double tcore_d = ic_d * (amd.wpi + amd.spi_core) / d_f[j];
    const double tmem_d = ic_d * (amd.wpi + d_spimem[j]) / d_f[j];
    const double tcpu_d = std::max(tcore_d, tmem_d);
    const double tio_d = units_d * amd.io_s_per_unit / d_n[j];
    const double t_d = std::max(tcpu_d, tio_d);
    const double tact_d = ic_d * amd.wpi / d_f[j];
    double tstall_d;
    double membusy_d;
    if (amd.eq17) {
      tstall_d = ic_d * amd.spi_core / d_f[j];
      membusy_d = tmem_d;
    } else {
      tstall_d = std::max(0.0, tcpu_d - tact_d);
      const double pcms_d = ic_d * d_spimem[j] / d_f[j];
      membusy_d = std::min(t_d, d_cact[j] * pcms_d);
    }
    const double ecore_d =
        (d_pact[j] * tact_d + d_pstall[j] * tstall_d) * d_cact[j];
    const double emem_d = amd.mem_active_w * membusy_d;
    const double transfer_d =
        units_d * amd.io_bytes_per_unit / amd.bandwidth_bytes_s / d_n[j];
    const double eio_d =
        amd.io_active_w * (amd.eq17 ? tio_d : transfer_d);
    const double eidle_d = amd.idle_w * t_d;
    const double e_d = ecore_d * d_n[j] + emem_d * d_n[j] +
                       eio_d * d_n[j] + eidle_d * d_n[j];

    tbuf[j] = std::max(t_a, t_d);
    ebuf[j] = e_a + e_d;
  }
}

void TwoTypeSweepKernel::homogeneous_run(const SideSoA& side,
                                         std::size_t entry_first,
                                         std::size_t entry_last,
                                         std::size_t tag_base,
                                         ParetoAccumulator& acc) const {
  double tbuf[kSlice];
  double ebuf[kSlice];
  for (std::size_t base = entry_first; base < entry_last; base += kSlice) {
    const std::size_t len = std::min(kSlice, entry_last - base);
    homogeneous_slice(side, base, len, tbuf, ebuf);
    const std::size_t tag0 = tag_base + (base - entry_first);
    for (std::size_t j = 0; j < len; ++j) {
      acc.add({tbuf[j], ebuf[j], tag0 + j});
    }
  }
}

void TwoTypeSweepKernel::homogeneous_slice(const SideSoA& side,
                                           std::size_t base, std::size_t len,
                                           double* __restrict tbuf,
                                           double* __restrict ebuf) const {
  const double work = work_units_;
  const double* __restrict s_n = side.n.data() + base;
  const double* __restrict s_f = side.f_hz.data() + base;
  const double* __restrict s_cact = side.cact.data() + base;
  const double* __restrict s_ncact = side.n_cact.data() + base;
  const double* __restrict s_spimem = side.spi_mem.data() + base;
  const double* __restrict s_pact = side.p_act.data() + base;
  const double* __restrict s_pstall = side.p_stall.data() + base;
  for (std::size_t j = 0; j < len; ++j) {
    const double ti = work * side.inst_per_unit;
    const double ic = ti / s_ncact[j];
    const double tcore = ic * (side.wpi + side.spi_core) / s_f[j];
    const double tmem = ic * (side.wpi + s_spimem[j]) / s_f[j];
    const double tcpu = std::max(tcore, tmem);
    const double tio = work * side.io_s_per_unit / s_n[j];
    const double t = std::max(tcpu, tio);
    const double tact = ic * side.wpi / s_f[j];
    double tstall;
    double membusy;
    if (side.eq17) {
      tstall = ic * side.spi_core / s_f[j];
      membusy = tmem;
    } else {
      tstall = std::max(0.0, tcpu - tact);
      const double pcms = ic * s_spimem[j] / s_f[j];
      membusy = std::min(t, s_cact[j] * pcms);
    }
    const double ecore = (s_pact[j] * tact + s_pstall[j] * tstall) *
                         s_cact[j];
    const double emem = side.mem_active_w * membusy;
    const double transfer =
        work * side.io_bytes_per_unit / side.bandwidth_bytes_s / s_n[j];
    const double eio = side.io_active_w * (side.eq17 ? tio : transfer);
    const double eidle = side.idle_w * t;
    tbuf[j] = t;
    ebuf[j] = ecore * s_n[j] + emem * s_n[j] + eio * s_n[j] +
              eidle * s_n[j];
  }
}

std::vector<TimeEnergyPoint> two_type_incumbents(
    const MemoizedConfigEvaluator& memo, double work_units) {
  return TwoTypeSweepKernel(memo, work_units, {}).incumbents();
}

}  // namespace hec
