#include "hec/sweep/bounds.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "hec/obs/obs.h"
#include "hec/util/expect.h"

namespace hec {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Relative slack between the real-arithmetic bound and the engine's
/// floating-point replay; the replay's rounding error is ≲ 1e-13, so
/// 1e-9 leaves orders of magnitude of margin.
constexpr double kBoundSlack = 1.0 - 1e-9;

}  // namespace

BoundCorner corner_from_extremes(double rate_max, double epu_min,
                                 double work_units) {
  const double t = work_units / rate_max * kBoundSlack;
  const double e = work_units * epu_min * kBoundSlack;
  if (!(rate_max > 0.0) || !std::isfinite(t) || !std::isfinite(e)) {
    return {-kInf, -kInf};
  }
  return {t, e};
}

SideRates side_rates(const DeploymentTable& table) {
  SideRates s;
  s.rate.resize(table.size());
  s.power.resize(table.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    const DeploymentEntry& e = table.entry(i);
    s.rate[i] = 1.0 / e.time_per_unit;
    s.power[i] = e.op.energy_per_unit() * s.rate[i];
  }
  return s;
}

TwoTypeBounds::TwoTypeBounds(const MemoizedConfigEvaluator& memo,
                             double work_units)
    : arm_(side_rates(memo.arm_table())),
      amd_(side_rates(memo.amd_table())),
      arm_points_(arm_.rate.size()),
      amd_points_(amd_.rate.size()),
      hetero_(arm_points_ * amd_points_),
      work_units_(work_units) {
  HEC_EXPECTS(work_units > 0.0);
}

void RunExtremes::feed(double rb, double pb, const double* __restrict r,
                       const double* __restrict p, std::size_t n) {
  // The divisions run over a slice buffer the compiler vectorizes.
  constexpr std::size_t kSlice = 32;
  double rate[kSlice];
  double epu[kSlice];  // energy per work unit, per config
  for (std::size_t base = 0; base < n; base += kSlice) {
    const std::size_t len = std::min(kSlice, n - base);
    for (std::size_t j = 0; j < len; ++j) {
      rate[j] = rb + r[base + j];
      epu[j] = (pb + p[base + j]) / rate[j];
    }
    std::size_t j = 0;
    for (; j + kLanes <= len; j += kLanes) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        fold(l, rate[j + l], epu[j + l]);
      }
    }
    for (; j < len; ++j) fold(0, rate[j], epu[j]);
  }
}

BoundCorner RunExtremes::corner(double work_units) const {
  double rate_max = rate_max_[0];
  double epu_min = epu_min_[0];
  for (std::size_t l = 1; l < kLanes; ++l) {
    rate_max = rate_max_[l] > rate_max ? rate_max_[l] : rate_max;
    epu_min = epu_min_[l] < epu_min ? epu_min_[l] : epu_min;
  }
  return corner_from_extremes(rate_max, epu_min, work_units);
}

BoundCorner TwoTypeBounds::corner(std::size_t first, std::size_t last) const {
  HEC_EXPECTS(first <= last && last <= size());
  RunExtremes run;
  std::size_t i = first;
  // Hetero region (ARM-major): rates and powers add across the pair.
  while (i < last && i < hetero_) {
    const std::size_t a = i / amd_points_;
    const std::size_t d = i - a * amd_points_;
    const std::size_t n = std::min(last - i, amd_points_ - d);
    run.feed(arm_.rate[a], arm_.power[a], amd_.rate.data() + d,
             amd_.power.data() + d, n);
    i += n;
  }
  // Homogeneous tails: single-type rates.
  if (i < last && i < hetero_ + arm_points_) {
    const std::size_t a = i - hetero_;
    const std::size_t n = std::min(last - i, arm_points_ - a);
    run.feed(0.0, 0.0, arm_.rate.data() + a, arm_.power.data() + a, n);
    i += n;
  }
  if (i < last) {
    const std::size_t d = i - hetero_ - arm_points_;
    run.feed(0.0, 0.0, amd_.rate.data() + d, amd_.power.data() + d,
             last - i);
  }
  return run.corner(work_units_);
}

BlockBoundTable::BlockBoundTable(std::size_t chunk, std::vector<double> t_lo,
                                 std::vector<double> e_lo)
    : chunk_(chunk), t_lo_(std::move(t_lo)), e_lo_(std::move(e_lo)) {}

BlockBoundTable BlockBoundTable::for_two_type(
    const MemoizedConfigEvaluator& memo, double work_units,
    std::size_t chunk) {
  HEC_EXPECTS(chunk >= 1);
  HEC_EXPECTS(work_units > 0.0);
  HEC_SPAN("sweep.bounds_build");
  const TwoTypeBounds sides(memo, work_units);
  const std::size_t total = sides.size();
  const std::size_t chunks = (total + chunk - 1) / chunk;
  std::vector<double> t_lo(chunks);
  std::vector<double> e_lo(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const BoundCorner k =
        sides.corner(c * chunk, std::min(total, (c + 1) * chunk));
    t_lo[c] = k.t_lo;
    e_lo[c] = k.e_lo;
  }
  return BlockBoundTable(chunk, std::move(t_lo), std::move(e_lo));
}

BlockBoundTable BlockBoundTable::for_multi(const MemoizedMultiEvaluator& memo,
                                           double work_units,
                                           std::size_t chunk) {
  HEC_EXPECTS(chunk >= 1);
  HEC_EXPECTS(work_units > 0.0);
  const std::size_t types = memo.types();
  const std::size_t total = memo.size();

  // Per-type option arrays; option 0 is "absent" (rate 0, power 0).
  std::vector<std::vector<double>> rate(types), power(types);
  std::vector<std::size_t> radix(types);
  for (std::size_t t = 0; t < types; ++t) {
    const SideRates s = side_rates(memo.table(t));
    rate[t].assign(1, 0.0);
    rate[t].insert(rate[t].end(), s.rate.begin(), s.rate.end());
    power[t].assign(1, 0.0);
    power[t].insert(power[t].end(), s.power.begin(), s.power.end());
    radix[t] = rate[t].size();
  }

  // Odometer walk (type 0 fastest, combo = index + 1: the all-absent
  // point is skipped), summing fresh each index so no incremental
  // floating-point drift enters the bound.
  std::vector<std::size_t> digit(types, 0);
  {
    std::size_t combo = 1;
    for (std::size_t t = 0; t < types; ++t) {
      digit[t] = combo % radix[t];
      combo /= radix[t];
    }
  }
  std::vector<double> t_lo((total + chunk - 1) / chunk);
  std::vector<double> e_lo(t_lo.size());
  RunExtremes run;
  for (std::size_t i = 0;;) {
    double rsum = 0.0;
    double psum = 0.0;
    for (std::size_t t = 0; t < types; ++t) {
      rsum += rate[t][digit[t]];
      psum += power[t][digit[t]];
    }
    run.add(rsum, psum);
    ++i;
    if (i % chunk == 0 || i == total) {
      const BoundCorner k = run.corner(work_units);
      t_lo[(i - 1) / chunk] = k.t_lo;
      e_lo[(i - 1) / chunk] = k.e_lo;
      run = RunExtremes();
    }
    if (i == total) break;
    for (std::size_t pos = 0;; ++pos) {
      if (++digit[pos] < radix[pos]) break;
      digit[pos] = 0;
    }
  }
  return BlockBoundTable(chunk, std::move(t_lo), std::move(e_lo));
}

std::vector<std::size_t> per_side_set(const SideRates& side) {
  std::vector<std::size_t> order;
  order.reserve(side.rate.size());
  for (std::size_t i = 0; i < side.rate.size(); ++i) {
    if (side.rate[i] > 0.0 && std::isfinite(side.rate[i]) &&
        std::isfinite(side.power[i])) {
      order.push_back(i);
    }
  }
  // Every deployment that could beat j sorts before it, so j is beaten
  // exactly when some earlier entry's power is at most its own.
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    if (side.rate[x] != side.rate[y]) return side.rate[x] > side.rate[y];
    if (side.power[x] != side.power[y]) return side.power[x] < side.power[y];
    return x < y;
  });
  std::vector<std::size_t> kept;
  double power_min = kInf;
  for (const std::size_t i : order) {
    if (side.power[i] < power_min) {
      power_min = side.power[i];
      kept.push_back(i);
    }
  }
  std::sort(kept.begin(), kept.end());
  return kept;
}

}  // namespace hec
