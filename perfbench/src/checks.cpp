#include "checks.h"

#include <bit>
#include <charconv>
#include <cstdio>
#include <stdexcept>

#include "hec/hw/catalog.h"
#include "hec/pareto/streaming.h"

namespace perfbench {

namespace {

std::size_t options_per_node(const hec::NodeSpec& spec) {
  return static_cast<std::size_t>(spec.cores) * spec.pstates.size();
}

/// Deployment `index` of one type in type_sweep order.
hec::NodeConfig deployment(const hec::NodeSpec& spec, std::size_t index) {
  const std::size_t freqs = spec.pstates.size();
  const std::size_t per_node = options_per_node(spec);
  return hec::NodeConfig{static_cast<int>(index / per_node) + 1,
                         static_cast<int>((index % per_node) / freqs) + 1,
                         spec.pstates.frequencies_ghz()[index % freqs]};
}

hec::NodeConfig absent(const hec::NodeSpec& spec) {
  return hec::NodeConfig{0, 1, spec.pstates.min_ghz()};
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string point_text(const hec::TimeEnergyPoint& p) {
  char text[96];
  std::snprintf(text, sizeof text, "(t=%.17g, e=%.17g, tag=%zu)", p.t_s,
                p.energy_j, p.tag);
  return text;
}

/// Value printed after `label` on its own line of the CLI's output.
std::string field_after(std::string_view text, std::string_view label) {
  const std::size_t at = text.find(label);
  if (at == std::string_view::npos) return {};
  std::size_t begin = at + label.size();
  std::size_t end = begin;
  while (end < text.size() && text[end] != ' ' && text[end] != '\n') ++end;
  return std::string(text.substr(begin, end - begin));
}

}  // namespace

const hec::NodeSpec& spec_of(NodeType type) {
  static const hec::NodeSpec a9 = hec::arm_cortex_a9();
  static const hec::NodeSpec a15 = hec::arm_cortex_a15();
  static const hec::NodeSpec k10 = hec::amd_opteron_k10();
  switch (type) {
    case NodeType::kA9:
      return a9;
    case NodeType::kA15:
      return a15;
    case NodeType::kK10:
      return k10;
  }
  return a9;
}

std::size_t config_count(Kind kind, const Op& op) {
  const std::vector<NodeType> types = node_types(kind);
  std::vector<std::size_t> points;
  for (std::size_t t = 0; t < types.size(); ++t) {
    points.push_back(static_cast<std::size_t>(op.pools[t]) *
                     options_per_node(spec_of(types[t])));
  }
  if (types.size() == 2) return points[0] * points[1] + points[0] + points[1];
  std::size_t product = 1;
  for (const std::size_t p : points) product *= p + 1;
  return product - 1;
}

hec::ClusterConfig two_type_config_at(const hec::NodeSpec& arm,
                                      const hec::NodeSpec& amd, int max_arm,
                                      int max_amd, std::size_t index) {
  const std::size_t a = static_cast<std::size_t>(max_arm) * options_per_node(arm);
  const std::size_t b = static_cast<std::size_t>(max_amd) * options_per_node(amd);
  if (index < a * b) return {deployment(arm, index / b), deployment(amd, index % b)};
  if (index < a * b + a) return {deployment(arm, index - a * b), absent(amd)};
  return {absent(arm), deployment(amd, index - a * b - a)};
}

hec::MultiClusterConfig multi_config_at(std::span<const hec::NodeSpec> specs,
                                        std::span<const int> limits,
                                        std::size_t index) {
  hec::MultiClusterConfig config;
  std::size_t combo = index + 1;
  for (std::size_t t = 0; t < specs.size(); ++t) {
    const std::size_t radix =
        1 + static_cast<std::size_t>(limits[t]) * options_per_node(specs[t]);
    const std::size_t option = combo % radix;
    combo /= radix;
    config.per_type.push_back(option == 0 ? absent(specs[t])
                                          : deployment(specs[t], option - 1));
  }
  return config;
}

SpaceEvaluator::SpaceEvaluator(std::vector<const hec::NodeTypeModel*> models,
                               std::vector<int> limits, double work_units)
    : models_(std::move(models)),
      limits_(std::move(limits)),
      work_units_(work_units),
      two_(*models_.front(), *models_.back()),
      multi_(models_) {
  if (models_.size() != limits_.size() || models_.size() < 2) {
    throw std::invalid_argument("SpaceEvaluator: one limit per model, >= 2");
  }
  for (const hec::NodeTypeModel* m : models_) specs_.push_back(m->spec());
  // Within a type, deployments run P-state fastest, then cores, then
  // nodes. Two-type spaces put the AMD deployment fastest; N-type spaces
  // are an odometer with type 0 fastest.
  const auto add_strides = [&](const hec::NodeSpec& spec, std::size_t base) {
    strides_.push_back(base);
    strides_.push_back(base * spec.pstates.size());
    strides_.push_back(base * options_per_node(spec));
  };
  if (models_.size() == 2) {
    const std::size_t a =
        static_cast<std::size_t>(limits_[0]) * options_per_node(specs_[0]);
    const std::size_t b =
        static_cast<std::size_t>(limits_[1]) * options_per_node(specs_[1]);
    size_ = a * b + a + b;
    add_strides(specs_[1], 1);
    add_strides(specs_[0], b);
  } else {
    std::size_t product = 1;
    for (std::size_t t = 0; t < specs_.size(); ++t) {
      add_strides(specs_[t], product);
      product *= 1 + static_cast<std::size_t>(limits_[t]) *
                         options_per_node(specs_[t]);
    }
    size_ = product - 1;
  }
}

hec::TimeEnergyPoint SpaceEvaluator::evaluate(std::size_t index) const {
  if (models_.size() == 2) {
    const hec::ConfigOutcome o = two_.evaluate(
        two_type_config_at(specs_[0], specs_[1], limits_[0], limits_[1], index),
        work_units_);
    return {o.t_s, o.energy_j, index};
  }
  const hec::MultiOutcome o =
      multi_.evaluate(multi_config_at(specs_, limits_, index), work_units_);
  return {o.t_s, o.energy_j, index};
}

Verdict check_points(const Frontier& frontier, const SpaceEvaluator& space) {
  if (frontier.empty()) return "empty frontier";
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    const hec::TimeEnergyPoint& p = frontier[i];
    if (i > 0 && !(frontier[i - 1].t_s < p.t_s &&
                   frontier[i - 1].energy_j > p.energy_j)) {
      return "frontier not sorted at point " + std::to_string(i) + " " +
             point_text(p);
    }
    if (p.tag >= space.size()) {
      return "tag outside the space: " + point_text(p);
    }
    const hec::TimeEnergyPoint want = space.evaluate(p.tag);
    if (!same_bits(p.t_s, want.t_s) || !same_bits(p.energy_j, want.energy_j)) {
      return "point " + point_text(p) + " re-evaluates to " + point_text(want);
    }
  }
  return {};
}

Verdict check_merge_sample(const Frontier& frontier,
                           const SpaceEvaluator& space, std::uint64_t seed,
                           std::size_t samples) {
  std::vector<hec::TimeEnergyPoint> points;
  std::uint64_t state = seed;
  for (std::size_t i = 0; i < samples; ++i) {
    // SplitMix64 step; the sample depends on the seed alone.
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    points.push_back(space.evaluate((z ^ (z >> 31)) % space.size()));
  }
  for (const hec::TimeEnergyPoint& p : frontier) {
    if (p.tag >= space.size()) return "tag outside the space: " + point_text(p);
    for (const std::size_t stride : space.knob_strides()) {
      if (p.tag >= stride) points.push_back(space.evaluate(p.tag - stride));
      if (p.tag + stride < space.size()) points.push_back(space.evaluate(p.tag + stride));
    }
  }
  const std::vector<Frontier> parts = {frontier, hec::pareto_frontier(points)};
  const Frontier merged = hec::merge_frontiers(parts);
  return check_identical(frontier, merged, "its merge with a configuration sample");
}

Verdict check_identical(const Frontier& got, const Frontier& want,
                        std::string_view oracle) {
  if (got.size() != want.size()) {
    return "frontier has " + std::to_string(got.size()) + " points, " +
           std::string(oracle) + " has " + std::to_string(want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].tag != want[i].tag || !same_bits(got[i].t_s, want[i].t_s) ||
        !same_bits(got[i].energy_j, want[i].energy_j)) {
      return "point " + std::to_string(i) + " " + point_text(got[i]) +
             " differs from " + std::string(oracle) + " " +
             point_text(want[i]);
    }
  }
  return {};
}

Verdict check_frontier(const Frontier& frontier, const SpaceEvaluator& space,
                       std::uint64_t sample_seed, const Frontier* reference) {
  Verdict v = check_points(frontier, space);
  if (v.empty()) v = check_merge_sample(frontier, space, sample_seed, kMergeSamples);
  if (v.empty() && reference != nullptr) {
    v = check_identical(frontier, *reference, "the reference sweep");
  }
  return v;
}

double deadline_seconds(const std::string& deadline_ms) {
  double ms = 0.0;
  const auto [end, ec] =
      std::from_chars(deadline_ms.data(), deadline_ms.data() + deadline_ms.size(), ms);
  if (ec != std::errc{} || end != deadline_ms.data() + deadline_ms.size()) {
    throw std::invalid_argument("bad deadline '" + deadline_ms + "'");
  }
  return ms * 1e-3;
}

Verdict check_cli_answer(int exit_code, std::string_view stdout_text,
                         const Frontier& reference,
                         const std::string& deadline_ms) {
  const double deadline_s = deadline_seconds(deadline_ms);
  const hec::TimeEnergyPoint* best = nullptr;
  for (const hec::TimeEnergyPoint& p : reference) {
    if (p.t_s > deadline_s) break;
    best = &p;  // time-sorted frontier: the last feasible point is cheapest
  }
  if (best == nullptr) {
    if (exit_code != 2) {
      return "expected exit 2 (infeasible), got " + std::to_string(exit_code);
    }
    if (stdout_text.find("No configuration") == std::string_view::npos) {
      return "exit 2 without the infeasibility message";
    }
    return {};
  }
  if (exit_code != 0) {
    return "expected exit 0, got " + std::to_string(exit_code);
  }
  char want[64];
  std::snprintf(want, sizeof want, "%.2f", best->energy_j);
  const std::string energy = field_after(stdout_text, "Job energy   : ");
  if (energy != want) {
    return "energy '" + energy + "' J, reference minimum " + want + " J";
  }
  const std::string service = field_after(stdout_text, "Service time : ");
  double service_ms = 0.0;
  const auto [end, ec] =
      std::from_chars(service.data(), service.data() + service.size(), service_ms);
  if (ec != std::errc{} || service.empty()) {
    return "no service time in the answer";
  }
  // The CLI prints one decimal; allow its rounding.
  if (service_ms > deadline_s * 1e3 + 0.05) {
    return "service time " + service + " ms exceeds the deadline " +
           deadline_ms + " ms";
  }
  return {};
}

}  // namespace perfbench
