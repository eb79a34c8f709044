// Output checks. Every operation's output goes through one of these; a
// non-empty verdict marks the operation failed.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "hec/config/cluster_config.h"
#include "hec/config/evaluate.h"
#include "hec/config/multi_space.h"
#include "hec/hw/node_spec.h"
#include "hec/model/node_model.h"
#include "hec/pareto/frontier.h"
#include "ops.h"

namespace perfbench {

using Frontier = std::vector<hec::TimeEnergyPoint>;

/// Empty when a check passes; otherwise what failed.
using Verdict = std::string;

const hec::NodeSpec& spec_of(NodeType type);

/// Size of an operation's configuration space (closed form from the node
/// specs: every type sweeps nodes x cores x P-states; two-type spaces are
/// hetero + both homogeneous sweeps, N-type spaces every combination with
/// absent types, minus the all-absent point).
std::size_t config_count(Kind kind, const Op& op);

/// Configuration `index` of a two-type space, decoded from the documented
/// enumeration order (hetero ARM-major, then ARM-only, then AMD-only;
/// within a type nodes outer, cores, P-state inner).
hec::ClusterConfig two_type_config_at(const hec::NodeSpec& arm,
                                      const hec::NodeSpec& amd, int max_arm,
                                      int max_amd, std::size_t index);

/// Configuration `index` of an N-type space (odometer over per-type
/// options, type 0 fastest; option 0 is "absent"; the all-absent combo is
/// skipped).
hec::MultiClusterConfig multi_config_at(std::span<const hec::NodeSpec> specs,
                                        std::span<const int> limits,
                                        std::size_t index);

/// Evaluates configurations of one operation's space through the public
/// un-memoized evaluators (ConfigEvaluator for two types, MultiEvaluator
/// otherwise): the independent side of the frontier checks.
class SpaceEvaluator {
 public:
  /// Models must outlive the evaluator; models.size() == limits.size().
  SpaceEvaluator(std::vector<const hec::NodeTypeModel*> models,
                 std::vector<int> limits, double work_units);

  std::size_t size() const { return size_; }
  /// {t_s, energy_j, index} of configuration `index`.
  hec::TimeEnergyPoint evaluate(std::size_t index) const;

  /// Index distances of one knob step (P-state, core count, node count)
  /// of each node type: a configuration's knob neighbours lie at +/- these
  /// distances in the enumeration.
  const std::vector<std::size_t>& knob_strides() const { return strides_; }

 private:
  std::vector<const hec::NodeTypeModel*> models_;
  std::vector<hec::NodeSpec> specs_;
  std::vector<int> limits_;
  double work_units_;
  std::size_t size_ = 0;
  std::vector<std::size_t> strides_;
  hec::ConfigEvaluator two_;  // used when models_.size() == 2
  hec::MultiEvaluator multi_;
};

/// The frontier is sorted (time strictly rising, energy strictly
/// falling), every tag names a configuration of the space, and every
/// point re-evaluates bit-exactly at its tag.
Verdict check_points(const Frontier& frontier, const SpaceEvaluator& space);

/// A seeded sample of configurations -- `samples` uniform indices plus
/// the knob neighbours of every frontier point, where a frontier point the
/// sweep dropped most likely sits -- leaves the frontier unchanged under
/// merge_frontiers.
Verdict check_merge_sample(const Frontier& frontier,
                           const SpaceEvaluator& space, std::uint64_t seed,
                           std::size_t samples);

/// Bit-identity with an oracle frontier (times, energies, tags, order).
Verdict check_identical(const Frontier& got, const Frontier& want,
                        std::string_view oracle);

/// Samples drawn by check_frontier's merge check, besides the neighbours
/// of the frontier's tags.
inline constexpr std::size_t kMergeSamples = 256;

/// Every check of a frontier operation: check_points, check_merge_sample
/// and, when `reference` is given (reference-sized operations),
/// bit-identity with the reference sweep's frontier.
Verdict check_frontier(const Frontier& frontier, const SpaceEvaluator& space,
                       std::uint64_t sample_seed, const Frontier* reference);

/// A hecsim_cli answer: with a deadline-feasible point on the reference
/// frontier the CLI must exit 0 and print its energy (to the CLI's two
/// decimals) and a service time within the deadline; with none it must
/// exit 2.
Verdict check_cli_answer(int exit_code, std::string_view stdout_text,
                         const Frontier& reference,
                         const std::string& deadline_ms);

/// deadline_ms text -> seconds, parsed as hecsim_cli parses it.
double deadline_seconds(const std::string& deadline_ms);

}  // namespace perfbench
