// Workload definitions and the seeded operation generator.
//
// Every workload is a closed loop with one client: the next operation
// starts when the previous one returns. An operation is fully described
// by an Op, drawn from the run's seed alone, so the same seed always
// yields the same (byte-identical, see describe()) operation list and the
// program under test only ever sees the generated inputs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// kFrontier3 and kSharded generate the three-type spaces and the sharded
/// two-type spaces the traced runs sweep; they are not workloads of their
/// own, because their wall times did not repeat run to run (README.md).
enum class Kind { kCliQuery, kFrontier2, kFrontier3, kSharded };

struct WorkloadInfo {
  Kind kind;
  const char* name;
  /// Why the workload is in the benchmark (one line; mirrored in
  /// BENCHMARK.json).
  const char* why;
  /// op_tail_ms reports this percentile. min_ops guarantees at least ten
  /// operations beyond it in every run.
  double tail_pct;
  std::size_t min_ops;
};

/// All workloads, in BENCHMARK.json order.
const std::vector<WorkloadInfo>& workloads();
/// nullptr when unknown.
const WorkloadInfo* find_workload(std::string_view name);

/// The paper's six programs in Table 3 order (hec::all_workloads()).
inline constexpr std::array<const char*, 6> kPrograms = {
    "EP", "memcached", "x264", "blackscholes", "Julius", "RSA-2048"};

/// Node types of an operation's space, in enumeration order.
enum class NodeType { kA9, kA15, kK10 };

struct Op {
  std::size_t index = 0;
  int program = 0;  ///< index into kPrograms
  /// Node-count limit per type of the space: two-type spaces (and CLI
  /// queries) use {A9, K10}; three-type spaces use {A9, A15, K10}.
  std::vector<int> pools;
  /// cli_query: the deadline argument exactly as passed on argv.
  std::string deadline_ms;
  /// Frontier operations sized so sweep_*_reference fits in memory; their
  /// frontiers are checked for bit-identity against it.
  bool reference = false;
  /// Seeds the configuration sample of the merge check.
  std::uint64_t sample_seed = 0;
  /// Last operation of a generator row. Loops stop only after one, so a
  /// run always measures whole rows -- a mix that does not depend on
  /// where the time ran out.
  bool row_end = false;
};

/// The first `count` operations of workload `kind` for `seed`.
std::vector<Op> make_ops(Kind kind, std::uint64_t seed, std::size_t count);

/// Index of the warm-up operation (see warmup_op).
inline constexpr std::size_t kWarmupIndex = static_cast<std::size_t>(-1);

/// An in-process workload's warm-up: memcached (the program that prunes
/// least) on the largest space the workload draws. It runs untimed
/// before the loop, so first-touch costs stay out of the percentiles and
/// peak RSS measures the largest space whatever the seed draws.
Op warmup_op(Kind kind);

/// cli_query's set-up queries: first queries on the 10+10 space of
/// Figs. 4-5, each against a fresh working directory, cycling through the
/// six programs in seeded order. Their median is setup_s, so it does not
/// depend on which program the seed draws first.
std::vector<Op> make_setup_queries(std::uint64_t seed, std::size_t count);

/// One line naming every input of the operation.
std::string describe(const Op& op);

/// Node types of a workload's spaces.
std::vector<NodeType> node_types(Kind kind);

}  // namespace perfbench
