#include "ops.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

// The why strings are the reasons each workload was chosen; BENCHMARK.json
// carries the same text.
const std::vector<WorkloadInfo> kWorkloads = {
    {Kind::kCliQuery, "cli_query",
     "End to end as users pay it: hecsim_cli deadline queries on the paper's "
     "pools (10+10, 8:1 mixes, 8:1..128:16); characterization and the CLI's "
     "per-config loop dominate. Tail is p98.",
     0.98, 500},
    {Kind::kFrontier2, "frontier_2type",
     "Flagship library path: sweep_frontier on A9+K10 spaces of 6M-53M "
     "configs; bound tables dominate prune-friendly programs, the SoA kernel "
     "dominates memcached. Tail is p90.",
     0.90, 100},
};

/// SplitMix64: small, fast and identical on every platform, so an
/// operation list depends on nothing but the seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t state_;
};

Rng stream(std::uint64_t seed, Kind kind) {
  constexpr std::uint64_t kMix = 0x2545f4914f6cdd1d;
  return Rng(seed * kMix + static_cast<std::uint64_t>(kind) + 1);
}

std::vector<int> iota(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = i;
  return v;
}

// cli_query pools, as (A9, K10) node limits: the 10+10 space of Figs. 4-5,
// the 8:1 substitution mixes of Figs. 6-7 and the {8:1}..{128:16} scaling
// series of Figs. 8-9.
const std::vector<std::pair<int, int>> kCliPools = {
    {10, 10},                                              // Figs. 4-5
    {0, 16}, {16, 14}, {32, 12}, {48, 10}, {88, 5}, {112, 2}, {128, 0},
    {8, 1},  {16, 2},  {32, 4},  {64, 8},  {128, 16}};

// Deadline range per program, in ms: from half the fastest frontier point
// to twice the slowest minimum-energy point over kCliPools (measured on
// the seed model), so draws cover feasible and infeasible answers.
const std::array<std::pair<double, double>, 6> kDeadlineMs = {{
    {5.5, 640.0},    // EP
    {5.5, 800.0},    // memcached
    {40.0, 3500.0},  // x264
    {11.0, 1300.0},  // blackscholes
    {8.5, 1100.0},   // Julius
    {0.2, 18.5},     // RSA-2048
}};

std::string draw_deadline(Rng& rng, int program) {
  const auto [lo, hi] = kDeadlineMs[static_cast<std::size_t>(program)];
  const double ms = lo * std::exp(rng.uniform() * std::log(hi / lo));
  char text[32];
  std::snprintf(text, sizeof text, "%.3f", ms);
  return text;
}

/// A node limit in [lo, hi] from size stratum `s` of `strata`: strata
/// split the range evenly, so every run covers small and large spaces
/// alike whatever the seed.
int in_stratum(Rng& rng, int lo, int hi, std::size_t s, std::size_t strata) {
  const double u = (static_cast<double>(s) + rng.uniform()) /
                   static_cast<double>(strata);
  return std::min(hi, lo + static_cast<int>(u * (hi - lo + 1)));
}

struct SizeRange {
  int lo;
  int hi;
};

// Two-type spaces have 360ab + 20a + 18b configurations (A9: 4 cores x 5
// P-states, K10: 6 x 3); three-type spaces multiply the per-type option
// counts, absent included.
constexpr SizeRange kTwoRef{24, 48};  // 0.21M-0.83M configs
constexpr SizeRange kThreeRef{3, 4};  // 0.16M-0.38M configs

/// Node limits per type of a workload's regular operations.
SizeRange regular_range(Kind kind) {
  switch (kind) {
    case Kind::kFrontier2:
      return {128, 384};  // 5.9M-53M configs
    case Kind::kFrontier3:
      return {8, 16};  // 3.0M-24M configs
    case Kind::kSharded:
      return {53, 256};  // 1.0M-24M configs
    case Kind::kCliQuery:
      break;
  }
  return {10, 10};
}

// Frontier and sharded operations come in blocks of six rows. Row r pairs
// program perm[c] with size stratum strata[(c + r) % 6], so every row
// holds each program and each stratum once, and a block holds each
// (program, stratum) pair once: the mix a run measures barely depends on
// the seed. Reference-sized operations add one per row (each program once
// per block).
std::vector<Op> make_space_ops(Kind kind, std::uint64_t seed, std::size_t count,
                               std::size_t types, SizeRange regular,
                               const SizeRange* reference) {
  Rng rng = stream(seed, kind);
  std::vector<Op> ops;
  while (ops.size() < count) {
    std::vector<int> perm = iota(6);
    std::vector<int> strata = iota(6);
    rng.shuffle(perm);
    rng.shuffle(strata);
    for (std::size_t r = 0; r < 6; ++r) {
      std::vector<Op> row;
      for (std::size_t c = 0; c < 6; ++c) {
        Op op;
        op.program = perm[c];
        const auto s = static_cast<std::size_t>(strata[(c + r) % 6]);
        for (std::size_t t = 0; t < types; ++t) {
          op.pools.push_back(in_stratum(rng, regular.lo, regular.hi, s, 6));
        }
        row.push_back(std::move(op));
      }
      if (reference != nullptr) {
        Op op;
        op.program = perm[r];
        op.reference = true;
        for (std::size_t t = 0; t < types; ++t) {
          op.pools.push_back(
              reference->lo +
              static_cast<int>(rng.below(
                  static_cast<std::size_t>(reference->hi - reference->lo + 1))));
        }
        row.push_back(std::move(op));
      }
      rng.shuffle(row);
      for (Op& op : row) {
        op.sample_seed = rng.next();
        ops.push_back(std::move(op));
      }
      ops.back().row_end = true;
    }
  }
  ops.resize(count);
  for (std::size_t i = 0; i < ops.size(); ++i) ops[i].index = i;
  return ops;
}

// cli_query operations come in blocks of six rows. A row asks the 10+10
// space of Figs. 4-5 once per program and each of the 12 other pools once;
// pool q in row r runs program perm[(q + r) % 6], so a block covers every
// (program, pool) pair. The six 10+10 queries put the median inside one
// dense cluster of query times rather than in the gap between two pools.
std::vector<Op> make_cli_ops(std::uint64_t seed, std::size_t count) {
  Rng rng = stream(seed, Kind::kCliQuery);
  std::vector<Op> ops;
  while (ops.size() < count) {
    std::vector<int> perm = iota(6);
    rng.shuffle(perm);
    for (int r = 0; r < 6; ++r) {
      std::vector<std::pair<int, std::size_t>> row;  // (program, pool)
      for (int p = 0; p < 6; ++p) row.emplace_back(p, 0);
      for (std::size_t q = 1; q < kCliPools.size(); ++q) {
        row.emplace_back(perm[(q + static_cast<std::size_t>(r)) % 6], q);
      }
      rng.shuffle(row);
      for (const auto& [program, q] : row) {
        Op op;
        op.program = program;
        op.pools = {kCliPools[q].first, kCliPools[q].second};
        op.deadline_ms = draw_deadline(rng, op.program);
        op.sample_seed = rng.next();
        ops.push_back(std::move(op));
      }
      ops.back().row_end = true;
    }
  }
  ops.resize(count);
  for (std::size_t i = 0; i < ops.size(); ++i) ops[i].index = i;
  return ops;
}

}  // namespace

const std::vector<WorkloadInfo>& workloads() { return kWorkloads; }

const WorkloadInfo* find_workload(std::string_view name) {
  for (const WorkloadInfo& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<NodeType> node_types(Kind kind) {
  if (kind == Kind::kFrontier3) {
    return {NodeType::kA9, NodeType::kA15, NodeType::kK10};
  }
  return {NodeType::kA9, NodeType::kK10};
}

std::vector<Op> make_ops(Kind kind, std::uint64_t seed, std::size_t count) {
  if (kind == Kind::kCliQuery) return make_cli_ops(seed, count);
  const SizeRange* reference = kind == Kind::kFrontier2   ? &kTwoRef
                               : kind == Kind::kFrontier3 ? &kThreeRef
                                                          : nullptr;
  return make_space_ops(kind, seed, count, node_types(kind).size(),
                        regular_range(kind), reference);
}

Op warmup_op(Kind kind) {
  Op op;
  op.index = kWarmupIndex;
  op.program = 1;  // memcached
  op.pools.assign(node_types(kind).size(), regular_range(kind).hi);
  return op;
}

std::vector<Op> make_setup_queries(std::uint64_t seed, std::size_t count) {
  constexpr std::uint64_t kMix = 0x2545f4914f6cdd1d;
  Rng rng(seed * kMix + 0x5e70);
  std::vector<Op> ops;
  while (ops.size() < count) {
    std::vector<int> perm = iota(6);
    rng.shuffle(perm);
    for (const int program : perm) {
      Op op;
      op.index = ops.size();
      op.program = program;
      op.pools = {10, 10};
      op.deadline_ms = draw_deadline(rng, program);
      op.sample_seed = rng.next();
      ops.push_back(std::move(op));
    }
  }
  ops.resize(count);
  return ops;
}

std::string describe(const Op& op) {
  std::string text = "op=" + (op.index == kWarmupIndex ? std::string("warmup")
                                                       : std::to_string(op.index)) +
                     " program=" + kPrograms[static_cast<std::size_t>(op.program)] +
                     " pools=";
  for (std::size_t t = 0; t < op.pools.size(); ++t) {
    if (t > 0) text += "x";
    text += std::to_string(op.pools[t]);
  }
  if (!op.deadline_ms.empty()) text += " deadline_ms=" + op.deadline_ms;
  text += op.reference ? " reference=1" : " reference=0";
  text += " sample_seed=" + std::to_string(op.sample_seed);
  if (op.row_end) text += " row_end=1";
  return text;
}

}  // namespace perfbench
