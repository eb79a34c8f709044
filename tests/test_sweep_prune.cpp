// Soundness of the bound-and-prune + SoA/SIMD sweep layer: for ANY
// model calibration — including non-monotone SPImem profiles and
// randomly perturbed power curves — the pruned/vectorized engines must
// return the evaluate-everything scalar engine's frontier bit for bit.
// The bounds are computed from the compiled table entries themselves
// (hec/sweep/bounds.h), never from knob monotonicity, which is exactly
// what this suite stresses: 200 random calibrations, every prune/simd
// combination, the robust and multi-type engines, seeded resumable
// sweeps, the degenerate chunk geometries (single block,
// all-dominated, none-dominated) at the walk level, and the seed: the
// per-side sets, the per-side product frontier and its preload into
// every sweep worker.
#include "hec/sweep/bounds.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <latch>
#include <limits>
#include <mutex>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "hec/config/evaluate.h"
#include "hec/config/robust_evaluate.h"
#include "hec/hw/catalog.h"
#include "hec/model/characterize.h"
#include "hec/model/node_model.h"
#include "hec/parallel/thread_pool.h"
#include "hec/resilience/resumable.h"
#include "hec/sweep/kernel.h"
#include "hec/sweep/reduction.h"
#include "hec/sweep/sweep.h"
#include "hec/workloads/workload.h"

namespace hec {
namespace {

/// A fully synthetic calibration for `spec`: every coefficient drawn at
/// random, SPImem fits independently sampled per core count (so the
/// profile is non-monotone in both cores and frequency with high
/// probability — slopes may be negative). Values stay positive across
/// the spec's P-state range, but nothing here is monotone, smooth or
/// physical; the prune layer must not care.
NodeTypeModel perturbed_model(const NodeSpec& spec, std::mt19937& rng) {
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  const auto uni = [&](double lo, double hi) {
    return lo + (hi - lo) * u01(rng);
  };

  WorkloadInputs w;
  w.inst_per_unit = uni(1e3, 1e6);
  w.wpi = uni(0.5, 3.0);
  w.spi_core = uni(0.0, 2.0);
  for (int c = 0; c < spec.cores; ++c) {
    LinearFit fit;
    fit.intercept = uni(1.2, 6.0);
    // Negative slopes allowed: SPImem decreasing in f. Bounded so the
    // value stays positive at the spec's top P-state.
    fit.slope = uni(-0.3, 0.7);
    fit.r_squared = 1.0;
    w.spi_mem_by_cores.push_back(fit);
  }
  w.ucpu = uni(0.3, 1.0);
  w.io_bytes_per_unit = uni(0.0, 1e4);
  w.io_s_per_unit = u01(rng) < 0.3 ? 0.0 : uni(1e-7, 1e-4);

  PowerParams p;
  p.freqs_ghz = spec.pstates.frequencies_ghz();
  for (std::size_t i = 0; i < p.freqs_ghz.size(); ++i) {
    p.core_active_w.push_back(uni(1.0, 12.0));
    p.core_stall_w.push_back(uni(0.2, 5.0));
  }
  p.mem_active_w = uni(0.5, 8.0);
  p.io_active_w = uni(0.2, 5.0);
  p.idle_w = uni(2.0, 40.0);

  const EnergyAccounting acct = u01(rng) < 0.5
                                    ? EnergyAccounting::kPaperEq17
                                    : EnergyAccounting::kOverlapAware;
  return NodeTypeModel(spec, std::move(w), std::move(p), acct);
}

void expect_identical(const SweepResult& got, const SweepResult& want,
                      const char* label, int seed = -1) {
  ASSERT_EQ(got.frontier.size(), want.frontier.size())
      << label << " seed " << seed;
  for (std::size_t i = 0; i < got.frontier.size(); ++i) {
    EXPECT_EQ(got.frontier[i], want.frontier[i])
        << label << " seed " << seed << " frontier point " << i;
  }
}

SweepOptions everything() {
  SweepOptions o;
  o.prune = false;
  o.simd = false;
  return o;
}

// The core property: 200 random calibrations, random limits and work
// amounts, pruned+vectorized vs evaluate-everything scalar. Bit
// identity, and the visited-point accounting must balance.
TEST(SweepPruneProperty, PerturbedCoefficientsPrunedMatchesUnpruned) {
  const NodeSpec arm_spec = arm_cortex_a9();
  const NodeSpec amd_spec = amd_opteron_k10();
  for (int seed = 0; seed < 200; ++seed) {
    std::mt19937 rng(static_cast<std::mt19937::result_type>(seed));
    const NodeTypeModel arm = perturbed_model(arm_spec, rng);
    const NodeTypeModel amd = perturbed_model(amd_spec, rng);
    std::uniform_int_distribution<int> pick_nodes(0, 4);
    EnumerationLimits limits{pick_nodes(rng), pick_nodes(rng)};
    if (limits.max_arm_nodes == 0 && limits.max_amd_nodes == 0) {
      limits.max_arm_nodes = 1;
    }
    std::uniform_real_distribution<double> pick_exp(3.5, 7.0);
    const double work_units = std::pow(10.0, pick_exp(rng));

    const SweepResult fast = sweep_frontier(arm, amd, limits, work_units);
    const SweepResult plain =
        sweep_frontier(arm, amd, limits, work_units, everything());
    expect_identical(fast, plain, "perturbed", seed);
    EXPECT_EQ(fast.stats.evaluated + fast.stats.pruned, fast.stats.configs)
        << "seed " << seed;
    EXPECT_EQ(plain.stats.pruned, 0u) << "seed " << seed;
  }
}

// Every prune/simd combination agrees with the naive legacy reference.
TEST(SweepPruneProperty, AllEngineCombosMatchReferenceBitForBit) {
  std::mt19937 rng(777);
  const NodeTypeModel arm = perturbed_model(arm_cortex_a9(), rng);
  const NodeTypeModel amd = perturbed_model(amd_opteron_k10(), rng);
  const EnumerationLimits limits{4, 3};
  const double work_units = 2e6;
  const SweepResult want =
      sweep_frontier_reference(arm, amd, limits, work_units);
  for (const bool prune : {false, true}) {
    for (const bool simd : {false, true}) {
      SweepOptions o;
      o.prune = prune;
      o.simd = simd;
      const SweepResult got =
          sweep_frontier(arm, amd, limits, work_units, o);
      expect_identical(got, want,
                       prune ? (simd ? "prune+simd" : "prune+scalar")
                             : (simd ? "simd" : "scalar"));
    }
  }
}

// Pruning decisions at any chunk granularity are invisible in the
// result (the chunk size only changes which prefilter batches fire).
TEST(SweepPruneProperty, ChunkSizingIsInvisible) {
  std::mt19937 rng(4242);
  const NodeTypeModel arm = perturbed_model(arm_cortex_a9(), rng);
  const NodeTypeModel amd = perturbed_model(amd_opteron_k10(), rng);
  const EnumerationLimits limits{3, 3};
  const double work_units = 5e5;
  const SweepResult want =
      sweep_frontier(arm, amd, limits, work_units, everything());
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{32}, std::size_t{4096},
                                  std::size_t{1u << 20}}) {
    SweepOptions o;
    o.prune_chunk = chunk;
    const SweepResult got = sweep_frontier(arm, amd, limits, work_units, o);
    expect_identical(got, want, "chunk variant");
    EXPECT_EQ(got.stats.evaluated + got.stats.pruned, got.stats.configs)
        << "chunk " << chunk;
  }
}

// Inert fault model: the robust engine may prune (the gate allows it)
// and must stay bit-identical to its reference. Active faults: pruning
// silently disables (Monte Carlo outcomes are not bounded by the
// nominal analytics) — the gate, not the caller, is responsible.
TEST(SweepPruneProperty, RobustSweepPruneGate) {
  std::mt19937 rng(99);
  const NodeTypeModel arm = perturbed_model(arm_cortex_a9(), rng);
  const NodeTypeModel amd = perturbed_model(amd_opteron_k10(), rng);
  const EnumerationLimits limits{2, 2};
  const double work_units = 1e5;
  MonteCarloOptions mc;
  mc.trials = 4;

  const FaultConfig inert;  // defaults: no crashes, stragglers, caps
  ASSERT_FALSE(inert.enabled());
  const RobustConfigEvaluator calm(arm, amd, inert, mc);
  const SweepResult fast =
      sweep_robust_frontier(calm, limits, work_units, 1e6, 1.0);
  const SweepResult naive = sweep_robust_frontier_reference(
      calm, limits, work_units, 1e6, 1.0);
  expect_identical(fast, naive, "robust inert");

  FaultConfig active;
  active.mttf_s = 4000.0;
  ASSERT_TRUE(active.enabled());
  const RobustConfigEvaluator faulty(arm, amd, active, mc);
  const SweepResult guarded =
      sweep_robust_frontier(faulty, limits, work_units, 1e6, 1.0);
  EXPECT_EQ(guarded.stats.pruned, 0u)
      << "active faults must disable pruning";
  expect_identical(guarded,
                   sweep_robust_frontier_reference(faulty, limits,
                                                   work_units, 1e6, 1.0),
                   "robust active");
}

// Multi-type odometer space under a perturbed third calibration.
TEST(SweepPruneProperty, MultiTypePrunedMatchesUnpruned) {
  std::mt19937 rng(11);
  const NodeTypeModel arm = perturbed_model(arm_cortex_a9(), rng);
  const NodeTypeModel amd = perturbed_model(amd_opteron_k10(), rng);
  const NodeTypeModel third = perturbed_model(arm_cortex_a9(), rng);
  const std::vector<const NodeTypeModel*> models = {&arm, &amd, &third};
  const std::vector<int> limits = {2, 1, 2};
  const double work_units = 3e5;
  expect_identical(sweep_multi_frontier(models, limits, work_units),
                   sweep_multi_frontier(models, limits, work_units,
                                        everything()),
                   "multi");
}

// A resumable sweep seeded with incumbents — or even with the complete
// reference frontier (every seed point is a genuine point of the
// space) — finishes with the identical frontier; a full-frontier seed
// makes pruning near-maximal without changing a single output bit.
TEST(SweepPruneProperty, SeededResumableSweepIsIdentical) {
  std::mt19937 rng(5150);
  const NodeTypeModel arm = perturbed_model(arm_cortex_a9(), rng);
  const NodeTypeModel amd = perturbed_model(amd_opteron_k10(), rng);
  const EnumerationLimits limits{6, 6};
  const double work_units = 1e6;
  const SweepResult want =
      sweep_frontier(arm, amd, limits, work_units, everything());

  const MemoizedConfigEvaluator memo(arm, amd, limits);
  resilience::ResilienceOptions incumbent_seeded;
  incumbent_seeded.seed_frontier = two_type_incumbents(memo, work_units);
  const resilience::ResumableSweepResult seeded =
      resilience::resumable_sweep_frontier(arm, amd, limits, work_units, {},
                                           incumbent_seeded);
  ASSERT_TRUE(seeded.complete);
  ASSERT_EQ(seeded.frontier.size(), want.frontier.size());
  for (std::size_t i = 0; i < want.frontier.size(); ++i) {
    EXPECT_EQ(seeded.frontier[i], want.frontier[i]) << "incumbent seed " << i;
  }

  resilience::ResilienceOptions frontier_seeded;
  frontier_seeded.seed_frontier = want.frontier;
  const resilience::ResumableSweepResult maximal =
      resilience::resumable_sweep_frontier(arm, amd, limits, work_units, {},
                                           frontier_seeded);
  ASSERT_TRUE(maximal.complete);
  ASSERT_EQ(maximal.frontier.size(), want.frontier.size());
  for (std::size_t i = 0; i < want.frontier.size(); ++i) {
    EXPECT_EQ(maximal.frontier[i], want.frontier[i]) << "frontier seed " << i;
  }
  EXPECT_GT(maximal.stats.pruned, 0u)
      << "a full-frontier seed should prune aggressively";
  EXPECT_EQ(maximal.stats.evaluated + maximal.stats.pruned,
            maximal.stats.configs);
}

// ---- Degenerate chunk geometries, at the walk level ------------------

struct WalkFixture {
  WalkFixture()
      : arm([] {
          std::mt19937 rng(31337);
          return perturbed_model(arm_cortex_a9(), rng);
        }()),
        amd([] {
          std::mt19937 rng(31338);
          return perturbed_model(amd_opteron_k10(), rng);
        }()),
        memo(arm, amd, EnumerationLimits{1, 1}) {}

  NodeTypeModel arm;
  NodeTypeModel amd;
  MemoizedConfigEvaluator memo;
  const double work_units = 1e5;

  /// Evaluation stub that only counts; the walk's accounting and skip
  /// decisions are what is under test here.
  std::size_t calls = 0;
  std::size_t touched = 0;
  BoundWalkStats walk(const BlockBoundTable* bounds, ParetoAccumulator& acc) {
    return walk_with_bounds(
        bounds, 0, memo.size(), acc,
        [&](std::size_t s, std::size_t e, ParetoAccumulator&) {
          ++calls;
          touched += e - s;
        });
  }
};

TEST(SweepPruneDegenerate, SingleBlockSpace) {
  WalkFixture f;
  // Chunk larger than the whole space: exactly one bound chunk.
  const BlockBoundTable bounds =
      BlockBoundTable::for_two_type(f.memo, f.work_units, 1u << 20);
  EXPECT_EQ(bounds.chunks(), 1u);
  ParetoAccumulator acc;
  const BoundWalkStats stats = f.walk(&bounds, acc);
  // Empty frontier dominates nothing: the single chunk evaluates whole.
  EXPECT_EQ(stats.evaluated, f.memo.size());
  EXPECT_EQ(stats.pruned, 0u);
  EXPECT_EQ(stats.chunks_pruned, 0u);
  EXPECT_EQ(f.touched, f.memo.size());
}

TEST(SweepPruneDegenerate, AllChunksDominated) {
  WalkFixture f;
  const BlockBoundTable bounds =
      BlockBoundTable::for_two_type(f.memo, f.work_units, 1);
  ParetoAccumulator acc;
  // A carry point that beats every corner outright: everything prunes,
  // the evaluation callback never runs.
  acc.seed({{1e-300, 1e-300, 0}});
  const BoundWalkStats stats = f.walk(&bounds, acc);
  EXPECT_EQ(stats.evaluated, 0u);
  EXPECT_EQ(stats.pruned, f.memo.size());
  EXPECT_EQ(stats.chunks_pruned, bounds.chunks());
  EXPECT_EQ(f.calls, 0u);
}

TEST(SweepPruneDegenerate, NoChunkDominated) {
  WalkFixture f;
  const BlockBoundTable bounds =
      BlockBoundTable::for_two_type(f.memo, f.work_units, 1);
  ParetoAccumulator acc;
  // A carry point slower than every corner dominates none of them.
  acc.seed({{1e300, 1e-300, 0}});
  const BoundWalkStats stats = f.walk(&bounds, acc);
  EXPECT_EQ(stats.evaluated, f.memo.size());
  EXPECT_EQ(stats.pruned, 0u);
  EXPECT_EQ(stats.chunks_pruned, 0u);
  EXPECT_EQ(f.touched, f.memo.size());
}

TEST(SweepPruneDegenerate, NullBoundsEvaluateEverythingInOneRange) {
  WalkFixture f;
  ParetoAccumulator acc;
  acc.seed({{1e-300, 1e-300, 0}});  // would prune everything, if consulted
  const BoundWalkStats stats = f.walk(nullptr, acc);
  EXPECT_EQ(stats.evaluated, f.memo.size());
  EXPECT_EQ(stats.pruned, 0u);
  EXPECT_EQ(f.calls, 1u) << "no bounds: one contiguous eval range";
}

// ---- The seed: per-side sets, product frontier, every worker ---------

/// The per-side set by definition, O(n²): j survives unless another
/// entry has a rate at least as high and a power at least as low, with
/// an exact tie in both going to the lower index.
std::vector<std::size_t> brute_force_side_set(const SideRates& side) {
  const auto usable = [&](std::size_t i) {
    return side.rate[i] > 0.0 && std::isfinite(side.rate[i]) &&
           std::isfinite(side.power[i]);
  };
  std::vector<std::size_t> kept;
  for (std::size_t j = 0; j < side.rate.size(); ++j) {
    if (!usable(j)) continue;
    bool beaten = false;
    for (std::size_t i = 0; i < side.rate.size() && !beaten; ++i) {
      if (i == j || !usable(i)) continue;
      const bool tie = side.rate[i] == side.rate[j] &&
                       side.power[i] == side.power[j];
      beaten = side.rate[i] >= side.rate[j] &&
               side.power[i] <= side.power[j] && (!tie || i < j);
    }
    if (!beaten) kept.push_back(j);
  }
  return kept;
}

TEST(SweepSeed, PerSideSetMatchesBruteForceOnPerturbedCalibrations) {
  const NodeSpec arm_spec = arm_cortex_a9();
  const NodeSpec amd_spec = amd_opteron_k10();
  std::size_t rate_ties = 0;
  for (int seed = 0; seed < 200; ++seed) {
    std::mt19937 rng(static_cast<std::mt19937::result_type>(seed));
    const NodeTypeModel arm = perturbed_model(arm_spec, rng);
    const NodeTypeModel amd = perturbed_model(amd_spec, rng);
    std::uniform_int_distribution<int> pick_nodes(1, 6);
    for (const auto& [model, nodes] :
         {std::pair{&arm, pick_nodes(rng)}, std::pair{&amd, pick_nodes(rng)}}) {
      const SideRates side = side_rates(DeploymentTable(*model, nodes));
      EXPECT_EQ(per_side_set(side), brute_force_side_set(side))
          << "seed " << seed;
      for (std::size_t i = 0; i < side.rate.size(); ++i) {
        for (std::size_t j = i + 1; j < side.rate.size(); ++j) {
          rate_ties += side.rate[i] == side.rate[j];
        }
      }
    }
  }
  // Equal-rate deployments (n nodes × c cores = c nodes × n cores) are
  // where the power and index tie-breaks decide.
  EXPECT_GT(rate_ties, 0u);
  RecordProperty("rate_ties", static_cast<int>(rate_ties));
}

TEST(SweepSeed, PerSideSetBreaksExactTiesToTheLowerIndex) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  SideRates side;
  //            0    1    2    3    4    5    6    7
  side.rate = {2.0, 2.0, 3.0, 1.0, 3.0, 0.0, 4.0, nan};
  side.power = {1.0, 1.0, 2.0, 0.5, 2.5, 0.1, 9.0, 1.0};
  // 1 ties 0 exactly; 4 is beaten by 2; 5 has no rate; 7 is not a number.
  const std::vector<std::size_t> want = {0, 2, 3, 6};
  EXPECT_EQ(per_side_set(side), want);
  EXPECT_EQ(brute_force_side_set(side), want);
}

/// A tabled chunk scan done the plain way: one max/min pass in index
/// order, then the shared corner arithmetic.
BoundCorner sequential_corner(const MemoizedConfigEvaluator& memo,
                              double work_units, std::size_t first,
                              std::size_t last) {
  const SideRates arm = side_rates(memo.arm_table());
  const SideRates amd = side_rates(memo.amd_table());
  const std::size_t a_n = arm.rate.size();
  const std::size_t d_n = amd.rate.size();
  double rate_max = -std::numeric_limits<double>::infinity();
  double epu_min = std::numeric_limits<double>::infinity();
  for (std::size_t i = first; i < last; ++i) {
    double rate = 0.0;
    double power = 0.0;
    if (i < a_n * d_n) {
      rate = arm.rate[i / d_n] + amd.rate[i % d_n];
      power = arm.power[i / d_n] + amd.power[i % d_n];
    } else if (i < a_n * d_n + a_n) {
      rate = arm.rate[i - a_n * d_n];
      power = arm.power[i - a_n * d_n];
    } else {
      rate = amd.rate[i - a_n * d_n - a_n];
      power = amd.power[i - a_n * d_n - a_n];
    }
    const double epu = power / rate;
    if (rate > rate_max) rate_max = rate;
    if (epu < epu_min) epu_min = epu;
  }
  return corner_from_extremes(rate_max, epu_min, work_units);
}

void expect_same_bits(const BoundCorner& got, double t_lo, double e_lo,
                      const char* label, std::size_t c) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.t_lo),
            std::bit_cast<std::uint64_t>(t_lo))
      << label << " chunk " << c;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.e_lo),
            std::bit_cast<std::uint64_t>(e_lo))
      << label << " chunk " << c;
}

// The corner a sweep worker computes for an aligned chunk is the table's
// corner, bit for bit, and both equal one sequential scan of the chunk.
TEST(SweepSeed, WorkerCornerMatchesBlockBoundTableBitForBit) {
  std::mt19937 rng(2718);
  const NodeTypeModel arm = perturbed_model(arm_cortex_a9(), rng);
  const NodeTypeModel amd = perturbed_model(amd_opteron_k10(), rng);
  const MemoizedConfigEvaluator memo(arm, amd, EnumerationLimits{3, 2});
  const double work_units = 4e5;
  const TwoTypeBounds sides(memo, work_units);
  ASSERT_EQ(sides.size(), memo.size());
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{32}, std::size_t{1u << 20}}) {
    const BlockBoundTable table =
        BlockBoundTable::for_two_type(memo, work_units, chunk);
    for (std::size_t c = 0; c < table.chunks(); ++c) {
      const std::size_t first = c * chunk;
      const std::size_t last = std::min(memo.size(), first + chunk);
      const BoundCorner worker = sides.corner(first, last);
      expect_same_bits(worker, table.t_lo(c), table.e_lo(c), "table", c);
      const BoundCorner seq =
          sequential_corner(memo, work_units, first, last);
      expect_same_bits(worker, seq.t_lo, seq.e_lo, "sequential", c);
    }
  }
}

// Every worker starts from the seed. A seed that dominates every corner
// leaves nothing to evaluate on any of four workers; when only the first
// worker was seeded, the others evaluated the blocks they claimed. A
// latch holds each worker at its first block until all four have one,
// so no worker can drain the space before the others start.
TEST(SweepSeed, EveryWorkerStartsFromTheSeed) {
  WalkFixture f;
  const MemoizedConfigEvaluator memo(f.arm, f.amd, EnumerationLimits{3, 3});
  const TwoTypeSweepKernel kernel(memo, f.work_units, {true, true, 1});
  ThreadPool pool(4);
  std::latch all_claimed(4);
  std::mutex mu;
  std::set<const ParetoAccumulator*> started;
  const RangeReduction reduction = reduce_index_range(
      pool, /*parallel=*/true, 0, memo.size(), /*claim=*/2,
      /*compact_limit=*/64, {{1e-300, 1e-300, 0}},
      [&](std::size_t first, std::size_t count, ParetoAccumulator& acc) {
        bool first_block = false;
        {
          const std::lock_guard<std::mutex> lock(mu);
          first_block = started.insert(&acc).second;
        }
        if (first_block) all_claimed.arrive_and_wait();
        kernel.consume(first, count, acc);
      });
  ASSERT_EQ(reduction.workers, 4u);
  const KernelStats stats = kernel.stats();
  EXPECT_EQ(stats.evaluated, 0u);
  EXPECT_EQ(stats.pruned, memo.size());
  for (const std::vector<TimeEnergyPoint>& partial : reduction.partials) {
    ASSERT_EQ(partial.size(), 1u);
    EXPECT_EQ(partial[0].tag, 0u);
  }
}

// The seed pass evaluates every pair of the per-side product, so its
// frontier and its count are the same on the calling thread, on a pool
// and on the scalar path, and the count is the product's size.
TEST(SweepSeed, SeedPassIsTheSameOnAnyPool) {
  std::mt19937 rng(31);
  const NodeTypeModel arm = perturbed_model(arm_cortex_a9(), rng);
  const NodeTypeModel amd = perturbed_model(amd_opteron_k10(), rng);
  const MemoizedConfigEvaluator memo(arm, amd, EnumerationLimits{6, 5});
  const double work_units = 3e4;
  const std::size_t a = per_side_set(side_rates(memo.arm_table())).size();
  const std::size_t d = per_side_set(side_rates(memo.amd_table())).size();

  const TwoTypeSweepKernel serial(memo, work_units, {});
  const std::vector<TimeEnergyPoint> want = serial.incumbents();
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(serial.stats().seeded, (a + 1) * d + a);

  ThreadPool pool(4);
  const TwoTypeSweepKernel pooled(memo, work_units, {});
  EXPECT_EQ(pooled.incumbents(&pool), want);
  EXPECT_EQ(pooled.stats().seeded, serial.stats().seeded);

  const TwoTypeSweepKernel scalar(memo, work_units, {true, false, 32});
  EXPECT_EQ(scalar.incumbents(&pool), want);
  EXPECT_EQ(scalar.stats().seeded, serial.stats().seeded);
}

// memcached on 10+10 with the real calibration: rounding puts frontier
// points outside the per-side product, so the product alone is not the
// frontier — but seeding with it and walking the space is, bit for bit,
// on one worker and on four.
TEST(SweepSeed, MemcachedArtifactsSurviveTheSeededWalk) {
  const Workload memcached = find_workload("memcached");
  const NodeTypeModel arm = build_node_model(arm_cortex_a9(), memcached);
  const NodeTypeModel amd = build_node_model(amd_opteron_k10(), memcached);
  const EnumerationLimits limits{10, 10};
  const double work_units = memcached.analysis_units;
  const SweepResult want =
      sweep_frontier_reference(arm, amd, limits, work_units);

  const MemoizedConfigEvaluator memo(arm, amd, limits);
  const std::vector<TimeEnergyPoint> product =
      two_type_incumbents(memo, work_units);
  EXPECT_NE(product, want.frontier)
      << "product " << product.size() << " points, frontier "
      << want.frontier.size();
  EXPECT_LT(product.size(), want.frontier.size());

  SweepOptions one;
  one.parallel = false;
  expect_identical(sweep_frontier(arm, amd, limits, work_units, one), want,
                   "memcached 1 worker");
  ThreadPool pool(4);
  SweepOptions four;
  four.pool = &pool;
  four.block = 64;
  const SweepResult got = sweep_frontier(arm, amd, limits, work_units, four);
  expect_identical(got, want, "memcached 4 workers");
  EXPECT_GT(got.stats.seeded, 0u);
  EXPECT_EQ(got.stats.evaluated + got.stats.pruned, got.stats.configs);
}

}  // namespace
}  // namespace hec
