// The sweep engine's block-claim reduction loop, factored out so the
// plain sweeps (hec/sweep/sweep.h) and the crash-safe resumable sweeps
// (hec/resilience/resumable.h) run the exact same inner machinery: the
// resumable engine replays this reduction epoch by epoch between
// checkpoints, and bit-identity of its final frontier with an
// uninterrupted sweep follows from both paths funnelling through this
// one claim loop plus the compaction identity of merge_frontiers.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <utility>
#include <vector>

#include "hec/parallel/thread_pool.h"
#include "hec/pareto/streaming.h"
#include "hec/util/failpoint.h"

namespace hec {

/// Partial frontiers produced by one reduction over an index range.
struct RangeReduction {
  std::vector<std::vector<TimeEnergyPoint>> partials;
  std::size_t blocks = 0;   ///< cursor claims processed
  std::size_t workers = 1;  ///< concurrent consumers engaged
  /// One past the last index actually consumed. Equals `last` unless a
  /// stop predicate fired; the consumed set is always the contiguous
  /// prefix [first, end) — claimed blocks are finished, never abandoned.
  std::size_t end = 0;
};

/// Runs the streaming reduction over global indices [first, last):
/// workers claim `claim`-sized blocks from a shared atomic cursor and
/// feed consume_block(block_first, count, accumulator); each worker's
/// compacted partial frontier lands in the result. `seed` (a compacted
/// frontier, possibly empty) preloads every worker's accumulator, so
/// each worker's pruning test sees it from its first block — the
/// resume path carries the journaled frontier through here too. Seed
/// points sit in several partials but collapse in the merge (exact
/// duplicates), so by the compaction identity the merged result equals
/// the frontier over seed ∪ [first, last). The frontier of the union is
/// identical for any claim size, worker count or compaction limit.
///
/// `stop` (optional) is polled before each claim; once it returns true,
/// workers stop claiming — blocks already claimed are still finished, so
/// the consumed range stays the contiguous prefix [first, result.end)
/// and the merged partials are exactly its frontier. This is how the
/// deadline/watchdog layer stops a sweep at a block boundary.
///
/// Failpoint sites: sweep.worker_start (per worker), sweep.block (per
/// claimed block).
template <typename ConsumeBlock>
RangeReduction reduce_index_range(ThreadPool& pool, bool parallel,
                                  std::size_t first, std::size_t last,
                                  std::size_t claim,
                                  std::size_t compact_limit,
                                  std::vector<TimeEnergyPoint> seed,
                                  const ConsumeBlock& consume_block,
                                  const std::function<bool()>* stop =
                                      nullptr) {
  HEC_EXPECTS(claim >= 1);
  HEC_EXPECTS(first <= last);
  RangeReduction result;
  result.end = first;
  const std::size_t total = last - first;
  const std::size_t max_blocks = (total + claim - 1) / claim;
  const std::size_t workers =
      parallel ? std::min(pool.thread_count(), max_blocks) : std::size_t{1};
  result.workers = std::max<std::size_t>(workers, 1);
  const auto should_stop = [&] { return stop != nullptr && (*stop)(); };

  if (result.workers <= 1) {
    HEC_FAILPOINT_HIT("sweep.worker_start");
    ParetoAccumulator acc(compact_limit);
    if (!seed.empty()) acc.seed(std::move(seed));
    for (std::size_t block = first; block < last; block += claim) {
      if (should_stop()) break;
      HEC_FAILPOINT_HIT("sweep.block");
      const std::size_t count = std::min(claim, last - block);
      consume_block(block, count, acc);
      result.end = block + count;
      ++result.blocks;
    }
    result.partials.push_back(acc.take());
    return result;
  }

  std::atomic<std::size_t> cursor{first};
  std::atomic<std::size_t> blocks{0};
  result.partials.resize(result.workers);
  std::vector<std::future<void>> futures;
  futures.reserve(result.workers);
  for (std::size_t w = 0; w < result.workers; ++w) {
    futures.push_back(pool.submit([&, w] {
      HEC_FAILPOINT_HIT("sweep.worker_start");
      ParetoAccumulator acc(compact_limit);
      if (!seed.empty()) acc.seed(seed);
      while (!should_stop()) {
        const std::size_t block = cursor.fetch_add(claim);
        if (block >= last) break;
        HEC_FAILPOINT_HIT("sweep.block");
        consume_block(block, std::min(claim, last - block), acc);
        blocks.fetch_add(1, std::memory_order_relaxed);
      }
      result.partials[w] = acc.take();
    }));
  }
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  result.blocks = blocks.load();
  // Claims past `last` were never consumed; claims below it always were.
  result.end = std::min(cursor.load(), last);
  return result;
}

}  // namespace hec
