// The benchmark's oracle process.
//
// Reference frontiers (sweep_*_reference materialise whole spaces) and the
// one-process twins of sharded operations are computed in a child forked
// at start-up, before any thread exists. Their memory therefore never
// shows in the measured process's peak RSS, and the child is reaped only
// after the run's metrics are taken.
#pragma once

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "checks.h"

namespace perfbench {

class Oracle {
 public:
  enum class Query : std::int32_t {
    kTwoReference = 1,    ///< sweep_frontier_reference, A9 + K10
    kMultiReference = 2,  ///< sweep_multi_frontier_reference, A9 + A15 + K10
    kTwoEngine = 3,       ///< one-process sweep_frontier, A9 + K10
  };

  /// Forks the oracle process. Call before starting any thread.
  Oracle();
  ~Oracle();
  Oracle(const Oracle&) = delete;
  Oracle& operator=(const Oracle&) = delete;

  /// Frontier of `query` for program `program` on `pools`, at the
  /// program's analysis job size. Answers are cached per distinct input.
  /// Throws std::runtime_error when the oracle fails.
  const Frontier& ask(Query query, int program, const std::vector<int>& pools);

  /// Closes the request pipe and waits for the oracle process to exit.
  void stop();

 private:
  int request_fd_ = -1;
  int reply_fd_ = -1;
  int pid_ = -1;
  std::map<std::tuple<int, int, std::vector<int>>, Frontier> cache_;
};

}  // namespace perfbench
