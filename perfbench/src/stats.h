// Clocks, process accounting and order statistics for the benchmark.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Monotonic wall clock, seconds.
double now_s();

/// User + system CPU seconds of this process (all threads).
double cpu_s();

/// Peak resident set of this process, MiB.
double peak_rss_self_mb();

/// Nearest-rank percentile (p in (0, 1]) of a non-empty sample.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);
double sum(const std::vector<double>& values);
double mean(const std::vector<double>& values);

}  // namespace perfbench
