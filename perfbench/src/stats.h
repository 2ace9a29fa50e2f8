// Small numeric helpers shared by the benchmark driver and its tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for even sizes); 0 when
/// empty.
double median(std::vector<double> v);

/// Smallest element of `v`; 0 when empty.
double minimum(const std::vector<double>& v);

/// Nearest-rank percentile, q in [0, 100]; 0 when empty.
double percentile(std::vector<double> v, double q);

/// The highest of p99/p95/p90/p75 that still leaves at least ten samples
/// above it, or 0 when `n` is too small for any of them.
double tailPercentileFor(size_t n);

/// CPU time (user + system) of this process so far, in seconds.
double processCpuSeconds();

/// Peak resident set size of this process so far, in MiB.
double peakRssMb();

/// Monotonic wall clock in seconds.
double nowSeconds();

}  // namespace perfbench
