// Summary statistics the benchmark reports: nearest-rank percentiles,
// medians and geometric means.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// A percentile by nearest rank: the smallest sample such that at least
/// `percent`% of all samples are at or below it.
struct Percentile {
  double value = 0.0;
  std::size_t rank = 0;     // 1-based position in the sorted samples
  std::size_t samples = 0;  // sample count the percentile was taken over
  /// Samples strictly above the percentile's rank (samples - rank).
  std::size_t beyond() const { return samples - rank; }
};

/// Nearest-rank percentile, `percent` in [1, 100]. Throws
/// std::invalid_argument on an empty sample set or a percent out of range.
Percentile nearest_rank(std::vector<double> samples, int percent);

/// Median: the middle sample, or the mean of the two middle samples.
/// Throws std::invalid_argument on an empty sample set.
double median(std::vector<double> samples);

/// Geometric mean of positive ratios. Throws std::invalid_argument on an
/// empty set or a ratio that is not positive and finite.
double geometric_mean(const std::vector<double>& ratios);

}  // namespace perfbench
