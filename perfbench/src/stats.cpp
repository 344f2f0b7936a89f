#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

Percentile nearest_rank(std::vector<double> samples, int percent) {
  if (samples.empty())
    throw std::invalid_argument("percentile of an empty sample set");
  if (percent < 1 || percent > 100)
    throw std::invalid_argument("percentile must be in [1, 100]");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  // ceil(percent * n / 100) in integers, so p90 of 100 samples is rank 90.
  const std::size_t rank =
      (static_cast<std::size_t>(percent) * n + 99) / 100;
  return {samples[rank - 1], rank, n};
}

double median(std::vector<double> samples) {
  if (samples.empty())
    throw std::invalid_argument("median of an empty sample set");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

double geometric_mean(const std::vector<double>& ratios) {
  if (ratios.empty())
    throw std::invalid_argument("geometric mean of an empty set");
  double log_sum = 0.0;
  for (double r : ratios) {
    if (!(r > 0.0) || !std::isfinite(r))
      throw std::invalid_argument("geometric mean needs positive ratios");
    log_sum += std::log(r);
  }
  return std::exp(log_sum / static_cast<double>(ratios.size()));
}

}  // namespace perfbench
