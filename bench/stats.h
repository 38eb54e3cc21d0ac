// Order statistics over a run's samples.
#ifndef KSPDG_BENCH_STATS_H_
#define KSPDG_BENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

namespace kspdg::bench {

/// The q-quantile with linear interpolation between order statistics (the
/// "linear" method of numpy and statistics.quantiles(method="inclusive")).
/// 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const size_t below = static_cast<size_t>(std::floor(position));
  const size_t above = std::min(below + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(below);
  return values[below] + fraction * (values[above] - values[below]);
}

inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

}  // namespace kspdg::bench

#endif  // KSPDG_BENCH_STATS_H_
