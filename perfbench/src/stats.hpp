// perfbench/src/stats.hpp
//
// Small summary helpers shared by the untraced and traced runs.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 when
/// empty.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

inline double median(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t mid = sorted.size() / 2;
  return sorted.size() % 2 == 1 ? sorted[mid]
                                : 0.5 * (sorted[mid - 1] + sorted[mid]);
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (const double value : values) total += value;
  return total / static_cast<double>(values.size());
}

}  // namespace perfbench
