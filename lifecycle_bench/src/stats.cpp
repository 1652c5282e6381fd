#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace lifecycle {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

double fastest_rounds(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t keep = std::max<std::size_t>((values.size() + 3) / 4, 3);
  values.resize(std::min(keep, values.size()));
  return median(std::move(values));
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace lifecycle
