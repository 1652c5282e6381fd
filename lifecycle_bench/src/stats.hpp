// Estimators the benchmark reports with.
#pragma once

#include <vector>

namespace lifecycle {

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> values);

/// Per-round cost under interference that only ever adds time: the median
/// of the fastest quarter of the rounds (at least three rounds, or all of
/// them when fewer ran). Values are lower-is-better (times); 0 when empty.
double fastest_rounds(std::vector<double> values);

/// Geometric mean of positive values; 0 when empty.
double geomean(const std::vector<double>& values);

}  // namespace lifecycle
