#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace fs2::metrics {

/// Aggregate of one metric over a measurement window.
struct Summary {
  std::string name;
  std::string unit;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// Streaming P² quantile estimates (exact for tiny windows): the tail
  /// behaviour the whole-run mean hides — a p99 power excursion is what
  /// trips breakers, not the average.
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  std::size_t samples = 0;
  /// Campaign phase this window belongs to (empty outside campaign runs).
  /// Rendered as the trailing "phase" CSV column so every phase of a
  /// multi-phase run gets its own attributed summary rows.
  std::string phase;
};

/// Print summaries as the comma-separated lines FIRESTARTER's --measurement
/// mode emits, extended with the streaming quantile estimates:
/// "name,unit,samples,mean,stddev,min,max,p50,p95,p99,phase".
void print_csv(std::ostream& out, const std::vector<Summary>& summaries);

}  // namespace fs2::metrics
