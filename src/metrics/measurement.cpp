#include "metrics/measurement.hpp"

#include "util/csv.hpp"
#include "util/strings.hpp"

namespace fs2::metrics {

void print_csv(std::ostream& out, const std::vector<Summary>& summaries) {
  CsvWriter csv(out);
  csv.row(std::vector<std::string>{"metric", "unit", "samples", "mean", "stddev", "min", "max",
                                   "p50", "p95", "p99", "phase"});
  for (const Summary& s : summaries)
    csv.row(std::vector<std::string>{s.name, s.unit, std::to_string(s.samples),
                                     strings::format("%.4f", s.mean),
                                     strings::format("%.4f", s.stddev),
                                     strings::format("%.4f", s.min),
                                     strings::format("%.4f", s.max),
                                     strings::format("%.4f", s.p50),
                                     strings::format("%.4f", s.p95),
                                     strings::format("%.4f", s.p99), s.phase});
}

}  // namespace fs2::metrics
