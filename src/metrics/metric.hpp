#pragma once

#include <string>
#include <vector>

#include "telemetry/sample.hpp"

namespace fs2::metrics {

/// One timestamped metric reading (shared with the telemetry bus the
/// readings travel over).
using Sample = telemetry::Sample;

/// A measurable quantity of the system under stress (paper Sec. III-C).
/// Implementations: RAPL package power, perf_event IPC, estimated IPC,
/// and external plugin metrics.
///
/// Protocol: `begin()` arms the metric (resets counters); `sample()` is
/// polled periodically and returns the metric's value over the interval
/// since the previous sample (rate metrics) or the instantaneous value
/// (gauge metrics). Implementations must be safe to begin() repeatedly.
class Metric {
 public:
  virtual ~Metric() = default;

  virtual std::string name() const = 0;
  virtual std::string unit() const = 0;

  /// False when the host lacks the interface (no RAPL sysfs, perf_event
  /// denied, plugin failed to load). Unavailable metrics must not be
  /// polled; callers choose fallbacks (Sec. III-C's estimated IPC).
  virtual bool available() const = 0;

  /// Arm/reset at the start of a measurement window.
  virtual void begin() = 0;

  /// Poll the current value. Called at the window's sampling rate.
  virtual double sample() = 0;
};

}  // namespace fs2::metrics
