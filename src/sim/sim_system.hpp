#pragma once

#include <mutex>

#include "sim/simulator.hpp"

namespace fs2::sim {

/// Thread-safe "system under test" handle for simulator-backed runs: the
/// orchestrator publishes the current operating point whenever the workload
/// or frequency changes, and readers on other threads see the latest one.
class SimulatedSystem {
 public:
  explicit SimulatedSystem(MachineConfig config) : simulator_(std::move(config)) {}

  const Simulator& simulator() const { return simulator_; }

  /// Publish a new operating point (workload switch, frequency change).
  void set_point(const WorkloadPoint& point) {
    std::lock_guard<std::mutex> lock(mutex_);
    point_ = point;
    loaded_ = true;
  }

  /// Switch to idle (between runs).
  void set_idle() { set_point(simulator_.idle()); }

  WorkloadPoint point() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return loaded_ ? point_ : simulator_.idle();
  }

 private:
  Simulator simulator_;
  mutable std::mutex mutex_;
  WorkloadPoint point_;
  bool loaded_ = false;
};

}  // namespace fs2::sim
