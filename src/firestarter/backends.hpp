#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "arch/cache.hpp"
#include "arch/topology.hpp"
#include "metrics/metric.hpp"
#include "payload/mix.hpp"
#include "sim/sim_system.hpp"
#include "tuning/groups_problem.hpp"

namespace fs2::firestarter {

/// Evaluation backend against the testbed simulator: candidates are
/// analyzed statically and run through the machine model, whose operating
/// point is published to the SimulatedSystem. The objectives are the means
/// of a virtual measurement window over that point: wall power sampled at
/// 20 Sa/s with 0.4 % meter noise, and IPC per core. Evaluations are
/// instantaneous in wall time — the property that makes Fig. 7's dip-free
/// candidate switching visible end to end.
class SimBackend : public tuning::EvaluationBackend {
 public:
  SimBackend(sim::SimulatedSystem& system, payload::InstructionMix mix,
             arch::CacheHierarchy caches, sim::RunConditions conditions,
             double candidate_duration_s, std::uint64_t seed);

  std::vector<std::string> objective_names() const override { return {"power-W", "ipc"}; }
  std::vector<double> evaluate(const payload::InstructionGroups& groups) override;

  /// Virtual preheat: publishes a default workload point so the thermal
  /// state is "warm" (Fig. 7's first 240 s).
  void preheat();

 private:
  sim::SimulatedSystem& system_;
  payload::InstructionMix mix_;
  arch::CacheHierarchy caches_;
  sim::RunConditions conditions_;
  double duration_s_;
  std::uint64_t seed_;
  std::uint64_t evaluations_ = 0;
};

/// Evaluation backend on the real host: each candidate is JIT-compiled,
/// executed by pinned worker threads for the candidate duration, and
/// scored by the supplied metrics (RAPL power, perf IPC, estimated IPC,
/// plugins). This is the Fig. 10 loop with the measurement device replaced
/// by whatever the host offers.
class HostBackend : public tuning::EvaluationBackend {
 public:
  /// `metric_factories` build fresh metric instances per evaluation (the
  /// estimate metric needs the current payload's instruction count and the
  /// worker iteration counter, so factories receive all three).
  using IterationCounter = std::function<std::uint64_t()>;
  using MetricFactory = std::function<metrics::MetricPtr(
      const payload::PayloadStats& stats, int workers, IterationCounter counter)>;

  HostBackend(payload::InstructionMix mix, arch::CacheHierarchy caches,
              std::vector<int> worker_cpus, std::vector<std::string> names,
              std::vector<MetricFactory> factories, double candidate_duration_s,
              std::uint64_t seed);

  std::vector<std::string> objective_names() const override { return names_; }
  std::vector<double> evaluate(const payload::InstructionGroups& groups) override;

 private:
  payload::InstructionMix mix_;
  arch::CacheHierarchy caches_;
  std::vector<int> cpus_;
  std::vector<std::string> names_;
  std::vector<MetricFactory> factories_;
  double duration_s_;
  std::uint64_t seed_;
};

}  // namespace fs2::firestarter
