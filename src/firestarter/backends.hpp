#pragma once

#include <string>
#include <vector>

#include "arch/cache.hpp"
#include "firestarter/config.hpp"
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

/// Evaluation backend on the real host: each candidate is a one-phase
/// campaign (run_one_phase) of the candidate duration on the host phase
/// path — JIT-compiled, executed by pinned workers under --load/--period,
/// sampled by the host metric set — scored by the window means of the
/// metrics --optimization-metric names. This is the Fig. 10 loop with the
/// measurement device replaced by whatever the host offers.
class HostBackend : public tuning::EvaluationBackend {
 public:
  /// Resolves cfg.optimization_metrics against the metrics a host phase
  /// publishes, by the names --list-metrics prints: `power` is RAPL, else
  /// the --metric-command meter; `ipc` is perf-ipc, else ipc-estimate.
  /// Throws ConfigError naming the offered metrics on an unknown name.
  explicit HostBackend(Config cfg);

  std::vector<std::string> objective_names() const override { return names_; }
  std::vector<double> evaluate(const payload::InstructionGroups& groups) override;

 private:
  Config cfg_;
  std::vector<std::string> names_;
};

}  // namespace fs2::firestarter
