#include "firestarter/backends.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "kernel/thread_manager.hpp"
#include "metrics/measurement.hpp"
#include "payload/compiler.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace fs2::firestarter {

SimBackend::SimBackend(sim::SimulatedSystem& system, payload::InstructionMix mix,
                       arch::CacheHierarchy caches, sim::RunConditions conditions,
                       double candidate_duration_s, std::uint64_t seed)
    : system_(system),
      mix_(std::move(mix)),
      caches_(std::move(caches)),
      conditions_(conditions),
      duration_s_(candidate_duration_s),
      seed_(seed) {}

void SimBackend::preheat() {
  const auto stats = payload::analyze_payload(
      mix_, payload::InstructionGroups::parse("L1_LS:2,REG:1"), caches_);
  system_.set_point(system_.simulator().run(stats, conditions_));
}

std::vector<double> SimBackend::evaluate(const payload::InstructionGroups& groups) {
  const auto stats = payload::analyze_payload(mix_, groups, caches_);
  const sim::WorkloadPoint point = system_.simulator().run(stats, conditions_);
  system_.set_point(point);

  // "Measure" the candidate the way the testbed does: the LMG95 at 20 Sa/s
  // with 0.4 % noise, plus the IPC counter, over the candidate window in
  // virtual time with a short start trim. The objectives are the window
  // means; Accumulator's Welford update is the arithmetic of
  // metrics::TimeSeries, so they equal a TimeSeries window bit for bit.
  Xoshiro256 noise(seed_ + ++evaluations_);
  const double sample_hz = 20.0;
  const auto samples = static_cast<std::size_t>(duration_s_ * sample_hz);
  if (samples == 0)
    throw Error(strings::format("SimBackend: a %g s candidate window holds no sample at %g Sa/s",
                                duration_s_, sample_hz));
  const double start_trim = std::min(1.0, duration_s_ * 0.1);
  std::size_t first = 0;  // first sample at t >= start_trim
  while (first < samples && static_cast<double>(first) / sample_hz < start_trim) ++first;
  if (first == samples) {
    log::warn() << "SimBackend: the " << start_trim << " s start trim removed every sample of the "
                << duration_s_ << " s candidate window; reporting the untrimmed means";
    first = 0;
  }
  stats::Accumulator power;
  stats::Accumulator ipc;
  for (std::size_t i = 0; i < samples; ++i) {
    // Trimmed samples draw their noise too, so every sample keeps its draw.
    const double watts = point.power_w * (1.0 + 0.004 * noise.normal());
    if (i < first) continue;
    power.add(watts);
    ipc.add(point.ipc_per_core);
  }
  return {power.mean(), ipc.mean()};
}

HostBackend::HostBackend(payload::InstructionMix mix, arch::CacheHierarchy caches,
                         std::vector<int> worker_cpus, std::vector<std::string> names,
                         std::vector<MetricFactory> factories, double candidate_duration_s,
                         std::uint64_t seed)
    : mix_(std::move(mix)),
      caches_(std::move(caches)),
      cpus_(std::move(worker_cpus)),
      names_(std::move(names)),
      factories_(std::move(factories)),
      duration_s_(candidate_duration_s),
      seed_(seed) {}

std::vector<double> HostBackend::evaluate(const payload::InstructionGroups& groups) {
  payload::CompileOptions options;
  auto payload = payload::compile_payload(mix_, groups, caches_, options);

  kernel::RunOptions run;
  run.cpus = cpus_;
  run.seed = seed_;
  kernel::ThreadManager manager(payload, run);

  std::vector<metrics::MetricPtr> metric_list;
  std::vector<metrics::TimeSeries> series;
  const int workers = static_cast<int>(cpus_.size());
  const auto counter = [&manager] { return manager.total_iterations(); };
  const double start_trim = std::min(1.0, duration_s_ * 0.1);
  for (const MetricFactory& factory : factories_) {
    metric_list.push_back(factory(payload.stats(), workers, counter));
    series.emplace_back(metric_list.back()->name(), metric_list.back()->unit(), start_trim,
                        0.0);
  }

  manager.start();
  for (auto& metric : metric_list) metric->begin();

  const double sample_period_s = 0.05;
  const auto t0 = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  while (elapsed < duration_s_) {
    std::this_thread::sleep_for(std::chrono::duration<double>(sample_period_s));
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    for (std::size_t m = 0; m < metric_list.size(); ++m)
      series[m].add(elapsed, metric_list[m]->sample());
  }
  manager.stop();

  std::vector<double> objectives;
  for (const auto& s : series) objectives.push_back(s.summarize().mean);
  return objectives;
}

}  // namespace fs2::firestarter
