#include "firestarter/backends.hpp"

#include <algorithm>

#include "firestarter/phase_runner.hpp"
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
  // telemetry::StreamingAggregator, so they equal its window bit for bit.
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

HostBackend::HostBackend(Config cfg) : cfg_(std::move(cfg)) {
  // The metrics a host phase would publish, probed before any stress.
  const auto probe = build_host_metrics(cfg_, [] { return std::uint64_t{0}; }, 1, 1.0);
  const auto offers = [&](const std::string& name) {
    return std::any_of(probe->active.begin(), probe->active.end(),
                       [&](const metrics::Metric* metric) { return metric->name() == name; });
  };
  std::string power;
  if (probe->rapl.available()) power = probe->rapl.name();
  else if (probe->command && probe->command->available()) power = probe->command->name();
  for (const std::string& requested : cfg_.optimization_metrics) {
    std::string name = requested;
    if (requested == "power") {
      name = power;
    } else if (requested == "ipc") {
      name = probe->perf.available() ? probe->perf.name() : probe->estimate->name();
    } else if (!offers(requested)) {
      std::string offered;
      for (const metrics::Metric* metric : probe->active) offered += metric->name() + ", ";
      throw ConfigError("--optimization-metric: this host offers no metric '" + requested +
                        "' (it offers " + offered + "and the aliases power, ipc)");
    }
    if (!name.empty()) names_.push_back(name);
  }
  // Only `power` can find no source.
  if (names_.size() < cfg_.optimization_metrics.size()) {
    if (names_.empty())
      throw ConfigError("--optimization-metric power: no RAPL and no --metric-command meter");
    log::warn() << "no power meter on this host (no RAPL, no --metric-command)"
                << (names_.size() == 1 ? "; only one objective available on this host, "
                                         "NSGA-II degenerates to single-objective search"
                                       : "");
  }
}

std::vector<double> HostBackend::evaluate(const payload::InstructionGroups& groups) {
  sched::CampaignPhase phase;
  phase.duration_s = cfg_.candidate_duration_s;
  phase.groups = groups.to_string();
  // The candidate window: a 10 % start trim (at most 1 s), no stop trim.
  const std::vector<metrics::Summary> rows = run_one_phase(
      cfg_, std::move(phase), TrimDeltas{std::min(1.0, 0.1 * cfg_.candidate_duration_s), 0.0});
  std::vector<double> objectives;
  for (const std::string& name : names_) {
    const auto row = std::find_if(rows.begin(), rows.end(),
                                  [&](const metrics::Summary& r) { return r.name == name; });
    if (row == rows.end())
      throw Error("HostBackend: metric '" + name + "' recorded no sample in the candidate window");
    objectives.push_back(row->mean);
  }
  return objectives;
}

}  // namespace fs2::firestarter
