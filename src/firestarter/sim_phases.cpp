#include "firestarter/sim_phases.hpp"

#include <cmath>

#include "util/logging.hpp"
#include "util/strings.hpp"

namespace fs2::firestarter {

Target resolve_target(const Config& cfg) {
  Target target;
  switch (cfg.target) {
    case TargetSystem::kHost:
      target.cpu = arch::detect_host();
      target.caches = arch::CacheHierarchy::from_sysfs();
      break;
    case TargetSystem::kSimZen2:
      target.cpu = arch::epyc_7502_model();
      target.caches = arch::CacheHierarchy::zen2();
      target.sim_config = sim::MachineConfig::named("zen2");
      target.simulated = true;
      break;
    case TargetSystem::kSimHaswell:
    case TargetSystem::kSimHaswellGpu:
      target.cpu = arch::xeon_e5_2680v3_model();
      target.caches = arch::CacheHierarchy::haswell_ep();
      target.sim_config = sim::MachineConfig::named(
          cfg.target == TargetSystem::kSimHaswellGpu ? "haswell-gpu" : "haswell");
      target.simulated = true;
      target.gpu_stress = cfg.target == TargetSystem::kSimHaswellGpu;
      break;
  }
  return target;
}

payload::DataInitPolicy policy_of(const Config& cfg) {
  return cfg.v174_bug_mode ? payload::DataInitPolicy::kV174InfinityBug
                           : payload::DataInitPolicy::kSafe;
}

TrimDeltas phase_deltas(const Config& cfg, double duration_s) {
  return TrimDeltas{std::min(cfg.start_delta_s, 0.25 * duration_s),
                    std::min(cfg.stop_delta_s, 0.25 * duration_s)};
}

SimChannels register_sim_channels(telemetry::TelemetryBus& bus, bool with_temp,
                                  bool trimmed_aux, bool summarize_load) {
  const telemetry::TrimMode aux =
      trimmed_aux ? telemetry::TrimMode::kPhase : telemetry::TrimMode::kNone;
  SimChannels ch;
  ch.power = bus.channel("sim-wall-power", "W");
  ch.ipc = bus.channel("sim-perf-ipc", "instructions/cycle", aux);
  ch.load = bus.channel(kLoadChannel, "fraction", aux, summarize_load);
  if (with_temp) {
    ch.temp = bus.channel("sim-package-temp", "degC");
    ch.has_temp = true;
  }
  return ch;
}

SimPhaseResult run_sim_phase(const sim::SimulatedSystem& system, const Config& cfg,
                             const payload::PayloadStats& stats,
                             const sched::LoadProfile& profile, double duration_s,
                             std::uint64_t seed, double warm_start_s, bool gpu_stress,
                             telemetry::TelemetryBus& bus, const SimChannels& ch,
                             std::optional<double> initial_temp_c) {
  sim::RunConditions cond;
  cond.freq_mhz = cfg.sim_freq_mhz;
  cond.policy = policy_of(cfg);
  cond.gpu_stress = gpu_stress;
  if (cfg.threads) cond.threads = *cfg.threads;

  SimPhaseResult result;
  result.point = system.simulator().run(stats, cond);
  sim::PowerTraceStream trace(system.simulator(), result.point, cfg.sim_sample_hz, seed,
                              warm_start_s);
  const double idle_w = system.simulator().idle().power_w;
  result.samples = static_cast<std::size_t>(duration_s * cfg.sim_sample_hz);
  double power_sum = 0.0;
  // Chunked batch publish: one virtual dispatch per sink per ~1k samples
  // instead of per sample — memory stays O(chunk), and the per-channel
  // sample sequences (hence every summary) are identical to per-sample
  // publishing.
  constexpr std::size_t kChunk = 1024;
  std::vector<telemetry::Sample> power_chunk, ipc_chunk, load_chunk, temp_chunk;
  power_chunk.reserve(kChunk);
  ipc_chunk.reserve(kChunk);
  load_chunk.reserve(kChunk);
  if (ch.has_temp) temp_chunk.reserve(kChunk);
  // First-order thermal integration per sample when the temp channel is
  // on: each step settles toward the current (noisy) wall power's steady
  // state by the same RC law the PowerPlant uses, so the open-loop temp
  // trace matches what a controlled phase at the same power would show.
  const sim::ThermalParams& th = system.simulator().config().thermal;
  const double dt = cfg.sim_sample_hz > 0.0 ? 1.0 / cfg.sim_sample_hz : 0.0;
  const double settle = dt > 0.0 ? 1.0 - std::exp(-dt / th.tau_s) : 0.0;
  double temp_c = initial_temp_c.value_or(th.ambient_c + th.c_per_w * idle_w);
  for (std::size_t at = 0; at < result.samples; at += kChunk) {
    const std::size_t n = std::min(kChunk, result.samples - at);
    power_chunk.clear();
    ipc_chunk.clear();
    load_chunk.clear();
    temp_chunk.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const double t = trace.time_at(at + i);
      const double level = clamp01(profile.load_at(t));
      const double watts = idle_w + level * (trace.next() - idle_w);
      power_chunk.push_back(telemetry::Sample{t, watts});
      ipc_chunk.push_back(telemetry::Sample{t, result.point.ipc_per_core * level});
      load_chunk.push_back(telemetry::Sample{t, level});
      if (ch.has_temp) {
        temp_c += settle * (th.ambient_c + th.c_per_w * watts - temp_c);
        temp_chunk.push_back(telemetry::Sample{t, temp_c});
      }
      power_sum += watts;
    }
    bus.publish_batch(ch.power, power_chunk);
    bus.publish_batch(ch.ipc, ipc_chunk);
    bus.publish_batch(ch.load, load_chunk);
    if (ch.has_temp) bus.publish_batch(ch.temp, temp_chunk);
  }
  if (result.samples > 0)
    result.mean_power_w = power_sum / static_cast<double>(result.samples);
  if (ch.has_temp) result.final_temp_c = temp_c;
  return result;
}

ControlledSimPhaseRun::ControlledSimPhaseRun(
    const sim::SimulatedSystem& system, const Config& cfg,
    const payload::PayloadStats& stats, const control::Setpoint& sp, double duration_s,
    std::uint64_t seed, double warm_start_s, bool gpu_stress,
    std::optional<double> freq_override, std::optional<int> threads_override,
    std::optional<double> initial_temp_c, telemetry::TelemetryBus& bus,
    const SimChannels& ch)
    : cfg_(cfg),
      duration_s_(duration_s),
      dt_(sp.interval_s),
      point_([&] {
        sp.validate_duration(duration_s, "closed-loop phase");
        sim::RunConditions cond;
        cond.freq_mhz = freq_override ? *freq_override : cfg.sim_freq_mhz;
        cond.policy = policy_of(cfg);
        cond.gpu_stress = gpu_stress;
        if (threads_override) cond.threads = *threads_override;
        else if (cfg.threads) cond.threads = *cfg.threads;
        return system.simulator().run(stats, cond);
      }()),
      plant_(system.simulator(), point_, seed, warm_start_s, /*noise=*/true,
             initial_temp_c),
      bus_(bus),
      ch_(ch) {
  double scale, feed_forward;
  if (sp.variable == control::ControlVariable::kPower) {
    scale = plant_.power_span_w();
    feed_forward = (sp.value - plant_.idle_power_w()) / scale;
  } else {
    scale = plant_.temp_span_c();
    feed_forward = (sp.value - plant_.steady_temp_c(plant_.idle_power_w())) / scale;
  }
  profile_ = std::make_shared<control::ControlledProfile>(clamp01(feed_forward));
  loop_ = std::make_unique<control::FeedbackLoop>(sp, profile_, scale,
                                                  clamp01(feed_forward));
  loop_->attach_bus(&bus_);
}

bool ControlledSimPhaseRun::done() const {
  return plant_.state().time_s + dt_ > duration_s_ + 1e-9;
}

double ControlledSimPhaseRun::step() {
  const sim::PowerPlant::State& st = plant_.step(profile_->level(), dt_);
  const double measurement = loop_->setpoint().variable == control::ControlVariable::kPower
                                 ? st.power_w
                                 : st.temp_c;
  // Plant state first, controller tick second: summary rows come out in
  // first-sample order, measurements before the ctl block.
  bus_.publish(ch_.power, st.time_s, st.power_w);
  bus_.publish(ch_.ipc, st.time_s, point_.ipc_per_core * st.level);
  // The level was applied over [time_s - dt, time_s]; stamp it at the
  // interval *start* so a recorded trace replays each duty-cycle edge at
  // the moment it originally happened, not one tick late (and so the
  // feed-forward level of the first interval is part of the record).
  bus_.publish(ch_.load, st.time_s - dt_, st.level);
  if (ch_.has_temp) bus_.publish(ch_.temp, st.time_s, st.temp_c);
  loop_->tick(st.time_s, measurement);
  return st.time_s;
}

double convergence_window_s(const control::FeedbackLoop& loop, double duration_s) {
  return std::min(std::max(4.0 * loop.setpoint().interval_s, 0.25 * duration_s),
                  control::FeedbackLoop::kMaxConvergenceWindowS);
}

bool report_convergence(const control::FeedbackLoop& loop, double duration_s,
                        const std::string& label, bool quiet) {
  const double window = convergence_window_s(loop, duration_s);
  const bool converged = loop.converged(window);
  if (quiet) return converged;
  const double achieved = loop.trailing_mean(window);
  const control::Setpoint& sp = loop.setpoint();
  if (converged)
    log::info() << label << ": converged to "
                << strings::format("%.1f %s (target %g +-%g %%)", achieved,
                                   control::unit_of(sp.variable), sp.value, sp.band * 100.0);
  else
    log::warn() << label << ": NOT converged — trailing mean "
                << strings::format("%.1f %s vs target %g +-%g %%", achieved,
                                   control::unit_of(sp.variable), sp.value, sp.band * 100.0);
  return converged;
}

double advance_thermal_carry(const sim::SimulatedSystem& system, double duration_s,
                             double mean_power_w, std::optional<double> carry_temp_c) {
  const sim::ThermalParams& th = system.simulator().config().thermal;
  const double steady = th.ambient_c + th.c_per_w * mean_power_w;
  const double prev = carry_temp_c.value_or(
      th.ambient_c + th.c_per_w * system.simulator().idle().power_w);
  return steady + (prev - steady) * std::exp(-duration_s / th.tau_s);
}

}  // namespace fs2::firestarter
