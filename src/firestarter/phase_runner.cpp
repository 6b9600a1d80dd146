#include "firestarter/phase_runner.hpp"

#include <set>

#include "arch/topology.hpp"
#include "kernel/register_dump.hpp"
#include "metrics/coretemp.hpp"
#include "payload/mix.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace fs2::firestarter {

const payload::FunctionDef& resolve_function(const Config& cfg, const Target& target) {
  if (cfg.function_id) return payload::find_function(*cfg.function_id);
  if (cfg.function_name) return payload::find_function(*cfg.function_name);
  return payload::select_function(target.cpu);
}

payload::InstructionGroups resolve_groups(const Config& cfg, const payload::FunctionDef& fn) {
  return payload::InstructionGroups::parse(
      cfg.instruction_groups ? *cfg.instruction_groups : fn.default_groups);
}

payload::CompileOptions compile_options(const Config& cfg, std::optional<unsigned> unroll) {
  payload::CompileOptions options;
  if (unroll) options.unroll = *unroll;
  else if (cfg.line_count) options.unroll = *cfg.line_count;
  options.dump_registers = cfg.dump_registers;
  return options;
}

std::vector<int> resolve_worker_cpus(const Config& cfg, std::optional<int> threads_override) {
  std::vector<int> cpus = arch::Topology::from_sysfs().worker_cpus(cfg.one_thread_per_core);
  const std::optional<int> threads = threads_override ? threads_override : cfg.threads;
  if (threads && *threads > 0 && static_cast<std::size_t>(*threads) < cpus.size())
    cpus.resize(static_cast<std::size_t>(*threads));
  return cpus;
}

std::ofstream open_output_file(const std::string& path, const char* flag) {
  std::ofstream out(path);
  if (!out)
    throw Error(std::string(flag) + ": cannot open '" + path + "' for writing");
  return out;
}

// ---- host sensors and control -----------------------------------------------

void HostMetricSet::register_channels(telemetry::TelemetryBus& bus) {
  channels.clear();
  for (metrics::Metric* metric : active)
    channels.push_back(bus.channel(metric->name(), metric->unit()));
}

void HostMetricSet::begin_all() {
  for (metrics::Metric* metric : active) metric->begin();
}

void HostMetricSet::sample_all(telemetry::TelemetryBus& bus, double elapsed_s) {
  for (std::size_t m = 0; m < active.size(); ++m)
    bus.publish(channels[m], elapsed_s, active[m]->sample());
}

std::unique_ptr<HostMetricSet> build_host_metrics(const Config& cfg,
                                                  const kernel::ThreadManager& manager,
                                                  double instructions_per_iteration,
                                                  bool skip_plugin, bool skip_command) {
  auto set = std::make_unique<HostMetricSet>();
  set->estimate = std::make_unique<metrics::IpcEstimateMetric>(
      [&manager] { return manager.total_iterations(); }, instructions_per_iteration,
      kIpcEstimateAssumedMhz, static_cast<int>(manager.num_workers()));
  if (cfg.metric_path && !skip_plugin)
    set->plugin = std::make_unique<metrics::PluginMetric>(*cfg.metric_path);
  if (cfg.metric_command && !skip_command)
    set->command = std::make_unique<metrics::CommandMetric>(*cfg.metric_command,
                                                            "external-command", "value");
  if (set->rapl.available()) set->active.push_back(&set->rapl);
  if (set->perf.available()) set->active.push_back(&set->perf);
  set->active.push_back(set->estimate.get());
  if (set->plugin && set->plugin->available()) set->active.push_back(set->plugin.get());
  if (set->command && set->command->available()) set->active.push_back(set->command.get());
  return set;
}

HostControl make_host_control(const Config& cfg, const control::Setpoint& sp) {
  HostControl hc;
  if (sp.variable == control::ControlVariable::kPower) {
    // An explicitly requested external meter outranks the implicit RAPL
    // default: a user passing --metric-path/--metric-command wants the loop
    // to regulate *that* reading (e.g. wall power, which differs from RAPL
    // package watts by PSU and fan losses). RAPL is the fallback.
    if (cfg.metric_path) {
      if (auto plugin = std::make_unique<metrics::PluginMetric>(*cfg.metric_path);
          plugin->available()) {
        hc.sensor = std::move(plugin);
        hc.owns_plugin = true;
      } else {
        log::warn() << "--metric-path sensor is unavailable; --target power falls "
                       "back to the next source (which regulates a different reading)";
      }
    }
    if (!hc.sensor && cfg.metric_command) {
      if (auto command = std::make_unique<metrics::CommandMetric>(
              *cfg.metric_command, "external-power", "W");
          command->available()) {
        hc.sensor = std::move(command);
        hc.owns_command = true;
      } else {
        log::warn() << "--metric-command sensor is unavailable; --target power falls "
                       "back to the next source (which regulates a different reading)";
      }
    }
    if (!hc.sensor) {
      if (auto rapl = std::make_unique<metrics::RaplPowerMetric>(); rapl->available())
        hc.sensor = std::move(rapl);
    }
    if (!hc.sensor)
      throw UnsupportedError(
          "--target power needs a power sensor: no RAPL package domain in sysfs and no "
          "working --metric-path/--metric-command fallback");
  } else {
    auto coretemp = std::make_unique<metrics::CoretempMetric>();
    if (!coretemp->available())
      throw UnsupportedError(
          "--target temp needs a temperature sensor: no coretemp/k10temp hwmon chip");
    hc.sensor = std::move(coretemp);
  }
  hc.profile = std::make_shared<control::ControlledProfile>(0.5);
  hc.loop = std::make_unique<control::FeedbackLoop>(
      sp, hc.profile, sp.scale.value_or(0.0), /*initial_level=*/0.5);
  return hc;
}

// ---- PhaseResolver ------------------------------------------------------------

PhaseResolver::PhaseResolver(const Config& cfg, sched::Campaign campaign,
                             std::optional<control::Setpoint> budget)
    : campaign_(std::move(campaign)), target_(resolve_target(cfg)) {
  std::set<control::ControlVariable> probed;  // one sensor probe per variable
  phases_.reserve(campaign_.size());
  for (const sched::CampaignPhase& spec : campaign_.phases()) {
    // A single run's one phase is unnamed.
    const std::string where =
        spec.name.empty() ? std::string("the run") : "campaign phase '" + spec.name + "'";
    ResolvedPhase phase;
    phase.spec = &spec;
    phase.fn = spec.function ? &payload::find_function(*spec.function)
                             : &resolve_function(cfg, target_);
    if (!target_.simulated) {
      if (!target_.cpu.features.covers(phase.fn->mix.required))
        throw UnsupportedError(where + ": host CPU lacks features for " + phase.fn->name +
                               " (needs " + phase.fn->mix.required.to_string() + ")");
      if (spec.freq_mhz)
        log::warn() << where << ": freq= only applies to --simulate targets (ignored on host)";
      if (spec.measure_temp)
        log::warn() << where
                    << ": measure=temp only applies to --simulate targets (host "
                       "temperature comes from coretemp under target=temp)";
    }
    phase.groups = spec.groups ? payload::InstructionGroups::parse(*spec.groups)
                               : resolve_groups(cfg, *phase.fn);
    phase.options = compile_options(cfg, spec.unroll);
    phase.profile = sched::parse_profile(spec.profile_spec, cfg.load, cfg.period_s);
    if (budget) {
      phase.setpoint = budget;
    } else if (spec.target_spec) {
      try {
        phase.setpoint = control::Setpoint::parse(*spec.target_spec);
      } catch (const Error& e) {
        throw ConfigError(where + ": " + e.what());
      }
    }
    if (phase.setpoint) {
      phase.setpoint->validate_duration(spec.duration_s, where);
      any_target_ = true;
      // Probe the host sensor now, not when the phase starts. Once per
      // variable: plugin init/fini can have side effects worth not
      // repeating.
      if (!target_.simulated && probed.insert(phase.setpoint->variable).second) {
        try {
          make_host_control(cfg, *phase.setpoint);
        } catch (const Error& e) {
          throw UnsupportedError(where + ": " + e.what());
        }
      }
    }
    any_temp_ |= spec.measure_temp;
    phases_.push_back(std::move(phase));
  }
}

const payload::PayloadStats& PhaseResolver::stats(const ResolvedPhase& phase) {
  const std::string key = phase.fn->name + "|" + phase.groups.to_string() +
                          strings::format("|u=%u", phase.options.unroll);
  auto it = stats_cache_.find(key);
  if (it == stats_cache_.end())
    it = stats_cache_
             .emplace(key, payload::analyze_payload(phase.fn->mix, phase.groups,
                                                    target_.caches, phase.options))
             .first;
  return it->second;
}

// ---- PhaseRunner ----------------------------------------------------------------

namespace {
/// Host phases sample their metrics (and tick the controller) at this pace.
constexpr std::chrono::milliseconds kHostTick{50};
}  // namespace

/// One running host phase: the compiled workload, its workers, and the
/// sensors sampled on every tick.
struct PhaseRunner::HostRun {
  explicit HostRun(payload::CompiledPayload compiled) : payload(std::move(compiled)) {}
  payload::CompiledPayload payload;
  HostControl control;
  std::unique_ptr<kernel::ThreadManager> manager;
  std::unique_ptr<HostMetricSet> metrics;
  telemetry::ChannelId load_ch = 0;
  Clock::time_point t0;
  Clock::time_point next_tick;
  double last_dump_s = 0.0;  ///< phase time of the last --dump-registers write
  /// Wall-clock phase length — slightly over the nominal duration (ticks
  /// quantize at 50 ms); campaign time advances by this so cross-phase
  /// timestamps stay monotonic.
  double elapsed_s = 0.0;
};

PhaseRunner::PhaseRunner(const Config& cfg, PhaseResolver& phases,
                         telemetry::TelemetryBus& bus, Options options)
    : cfg_(cfg), phases_(phases), bus_(bus), options_(options) {
  const Target& target = phases_.target();
  if (target.simulated) {
    system_ = std::make_unique<sim::SimulatedSystem>(target.sim_config);
    channels_ = register_sim_channels(bus_, phases_.any_target() || phases_.any_temp(),
                                      /*trimmed_aux=*/true, /*summarize_load=*/true);
    return;
  }
  if (cfg_.dump_registers) dump_ = open_output_file(cfg_.dump_path, "--dump-path");
  if (cfg_.gpus > 0) {
    // The GPU stand-in runs for the whole campaign; each phase retargets it
    // onto its own schedule.
    gpu::GpuStressOptions gpu_options;
    gpu_options.devices = cfg_.gpus;
    gpu_options.matrix_n = cfg_.gpu_matrix_n;
    gpu_options.seed = cfg_.seed;
    gpu_stress_ = std::make_unique<gpu::DgemmStressor>(gpu_options);
    gpu_stress_->start();
  }
}

PhaseRunner::~PhaseRunner() = default;

void PhaseRunner::begin(std::size_t index, std::optional<double> budget_w,
                        std::optional<TrimDeltas> deltas) {
  const sched::CampaignPhase& spec = *phases_.phases()[index].spec;
  index_ = index;
  setpoint_ = phases_.phases()[index].setpoint;
  if (setpoint_ && budget_w) setpoint_->value = *budget_w;
  if (!deltas) deltas = phase_deltas(cfg_, spec.duration_s);
  bus_.begin_phase(spec.name, spec.duration_s, deltas->start_s, deltas->stop_s);
  state_ = State::kBegun;
}

PhaseRunner::Clock::time_point PhaseRunner::due() const {
  return host_run_ ? host_run_->next_tick : Clock::time_point::min();
}

control::FeedbackLoop* PhaseRunner::loop() {
  if (sim_run_) return &sim_run_->loop();
  return host_run_ ? host_run_->control.loop.get() : nullptr;
}

double PhaseRunner::step() {
  const ResolvedPhase& phase = phases_.phases()[index_];
  const sched::CampaignPhase& spec = *phase.spec;
  const Target& target = phases_.target();
  if (!target.simulated) {
    if (state_ == State::kBegun) {
      start_host();
      return 0.0;
    }
    return step_host();
  }
  state_ = State::kRunning;
  // Campaign time of this phase's start — also the virtual preheat the
  // simulator's thermal/leakage models have accumulated.
  const double campaign_time_s = bus_.phase().time_offset_s;
  const std::uint64_t seed = cfg_.seed + index_;
  if (setpoint_) {
    if (!sim_run_)
      sim_run_ = std::make_unique<ControlledSimPhaseRun>(
          *system_, cfg_, phases_.stats(phase), *setpoint_, spec.duration_s, seed,
          campaign_time_s, target.gpu_stress, spec.freq_mhz, spec.threads, carry_temp_c_,
          bus_, channels_);
    const double t = sim_run_->step();
    if (sim_run_->done()) state_ = State::kDone;
    return t;
  }
  Config phase_cfg = cfg_;
  if (spec.freq_mhz) phase_cfg.sim_freq_mhz = *spec.freq_mhz;
  if (spec.threads) phase_cfg.threads = *spec.threads;
  const SimPhaseResult result =
      run_sim_phase(*system_, phase_cfg, phases_.stats(phase), *phase.profile,
                    spec.duration_s, seed, campaign_time_s, target.gpu_stress, bus_,
                    channels_, carry_temp_c_);
  open_point_ = result.point;
  // Advance the thermal carry through this open-loop phase too — the exact
  // integrated temperature when the phase published the temp channel,
  // otherwise a first-order settle toward the phase's mean-power steady
  // state — so a later temp-target phase doesn't inherit a stale (or
  // idle-cold) package after e.g. 300 s of load.
  if (result.final_temp_c)
    carry_temp_c_ = result.final_temp_c;
  else if (result.samples > 0)
    carry_temp_c_ = advance_thermal_carry(*system_, spec.duration_s, result.mean_power_w,
                                          carry_temp_c_);
  state_ = State::kDone;
  return spec.duration_s;
}

void PhaseRunner::start_host() {
  const ResolvedPhase& phase = phases_.phases()[index_];
  auto run = std::make_unique<HostRun>(payload::compile_payload(
      phase.fn->mix, phase.groups, phases_.target().caches, phase.options));
  sched::ProfilePtr profile = phase.profile;
  if (setpoint_) {
    run->control = make_host_control(cfg_, *setpoint_);
    profile = run->control.profile;
  }
  kernel::RunOptions options;
  options.cpus = resolve_worker_cpus(cfg_, phase.spec->threads);
  options.policy = policy_of(cfg_);
  options.seed = cfg_.seed;
  options.load = cfg_.load;
  options.period_s = cfg_.period_s;
  options.profile = profile;
  options.phase_offset_s = cfg_.phase_offset_s;
  options.epoch = options_.epoch;
  run->manager = std::make_unique<kernel::ThreadManager>(run->payload, options);
  // Row order per phase: the metric channels, the ctl-* channels, then the
  // achieved load level — matching the measurement CSV layout.
  if (options_.sample_metrics) {
    run->metrics = build_host_metrics(cfg_, *run->manager,
                                      run->payload.stats().instructions_per_iteration,
                                      run->control.owns_plugin, run->control.owns_command);
    run->metrics->register_channels(bus_);
  }
  if (run->control.loop) run->control.loop->attach_bus(&bus_);
  run->load_ch = bus_.channel(kLoadChannel, "fraction");
  // The GPU stand-in backdrop follows this phase's schedule too (for
  // controlled phases that is the live controller profile).
  if (gpu_stress_) gpu_stress_->set_profile(profile);

  run->manager->start();
  if (run->metrics) run->metrics->begin_all();
  if (run->control.sensor) run->control.sensor->begin();
  run->t0 = Clock::now();
  run->next_tick = run->t0 + kHostTick;
  host_run_ = std::move(run);
  state_ = State::kRunning;
}

double PhaseRunner::step_host() {
  HostRun& run = *host_run_;
  const Clock::time_point now = Clock::now();
  const double elapsed = std::chrono::duration<double>(now - run.t0).count();
  if (run.metrics) run.metrics->sample_all(bus_, elapsed);
  control::FeedbackLoop* loop = run.control.loop.get();
  if (loop && loop->due(elapsed)) loop->poll(elapsed, *run.control.sensor);
  bus_.publish(run.load_ch, elapsed, run.manager->load_at(elapsed));
  if (dump_.is_open() && elapsed - run.last_dump_s >= cfg_.dump_interval_s) {
    kernel::write_dump(dump_, kernel::capture_registers(*run.manager));
    dump_.flush();
    run.last_dump_s = elapsed;
  }
  run.elapsed_s = elapsed;
  run.next_tick = now + kHostTick;
  if (elapsed >= phases_.phases()[index_].spec->duration_s) state_ = State::kDone;
  return elapsed;
}

PhaseReport PhaseRunner::finish() {
  const sched::CampaignPhase& spec = *phases_.phases()[index_].spec;
  PhaseReport report;
  if (host_run_) {
    kernel::ThreadManager& manager = *host_run_->manager;
    manager.stop();
    if (dump_.is_open()) {
      kernel::write_dump(dump_, kernel::capture_registers(manager));
      dump_.flush();
    }
    report.iterations = manager.total_iterations();
    report.workers = manager.num_workers();
  }
  if (control::FeedbackLoop* closed = loop()) {
    const std::string label = spec.name.empty() ? "controller" : "phase '" + spec.name + "'";
    report.achieved = closed->trailing_mean(convergence_window_s(*closed, spec.duration_s));
    report.level = closed->profile().level();
    report.converged = report_convergence(*closed, spec.duration_s, label, options_.quiet);
    all_converged_ &= report.converged;
  }
  double elapsed_s = -1.0;  // simulated phases advance by the nominal duration
  if (sim_run_) {
    report.point = sim_run_->point();
    carry_temp_c_ = sim_run_->final_temp_c();
    sim_run_.reset();
  } else if (host_run_) {
    // Advance by the *actual* phase length: a nominal offset would make
    // the next phase's first timestamps non-monotonic (the trace recorder
    // would silently drop them).
    elapsed_s = host_run_->elapsed_s;
    host_run_.reset();
  } else {
    report.point = open_point_;
  }
  bus_.end_phase(elapsed_s);
  state_ = State::kIdle;
  return report;
}

}  // namespace fs2::firestarter
