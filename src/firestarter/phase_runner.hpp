#pragma once

#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "control/controlled_profile.hpp"
#include "control/feedback_loop.hpp"
#include "control/setpoint.hpp"
#include "firestarter/config.hpp"
#include "firestarter/sim_phases.hpp"
#include "gpu/dgemm_stress.hpp"
#include "kernel/thread_manager.hpp"
#include "metrics/external.hpp"
#include "metrics/ipc_estimate.hpp"
#include "metrics/hw_events.hpp"
#include "metrics/rapl.hpp"
#include "payload/compiler.hpp"
#include "sched/campaign.hpp"
#include "telemetry/bus.hpp"

namespace fs2::firestarter {

// ---- workload resolution ----------------------------------------------------

/// The stress function without a function= key: -i/--function, else the
/// target's tuned-for pick.
const payload::FunctionDef& resolve_function(const Config& cfg, const Target& target);

/// The memory-access multiset M: --run-instruction-groups, else the
/// function's hand-tuned defaults.
payload::InstructionGroups resolve_groups(const Config& cfg, const payload::FunctionDef& fn);

/// Payload compile options. A campaign phase's unroll= outranks
/// --line-count, which outranks the compiler's cache-sized default.
payload::CompileOptions compile_options(const Config& cfg,
                                        std::optional<unsigned> unroll = std::nullopt);

/// Worker CPU list for host runs: the topology's choice, trimmed to
/// --threads (or a campaign phase's threads= override) when set.
std::vector<int> resolve_worker_cpus(const Config& cfg,
                                     std::optional<int> threads_override = std::nullopt);

/// Open an output file (--record-trace, --control-log, --dump-path) up
/// front — before any stress runs — so a bad path fails in seconds, not
/// after an hour-long burn-in has produced the data it was meant to keep.
std::ofstream open_output_file(const std::string& path, const char* flag);

// ---- host sensors and control -----------------------------------------------

/// The IPC estimate converts loop counts to instructions/cycle at this
/// assumed clock when the real frequency is unknown (Sec. III-C).
inline constexpr double kIpcEstimateAssumedMhz = 2000.0;

/// Metric set for a host stress run: RAPL power and perf IPC when available,
/// the loop-count IPC estimate always, plus the --metric-path /
/// --metric-command externals — shared by plain runs and campaign phases so
/// both report through the same sources. Readings go straight onto the
/// telemetry bus; nothing is retained here.
struct HostMetricSet {
  metrics::RaplPowerMetric rapl;
  metrics::PerfIpcMetric perf;
  std::unique_ptr<metrics::IpcEstimateMetric> estimate;
  std::unique_ptr<metrics::PluginMetric> plugin;
  std::unique_ptr<metrics::CommandMetric> command;
  std::vector<metrics::Metric*> active;        ///< metrics that responded as available
  std::vector<telemetry::ChannelId> channels;  ///< one per active metric, same order

  void register_channels(telemetry::TelemetryBus& bus);
  void begin_all();
  void sample_all(telemetry::TelemetryBus& bus, double elapsed_s);
};

/// `skip_plugin` / `skip_command` suppress the --metric-path or
/// --metric-command instance when the control loop already owns exactly that
/// source — instantiating it twice would double-initialize plugin state or
/// double-spawn meter commands (the controller's readings still land in the
/// CSV as ctl-measurement). The source the loop did NOT take keeps its
/// measurement channel.
std::unique_ptr<HostMetricSet> build_host_metrics(const Config& cfg,
                                                  const kernel::ThreadManager& manager,
                                                  double instructions_per_iteration,
                                                  bool skip_plugin = false,
                                                  bool skip_command = false);

/// Actuator + sensor + regulator for a closed-loop phase on the real host.
struct HostControl {
  std::shared_ptr<control::ControlledProfile> profile;
  std::unique_ptr<metrics::Metric> sensor;
  std::unique_ptr<control::FeedbackLoop> loop;
  /// Which external source `sensor` is, if any — the measurement set must
  /// not instantiate that same source a second time (double plugin init,
  /// doubled meter-command spawns); the other one keeps its channel.
  bool owns_plugin = false;
  bool owns_command = false;
};

/// Wire a host feedback loop: pick the sensor for the regulated variable
/// (an explicit --metric-path/--metric-command meter, else RAPL, for power;
/// coretemp for temperature) and start from mid-scale — on an unknown SKU
/// there is no feed-forward model, the integrator finds the level.
HostControl make_host_control(const Config& cfg, const control::Setpoint& sp);

// ---- campaigns --------------------------------------------------------------

/// One campaign phase with its workload, schedule and setpoint resolved.
struct ResolvedPhase {
  const sched::CampaignPhase* spec = nullptr;
  const payload::FunctionDef* fn = nullptr;
  payload::InstructionGroups groups;
  payload::CompileOptions options;
  sched::ProfilePtr profile;
  std::optional<control::Setpoint> setpoint;
};

/// Resolves every phase of a campaign up front — functions (typos, host
/// feature coverage), groups, profiles (including trace-file reads),
/// setpoints, and host sensor availability — so a campaign fails before
/// phase 1 starts stressing, never hours in.
class PhaseResolver {
 public:
  /// `budget` is the cluster budget mode's per-node power setpoint: it
  /// replaces every phase's profile=/target=, and PhaseRunner::begin
  /// refreshes its value from the coordinator's latest apportionment.
  PhaseResolver(const Config& cfg, sched::Campaign campaign,
                std::optional<control::Setpoint> budget = std::nullopt);
  PhaseResolver(const PhaseResolver&) = delete;
  PhaseResolver& operator=(const PhaseResolver&) = delete;

  const Target& target() const { return target_; }
  const sched::Campaign& campaign() const { return campaign_; }
  const std::vector<ResolvedPhase>& phases() const { return phases_; }
  bool any_target() const { return any_target_; }
  /// Some phase publishes the package temperature (target= or measure=temp).
  bool any_temp() const { return any_temp_; }

  /// Analyzed stats for a simulated phase's workload, cached by (function,
  /// groups, unroll) — fuzz campaigns give every phase its own pattern, so
  /// the key must cover the per-phase overrides, not just the function.
  const payload::PayloadStats& stats(const ResolvedPhase& phase);

 private:
  sched::Campaign campaign_;
  Target target_;
  std::vector<ResolvedPhase> phases_;
  std::map<std::string, payload::PayloadStats> stats_cache_;
  bool any_target_ = false;
  bool any_temp_ = false;
};

/// What finish() learned about the phase it closed. The single-run footer
/// prints it (steady state, closed-loop result, kernel iterations); agents
/// ignore it.
struct PhaseReport {
  sim::WorkloadPoint point;      ///< simulated phases: the steady state
  double achieved = 0.0;         ///< closed loop: trailing mean of the measurement
  double level = 0.0;            ///< closed loop: the last commanded level
  bool converged = true;         ///< closed loop: the convergence verdict
  std::uint64_t iterations = 0;  ///< host phases: kernel loop iterations
  std::size_t workers = 0;       ///< host phases: worker threads
};

/// Runs resolved campaign phases one step at a time, so a driver can pause
/// between steps without a thread parked inside the phase: a step is a
/// whole open-loop simulated phase (virtual time, no wall clock), one
/// controller tick of a closed-loop simulated phase, or one 50 ms sampling
/// tick of a host phase. The local runner drives it straight through (a
/// run without --campaign is a campaign of one phase); a cluster agent
/// yields between steps wherever the protocol waits (budget rounds, host
/// sampling ticks) and answers the coordinator meanwhile.
class PhaseRunner {
 public:
  using Clock = std::chrono::steady_clock;

  struct Options {
    /// Host phases duty-cycle against this instant (the fleet epoch) so
    /// modulation windows align across machines, not just across workers.
    std::optional<Clock::time_point> epoch;
    /// Suppress the per-phase convergence log lines (large loopback fleets
    /// would emit thousands).
    bool quiet = false;
    /// Host phases sample their metric set every tick. A single run
    /// without --measurement has no summary to feed, and --metric-command
    /// would spawn a process per sample for nothing.
    bool sample_metrics = true;
  };

  /// Registers the simulated channels on `bus` (attach the sinks first),
  /// opens the --dump-path file and starts the GPU stand-in of a host run.
  PhaseRunner(const Config& cfg, PhaseResolver& phases, telemetry::TelemetryBus& bus,
              Options options);
  ~PhaseRunner();

  /// Open phase `index`: only the begin bracket goes on the bus here — the
  /// phase's work starts at the first step(), so a barrier release reaches
  /// a whole fleet before any node starts computing. `budget_w` is the
  /// budget mode's current share for the phase's power setpoint. `deltas`
  /// overrides the campaign clamp of phase_deltas(): a single run trims by
  /// the CLI deltas as given (footnote 12's 120 s start trim of a 240 s run).
  void begin(std::size_t index, std::optional<double> budget_w = std::nullopt,
             std::optional<TrimDeltas> deltas = std::nullopt);

  /// The open phase has done all its work (finish() is next).
  bool done() const { return state_ == State::kDone; }

  /// When the next step() is due: host phases sample every 50 ms;
  /// simulated phases are always due.
  Clock::time_point due() const;

  /// Advance the open phase by one step; returns its phase-local time.
  double step();

  /// Close the phase: convergence verdict, thermal carry, final register
  /// dump, end bracket.
  PhaseReport finish();

  /// The open phase's feedback loop (null when it runs open-loop).
  control::FeedbackLoop* loop();

  /// Every closed-loop phase so far converged.
  bool all_converged() const { return all_converged_; }

  /// The host run's GPU stand-in (null on simulated targets or --gpus 0).
  gpu::DgemmStressor* gpu_stress() { return gpu_stress_.get(); }

 private:
  enum class State { kIdle, kBegun, kRunning, kDone };
  struct HostRun;

  void start_host();
  double step_host();

  const Config& cfg_;
  PhaseResolver& phases_;
  telemetry::TelemetryBus& bus_;
  Options options_;
  State state_ = State::kIdle;
  std::size_t index_ = 0;
  std::optional<control::Setpoint> setpoint_;  ///< the open phase's, budget value applied
  bool all_converged_ = true;

  // Simulated targets.
  std::unique_ptr<sim::SimulatedSystem> system_;
  SimChannels channels_;
  /// Thermal state carried between phases so back-to-back holds heat
  /// continuously instead of each phase snapping back to the idle-settled
  /// temperature.
  std::optional<double> carry_temp_c_;
  std::unique_ptr<ControlledSimPhaseRun> sim_run_;
  sim::WorkloadPoint open_point_;  ///< the last open-loop phase's steady state

  // Host targets.
  std::unique_ptr<gpu::DgemmStressor> gpu_stress_;
  std::unique_ptr<HostRun> host_run_;
  std::ofstream dump_;  ///< --dump-registers output, open on host runs only
};

}  // namespace fs2::firestarter
