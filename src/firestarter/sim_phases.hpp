#pragma once

#include <memory>
#include <optional>

#include "arch/cache.hpp"
#include "arch/processor.hpp"
#include "control/controlled_profile.hpp"
#include "control/feedback_loop.hpp"
#include "control/setpoint.hpp"
#include "firestarter/config.hpp"
#include "payload/data.hpp"
#include "payload/mix.hpp"
#include "sched/load_profile.hpp"
#include "sim/machine_config.hpp"
#include "sim/plant.hpp"
#include "sim/sim_system.hpp"
#include "telemetry/bus.hpp"

namespace fs2::firestarter {

/// Machine description for the selected target. Shared by every run mode
/// (single runs, campaigns, the loopback fleet's in-process sim agents).
struct Target {
  arch::ProcessorModel cpu;
  arch::CacheHierarchy caches;
  sim::MachineConfig sim_config;  // meaningful for simulator targets only
  bool simulated = false;
  bool gpu_stress = false;
};

Target resolve_target(const Config& cfg);

/// The achieved duty-cycle channel every run mode publishes; --record-trace
/// and the load-level summary rows both hang off it.
inline constexpr const char* kLoadChannel = "load-level";

payload::DataInitPolicy policy_of(const Config& cfg);

inline double clamp01(double value) { return std::min(std::max(value, 0.0), 1.0); }

/// Effective trim deltas for a phase of `duration_s`: honor the configured
/// --start/--stop deltas but never let them eat a short phase (campaign
/// phases are often a few seconds; the paper's 5 s/2 s defaults assume
/// multi-minute runs). An infinite duration disables the clamp — that case
/// is a single run where the user set the deltas deliberately.
struct TrimDeltas {
  double start_s = 0.0;
  double stop_s = 0.0;
};

TrimDeltas phase_deltas(const Config& cfg, double duration_s);

/// The channels a simulated phase publishes, registered once per run so
/// every phase's summary rows come out in the same stable order.
struct SimChannels {
  telemetry::ChannelId power = 0;
  telemetry::ChannelId ipc = 0;
  telemetry::ChannelId load = 0;
  telemetry::ChannelId temp = 0;
  bool has_temp = false;
};

/// `trimmed_aux` selects whether the IPC and load channels get the phase's
/// trim deltas (campaign/controlled summaries) or none (the open-loop
/// single-run mode reports them untrimmed); `summarize_load` drops the
/// load-level summary row while trace recording still sees the samples.
SimChannels register_sim_channels(telemetry::TelemetryBus& bus, bool with_temp,
                                  bool trimmed_aux, bool summarize_load);

/// Evaluate one simulated stress phase: steady-state operating point plus a
/// load-modulated power/IPC/load trace at the virtual meter's sampling
/// rate, published in chunked batches onto the bus (nothing materialized
/// beyond one chunk — a 10x longer run costs the same memory). The
/// modulation folds the duty cycle into the trace the same way the wall
/// meter would see it — idle floor plus load-weighted dynamic power.
struct SimPhaseResult {
  sim::WorkloadPoint point;
  double mean_power_w = 0.0;  ///< thermal-carry input for open-loop phases
  std::size_t samples = 0;
  /// Package temperature at phase end, set when the phase published the
  /// temp channel (`ch.has_temp`) — the exact thermal carry, replacing the
  /// mean-power settle approximation.
  std::optional<double> final_temp_c;
};

/// `initial_temp_c` seeds the first-order thermal integration when the
/// temp channel is on (campaign `measure=temp` phases); nullopt starts
/// from the idle-settled package.
SimPhaseResult run_sim_phase(const sim::SimulatedSystem& system, const Config& cfg,
                             const payload::PayloadStats& stats,
                             const sched::LoadProfile& profile, double duration_s,
                             std::uint64_t seed, double warm_start_s, bool gpu_stress,
                             telemetry::TelemetryBus& bus, const SimChannels& ch,
                             std::optional<double> initial_temp_c = std::nullopt);

/// One simulated closed-loop phase in resumable form: the controller and
/// the PowerPlant step together in virtual time, one tick per step(), so a
/// whole campaign of setpoint steps runs deterministically in milliseconds
/// — and so callers that must pause mid-phase (cluster agents waiting on a
/// budget reassignment) can stop between ticks without a thread blocking
/// inside the phase. The plant exposes its
/// exact span, so the loop starts from a feed-forward guess and the PID
/// only has to trim leakage warm-up, quantization, and meter noise.
class ControlledSimPhaseRun {
 public:
  ControlledSimPhaseRun(const sim::SimulatedSystem& system, const Config& cfg,
                        const payload::PayloadStats& stats, const control::Setpoint& sp,
                        double duration_s, std::uint64_t seed, double warm_start_s,
                        bool gpu_stress, std::optional<double> freq_override,
                        std::optional<int> threads_override,
                        std::optional<double> initial_temp_c, telemetry::TelemetryBus& bus,
                        const SimChannels& ch);

  /// True once virtual time has covered the phase duration.
  bool done() const;

  /// Advance one controller interval: the plant steps under the previously
  /// commanded level, the tick's telemetry is published, and the controller
  /// reacts to the fresh measurement — the same one-tick sensing lag a real
  /// RAPL poll has. Returns the tick's virtual time.
  double step();

  control::FeedbackLoop& loop() { return *loop_; }
  const control::ControlledProfile& profile() const { return *profile_; }
  const sim::WorkloadPoint& point() const { return point_; }
  /// Noise-free thermal state for the next phase (valid once done()).
  double final_temp_c() const { return plant_.true_temp_c(); }

 private:
  const Config& cfg_;
  double duration_s_;
  double dt_;
  sim::WorkloadPoint point_;
  sim::PowerPlant plant_;
  std::shared_ptr<control::ControlledProfile> profile_;
  std::unique_ptr<control::FeedbackLoop> loop_;
  telemetry::TelemetryBus& bus_;
  SimChannels ch_;
};

/// Convergence window for a phase of `duration_s`: the trailing quarter,
/// but at least a few controller ticks' worth — capped so that week-long
/// holds are judged on their trailing minutes (which is also all the
/// loop's bounded telemetry ring retains).
double convergence_window_s(const control::FeedbackLoop& loop, double duration_s);

/// Log whether the loop settled inside the band; returns the verdict so
/// callers can honor --require-convergence. `quiet` suppresses the log
/// lines (large loopback fleets would emit thousands).
bool report_convergence(const control::FeedbackLoop& loop, double duration_s,
                        const std::string& label, bool quiet = false);

/// Advance the open-loop thermal carry through a phase — a first-order
/// settle toward the phase's mean-power steady state — so a later
/// temp-target phase doesn't inherit a stale (or idle-cold) package.
double advance_thermal_carry(const sim::SimulatedSystem& system, double duration_s,
                             double mean_power_w, std::optional<double> carry_temp_c);

}  // namespace fs2::firestarter
