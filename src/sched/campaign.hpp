#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace fs2::sched {

/// One phase of a stress campaign: run `function` (or the target's default)
/// under `profile_spec` for `duration_s` seconds. Phases execute in file
/// order within a single process, so back-to-back transitions happen without
/// the cooldown a process restart would cause — the multi-phase equivalent of
/// the paper's scripted measurement campaigns.
struct CampaignPhase {
  std::string name;                      ///< label for per-phase metric rows
  double duration_s = 0.0;
  std::string profile_spec = "constant"; ///< --load-profile grammar
  bool profile_explicit = false;         ///< profile= appeared in the file
  std::optional<std::string> function;   ///< stress function override (-i name)
  /// Closed-loop setpoint spec (`--target` grammar, e.g. "power=150W").
  /// When set, the controller drives the duty cycle and `profile` is ignored.
  std::optional<std::string> target_spec;
  std::optional<int> threads;            ///< worker-thread override for this phase
  std::optional<double> freq_mhz;        ///< simulated P-state override for this phase
  /// Per-phase workload overrides (the fuzzer's replay hooks — any corpus
  /// entry re-runs as a normal campaign phase): the memory-access multiset
  /// M in --run-instruction-groups grammar and the unroll factor u.
  std::optional<std::string> groups;
  std::optional<unsigned> unroll;
  /// measure=temp: publish the package-temperature channel for this
  /// campaign (open-loop simulated phases integrate the first-order
  /// thermal model; implied anyway when any phase holds a target=).
  bool measure_temp = false;
};

/// An ordered list of campaign phases parsed from a campaign file:
///
///   # comments and blank lines are ignored
///   phase name=warmup duration=10 profile=constant:30
///   phase name=swing  duration=30 profile=sine:low=10,high=90,period=5 threads=32
///   phase name=peak   duration=20 profile=constant:100 function=FUNC_FMA_256_ZEN2
///   phase name=hold   duration=30 target=power=150W freq=2200
///
/// Each line is whitespace-separated `key=value` tokens after the `phase`
/// keyword; `duration` is required and must be > 0, `name` defaults to
/// "phaseN", `profile` defaults to constant full load. `target` switches the
/// phase to closed-loop control (setpoint stepping: consecutive phases with
/// different targets produce e.g. the 80 W -> 160 W square waves of VR-stress
/// campaigns). `threads` and `freq` override the worker count and the
/// simulated P-state for that phase only; `groups` and `unroll` override
/// the workload's memory-access multiset and unroll factor (how a
/// fuzz-discovered pattern replays as a normal phase), and `measure=temp`
/// adds the package-temperature channel. Profile specs are validated at
/// parse time (including trace file reads); target specs — which belong to
/// the control layer above sched — are validated by the campaign runner's
/// up-front resolve pass. Either way a malformed campaign fails before any
/// stress starts.
class Campaign {
 public:
  /// A campaign of the given phases (a single run's one phase). The campaign
  /// runner's resolve pass still validates their profile and target specs.
  explicit Campaign(std::vector<CampaignPhase> phases) : phases_(std::move(phases)) {}

  /// Parse campaign text. `origin` names the source in error messages.
  static Campaign parse(std::istream& in, const std::string& origin);

  /// Read and parse a campaign file. Throws fs2::ConfigError when the file
  /// cannot be opened or is malformed.
  static Campaign load(const std::string& path);

  const std::vector<CampaignPhase>& phases() const { return phases_; }
  std::size_t size() const { return phases_.size(); }
  double total_duration_s() const;

 private:
  std::vector<CampaignPhase> phases_;
};

}  // namespace fs2::sched
