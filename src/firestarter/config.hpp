#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace fs2::firestarter {

/// Which system the stress run targets.
enum class TargetSystem {
  kHost,        ///< the real machine this process runs on
  kSimZen2,     ///< simulated Table II testbed (2x EPYC 7502)
  kSimHaswell,  ///< simulated Fig. 2 testbed (2x E5-2680 v3)
  kSimHaswellGpu,  ///< same, with 4x K80
};

/// Parsed command line. Flag names follow the paper (Sec. III/IV) and the
/// original tool; simulator selection is this reproduction's addition.
struct Config {
  // Mode switches.
  bool show_help = false;
  bool show_version = false;
  bool list_functions = false;     ///< -a / --avail
  bool list_metrics = false;       ///< --list-metrics

  // Workload selection (Sec. III-B).
  std::optional<int> function_id;          ///< -i / --function (by id)
  std::optional<std::string> function_name;
  std::optional<std::string> instruction_groups;  ///< --run-instruction-groups
  std::optional<unsigned> line_count;             ///< --set-line-count (u)

  // Execution.
  double timeout_s = 0.0;          ///< -t (0 = run until interrupted)
  double load = 1.0;               ///< -l / --load (fraction busy)
  double period_s = 0.1;           ///< -p / --period (us on the CLI, paper Sec. III)
  std::optional<int> threads;      ///< --threads / -n
  bool one_thread_per_core = false;
  std::uint64_t seed = 0x5eed;
  bool v174_bug_mode = false;      ///< --allow-infinity-bug (Sec. III-D demo)

  // Load schedule (sched/ subsystem: dynamic load patterns & campaigns).
  std::optional<std::string> load_profile;  ///< --load-profile SPEC
  double phase_offset_s = 0.0;              ///< --phase-offset (us on the CLI)
  std::optional<std::string> campaign_file; ///< --campaign FILE
  /// Achieved-load trace recording (sched/trace_recorder): the replayable
  /// CSV closing the record -> replay loop.
  std::optional<std::string> record_trace;  ///< --record-trace FILE

  // Closed-loop control (control/ subsystem: setpoint regulation).
  std::optional<std::string> target_spec;   ///< --target SPEC (power=W / temp=C /
                                            ///< cluster-power=W on a coordinator)
  std::optional<std::string> control_log;   ///< --control-log FILE (per-tick CSV)
  bool require_convergence = false;         ///< --require-convergence (exit 1 if not)

  // Cluster orchestration (cluster/ subsystem: coordinator/agent fleets).
  bool coordinator = false;                 ///< --coordinator
  std::uint16_t listen_port = 7380;         ///< --listen PORT (0 = ephemeral)
  /// True when --listen was given explicitly. Loopback fleets default to an
  /// ephemeral port (parallel CI runs must not collide), but an explicit
  /// --listen pins it so scrapers can reach /metrics at a known address.
  bool listen_port_explicit = false;
  std::optional<int> cluster_nodes;         ///< --nodes N (coordinator fleet size)
  std::optional<std::string> agent_endpoint;///< --agent HOST:PORT
  std::optional<std::string> node_name;     ///< --node-name (agent identity)
  /// --loopback SPEC,...: spawn in-process sim agents (e.g. "zen2@1500,
  /// haswell@2000") against a 127.0.0.1 coordinator — the deterministic
  /// single-process cluster for tests and CI.
  std::optional<std::string> loopback_nodes;
  double cluster_start_delay_s = 0.5;       ///< --cluster-start-delay SEC
  double sync_tolerance_s = 0.25;           ///< --sync-tolerance SEC
  /// --trace-out FILE: enable the span tracer and export the run's merged
  /// fleet timeline as Chrome trace_event JSON (load in Perfetto). On a
  /// coordinator the timeline covers every node, clock-rebased; on a plain
  /// run it covers this process.
  std::optional<std::string> trace_out;
  /// --status HOST:PORT: don't run anything — probe a live coordinator's
  /// status plane and print fleet health (per-node phase/queue/budget).
  /// Exits nonzero when any node is unhealthy (lost, flat-lined, or
  /// diverged from its setpoint).
  std::optional<std::string> status_endpoint;
  /// --metrics-interval SEC: kMetricUpdate cadence agents ship registry
  /// deltas at (coordinator hands it to the fleet). 0 disables the live
  /// metrics plane — and flat-line detection with it.
  double metrics_interval_s = 1.0;
  /// --flight-out FILE: keep a crash flight recorder — a bounded ring of
  /// recent alerts, lifecycle events, and metric snapshots rewritten to
  /// FILE on every update and dumped (async-signal-safely) on SIGTERM/
  /// SIGINT, node loss, a stalled fleet or a failed agent.
  std::optional<std::string> flight_out;
  /// --chaos SPEC: deterministic fault injection on a coordinator run, e.g.
  /// "seed=7,drop=1%,delay=5ms+-3ms,corrupt=0.1%,kill=node5@phase1". The
  /// seeded plan is replayable bit-for-bit and recorded in the flight dump.
  std::optional<std::string> chaos_spec;
  /// --rejoin-grace SEC: how long a lost node may take to rejoin before the
  /// coordinator gives up on it (barriers hold during the window; 0 gives
  /// up immediately).
  double rejoin_grace_s = 2.0;

  // Payload pattern fuzzer (fuzz/ subsystem: randomized scenario discovery
  // over the simulated plant, locally or fanned across a --loopback fleet).
  bool fuzz = false;                        ///< --fuzz
  std::uint64_t fuzz_seed = 0x5eedf022;     ///< --fuzz-seed (candidates + meters)
  std::size_t fuzz_population = 32;         ///< --fuzz-population (per generation)
  std::size_t fuzz_generations = 2;         ///< --fuzz-generations
  std::size_t fuzz_corpus = 8;              ///< --fuzz-corpus (outliers/objective)
  double fuzz_duration_s = 6.0;             ///< --fuzz-duration (per candidate)
  std::string fuzz_objective = "all";       ///< --fuzz-objective
  std::optional<std::string> fuzz_report;   ///< --fuzz-report PATH (.json or CSV)

  // Synchronized SIMD self-test (error detection for overclocked systems).
  bool selftest = false;
  std::uint64_t selftest_iterations = 200000;

  // Disassemble the generated kernel instead of running it.
  bool dump_asm = false;

  // Register dump (Sec. III-D).
  bool dump_registers = false;
  double dump_interval_s = 10.0;
  std::string dump_path = "registers.dump";

  // Measurement (Sec. III-D: CSV after the run).
  bool measurement = false;
  double start_delta_s = 5.0;      ///< --start-delta (ms on the CLI)
  double stop_delta_s = 2.0;       ///< --stop-delta (ms on the CLI)

  // Optimization (Sec. III-C / IV-E).
  bool optimize = false;           ///< --optimize=NSGA2
  std::size_t individuals = 40;
  std::size_t generations = 20;
  double nsga2_m = 0.35;
  double preheat_s = 240.0;
  double candidate_duration_s = 10.0;  ///< -t under --optimize
  std::vector<std::string> optimization_metrics;  ///< --optimization-metric
  std::optional<std::string> metric_path;         ///< --metric-path (plugin .so)
  std::optional<std::string> metric_command;      ///< --metric-command (script)
  std::string optimization_log = "fs2_optimization_log.csv";

  // Target system.
  TargetSystem target = TargetSystem::kHost;
  double sim_freq_mhz = 0.0;       ///< requested P-state on the simulator (0 = nominal)
  /// Virtual-time trace sampling rate for open-loop simulated runs
  /// (--sim-sample-hz; default mirrors the paper's LMG95 at 20 Sa/s).
  /// Telemetry streams one-pass, so cranking this up costs CPU, not memory
  /// — which is exactly what the CI bounded-memory smoke exercises.
  double sim_sample_hz = 20.0;

  // GPU stress (host DGEMM stand-in).
  int gpus = 0;                    ///< --gpus
  std::size_t gpu_matrix_n = 256;  ///< --gpu-matrixsize

  std::string log_level = "info";
};

/// What a run does, in Firestarter::run's dispatch order. kClosedLoop is a
/// single run under --target power= or temp=, kOpenLoop any other single
/// run. The first six kinds have no target; the others run on the
/// simulator or on the host (kFuzz on the simulator only).
enum class RunKind {
  kAvail, kListMetrics, kStatus, kCoordinator, kLoopback, kFuzzLoopback,
  kFuzz, kAgent, kOptimize, kDumpAsm, kSelftest, kCampaign, kClosedLoop, kOpenLoop,
};

/// A run's kind and, for the kinds that have one, its target.
struct RunMode {
  RunKind kind;
  bool simulated = false;
  bool operator==(const RunMode&) const = default;
};

/// A set of run modes, one bit per (kind, target) pair.
using ModeMask = std::uint32_t;

constexpr ModeMask bit(RunMode mode) {
  return ModeMask{1} << (2 * static_cast<int>(mode.kind) + (mode.simulated ? 1 : 0));
}

/// The mode a parsed Config runs in.
RunMode run_mode(const Config& cfg);

/// Every run mode, in dispatch order.
const std::vector<RunMode>& run_modes();

/// "--campaign", "simulated --optimize", "host open-loop single", ...
std::string to_string(RunMode mode);

/// A flag's value as given on the command line.
struct FlagValue {
  std::string flag;                 ///< the name as given, e.g. "-t"
  std::optional<std::string> text;  ///< absent when none was given
  double number() const;            ///< ConfigError unless a number
  std::uint64_t count() const;      ///< ConfigError unless a non-negative integer
};

/// One row of the flag table. parse_args sets a flag through its row and
/// rejects it outside the row's modes; usage() prints --help from the rows.
struct Flag {
  const char* names;  ///< as --help prints them, e.g. "-t, --timeout"
  /// Value placeholder: "SEC" takes a value, so does "=NSGA2" (printed
  /// attached), "[=N]" an optional attached one, and "" none.
  const char* value;
  ModeMask modes;  ///< the run modes in which the flag acts
  /// Stores the value; empty in a second --help entry for a flag's other form.
  std::function<void(Config&, const FlagValue&)> set;
  const char* help;  ///< --help text, one line per '\n'-separated line
  const char* section = nullptr;  ///< starts a --help section when set
};

/// The flag table, in --help order.
const std::vector<Flag>& flag_table();

/// Parse argv. Throws fs2::ConfigError on unknown flags, malformed values,
/// or a flag given in a run mode it does not act in (--help and --version
/// accept any flag); never exits the process (the caller owns that
/// decision).
Config parse_args(int argc, const char* const* argv);

/// Map a --simulate / --loopback target name ("zen2", "haswell",
/// "haswell-gpu") to its TargetSystem. Throws fs2::ConfigError on unknown
/// names.
TargetSystem parse_sim_target(const std::string& name);

/// --help text, printed from the flag table.
std::string usage();

const char* to_string(TargetSystem target);

}  // namespace fs2::firestarter
