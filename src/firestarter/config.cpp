#include "firestarter/config.hpp"

#include <limits>

#include "control/setpoint.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace fs2::firestarter {

const char* to_string(TargetSystem target) {
  switch (target) {
    case TargetSystem::kHost: return "host";
    case TargetSystem::kSimZen2: return "sim-zen2";
    case TargetSystem::kSimHaswell: return "sim-haswell";
    case TargetSystem::kSimHaswellGpu: return "sim-haswell-gpu";
  }
  return "?";
}

TargetSystem parse_sim_target(const std::string& name) {
  if (name == "zen2") return TargetSystem::kSimZen2;
  if (name == "haswell") return TargetSystem::kSimHaswell;
  if (name == "haswell-gpu") return TargetSystem::kSimHaswellGpu;
  throw ConfigError("unknown simulation target '" + name + "'");
}

double FlagValue::number() const { return strings::parse_double(text.value_or(""), flag); }

std::uint64_t FlagValue::count() const { return strings::parse_u64(text.value_or(""), flag); }

// ---- run modes ------------------------------------------------------------------

namespace {

using enum RunKind;

constexpr const char* kKindNames[] = {
    "--avail", "--list-metrics", "--status", "--coordinator", "--loopback", "--fuzz --loopback",
    "--fuzz", "--agent", "--optimize", "--dump-asm", "--selftest", "--campaign",
    "closed-loop single", "open-loop single"};

constexpr bool has_target(RunKind kind) { return kind >= kFuzz; }

// The modes of `kinds` on the simulator, on the host (where the kinds
// without a target sit), or on both.
template <class... K> constexpr ModeMask sim(K... kinds) { return (bit({kinds, true}) | ...); }
template <class... K> constexpr ModeMask host(K... kinds) { return (bit({kinds, false}) | ...); }
template <class... K> constexpr ModeMask both(K... kinds) { return sim(kinds...) | host(kinds...); }

// The mode groups the table's rows share.
constexpr ModeMask kAnyMode = ~ModeMask{0};
/// A fleet's coordinator, for remote agents or for a loopback fleet.
constexpr ModeMask kFleet = host(kCoordinator, kLoopback);
/// The in-process simulated agents of --loopback and --fuzz --loopback.
constexpr ModeMask kLoopbackAgents = host(kLoopback, kFuzzLoopback);
constexpr ModeMask kFuzzRuns = host(kFuzzLoopback) | sim(kFuzz);
/// Runs whose phases the phase runner drives on the chosen target.
constexpr ModeMask kPhaseRuns = both(kAgent, kCampaign, kClosedLoop, kOpenLoop);
/// Host phases, host --optimize candidates included.
constexpr ModeMask kHostPhases = host(kAgent, kOptimize, kCampaign, kClosedLoop, kOpenLoop);
/// Runs that build the payload from -i, --run-instruction-groups and
/// --set-line-count (--optimize adds its own terms).
constexpr ModeMask kPayloadRuns =
    kLoopbackAgents | sim(kFuzz) | kPhaseRuns | both(kDumpAsm, kSelftest);

/// `mask` for an error message, e.g. "--campaign or host --optimize": a
/// kind on both targets is named once, without one.
std::string describe(ModeMask mask) {
  std::string text;
  for (const RunMode& mode : run_modes()) {
    const bool twin = has_target(mode.kind) && (mask & bit({mode.kind, !mode.simulated}));
    if (!(mask & bit(mode)) || (twin && mode.simulated)) continue;
    text += (text.empty() ? "" : ", ") +
            (twin ? std::string(kKindNames[static_cast<int>(mode.kind)]) : to_string(mode));
  }
  const auto last = text.rfind(", ");
  return last == std::string::npos ? text : text.replace(last, 2, " or ");
}

// ---- the flag table's setters ---------------------------------------------------

using Setter = std::function<void(Config&, const FlagValue&)>;

// Setters for the common kinds of flag. A checked value must lie within
// [lo, hi], else the setter throws `error`; a number is stored divided by
// `unit` (1e6 turns microseconds into seconds).
Setter on(bool Config::*field) { return [=](Config& c, const FlagValue&) { c.*field = true; }; }
template <class T>
Setter text(T Config::*field, const char* empty_error = nullptr) {
  return [=](Config& c, const FlagValue& v) {
    if (empty_error && v.text->empty()) throw ConfigError(empty_error);
    c.*field = *v.text;
  };
}
template <class T>
Setter count(T Config::*field, std::uint64_t lo = 0, std::uint64_t hi = 0,
             const char* error = nullptr) {
  return [=](Config& c, const FlagValue& v) {
    const std::uint64_t n = v.count();
    if (error && (n < lo || n > hi)) throw ConfigError(error);
    c.*field = static_cast<T>(n);
  };
}
Setter number(double Config::*field, double unit = 1.0) {
  return [=](Config& c, const FlagValue& v) { c.*field = v.number() / unit; };
}
Setter number(double Config::*field, double lo, double hi, const char* error,
              double unit = 1.0) {
  return [=](Config& c, const FlagValue& v) {
    const double x = v.number();
    if (!(x >= lo && x <= hi)) throw ConfigError(error);
    c.*field = x / unit;
  };
}
/// The least double above 0: [kAboveZero, hi] is (0, hi].
constexpr double kAboveZero = std::numeric_limits<double>::denorm_min();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// The row whose names include `name`, or null.
const Flag* find_flag(const std::string& name) {
  for (const Flag& flag : flag_table()) {
    if (flag.set == nullptr) continue;
    for (const std::string& alias : strings::split(flag.names, ','))
      if (strings::trim(alias) == name) return &flag;
  }
  return nullptr;
}

}  // namespace

RunMode run_mode(const Config& cfg) {
  const bool sim = cfg.target != TargetSystem::kHost;
  if (cfg.list_functions) return {kAvail};
  if (cfg.list_metrics) return {kListMetrics};
  if (cfg.status_endpoint) return {kStatus};
  // --loopback implies --coordinator, and a fuzz run owns its fleet.
  if (cfg.fuzz) return cfg.loopback_nodes ? RunMode{kFuzzLoopback} : RunMode{kFuzz, sim};
  if (cfg.coordinator) return {cfg.loopback_nodes ? kLoopback : kCoordinator};
  if (cfg.agent_endpoint) return {kAgent, sim};
  if (cfg.optimize) return {kOptimize, sim};
  if (cfg.dump_asm) return {kDumpAsm, sim};
  if (cfg.selftest) return {kSelftest, sim};
  if (cfg.campaign_file) return {kCampaign, sim};
  return {cfg.target_spec ? kClosedLoop : kOpenLoop, sim};
}

const std::vector<RunMode>& run_modes() {
  static const std::vector<RunMode> modes = {
      {kAvail}, {kListMetrics}, {kStatus}, {kCoordinator}, {kLoopback}, {kFuzzLoopback},
      {kFuzz, true}, {kAgent, true}, {kAgent}, {kOptimize, true}, {kOptimize},
      {kDumpAsm, true}, {kDumpAsm}, {kSelftest, true}, {kSelftest}, {kCampaign, true},
      {kCampaign}, {kClosedLoop, true}, {kClosedLoop}, {kOpenLoop, true}, {kOpenLoop}};
  return modes;
}

std::string to_string(RunMode mode) {
  const char* name = kKindNames[static_cast<int>(mode.kind)];
  if (!has_target(mode.kind)) return name;
  return std::string(mode.simulated ? "simulated " : "host ") + name;
}

const std::vector<Flag>& flag_table() {
  using V = const FlagValue&;
  static const std::vector<Flag> table = {
      {"-h, --help", "", kAnyMode, on(&Config::show_help), "show this help", "General"},
      {"--version", "", kAnyMode, on(&Config::show_version), "print version"},
      {"-a, --avail", "", host(kAvail), on(&Config::list_functions),
       "list available stress functions"},
      {"--list-metrics", "", host(kListMetrics), on(&Config::list_metrics),
       "list metrics available on this system"},
      {"--log-level", "LEVEL", kAnyMode, text(&Config::log_level),
       "trace|debug|info|warn|error|off"},

      {"-i, --function", "ID|NAME", kPayloadRuns | both(kOptimize),
       [](Config& c, V v) {
         try {
           c.function_id = std::stoi(*v.text);
         } catch (...) {
           c.function_name = *v.text;
         }
       },
       "select the instruction set I", "Workload (Sec. III)"},
      {"--run-instruction-groups", "M", kPayloadRuns | host(kOptimize),
       text(&Config::instruction_groups), "memory accesses, e.g. REG:4,L1_L:2,L2_L:1"},
      {"--set-line-count", "U", kPayloadRuns | host(kOptimize), count(&Config::line_count),
       "unroll factor u (default: fill 3/4 of L1-I)"},
      {"--allow-infinity-bug", "", kLoopbackAgents | sim(kFuzz) | kPhaseRuns | both(kOptimize),
       on(&Config::v174_bug_mode), "reproduce the v1.7.4 operand bug (Sec. III-D)"},

      {"-t, --timeout", "SEC", both(kOptimize, kClosedLoop, kOpenLoop),
       [](Config& c, V v) {
         c.timeout_s = v.number();
         if (c.timeout_s > 0) c.candidate_duration_s = c.timeout_s;
       },
       "stop after SEC seconds (with --optimize: each\ncandidate's window, at least 0.1)",
       "Execution"},
      {"-l, --load", "PCT", host(kLoopback, kOptimize) | both(kAgent, kCampaign, kOpenLoop),
       number(&Config::load, 0, 100, "--load must be within [0, 100]", 100),
       "busy fraction per period (default 100)"},
      // Microseconds, matching the original tool's -p (the paper's
      // oscillation experiments use periods down to tens of us).
      {"-p, --period", "US",
       host(kLoopback, kOptimize, kClosedLoop) | both(kAgent, kCampaign, kOpenLoop),
       number(&Config::period_s, kAboveZero, kInf, "--period must be > 0 microseconds", 1e6),
       "load/idle modulation period in microseconds\n(default 100000)"},
      {"-n, --threads", "N", kLoopbackAgents | sim(kFuzz) | kPhaseRuns | both(kOptimize, kSelftest),
       count(&Config::threads), "worker threads (default: all hardware threads)"},
      {"--one-thread-per-core", "", kHostPhases | both(kSelftest), on(&Config::one_thread_per_core),
       "skip SMT siblings"},
      {"--seed", "N", host(kLoopback) | kPhaseRuns | both(kOptimize, kSelftest),
       count(&Config::seed), "operand-initialization seed"},
      {"--dump-asm", "", both(kDumpAsm), on(&Config::dump_asm),
       "print the disassembly of the generated kernel\ninstead of running it"},
      {"--selftest", "[=N]", both(kSelftest),
       [](Config& c, V v) {
         c.selftest = true;
         if (v.text) c.selftest_iterations = v.count();
       },
       "synchronized SIMD error detection: every worker\n"
       "runs exactly N identical iterations; any register\n"
       "divergence or invalid value fails (exit code 1)"},
      {"--dump-registers", "[=SEC]", kHostPhases | both(kDumpAsm),
       [](Config& c, V v) {
         c.dump_registers = true;
         if (v.text) c.dump_interval_s = v.number();
       },
       "flush SIMD registers to --dump-path periodically"},
      {"--dump-path", "FILE", kHostPhases, text(&Config::dump_path),
       "register dump file (default registers.dump)"},

      {"--load-profile", "SPEC", both(kOpenLoop), text(&Config::load_profile),
       "modulate load over time; SPEC is\nKIND[:key=value,...] with loads in percent and\n"
       "times in seconds:\n  constant[:load=P]\n  square[:low=P,high=P,period=S,duty=F]\n"
       "  sine[:low=P,high=P,period=S]\n  ramp[:from=P,to=P,duration=S]\n"
       "  bursts[:base=P,peak=P,window=S,prob=P,seed=N]\n  trace[:file=CSV,loop=0|1,span=S]\n"
       "e.g. --load-profile=sine:low=10,high=90,period=2",
       "Load schedule (dynamic load patterns, Sec. III)"},
      {"--phase-offset", "US", kHostPhases,
       number(&Config::phase_offset_s, 0, kInf, "--phase-offset must be >= 0 microseconds", 1e6),
       "shift worker i's schedule by i*US microseconds\n"
       "(rotating-load scenarios; default 0 = lockstep)"},
      {"--campaign", "FILE", kFleet | both(kCampaign), text(&Config::campaign_file),
       "run the multi-phase campaign described in FILE\n(\"phase name=X duration=S profile=SPEC\n"
       "[function=F] [target=SPEC] [threads=N]\n[freq=MHZ]\" per line) and print one summary\n"
       "row per phase and metric"},
      {"--record-trace", "FILE", both(kCampaign, kClosedLoop, kOpenLoop),
       text(&Config::record_trace),
       "write the achieved load-level series as a\ntrace CSV that --load-profile trace:file=FILE\n"
       "replays (record -> replay)"},

      {"--target", "SPEC", kFleet | both(kClosedLoop),
       [](Config& c, V v) {
         c.target_spec = *v.text;
         control::Setpoint::parse(*c.target_spec);  // reject malformed specs here
       },
       "regulate the duty cycle against a measured\nsetpoint instead of an open-loop profile;\n"
       "SPEC is power=WATTS[W] or temp=DEGC[C],\noptionally with kp=/ki=/kd= (PID gains),\n"
       "interval=SEC (tick, default 0.25),\nband=PCT (convergence band, default 2),\n"
       "scale=UNITS (plant span hint, host runs).\nFeedback: RAPL package power or\n"
       "coretemp/k10temp on hosts, the power plant\nmodel under --simulate",
       "Closed-loop control (hold a power or temperature setpoint)"},
      {"--control-log", "FILE", both(kCampaign, kClosedLoop), text(&Config::control_log),
       "per-tick controller CSV\n(time_s,setpoint,measurement,error,level,phase)"},
      {"--require-convergence", "", kFleet | both(kCampaign, kClosedLoop),
       on(&Config::require_convergence),
       "exit 1 when a controlled run/phase does not\nsettle inside the setpoint band"},

      {"--coordinator", "", host(kCoordinator), on(&Config::coordinator),
       "run as the fleet coordinator: accept --nodes\n"
       "agents, clock-sync each one (RTT-compensated\noffset estimation), distribute --campaign,\n"
       "start every node on a shared epoch, merge the\nstreamed telemetry into one CSV with a\n"
       "trailing node column plus cluster-aggregate\nrows (cluster-power sum, cluster-temp-max)",
       "Cluster orchestration (coordinator/agent fleet runs)"},
      {"--listen", "PORT", kFleet,
       [](Config& c, V v) {
         count(&Config::listen_port, 0, 65535, "--listen: port must be within [0, 65535]")(c, v);
         c.listen_port_explicit = true;
       },
       "coordinator TCP port (default 7380; 0 picks\nan ephemeral port; under --loopback an\n"
       "explicit PORT pins the otherwise-ephemeral\nstatus/metrics endpoint)"},
      {"--nodes", "N", host(kCoordinator),
       count(&Config::cluster_nodes, 1, 4096, "--nodes must be within [1, 4096]"),
       "number of agents the coordinator waits for"},
      {"--agent", "HOST:PORT", both(kAgent), text(&Config::agent_endpoint),
       "run as an agent: connect to the coordinator,\nreceive the campaign, stream telemetry back"},
      {"--node-name", "NAME", both(kAgent), text(&Config::node_name),
       "agent identity in the merged CSV"},
      {"--loopback", "SPECS", kLoopbackAgents,
       [](Config& c, V v) {
         c.loopback_nodes = *v.text;
         c.coordinator = true;
       },
       "single-process cluster: spawn in-process sim\n"
       "agents against a 127.0.0.1 coordinator, e.g.\n--loopback zen2@1500,haswell@2000 (implies\n"
       "--coordinator; deterministic, used by CI).\nA spec takes an xCOUNT multiplier — e.g.\n"
       "zen2@1500x256,haswell@2000x256 is a 512-node\nfleet, driven by one shared event loop\n"
       "rather than a thread per agent"},
      {"--cluster-start-delay", "SEC", kFleet | kLoopbackAgents,
       number(&Config::cluster_start_delay_s, 0.05, 600,
              "--cluster-start-delay must be within [0.05, 600] seconds"),
       "epoch lead time after the last handshake\n(default 0.5)"},
      {"--sync-tolerance", "SEC", kFleet | kLoopbackAgents,
       number(&Config::sync_tolerance_s, kAboveZero, kInf, "--sync-tolerance must be > 0 seconds"),
       "max allowed cross-node phase-start spread\nbefore the run is flagged out of lockstep\n"
       "(default 0.25)"},
      {"--target", "cluster-power=WATTS[,band=PCT,interval=SEC]", kFleet, nullptr,
       "(coordinator only) hold a global power\nbudget: each interval the coordinator\n"
       "reapportions per-node power setpoints from\nreported achieved watts so the fleet total\n"
       "tracks the budget"},
      {"--trace-out", "FILE", kFleet | kFuzzRuns | kPayloadRuns | both(kOptimize),
       text(&Config::trace_out, "--trace-out: file path must not be empty"),
       "enable the span tracer and write the run's\nmerged timeline as Chrome trace_event JSON\n"
       "(open in Perfetto / chrome://tracing). On a\ncoordinator, agent spans are rebased through\n"
       "the clock-sync offsets onto the coordinator\nclock — one fleet-wide timeline"},
      {"--status", "HOST:PORT", host(kStatus),
       [](Config& c, V v) {
         if (v.text->find(':') == std::string::npos)
           throw ConfigError("--status expects HOST:PORT");
         c.status_endpoint = *v.text;
       },
       "probe a live coordinator and print fleet\nhealth (per-node connection state, phase\n"
       "progress, begin-spread, queue depth, budget\nallocation vs achieved watts, alerts), then\n"
       "exit — nonzero when any node is unhealthy"},
      {"--metrics-interval", "SEC", kFleet,
       number(&Config::metrics_interval_s, 0, 600,
              "--metrics-interval must be within [0, 600] seconds (0 disables)"),
       "cadence agents ship live metric deltas at\n(default 1; 0 disables the live metrics\n"
       "plane and flat-line detection). The\ncoordinator also answers HTTP GET /metrics\n"
       "on its cluster port with Prometheus-style\nexposition text while a run is live"},
      {"--flight-out", "FILE", kFleet | kLoopbackAgents | both(kAgent),
       text(&Config::flight_out, "--flight-out: file path must not be empty"),
       "keep a crash flight recorder: a bounded\nring of recent alerts, events, and metric\n"
       "snapshots rewritten to FILE as the run\nprogresses and dumped on SIGTERM/SIGINT"},
      {"--chaos", "SPEC", kFleet, text(&Config::chaos_spec, "--chaos: spec must not be empty"),
       "deterministic fault injection (coordinator):\nseeded drop/corrupt/truncate/delay on the\n"
       "fleet's telemetry links plus kill/stall cues,\ne.g. \"seed=7,drop=1%,delay=5ms+-3ms,\n"
       "kill=node5@phase1\". Same seed, same schedule;\nthe plan is recorded in the flight dump"},
      {"--rejoin-grace", "SEC", kFleet,
       number(&Config::rejoin_grace_s, 0, 600, "--rejoin-grace must be within [0, 600] seconds"),
       "how long a lost node may rejoin before the\ncoordinator gives up on it (default 2;\n"
       "barriers hold during the window)"},

      {"--fuzz", "", kFuzzRuns, on(&Config::fuzz),
       "randomly compose payload patterns (memory-access\n"
       "mix M + unroll u), evaluate each as a short\n"
       "square-excursion phase on the simulated plant,\n"
       "and keep a bounded ranked corpus of response\n"
       "outliers along three objectives: peak power,\npower swing (VR stress), thermal ramp rate.\n"
       "Needs --simulate (one candidate at a time) or\n"
       "--loopback (a fleet evaluates one candidate\nper node per cluster round)",
       "Payload pattern fuzzer (randomized scenario discovery)"},
      {"--fuzz-seed", "N", kFuzzRuns, count(&Config::fuzz_seed),
       "seeds candidate generation and the simulated\n"
       "meters; the same seed and the same target spec\nreproduce the identical corpus (default\n"
       "0x5eedf022)"},
      {"--fuzz-population", "N", kFuzzRuns,
       count(&Config::fuzz_population, 1, 4096, "--fuzz-population must be within [1, 4096]"),
       "candidates per generation (default 32; rounded\nup to a multiple of the fleet size)"},
      {"--fuzz-generations", "N", kFuzzRuns,
       count(&Config::fuzz_generations, 1, 1000, "--fuzz-generations must be within [1, 1000]"),
       "generations (default 2; the first is uniform\nrandom, later ones mutate corpus elites)"},
      {"--fuzz-corpus", "N", kFuzzRuns,
       count(&Config::fuzz_corpus, 1, 256, "--fuzz-corpus must be within [1, 256]"),
       "retained outliers per objective (default 8)"},
      {"--fuzz-duration", "SEC", kFuzzRuns,
       number(&Config::fuzz_duration_s, 1, 600, "--fuzz-duration must be within [1, 600] seconds"),
       "virtual seconds per candidate phase (default 6)"},
      {"--fuzz-objective", "NAME", kFuzzRuns,
       [](Config& c, V v) {
         const std::string& name = *v.text;
         if (name != "all" && name != "peak-power" && name != "power-swing" && name != "thermal")
           throw ConfigError("--fuzz-objective must be peak-power, power-swing, thermal, or all");
         c.fuzz_objective = name;
       },
       "peak-power | power-swing | thermal | all\n(default all): which axes the corpus keeps\n"
       "outliers for"},
      {"--fuzz-report", "PATH", kFuzzRuns, text(&Config::fuzz_report),
       "write the evaluation log (spec string, response\n"
       "signature, dedupe status, final ranks, seed);\na .json extension selects JSON, else CSV"},

      {"--measurement", "", both(kClosedLoop, kOpenLoop), on(&Config::measurement),
       "print metric CSV after the run", "Measurement (Sec. III-D)"},
      {"--start-delta", "MS", kLoopbackAgents | sim(kFuzz) | kPhaseRuns,
       number(&Config::start_delta_s, 1000), "ignore the first MS milliseconds (default 5000)"},
      {"--stop-delta", "MS", kLoopbackAgents | sim(kFuzz) | kPhaseRuns,
       number(&Config::stop_delta_s, 1000), "ignore the last MS milliseconds (default 2000)"},

      {"--optimize", "=NSGA2", both(kOptimize),
       [](Config& c, V v) {
         const std::string algo = strings::to_upper(*v.text);
         if (algo != "NSGA2")
           throw ConfigError("unknown optimization algorithm '" + algo + "' (supported: NSGA2)");
         c.optimize = true;
       },
       "tune M with the multi-objective optimizer", "Self-tuning (Sec. III-C / IV-E)"},
      {"--individuals", "N", both(kOptimize), count(&Config::individuals),
       "population size (default 40)"},
      {"--generations", "N", both(kOptimize), count(&Config::generations),
       "generations (default 20)"},
      {"--nsga2-m", "F", both(kOptimize),
       number(&Config::nsga2_m, 0, 1, "--nsga2-m must be within [0, 1]"),
       "mutation probability (default 0.35)"},
      // The simulated candidate window starts warm and always measures
      // power and IPC: these two act on the host only.
      {"--preheat", "SEC", host(kOptimize), number(&Config::preheat_s),
       "host: run the default payload for SEC before\ntuning (default 240)"},
      {"--optimization-metric", "LIST", host(kOptimize),
       [](Config& c, V v) {
         for (const auto& name : strings::split(*v.text, ','))
           c.optimization_metrics.push_back(std::string(strings::trim(name)));
       },
       "host: objectives by --list-metrics name, or\npower (RAPL, else --metric-command) and ipc\n"
       "(perf-ipc, else ipc-estimate); default power,ipc"},
      {"--metric-path", "LIB.so", host(kListMetrics) | kHostPhases, text(&Config::metric_path),
       "external metric plugin (C ABI)"},
      {"--metric-command", "CMD", host(kListMetrics) | kHostPhases, text(&Config::metric_command),
       "external metric command printing one number"},
      {"--optimization-log", "FILE", both(kOptimize), text(&Config::optimization_log),
       "per-evaluation CSV log (Fig. 11 data)"},

      {"--simulate", "[=zen2|haswell|haswell-gpu]",
       sim(kFuzz, kAgent, kOptimize, kDumpAsm, kSelftest, kCampaign, kClosedLoop, kOpenLoop),
       [](Config& c, V v) {
         c.target = parse_sim_target(strings::to_lower(v.text.value_or("zen2")));
       },
       "run against the calibrated testbed simulator\ninstead of the host (virtual time)",
       "Target system"},
      {"--freq", "MHZ", sim(kFuzz, kAgent, kOptimize, kCampaign, kClosedLoop, kOpenLoop),
       number(&Config::sim_freq_mhz), "simulated core P-state (default: nominal)"},
      {"--sim-sample-hz", "HZ", kLoopbackAgents | sim(kFuzz, kAgent, kCampaign, kOpenLoop),
       number(&Config::sim_sample_hz, kAboveZero, kInf, "--sim-sample-hz must be > 0"),
       "virtual power-meter sampling rate for\nsimulated open-loop runs (default 20, the\n"
       "paper's LMG95; telemetry streams one-pass,\nso high rates cost CPU, not memory)"},
      {"--gpus", "N", kHostPhases, count(&Config::gpus),
       "stress N GPU stand-ins (DGEMM workers;\nthey duty-cycle against --load-profile and\n"
       "campaign phase schedules like CPU workers)"},
      {"--gpu-matrixsize", "N", kHostPhases, count(&Config::gpu_matrix_n),
       "DGEMM dimension (default 256)"},
  };
  return table;
}

Config parse_args(int argc, const char* const* argv) {
  Config cfg;
  std::vector<std::pair<std::string, const Flag*>> given;
  for (int i = 1; i < argc; ++i) {
    // "--flag=value" carries its value inline.
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    FlagValue value{arg.substr(0, eq), std::nullopt};
    if (eq != std::string::npos) value.text = arg.substr(eq + 1);
    const Flag* flag = find_flag(value.flag);
    if (flag == nullptr) throw ConfigError("unknown flag '" + value.flag + "' (see --help)");
    const bool takes_value = flag->value[0] != '\0' && flag->value[0] != '[';
    if (takes_value && !value.text) {
      if (i + 1 >= argc) throw ConfigError("flag " + value.flag + " expects a value");
      value.text = argv[++i];
    }
    flag->set(cfg, value);
    given.emplace_back(value.flag, flag);
  }

  // The candidate window samples at 20 Sa/s: below 0.1 s it holds fewer
  // than two samples, and the 10 % start trim may leave none.
  if (cfg.optimize && cfg.candidate_duration_s < 0.1)
    throw ConfigError("-t under --optimize must be at least 0.1 seconds per candidate");
  // --help and --version accept any flag; otherwise each must act in the
  // run's mode.
  const RunMode mode = run_mode(cfg);
  for (const auto& [name, flag] : given)
    if (!cfg.show_help && !cfg.show_version && (flag->modes & bit(mode)) == 0)
      throw ConfigError(name + " only applies to " + describe(flag->modes) +
                        " runs, not to this " + to_string(mode) + " run");
  if (cfg.optimize && cfg.optimization_metrics.empty()) {
    // Paper default: power + IPC (Sec. III-C).
    cfg.optimization_metrics = {"power", "ipc"};
  }
  return cfg;
}

std::string usage() {
  // Help text starts in this column; a longer flag column gets its own line.
  constexpr std::size_t kHelpColumn = 31;
  std::string out =
      "fs2 — FIRESTARTER 2 reproduction: dynamic code generation for processor stress tests\n";
  for (const Flag& flag : flag_table()) {
    if (flag.section) out += std::string("\n") + flag.section + ":\n";
    std::string line = std::string("  ") + flag.names;
    if (flag.value[0] != '\0')
      line += (flag.value[0] == '=' || flag.value[0] == '[' ? "" : " ") + std::string(flag.value);
    line += line.size() < kHelpColumn ? std::string(kHelpColumn - line.size(), ' ')
                                      : "\n" + std::string(kHelpColumn, ' ');
    for (const char* c = flag.help; *c != '\0'; ++c)
      line += *c == '\n' ? "\n" + std::string(kHelpColumn, ' ') : std::string(1, *c);
    out += line + "\n";
  }
  return out;
}

}  // namespace fs2::firestarter
