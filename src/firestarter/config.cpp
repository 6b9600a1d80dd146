#include "firestarter/config.hpp"

#include <functional>
#include <map>

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

namespace {

/// Argument cursor with checked value access.
class Args {
 public:
  Args(int argc, const char* const* argv) : argc_(argc), argv_(argv) {}
  bool done() const { return index_ >= argc_; }
  std::string next() { return argv_[index_++]; }
  std::string value(const std::string& flag) {
    if (index_ >= argc_) throw ConfigError("flag " + flag + " expects a value");
    return argv_[index_++];
  }

 private:
  int argc_;
  const char* const* argv_;
  int index_ = 1;
};

/// Split "--flag=value" into flag and inline value.
std::pair<std::string, std::optional<std::string>> split_flag(const std::string& arg) {
  const auto eq = arg.find('=');
  if (eq == std::string::npos) return {arg, std::nullopt};
  return {arg.substr(0, eq), arg.substr(eq + 1)};
}

}  // namespace

Config parse_args(int argc, const char* const* argv) {
  Config cfg;
  Args args(argc, argv);
  std::string host_tuning_flag;  // --preheat or --optimization-metric, when given

  auto take = [&](const std::optional<std::string>& inline_value, Args& a,
                  const std::string& flag) {
    return inline_value ? *inline_value : a.value(flag);
  };

  while (!args.done()) {
    const std::string raw = args.next();
    const auto [flag, inline_value] = split_flag(raw);

    if (flag == "-h" || flag == "--help") cfg.show_help = true;
    else if (flag == "--version") cfg.show_version = true;
    else if (flag == "-a" || flag == "--avail") cfg.list_functions = true;
    else if (flag == "--list-metrics") cfg.list_metrics = true;
    else if (flag == "-i" || flag == "--function") {
      const std::string value = take(inline_value, args, flag);
      try {
        cfg.function_id = std::stoi(value);
      } catch (...) {
        cfg.function_name = value;
      }
    } else if (flag == "--run-instruction-groups") {
      cfg.instruction_groups = take(inline_value, args, flag);
    } else if (flag == "--set-line-count") {
      cfg.line_count =
          static_cast<unsigned>(strings::parse_u64(take(inline_value, args, flag), flag));
    } else if (flag == "-t" || flag == "--timeout") {
      cfg.timeout_s = strings::parse_double(take(inline_value, args, flag), flag);
      cfg.candidate_duration_s = cfg.timeout_s > 0 ? cfg.timeout_s : cfg.candidate_duration_s;
    } else if (flag == "-l" || flag == "--load") {
      const double pct = strings::parse_double(take(inline_value, args, flag), flag);
      if (pct < 0.0 || pct > 100.0) throw ConfigError("--load must be within [0, 100]");
      cfg.load = pct / 100.0;
    } else if (flag == "-p" || flag == "--period") {
      // Microseconds, matching the original tool's -p (the paper's
      // oscillation experiments use periods down to tens of us).
      const double us = strings::parse_double(take(inline_value, args, flag), flag);
      if (!(us > 0.0)) throw ConfigError("--period must be > 0 microseconds");
      cfg.period_s = us / 1e6;
    } else if (flag == "--load-profile") {
      cfg.load_profile = take(inline_value, args, flag);
    } else if (flag == "--phase-offset") {
      const double us = strings::parse_double(take(inline_value, args, flag), flag);
      if (!(us >= 0.0)) throw ConfigError("--phase-offset must be >= 0 microseconds");
      cfg.phase_offset_s = us / 1e6;
    } else if (flag == "--campaign") {
      cfg.campaign_file = take(inline_value, args, flag);
    } else if (flag == "--record-trace") {
      cfg.record_trace = take(inline_value, args, flag);
    } else if (flag == "--target") {
      cfg.target_spec = take(inline_value, args, flag);
      control::Setpoint::parse(*cfg.target_spec);  // reject malformed specs here
    } else if (flag == "--control-log") {
      cfg.control_log = take(inline_value, args, flag);
    } else if (flag == "--require-convergence") {
      cfg.require_convergence = true;
    } else if (flag == "--coordinator") {
      cfg.coordinator = true;
    } else if (flag == "--listen") {
      const std::uint64_t port = strings::parse_u64(take(inline_value, args, flag), flag);
      if (port > 65535) throw ConfigError("--listen: port must be within [0, 65535]");
      cfg.listen_port = static_cast<std::uint16_t>(port);
      cfg.listen_port_explicit = true;
    } else if (flag == "--nodes") {
      const std::uint64_t n = strings::parse_u64(take(inline_value, args, flag), flag);
      if (n == 0 || n > 4096) throw ConfigError("--nodes must be within [1, 4096]");
      cfg.cluster_nodes = static_cast<int>(n);
    } else if (flag == "--agent") {
      cfg.agent_endpoint = take(inline_value, args, flag);
    } else if (flag == "--node-name") {
      cfg.node_name = take(inline_value, args, flag);
    } else if (flag == "--loopback") {
      cfg.loopback_nodes = take(inline_value, args, flag);
      cfg.coordinator = true;
    } else if (flag == "--cluster-start-delay") {
      cfg.cluster_start_delay_s =
          strings::parse_double(take(inline_value, args, flag), flag);
      if (!(cfg.cluster_start_delay_s >= 0.05 && cfg.cluster_start_delay_s <= 600.0))
        throw ConfigError("--cluster-start-delay must be within [0.05, 600] seconds");
    } else if (flag == "--sync-tolerance") {
      cfg.sync_tolerance_s = strings::parse_double(take(inline_value, args, flag), flag);
      if (!(cfg.sync_tolerance_s > 0.0))
        throw ConfigError("--sync-tolerance must be > 0 seconds");
    } else if (flag == "--trace-out") {
      cfg.trace_out = take(inline_value, args, flag);
      if (cfg.trace_out->empty()) throw ConfigError("--trace-out: file path must not be empty");
    } else if (flag == "--status") {
      cfg.status_endpoint = take(inline_value, args, flag);
      if (cfg.status_endpoint->find(':') == std::string::npos)
        throw ConfigError("--status expects HOST:PORT");
    } else if (flag == "--metrics-interval") {
      cfg.metrics_interval_s = strings::parse_double(take(inline_value, args, flag), flag);
      if (!(cfg.metrics_interval_s >= 0.0 && cfg.metrics_interval_s <= 600.0))
        throw ConfigError("--metrics-interval must be within [0, 600] seconds (0 disables)");
    } else if (flag == "--flight-out") {
      cfg.flight_out = take(inline_value, args, flag);
      if (cfg.flight_out->empty())
        throw ConfigError("--flight-out: file path must not be empty");
    } else if (flag == "--chaos") {
      cfg.chaos_spec = take(inline_value, args, flag);
      if (cfg.chaos_spec->empty())
        throw ConfigError("--chaos: spec must not be empty");
    } else if (flag == "--rejoin-grace") {
      cfg.rejoin_grace_s = strings::parse_double(take(inline_value, args, flag), flag);
      if (!(cfg.rejoin_grace_s >= 0.0 && cfg.rejoin_grace_s <= 600.0))
        throw ConfigError("--rejoin-grace must be within [0, 600] seconds");
    } else if (flag == "--fuzz") {
      cfg.fuzz = true;
    } else if (flag == "--fuzz-seed") {
      cfg.fuzz_seed = strings::parse_u64(take(inline_value, args, flag), flag);
    } else if (flag == "--fuzz-population") {
      cfg.fuzz_population = strings::parse_u64(take(inline_value, args, flag), flag);
      if (cfg.fuzz_population == 0 || cfg.fuzz_population > 4096)
        throw ConfigError("--fuzz-population must be within [1, 4096]");
    } else if (flag == "--fuzz-generations") {
      cfg.fuzz_generations = strings::parse_u64(take(inline_value, args, flag), flag);
      if (cfg.fuzz_generations == 0 || cfg.fuzz_generations > 1000)
        throw ConfigError("--fuzz-generations must be within [1, 1000]");
    } else if (flag == "--fuzz-corpus") {
      cfg.fuzz_corpus = strings::parse_u64(take(inline_value, args, flag), flag);
      if (cfg.fuzz_corpus == 0 || cfg.fuzz_corpus > 256)
        throw ConfigError("--fuzz-corpus must be within [1, 256]");
    } else if (flag == "--fuzz-duration") {
      cfg.fuzz_duration_s = strings::parse_double(take(inline_value, args, flag), flag);
      if (!(cfg.fuzz_duration_s >= 1.0 && cfg.fuzz_duration_s <= 600.0))
        throw ConfigError("--fuzz-duration must be within [1, 600] seconds");
    } else if (flag == "--fuzz-objective") {
      cfg.fuzz_objective = take(inline_value, args, flag);
      if (cfg.fuzz_objective != "all" && cfg.fuzz_objective != "peak-power" &&
          cfg.fuzz_objective != "power-swing" && cfg.fuzz_objective != "thermal")
        throw ConfigError(
            "--fuzz-objective must be peak-power, power-swing, thermal, or all");
    } else if (flag == "--fuzz-report") {
      cfg.fuzz_report = take(inline_value, args, flag);
    } else if (flag == "-n" || flag == "--threads") {
      cfg.threads = static_cast<int>(strings::parse_u64(take(inline_value, args, flag), flag));
    } else if (flag == "--one-thread-per-core") {
      cfg.one_thread_per_core = true;
    } else if (flag == "--seed") {
      cfg.seed = strings::parse_u64(take(inline_value, args, flag), flag);
    } else if (flag == "--allow-infinity-bug") {
      cfg.v174_bug_mode = true;
    } else if (flag == "--dump-asm") {
      cfg.dump_asm = true;
    } else if (flag == "--selftest") {
      cfg.selftest = true;
      if (inline_value)
        cfg.selftest_iterations = strings::parse_u64(*inline_value, flag);
    } else if (flag == "--dump-registers") {
      cfg.dump_registers = true;
      if (inline_value) cfg.dump_interval_s = strings::parse_double(*inline_value, flag);
    } else if (flag == "--dump-path") {
      cfg.dump_path = take(inline_value, args, flag);
    } else if (flag == "--measurement") {
      cfg.measurement = true;
    } else if (flag == "--start-delta") {
      cfg.start_delta_s = strings::parse_double(take(inline_value, args, flag), flag) / 1000.0;
    } else if (flag == "--stop-delta") {
      cfg.stop_delta_s = strings::parse_double(take(inline_value, args, flag), flag) / 1000.0;
    } else if (flag == "--optimize") {
      const std::string algo = strings::to_upper(take(inline_value, args, flag));
      if (algo != "NSGA2")
        throw ConfigError("unknown optimization algorithm '" + algo + "' (supported: NSGA2)");
      cfg.optimize = true;
    } else if (flag == "--individuals") {
      cfg.individuals = strings::parse_u64(take(inline_value, args, flag), flag);
    } else if (flag == "--generations") {
      cfg.generations = strings::parse_u64(take(inline_value, args, flag), flag);
    } else if (flag == "--nsga2-m") {
      cfg.nsga2_m = strings::parse_double(take(inline_value, args, flag), flag);
      if (cfg.nsga2_m < 0.0 || cfg.nsga2_m > 1.0)
        throw ConfigError("--nsga2-m must be within [0, 1]");
    } else if (flag == "--preheat") {
      cfg.preheat_s = strings::parse_double(take(inline_value, args, flag), flag);
      host_tuning_flag = flag;
    } else if (flag == "--optimization-metric") {
      host_tuning_flag = flag;
      for (const auto& name : strings::split(take(inline_value, args, flag), ','))
        cfg.optimization_metrics.push_back(std::string(strings::trim(name)));
    } else if (flag == "--metric-path") {
      cfg.metric_path = take(inline_value, args, flag);
    } else if (flag == "--metric-command") {
      cfg.metric_command = take(inline_value, args, flag);
    } else if (flag == "--optimization-log") {
      cfg.optimization_log = take(inline_value, args, flag);
    } else if (flag == "--simulate") {
      cfg.target = parse_sim_target(inline_value ? strings::to_lower(*inline_value) : "zen2");
    } else if (flag == "--freq") {
      cfg.sim_freq_mhz = strings::parse_double(take(inline_value, args, flag), flag);
    } else if (flag == "--sim-sample-hz") {
      cfg.sim_sample_hz = strings::parse_double(take(inline_value, args, flag), flag);
      if (!(cfg.sim_sample_hz > 0.0))
        throw ConfigError("--sim-sample-hz must be > 0");
    } else if (flag == "--gpus") {
      cfg.gpus = static_cast<int>(strings::parse_u64(take(inline_value, args, flag), flag));
    } else if (flag == "--gpu-matrixsize") {
      cfg.gpu_matrix_n = strings::parse_u64(take(inline_value, args, flag), flag);
    } else if (flag == "--log-level") {
      cfg.log_level = take(inline_value, args, flag);
    } else {
      throw ConfigError("unknown flag '" + flag + "' (see --help)");
    }
  }

  // The candidate window samples at 20 Sa/s: below 0.1 s it holds fewer
  // than two samples, and the 10 % start trim may leave none.
  if (cfg.optimize && cfg.candidate_duration_s < 0.1)
    throw ConfigError("-t under --optimize must be at least 0.1 seconds per candidate");
  // The simulated candidate window has no warm-up ramp and always measures
  // power and IPC.
  if (cfg.optimize && cfg.target != TargetSystem::kHost && !host_tuning_flag.empty())
    throw ConfigError(host_tuning_flag + " only applies to host --optimize runs (the simulated "
                      "candidate window measures power and IPC from a warm start)");
  if (cfg.optimize && cfg.optimization_metrics.empty()) {
    // Paper default: power + IPC (Sec. III-C).
    cfg.optimization_metrics = {"power", "ipc"};
  }
  return cfg;
}

std::string usage() {
  return R"(fs2 — FIRESTARTER 2 reproduction: dynamic code generation for processor stress tests

General:
  -h, --help                   show this help
  --version                    print version
  -a, --avail                  list available stress functions
  --list-metrics               list metrics available on this system
  --log-level LEVEL            trace|debug|info|warn|error|off

Workload (Sec. III):
  -i, --function ID|NAME       select the instruction set I
  --run-instruction-groups M   memory accesses, e.g. REG:4,L1_L:2,L2_L:1
  --set-line-count U           unroll factor u (default: fill 3/4 of L1-I)
  --allow-infinity-bug         reproduce the v1.7.4 operand bug (Sec. III-D)

Execution:
  -t, --timeout SEC            stop after SEC seconds (with --optimize: each
                               candidate's window, at least 0.1)
  -l, --load PCT               busy fraction per period (default 100)
  -p, --period US              load/idle modulation period in microseconds
                               (default 100000)
  -n, --threads N              worker threads (default: all hardware threads)
  --one-thread-per-core        skip SMT siblings
  --seed N                     operand-initialization seed
  --dump-asm                   print the disassembly of the generated kernel
                               instead of running it
  --selftest[=N]               synchronized SIMD error detection: every worker
                               runs exactly N identical iterations; any register
                               divergence or invalid value fails (exit code 1)
  --dump-registers[=SEC]       flush SIMD registers to --dump-path periodically
  --dump-path FILE             register dump file (default registers.dump)

Load schedule (dynamic load patterns, Sec. III):
  --load-profile SPEC          modulate load over time; SPEC is
                               KIND[:key=value,...] with loads in percent and
                               times in seconds:
                                 constant[:load=P]
                                 square[:low=P,high=P,period=S,duty=F]
                                 sine[:low=P,high=P,period=S]
                                 ramp[:from=P,to=P,duration=S]
                                 bursts[:base=P,peak=P,window=S,prob=P,seed=N]
                                 trace[:file=CSV,loop=0|1,span=S]
                               e.g. --load-profile=sine:low=10,high=90,period=2
  --phase-offset US            shift worker i's schedule by i*US microseconds
                               (rotating-load scenarios; default 0 = lockstep)
  --campaign FILE              run the multi-phase campaign described in FILE
                               ("phase name=X duration=S profile=SPEC
                               [function=F] [target=SPEC] [threads=N]
                               [freq=MHZ]" per line) and print one summary
                               row per phase and metric
  --record-trace FILE          write the achieved load-level series as a
                               trace CSV that --load-profile trace:file=FILE
                               replays (record -> replay)

Closed-loop control (hold a power or temperature setpoint):
  --target SPEC                regulate the duty cycle against a measured
                               setpoint instead of an open-loop profile;
                               SPEC is power=WATTS[W] or temp=DEGC[C],
                               optionally with kp=/ki=/kd= (PID gains),
                               interval=SEC (tick, default 0.25),
                               band=PCT (convergence band, default 2),
                               scale=UNITS (plant span hint, host runs).
                               Feedback: RAPL package power or
                               coretemp/k10temp on hosts, the power plant
                               model under --simulate
  --control-log FILE           per-tick controller CSV
                               (time_s,setpoint,measurement,error,level,phase)
  --require-convergence        exit 1 when a controlled run/phase does not
                               settle inside the setpoint band

Cluster orchestration (coordinator/agent fleet runs):
  --coordinator                run as the fleet coordinator: accept --nodes
                               agents, clock-sync each one (RTT-compensated
                               offset estimation), distribute --campaign,
                               start every node on a shared epoch, merge the
                               streamed telemetry into one CSV with a
                               trailing node column plus cluster-aggregate
                               rows (cluster-power sum, cluster-temp-max)
  --listen PORT                coordinator TCP port (default 7380; 0 picks
                               an ephemeral port; under --loopback an
                               explicit PORT pins the otherwise-ephemeral
                               status/metrics endpoint)
  --nodes N                    number of agents the coordinator waits for
  --agent HOST:PORT            run as an agent: connect to the coordinator,
                               receive the campaign, stream telemetry back
  --node-name NAME             agent identity in the merged CSV
  --loopback SPECS             single-process cluster: spawn in-process sim
                               agents against a 127.0.0.1 coordinator, e.g.
                               --loopback zen2@1500,haswell@2000 (implies
                               --coordinator; deterministic, used by CI).
                               A spec takes an xCOUNT multiplier — e.g.
                               zen2@1500x256,haswell@2000x256 is a 512-node
                               fleet, driven by one shared event loop
                               rather than a thread per agent
  --cluster-start-delay SEC    epoch lead time after the last handshake
                               (default 0.5)
  --sync-tolerance SEC         max allowed cross-node phase-start spread
                               before the run is flagged out of lockstep
                               (default 0.25)
  --target cluster-power=WATTS[,band=PCT,interval=SEC]
                               (coordinator only) hold a global power
                               budget: each interval the coordinator
                               reapportions per-node power setpoints from
                               reported achieved watts so the fleet total
                               tracks the budget
  --trace-out FILE             enable the span tracer and write the run's
                               merged timeline as Chrome trace_event JSON
                               (open in Perfetto / chrome://tracing). On a
                               coordinator, agent spans are rebased through
                               the clock-sync offsets onto the coordinator
                               clock — one fleet-wide timeline
  --status HOST:PORT           probe a live coordinator and print fleet
                               health (per-node connection state, phase
                               progress, begin-spread, queue depth, budget
                               allocation vs achieved watts, alerts), then
                               exit — nonzero when any node is unhealthy
  --metrics-interval SEC       cadence agents ship live metric deltas at
                               (default 1; 0 disables the live metrics
                               plane and flat-line detection). The
                               coordinator also answers HTTP GET /metrics
                               on its cluster port with Prometheus-style
                               exposition text while a run is live
  --flight-out FILE            keep a crash flight recorder: a bounded
                               ring of recent alerts, events, and metric
                               snapshots rewritten to FILE as the run
                               progresses and dumped on SIGTERM/SIGINT
  --chaos SPEC                 deterministic fault injection (coordinator):
                               seeded drop/corrupt/truncate/delay on the
                               fleet's telemetry links plus kill/stall cues,
                               e.g. "seed=7,drop=1%,delay=5ms+-3ms,
                               kill=node5@phase1". Same seed, same schedule;
                               the plan is recorded in the flight dump
  --rejoin-grace SEC           how long a lost node may rejoin before the
                               coordinator gives up on it (default 2;
                               barriers hold during the window)

Payload pattern fuzzer (randomized scenario discovery):
  --fuzz                       randomly compose payload patterns (memory-access
                               mix M + unroll u), evaluate each as a short
                               square-excursion phase on the simulated plant,
                               and keep a bounded ranked corpus of response
                               outliers along three objectives: peak power,
                               power swing (VR stress), thermal ramp rate.
                               Needs --simulate (one candidate at a time) or
                               --loopback (a fleet evaluates one candidate
                               per node per cluster round)
  --fuzz-seed N                seeds candidate generation and the simulated
                               meters; the same seed and the same target spec
                               reproduce the identical corpus (default
                               0x5eedf022)
  --fuzz-population N          candidates per generation (default 32; rounded
                               up to a multiple of the fleet size)
  --fuzz-generations N         generations (default 2; the first is uniform
                               random, later ones mutate corpus elites)
  --fuzz-corpus N              retained outliers per objective (default 8)
  --fuzz-duration SEC          virtual seconds per candidate phase (default 6)
  --fuzz-objective NAME        peak-power | power-swing | thermal | all
                               (default all): which axes the corpus keeps
                               outliers for
  --fuzz-report PATH           write the evaluation log (spec string, response
                               signature, dedupe status, final ranks, seed);
                               a .json extension selects JSON, else CSV

Measurement (Sec. III-D):
  --measurement                print metric CSV after the run
  --start-delta MS             ignore the first MS milliseconds (default 5000)
  --stop-delta MS              ignore the last MS milliseconds (default 2000)

Self-tuning (Sec. III-C / IV-E):
  --optimize=NSGA2             tune M with the multi-objective optimizer
  --individuals N              population size (default 40)
  --generations N              generations (default 20)
  --nsga2-m F                  mutation probability (default 0.35)
  --preheat SEC                host: run the default payload for SEC before
                               tuning (default 240)
  --optimization-metric LIST   host: objectives by --list-metrics name, or
                               power (RAPL, else --metric-command) and ipc
                               (perf-ipc, else ipc-estimate); default power,ipc
  --metric-path LIB.so         external metric plugin (C ABI)
  --metric-command CMD         external metric command printing one number
  --optimization-log FILE      per-evaluation CSV log (Fig. 11 data)

Target system:
  --simulate[=zen2|haswell|haswell-gpu]
                               run against the calibrated testbed simulator
                               instead of the host (virtual time)
  --freq MHZ                   simulated core P-state (default: nominal)
  --sim-sample-hz HZ           virtual power-meter sampling rate for
                               simulated open-loop runs (default 20, the
                               paper's LMG95; telemetry streams one-pass,
                               so high rates cost CPU, not memory)
  --gpus N                     stress N GPU stand-ins (DGEMM workers;
                               they duty-cycle against --load-profile and
                               campaign phase schedules like CPU workers)
  --gpu-matrixsize N           DGEMM dimension (default 256)
)";
}

}  // namespace fs2::firestarter
