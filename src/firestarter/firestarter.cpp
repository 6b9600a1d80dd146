#include "firestarter/firestarter.hpp"

#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "arch/processor.hpp"
#include "cluster/coordinator.hpp"
#include "control/feedback_loop.hpp"
#include "control/setpoint.hpp"
#include "firestarter/agent.hpp"
#include "firestarter/backends.hpp"
#include "firestarter/phase_runner.hpp"
#include "firestarter/sim_fleet.hpp"
#include "firestarter/sim_phases.hpp"
#include "fuzz/fuzzer.hpp"
#include "gpu/dgemm_stress.hpp"
#include "jit/disassembler.hpp"
#include "kernel/selftest.hpp"
#include "metrics/coretemp.hpp"
#include "metrics/external.hpp"
#include "metrics/hw_events.hpp"
#include "metrics/measurement.hpp"
#include "metrics/rapl.hpp"
#include "payload/compiler.hpp"
#include "payload/mix.hpp"
#include "sched/campaign.hpp"
#include "sched/load_profile.hpp"
#include "sched/trace_recorder.hpp"
#include "sim/sim_system.hpp"
#include "telemetry/bus.hpp"
#include "telemetry/sinks.hpp"
#include "trace/flight_recorder.hpp"
#include "trace/registry.hpp"
#include "trace/trace_event.hpp"
#include "trace/tracer.hpp"
#include "tuning/nsga2.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace fs2::firestarter {

namespace {

constexpr const char* kVersion = "fs2 2.0.0 (FIRESTARTER 2 reproduction)";

/// Campaign keys a phase carries that something else overrides. Logged once
/// per phase by whoever reads the campaign file: the local runner, or the
/// coordinator for its whole fleet (agents stay quiet).
void warn_overridden_phase_keys(const sched::Campaign& campaign, bool budget_mode) {
  for (const sched::CampaignPhase& spec : campaign.phases()) {
    if (budget_mode && (spec.profile_explicit || spec.target_spec))
      log::warn() << "campaign phase '" << spec.name
                  << "': profile=/target= overridden by the cluster power budget";
    else if (!budget_mode && spec.target_spec && spec.profile_explicit)
      log::warn() << "campaign phase '" << spec.name
                  << "': profile= is ignored under target= (the controller owns "
                     "the duty cycle)";
  }
}

// ---- single runs ------------------------------------------------------------

/// A run without --campaign is a campaign of one unnamed phase (the CSV's
/// phase column stays empty): -t seconds (240 s simulated, unbounded on the
/// host when -t is 0) under --load-profile or the --load duty cycle, or
/// closed-loop under --target.
sched::Campaign single_run_campaign(const Config& cfg) {
  sched::CampaignPhase phase;
  phase.duration_s = cfg.timeout_s > 0                  ? cfg.timeout_s
                     : cfg.target != TargetSystem::kHost ? 240.0
                                                         : std::numeric_limits<double>::infinity();
  if (cfg.load_profile) phase.profile_spec = *cfg.load_profile;
  phase.target_spec = cfg.target_spec;
  return sched::Campaign({std::move(phase)});
}

/// Single-run header: target and payload on stdout for simulated targets
/// (logged on the host), then the closed-loop setpoint.
void print_single_run_header(std::ostream& out, PhaseResolver& phases) {
  const Target& target = phases.target();
  const ResolvedPhase& phase = phases.phases().front();
  if (!target.simulated) {
    log::info() << "host: " << target.cpu.describe();
    log::info() << "function: " << phase.fn->name << " M=" << phase.groups.to_string();
    if (phase.setpoint) log::info() << "control: " << phase.setpoint->describe();
    else if (!phase.profile->constant())
      log::info() << "load profile: " << phase.profile->describe();
    return;
  }
  const payload::PayloadStats& stats = phases.stats(phase);
  out << "target: " << target.sim_config.name << "\n"
      << "function: " << phase.fn->name << "  M=" << phase.groups.to_string()
      << "  u=" << stats.unroll << " (" << stats.loop_bytes << " B loop)\n";
  if (phase.setpoint) out << "control: " << phase.setpoint->describe() << "\n";
}

/// Simulated single-run footer: the closed-loop result, or the load profile
/// and the steady state.
void print_sim_footer(std::ostream& out, const ResolvedPhase& phase, const PhaseReport& report) {
  if (phase.setpoint) {
    out << strings::format("closed loop: %.1f %s achieved (setpoint %g), level %.0f %%, %s\n",
                           report.achieved, control::unit_of(phase.setpoint->variable),
                           phase.setpoint->value, report.level * 100.0,
                           report.converged ? "converged" : "NOT converged");
    return;
  }
  if (!phase.profile->constant()) out << "load profile: " << phase.profile->describe() << "\n";
  const sim::WorkloadPoint& point = report.point;
  out << strings::format(
      "steady state: %.1f W, %.2f IPC/core, %.0f MHz%s, %.1f GFLOP/s, fetch from %s\n",
      point.power_w, point.ipc_per_core, point.achieved_mhz,
      point.throttled ? " (throttled)" : "", point.gflops, sim::to_string(point.fetch_source));
}

// ---- tracing ----------------------------------------------------------------

/// Drain the process-wide tracer and registry into a single-node timeline
/// and write it as trace_event JSON — the --trace-out path for every
/// non-coordinator mode (coordinator runs export the merged fleet timeline
/// instead). Node "local" at offset 0: nothing to rebase in one process.
void export_local_trace(const std::string& path, std::ostream& out) {
  trace::TraceCollector collector;
  collector.add_node("local", 0.0);
  std::vector<trace::SpanEvent> events;
  trace::Tracer::drain(events);
  std::vector<trace::Span> spans;
  spans.reserve(events.size());
  for (const trace::SpanEvent& event : events)
    spans.push_back(trace::Span{event.name, event.begin_s, event.end_s});
  collector.add_spans("local", std::move(spans));
  collector.add_counters("local", trace::Registry::instance().snapshot());
  if (trace::Tracer::dropped() > 0)
    log::warn() << "trace ring overflowed: " << trace::Tracer::dropped()
                << " spans dropped (the timeline has gaps)";
  std::ofstream file = open_output_file(path, "--trace-out");
  collector.write_json(file);
  out << "trace written to " << path << " (" << collector.span_count()
      << " spans; load in Perfetto or chrome://tracing)\n";
}

/// The sink set every run mode wires onto its bus: summary aggregation
/// (--measurement / campaign CSV), achieved-load trace recording
/// (--record-trace), and the per-tick controller log (--control-log).
/// Construction opens the output files immediately — fail fast — and
/// attaches only the sinks the flags asked for; everything the sinks keep
/// is bounded, so this is what makes run length and telemetry memory
/// independent of each other.
struct RunSinks {
  telemetry::SummarySink summary;
  sched::TraceRecorder trace;
  std::ofstream trace_out;
  std::unique_ptr<sched::TraceSink> trace_sink;
  std::ofstream control_log;
  std::unique_ptr<control::ControlLogSink> log_sink;

  RunSinks(telemetry::TelemetryBus& bus, const Config& cfg, bool want_summary,
           bool has_target) {
    if (want_summary) bus.attach(&summary);
    if (cfg.record_trace) {
      trace_out = open_output_file(*cfg.record_trace, "--record-trace");
      sched::TraceRecorder::write_header(trace_out);
      trace_sink = std::make_unique<sched::TraceSink>(kLoadChannel, &trace, &trace_out);
      bus.attach(trace_sink.get());
    }
    // A campaign without a target= phase has no controller to log.
    if (cfg.control_log && !has_target) {
      log::warn() << "--control-log is ignored: no campaign phase has a target= setpoint";
    } else if (cfg.control_log) {
      control_log = open_output_file(*cfg.control_log, "--control-log");
      control_log << "time_s,setpoint,measurement,error,level,phase\n";
      log_sink = std::make_unique<control::ControlLogSink>(control_log);
      bus.attach(log_sink.get());
    }
  }

  /// Post-run notice for --record-trace (rows themselves stream as they
  /// happen so an interrupted run keeps its trace).
  void report_trace(const Config& cfg) {
    if (cfg.record_trace)
      log::info() << "achieved-load trace written to " << *cfg.record_trace;
  }
};

}  // namespace

Firestarter::Firestarter(Config config, std::ostream& out) : cfg_(std::move(config)), out_(out) {}

int Firestarter::run() {
  log::set_level(log::parse_level(cfg_.log_level));
  if (cfg_.show_help) {
    out_ << usage();
    return 0;
  }
  if (cfg_.show_version) {
    out_ << kVersion << "\n";
    return 0;
  }
  // Arm the crash flight recorder before anything can fail: from here on
  // SIGTERM/SIGINT (and any explicit dump) rewrite the black box to disk.
  // --help and --version run nothing, so they leave its file alone.
  if (cfg_.flight_out) trace::FlightRecorder::instance().configure(*cfg_.flight_out);
  const RunKind kind = run_mode(cfg_).kind;
  if (kind == RunKind::kAvail) return list_functions();
  if (kind == RunKind::kListMetrics) return list_metrics();
  if (kind == RunKind::kStatus) return run_status();
  // The coordinator exports the merged, clock-rebased fleet timeline
  // itself; every other mode gets the single-process --trace-out below.
  if (kind == RunKind::kCoordinator || kind == RunKind::kLoopback) return run_coordinator();
  if (cfg_.trace_out) trace::Tracer::set_enabled(true);
  const int rc = [&] {
    if (kind == RunKind::kFuzz || kind == RunKind::kFuzzLoopback) return run_fuzzer();
    if (kind == RunKind::kAgent) return run_agent();
    if (cfg_.target_spec &&
        control::Setpoint::parse(*cfg_.target_spec).variable ==
            control::ControlVariable::kClusterPower)
      throw ConfigError(
          "--target cluster-power only applies to --coordinator runs (single "
          "nodes hold power=/temp= setpoints)");
    if (kind == RunKind::kOptimize) return run_optimization();
    if (kind == RunKind::kDumpAsm) return run_dump_asm();
    if (kind == RunKind::kSelftest) return run_selftest_mode();
    return run_campaign();
  }();
  if (cfg_.trace_out) export_local_trace(*cfg_.trace_out, out_);
  return rc;
}

int Firestarter::list_functions() {
  Table table({"id", "name", "isa", "tuned for", "default instruction groups"});
  for (const payload::FunctionDef& fn : payload::available_functions()) {
    std::string tuned;
    for (arch::Microarch arch : fn.tuned_for) {
      if (!tuned.empty()) tuned += ", ";
      tuned += arch::to_string(arch);
    }
    table.add_row({std::to_string(fn.id), fn.name, payload::to_string(fn.mix.isa),
                   tuned.empty() ? "(generic)" : tuned, fn.default_groups});
  }
  table.print(out_);
  return 0;
}

int Firestarter::list_metrics() {
  Table table({"metric", "unit", "available", "notes"});
  metrics::RaplPowerMetric rapl;
  table.add_row({rapl.name(), rapl.unit(), rapl.available() ? "yes" : "no",
                 "Intel RAPL package counters via powercap sysfs"});
  metrics::PerfIpcMetric perf;
  table.add_row({perf.name(), perf.unit(), perf.available() ? "yes" : "no",
                 "perf_event_open hardware counters"});
  metrics::CoretempMetric coretemp;
  table.add_row({coretemp.name(), coretemp.unit(), coretemp.available() ? "yes" : "no",
                 "hottest coretemp/k10temp hwmon sensor (--target temp feedback)"});
  table.add_row({"ipc-estimate", "instructions/cycle", "yes",
                 "loop count x instructions/loop at assumed frequency"});
  if (cfg_.metric_path) {
    metrics::PluginMetric plugin(*cfg_.metric_path);
    table.add_row({plugin.name(), plugin.unit(), plugin.available() ? "yes" : "no",
                   "external plugin " + *cfg_.metric_path});
  }
  if (cfg_.metric_command) {
    metrics::CommandMetric command(*cfg_.metric_command, "external-command", "value");
    table.add_row({command.name(), command.unit(), command.available() ? "yes" : "no",
                   "external command " + *cfg_.metric_command});
  }
  table.add_row({"sim-wall-power", "W", "yes", "with --simulate targets"});
  table.add_row({"sim-perf-ipc", "instructions/cycle", "yes", "with --simulate targets"});
  table.print(out_);
  return 0;
}

int Firestarter::run_campaign() {
  // A single run keeps its own header and footer, and prints the summary
  // CSV only under --measurement.
  const bool single = !cfg_.campaign_file;
  PhaseResolver phases(cfg_, single ? single_run_campaign(cfg_)
                                    : sched::Campaign::load(*cfg_.campaign_file));
  const Target& target = phases.target();
  if (single) {
    print_single_run_header(out_, phases);
  } else {
    warn_overridden_phase_keys(phases.campaign(), /*budget_mode=*/false);
    out_ << "campaign: " << phases.phases().size() << " phases, "
         << strings::format("%.0f s total", phases.campaign().total_duration_s()) << " on "
         << (target.simulated ? target.sim_config.name : "host") << "\n";
    if (cfg_.require_convergence && !phases.any_target())
      log::warn() << "--require-convergence is ignored: no campaign phase has a "
                     "target= setpoint";
  }

  const bool summarize = !single || cfg_.measurement;
  telemetry::TelemetryBus bus;
  RunSinks sinks(bus, cfg_, summarize, phases.any_target());
  PhaseRunner::Options options;
  options.sample_metrics = summarize;
  PhaseRunner runner(cfg_, phases, bus, options);
  // A single run trims by the CLI deltas as given (footnote 12 trims 120 s
  // of a 240 s run); campaign phases take the phase_deltas() clamp.
  std::optional<TrimDeltas> deltas;
  if (single) deltas = TrimDeltas{cfg_.start_delta_s, cfg_.stop_delta_s};
  for (std::size_t i = 0; i < phases.phases().size(); ++i) {
    const ResolvedPhase& phase = phases.phases()[i];
    if (!single)
      out_ << strings::format("phase %zu '%s': %s for %.0f s (%s)\n", i + 1,
                              phase.spec->name.c_str(), phase.fn->name.c_str(),
                              phase.spec->duration_s,
                              phase.setpoint ? phase.setpoint->describe().c_str()
                                             : phase.profile->describe().c_str());
    const PhaseReport report = runner.run(i, deltas);
    if (!target.simulated)
      out_ << strings::format("executed %llu kernel loop iterations on %zu workers\n",
                              static_cast<unsigned long long>(report.iterations),
                              report.workers);
    else if (single)
      print_sim_footer(out_, phase, report);
  }

  if (gpu::DgemmStressor* gpu_stress = runner.gpu_stress()) {
    gpu_stress->stop();
    out_ << strings::format("gpu stand-in: %llu DGEMMs (%.1f GFLOP total)\n",
                            static_cast<unsigned long long>(gpu_stress->total_gemms()),
                            gpu_stress->total_flops() / 1e9);
  }
  bus.finish();
  sinks.report_trace(cfg_);
  if (cfg_.dump_registers && !target.simulated)
    log::info() << "register dump written to " << cfg_.dump_path;
  if (summarize) metrics::print_csv(out_, sinks.summary.rows());
  if (cfg_.require_convergence && !runner.all_converged()) {
    if (!single) log::error() << "campaign failed --require-convergence";
    return 1;
  }
  return 0;
}

int Firestarter::run_coordinator() {
  if (!cfg_.campaign_file)
    throw ConfigError(
        "--coordinator requires --campaign FILE (the campaign is distributed to "
        "every agent)");
  // Keep the raw text for distribution; parse a copy locally so a malformed
  // campaign fails here, before any agent is accepted.
  std::ifstream in(*cfg_.campaign_file);
  if (!in) throw ConfigError("campaign: cannot open '" + *cfg_.campaign_file + "'");
  std::ostringstream raw;
  raw << in.rdbuf();
  std::istringstream parse_stream(raw.str());
  const sched::Campaign campaign =
      sched::Campaign::parse(parse_stream, "'" + *cfg_.campaign_file + "'");

  std::optional<control::Setpoint> budget;
  if (cfg_.target_spec) {
    control::Setpoint sp = control::Setpoint::parse(*cfg_.target_spec);
    if (sp.variable != control::ControlVariable::kClusterPower)
      throw ConfigError(
          "--coordinator: --target must be cluster-power=WATTS (per-node power=/"
          "temp= setpoints belong in campaign phases)");
    budget = sp;
  }
  warn_overridden_phase_keys(campaign, budget.has_value());

  std::vector<LoopbackSpec> loopback;
  if (cfg_.loopback_nodes) loopback = parse_loopback_specs(*cfg_.loopback_nodes);
  const std::size_t nodes = !loopback.empty()
                                ? loopback.size()
                                : (cfg_.cluster_nodes ? static_cast<std::size_t>(
                                                            *cfg_.cluster_nodes)
                                                      : 0);
  if (nodes == 0) throw ConfigError("--coordinator requires --nodes N or --loopback SPECS");

  // The chaos plan parses before anything binds, and its canonical spec is
  // recorded in the flight dump — a failing chaos run replays bit-for-bit
  // from `--chaos "<recorded spec>"`.
  std::optional<cluster::FaultPlan> chaos;
  if (cfg_.chaos_spec) {
    chaos = cluster::FaultPlan::parse(*cfg_.chaos_spec);
    if (loopback.empty())
      log::warn() << "--chaos drives loopback agents; real remote agents only "
                     "see its effects indirectly (lost links, held barriers)";
    out_ << "chaos: " << chaos->describe() << "\n";
    trace::FlightRecorder::instance().note_event("chaos plan: " + chaos->describe());
  }

  cluster::Coordinator::Options options;
  // Loopback fleets default to an ephemeral port: the agents learn it
  // in-process, and CI runs cannot collide on a fixed one. An explicit
  // --listen overrides that so /metrics scrapers know where to look.
  options.port = loopback.empty() || cfg_.listen_port_explicit ? cfg_.listen_port : 0;
  options.loopback_only = !loopback.empty();
  options.nodes = nodes;
  options.campaign_text = raw.str();
  options.phase_count = campaign.size();
  options.budget = budget;
  options.start_delay_s = cfg_.cluster_start_delay_s;
  options.sync_tolerance_s = cfg_.sync_tolerance_s;
  options.seed = cfg_.seed;
  options.trace = cfg_.trace_out.has_value();
  options.metrics_interval_s = cfg_.metrics_interval_s;
  options.rejoin_grace_s = cfg_.rejoin_grace_s;
  if (budget) {
    // Fail before accepting anyone: every phase must fit the controller
    // tick and the budget cadence the agents will run.
    control::Setpoint probe = *budget;
    probe.interval_s = std::max(options.ctl_interval_s, budget->interval_s);
    for (const sched::CampaignPhase& phase : campaign.phases())
      probe.validate_duration(phase.duration_s, "campaign phase '" + phase.name + "'");
  }
  // Big fleets need an fd per agent on each side of every loopback socket;
  // raise the soft limit toward the hard cap before binding anything.
  if (!loopback.empty()) raise_fd_limit(4 * loopback.size() + 64);

  auto coordinator = std::make_unique<cluster::Coordinator>(options);

  out_ << "coordinator: port " << coordinator->port() << ", " << nodes << " nodes, "
       << campaign.size() << " phases";
  if (budget) out_ << ", " << budget->describe();
  out_ << "\n";

  // In-process loopback agents: one event-loop thread drives the whole
  // fleet of cooperative sim agents over real localhost TCP — the entire
  // protocol exercised inside one deterministic process, at fleet sizes a
  // thread per agent could never reach.
  std::unique_ptr<SimFleet> fleet;
  std::string fleet_error;
  std::thread fleet_thread;
  if (!loopback.empty()) {
    const std::uint16_t port = coordinator->port();
    fleet_thread = std::thread([&, port] {
      try {
        fleet = std::make_unique<SimFleet>(cfg_, loopback, port,
                                           chaos ? &*chaos : nullptr);
        fleet->run();
      } catch (const std::exception& e) {
        fleet_error = e.what();
      }
    });
  }

  cluster::Coordinator::Result result;
  std::string failure;
  try {
    result = coordinator->run(out_);
  } catch (const std::exception& e) {
    failure = e.what();
    // Destroying the coordinator closes every connection, which errors the
    // loopback agents out of their waits — join cannot hang.
    coordinator.reset();
  }
  if (fleet_thread.joinable()) fleet_thread.join();
  if (!fleet_error.empty())
    out_ << "loopback fleet failed to start: " << fleet_error << "\n";
  if (!failure.empty()) throw Error("cluster run failed: " + failure);

  cluster::ClusterBus::write_csv(out_, result.rows);
  if (cfg_.trace_out) {
    std::ofstream trace_file = open_output_file(*cfg_.trace_out, "--trace-out");
    result.trace.write_json(trace_file);
    out_ << "fleet trace written to " << *cfg_.trace_out << " ("
         << result.trace.span_count()
         << " spans, clock-rebased onto the coordinator; load in Perfetto or "
            "chrome://tracing)\n";
  }
  bool agents_ok = fleet_error.empty();
  if (fleet) {
    std::size_t reported = 0;
    for (const SimFleet::Outcome& outcome : fleet->outcomes())
      if (!outcome.ok) {
        agents_ok = false;
        // A fleet-wide failure is usually one cause repeated 512 times;
        // show the first few, count the rest.
        if (reported++ < 5)
          log::error() << "loopback agent " << outcome.name << ": " << outcome.error;
      }
    if (reported > 5)
      log::error() << "... and " << (reported - 5) << " more loopback agent failures";
  }
  if (!agents_ok) return 1;
  if (cfg_.require_convergence && !result.converged()) {
    log::error() << "cluster run failed --require-convergence ("
                 << (result.nodes_converged ? "" : "node setpoints; ")
                 << (result.budget_converged ? "" : "global budget; ")
                 << (result.sync_ok ? "" : "phase lockstep") << ")";
    return 1;
  }
  return 0;
}

int Firestarter::run_agent() {
  Config cfg = cfg_;
  if (!cfg.node_name)
    cfg.node_name =
        strings::format("%s-%d", agent_sku(cfg).c_str(), static_cast<int>(::getpid()));
  // The process's only agent: its metrics plane ships the global registry,
  // and a lost link is recovered by a rejoining replacement incarnation.
  AgentFleet agent(*cfg_.agent_endpoint);
  agent.add(cfg, &trace::Registry::instance());
  trace::FlightRecorder::instance().note_event("agent " + *cfg.node_name + " joined " +
                                               *cfg_.agent_endpoint);
  agent.run();
  const AgentFleet::Outcome& outcome = agent.outcomes().front();
  if (outcome.ok) return 0;
  // The agent already shipped its black box to the coordinator (best
  // effort); keep the local dump too.
  trace::FlightRecorder::instance().dump("agent failed: " + outcome.error);
  throw Error("agent " + outcome.name + ": " + outcome.error);
}

int Firestarter::run_status() {
  cluster::Connection conn = cluster::Connection::connect(*cfg_.status_endpoint,
                                                          /*retry_for_s=*/5.0);
  conn.send(cluster::StatusRequestMsg{}.encode());
  const std::optional<cluster::Frame> frame = conn.recv(/*timeout_s=*/5.0);
  if (!frame)
    throw Error("--status: no reply from " + *cfg_.status_endpoint +
                " within 5 s (is a coordinator listening there?)");
  if (frame->type != cluster::MessageType::kStatusReply)
    throw Error(std::string("--status: unexpected reply frame '") +
                cluster::to_string(frame->type) + "'");
  cluster::WireReader reader(frame->payload);
  const cluster::StatusReplyMsg status = cluster::StatusReplyMsg::decode(reader);

  out_ << "coordinator " << *cfg_.status_endpoint << ": "
       << (status.accepting ? "accepting agents" : "campaign running") << ", "
       << status.nodes.size() << "/" << status.nodes_expected << " nodes, "
       << status.phase_count << " phases, " << status.queued_samples
       << " samples queued";
  if (status.budget_w > 0.0) out_ << strings::format(", budget %.0f W", status.budget_w);
  out_ << "\n";

  if (!status.nodes.empty()) {
    double total_achieved = 0.0, total_setpoint = 0.0;
    Table table({"node", "sku", "state", "phase", "rejoins", "offset ms", "rtt ms",
                 "setpoint W", "achieved W", "level %", "metrics age"});
    for (const cluster::StatusNodeRec& node : status.nodes) {
      total_achieved += node.achieved_w;
      total_setpoint += node.setpoint_w;
      table.add_row(
          {node.name, node.sku,
           node.lost != 0 ? "lost" : (node.connected ? "connected" : "gone"),
           strings::format("%u/%u", node.phases_ended, status.phase_count),
           node.rejoins > 0 ? std::to_string(node.rejoins) : "-",
           strings::format("%+.2f", node.clock_offset_s * 1e3),
           strings::format("%.2f", node.clock_rtt_s * 1e3),
           node.setpoint_w > 0.0 ? strings::format("%.1f", node.setpoint_w) : "-",
           node.achieved_w > 0.0 ? strings::format("%.1f", node.achieved_w) : "-",
           node.level > 0.0 ? strings::format("%.0f", node.level * 100.0) : "-",
           node.last_metrics_age_s >= 0.0
               ? strings::format("%.1f s", node.last_metrics_age_s)
               : "-"});
    }
    table.print(out_);
    if (status.budget_w > 0.0 && total_setpoint > 0.0)
      out_ << strings::format("budget: %.1f W allocated, %.1f W achieved (target %.0f W)\n",
                              total_setpoint, total_achieved, status.budget_w);
  }

  if (!status.spreads.empty()) {
    Table table({"phase", "begin spread ms", "first node", "last node", "nodes"});
    for (const cluster::StatusSpreadRec& spread : status.spreads)
      table.add_row({spread.phase,
                     strings::format("%.2f", (spread.max_begin_s - spread.min_begin_s) * 1e3),
                     spread.min_node, spread.max_node, std::to_string(spread.nodes)});
    table.print(out_);
  }

  if (!status.counters.empty()) {
    Table table({"metric", "value", "kind"});
    for (const trace::MetricSnapshot& metric : status.counters)
      table.add_row({metric.name,
                     metric.is_counter
                         ? std::to_string(static_cast<unsigned long long>(metric.value))
                         : strings::format("%g", metric.value),
                     metric.is_counter ? "counter" : "gauge"});
    table.print(out_);
  }

  if (!status.alerts.empty()) {
    Table table({"alert", "node", "t", "detail"});
    for (const cluster::StatusAlertRec& alert : status.alerts)
      table.add_row({alert.kind, alert.node, strings::format("%.1f s", alert.t_s),
                     alert.detail});
    table.print(out_);
  }

  // The probe's exit code IS the health check: scripts gate on it without
  // parsing the tables.
  if (status.fleet_healthy == 0) {
    out_ << "fleet UNHEALTHY (" << status.alerts.size() << " alerts)\n";
    return 1;
  }
  out_ << "fleet healthy\n";
  return 0;
}

int Firestarter::run_dump_asm() {
  const Target target = resolve_target(cfg_);
  const payload::FunctionDef& fn = resolve_function(cfg_, target);
  const auto groups = resolve_groups(cfg_, fn);
  // Regenerate the raw bytes outside executable memory for listing: the
  // compiler is deterministic, so this is exactly what a run would map.
  payload::CompileOptions options = compile_options(cfg_);
  if (options.unroll == 0) options.unroll = 16;  // keep listings readable by default
  auto payload = payload::compile_payload(fn.mix, groups, target.caches, options);
  out_ << "kernel for " << fn.name << "  M=" << groups.to_string() << "  u="
       << payload.stats().unroll << "  (" << payload.stats().loop_bytes << " B loop, "
       << payload.stats().instructions_per_iteration << " instructions/iteration)\n";
  // Disassemble straight from the mapped buffer (read access is allowed).
  out_ << jit::format_listing(payload.code_bytes());
  return 0;
}

int Firestarter::run_selftest_mode() {
  const Target target = resolve_target(cfg_);
  const payload::FunctionDef& fn = resolve_function(cfg_, target);
  if (!target.cpu.features.covers(fn.mix.required))
    throw UnsupportedError("host CPU lacks features for " + fn.name);
  payload::CompileOptions options = compile_options(cfg_);
  options.dump_registers = true;
  auto payload = payload::compile_payload(fn.mix, resolve_groups(cfg_, fn), target.caches,
                                          options);
  const std::vector<int> cpus = resolve_worker_cpus(cfg_);
  out_ << "SIMD self-test: " << fn.name << " on " << cpus.size() << " workers, "
       << cfg_.selftest_iterations << " iterations each\n";
  const kernel::SelftestResult result =
      kernel::run_selftest(payload, cpus, cfg_.selftest_iterations, cfg_.seed);
  out_ << result.describe() << "\n";
  return result.passed ? 0 : 1;
}

int Firestarter::run_fuzzer() {
  // One seed drives everything random: candidate generation in the fuzzer,
  // meter noise through the evaluator's Config — so the same seed and the
  // same target spec reproduce the identical corpus.
  Config cfg = cfg_;
  cfg.seed = cfg_.fuzz_seed;
  const std::unique_ptr<fuzz::Evaluator> evaluator =
      cfg.loopback_nodes ? fuzz::make_fleet_evaluator(cfg, cfg.fuzz_duration_s, out_)
                         : fuzz::make_local_evaluator(cfg, cfg.fuzz_duration_s);

  fuzz::FuzzOptions options;
  options.seed = cfg_.fuzz_seed;
  options.population = cfg_.fuzz_population;
  options.generations = cfg_.fuzz_generations;
  options.corpus_cap = cfg_.fuzz_corpus;
  if (cfg_.fuzz_objective != "all")
    options.objectives = {fuzz::parse_objective(cfg_.fuzz_objective)};

  out_ << strings::format(
      "fuzz: %zu generation%s x %zu candidates, %g s phases, objective %s, seed %llu\n",
      cfg_.fuzz_generations, cfg_.fuzz_generations == 1 ? "" : "s",
      cfg_.fuzz_population, cfg_.fuzz_duration_s, cfg_.fuzz_objective.c_str(),
      static_cast<unsigned long long>(cfg_.fuzz_seed));

  const fuzz::FuzzResult result = fuzz::run_fuzz(*evaluator, options, out_);

  // The discovery verdict: for each retained objective, the top pattern
  // against the best default-payload baseline on the same axis.
  Table table({"objective", "rank", "pattern", "score", "node", "vs default"});
  for (fuzz::Objective objective : result.corpus.objectives()) {
    double reference = 0.0;
    for (const fuzz::Evaluation& base : result.baseline)
      reference = std::max(reference, fuzz::objective_score(base.signature, objective));
    const char* unit = objective == fuzz::Objective::kThermal ? "degC/s" : "W";
    for (const fuzz::CorpusEntry* entry : result.corpus.ranked(objective)) {
      const double score = fuzz::objective_score(entry->signature, objective);
      const std::string delta =
          reference > 0.0 ? strings::format("%+.1f%%", (score / reference - 1.0) * 100.0)
                          : "n/a";
      table.add_row({fuzz::to_string(objective),
                     std::to_string(result.corpus.rank_of(entry->spec, objective)),
                     entry->spec.to_string(), strings::format("%.2f %s", score, unit),
                     entry->node, delta});
    }
  }
  out_ << "ranked corpus (" << result.corpus.entries().size() << " patterns, cap "
       << result.corpus.cap() << " per objective):\n";
  table.print(out_);

  if (cfg_.fuzz_report) {
    fuzz::FuzzReport::write_file(*cfg_.fuzz_report, cfg_.fuzz_seed, result.records,
                                 result.corpus);
    out_ << "fuzz report written to " << *cfg_.fuzz_report << " (seed "
         << cfg_.fuzz_seed << " reproduces it)\n";
  }
  if (result.corpus.empty()) {
    log::error() << "fuzz run retained no patterns (every candidate failed to measure)";
    return 1;
  }
  return 0;
}

int Firestarter::run_optimization() {
  const Target target = resolve_target(cfg_);
  const payload::FunctionDef& fn = resolve_function(cfg_, target);

  std::unique_ptr<tuning::EvaluationBackend> backend;
  std::unique_ptr<sim::SimulatedSystem> system;
  if (target.simulated) {
    system = std::make_unique<sim::SimulatedSystem>(target.sim_config);
    sim::RunConditions cond;
    cond.freq_mhz = cfg_.sim_freq_mhz;
    cond.policy = policy_of(cfg_);
    cond.gpu_stress = target.gpu_stress;
    if (cfg_.threads) cond.threads = *cfg_.threads;
    auto sim_backend =
        std::make_unique<SimBackend>(*system, fn.mix, target.caches, cond,
                                     cfg_.candidate_duration_s, cfg_.seed);
    out_ << "preheat: analytic operating point of " << SimBackend::kPreheatGroups
         << " (no virtual time)\n";
    sim_backend->preheat();
    backend = std::move(sim_backend);
  } else {
    backend = std::make_unique<HostBackend>(cfg_);
    out_ << "preheat (" << cfg_.preheat_s << " s) ...\n";
    // Real preheat: the default payload for --preheat SEC warms the package.
    sched::CampaignPhase preheat;
    preheat.duration_s = cfg_.preheat_s;
    if (cfg_.preheat_s > 0) run_one_phase(cfg_, preheat);
  }

  tuning::GroupsProblem problem(*backend);
  tuning::Nsga2Config nsga2_config;
  nsga2_config.individuals = cfg_.individuals;
  nsga2_config.generations = cfg_.generations;
  nsga2_config.mutation_probability = cfg_.nsga2_m;
  nsga2_config.seed = cfg_.seed;
  tuning::History history;
  tuning::Nsga2 optimizer(nsga2_config);

  out_ << "optimizing " << fn.name << " on " << (target.simulated ? target.sim_config.name : "host")
       << ": " << cfg_.individuals << " individuals x " << cfg_.generations
       << " generations, m=" << cfg_.nsga2_m << "\n";
  const auto population = optimizer.run(problem, &history);

  std::ofstream log_file(cfg_.optimization_log);
  history.write_csv(log_file, backend->objective_names());
  out_ << history.size() << " candidate evaluations logged to " << cfg_.optimization_log << "\n";

  // Print the first front, best power first (the paper prints "the best
  // individuals" after the last generation).
  Table table({"rank", backend->objective_names()[0],
               backend->objective_names().size() > 1 ? backend->objective_names()[1] : "-",
               "instruction groups"});
  int printed = 0;
  for (const auto& ind : population) {
    if (ind.rank != 0 || printed >= 10) continue;
    table.add_row({std::to_string(ind.rank), strings::format("%.2f", ind.objectives[0]),
                   ind.objectives.size() > 1 ? strings::format("%.3f", ind.objectives[1]) : "-",
                   tuning::GroupsProblem::to_groups(ind.genome).to_string()});
    ++printed;
  }
  table.print(out_);

  const auto& best = tuning::Nsga2::best_by_objective(population, 0);
  out_ << "selected optimum: " << tuning::GroupsProblem::to_groups(best.genome).to_string()
       << strings::format("  (%.2f %s)\n", best.objectives[0],
                          backend->objective_names()[0].c_str());
  return 0;
}

}  // namespace fs2::firestarter
