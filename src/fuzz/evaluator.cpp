#include "fuzz/evaluator.hpp"

#include <algorithm>
#include <sstream>
#include <thread>

#include "cluster/coordinator.hpp"
#include "firestarter/phase_runner.hpp"
#include "firestarter/sim_fleet.hpp"
#include "firestarter/sim_phases.hpp"
#include "payload/mix.hpp"
#include "sched/campaign.hpp"
#include "trace/registry.hpp"
#include "trace/tracer.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace fs2::fuzz {

namespace {

/// Candidate phases all run the same square excursion profile — full idle
/// to full load — so the swing objective sees the pattern's entire dynamic
/// range and the peak objective its sustained draw, in one measurement.
std::string eval_profile_spec(double duration_s) {
  // A few full cycles per phase: enough low/high dwell for the trimmed
  // window to capture both extremes at the default 20 Sa/s meter.
  const double period_s = std::max(0.5, duration_s / 3.0);
  return strings::format("square:low=0,high=100,period=%g", period_s);
}

/// What a node runs when the phase carries no groups=/unroll= keys: the
/// CLI-level overrides when set, else the function's hand-tuned defaults.
PatternSpec default_spec(const firestarter::Config& cfg, const payload::FunctionDef& fn) {
  PatternSpec spec;
  spec.groups = payload::InstructionGroups::parse(
      cfg.instruction_groups ? *cfg.instruction_groups : fn.default_groups);
  spec.unroll = cfg.line_count ? *cfg.line_count : 0;
  return spec;
}

// ---- single-simulator evaluation --------------------------------------------

class LocalEvaluator final : public Evaluator {
 public:
  LocalEvaluator(firestarter::Config cfg, double duration_s)
      : cfg_(std::move(cfg)), duration_s_(duration_s) {
    if (cfg_.target == firestarter::TargetSystem::kHost)
      throw ConfigError(
          "--fuzz needs --simulate or --loopback: a sweep is hundreds of "
          "stress phases, which only makes sense in virtual time");
  }

  std::size_t batch_multiple() const override { return 1; }

  std::vector<Evaluation> evaluate(const std::vector<PatternSpec>& batch) override {
    std::vector<Evaluation> out;
    out.reserve(batch.size());
    for (const PatternSpec& spec : batch) out.push_back(evaluate_one(spec));
    return out;
  }

  std::vector<Evaluation> baseline() override {
    const firestarter::Target target = firestarter::resolve_target(cfg_);
    return {evaluate_one(default_spec(cfg_, firestarter::resolve_function(cfg_, target)))};
  }

 private:
  /// The phase a fleet node runs for this candidate, run as a campaign of
  /// its own: a fresh system and bus per candidate, so no thermal or
  /// telemetry state leaks between evaluations, and the evaluation ordinal
  /// seeds the meter noise — a signature depends only on the pattern and
  /// its ordinal.
  Evaluation evaluate_one(const PatternSpec& spec) {
    sched::CampaignPhase phase;
    phase.name = kPhase;
    phase.duration_s = duration_s_;
    phase.profile_spec = eval_profile_spec(duration_s_);
    phase.groups = spec.groups.to_string();
    if (spec.unroll) phase.unroll = spec.unroll;
    phase.measure_temp = true;
    firestarter::Config cfg = cfg_;
    cfg.seed = cfg_.seed + evaluated_++;

    Evaluation evaluation;
    evaluation.spec = spec;
    evaluation.signature = signature_from_rows(
        firestarter::run_one_phase(cfg, std::move(phase)), kPhase, duration_s_);
    evaluation.node = "local";
    evaluation.sku = firestarter::to_string(cfg_.target);
    return evaluation;
  }

  static constexpr const char* kPhase = "fuzz";

  firestarter::Config cfg_;
  double duration_s_;
  std::uint64_t evaluated_ = 0;
};

// ---- loopback-fleet evaluation ----------------------------------------------

class FleetEvaluator final : public Evaluator {
 public:
  FleetEvaluator(firestarter::Config cfg, double duration_s, std::ostream& log)
      : cfg_(std::move(cfg)),
        duration_s_(duration_s),
        log_(log),
        specs_(firestarter::parse_loopback_specs(*cfg_.loopback_nodes)) {}

  std::size_t batch_multiple() const override { return specs_.size(); }

  std::vector<Evaluation> evaluate(const std::vector<PatternSpec>& batch) override {
    TRACE_SPAN("fuzz.fleet_evaluate");
    if (batch.empty()) return {};
    const std::size_t nodes = specs_.size();
    const std::size_t rounds = (batch.size() + nodes - 1) / nodes;

    // Pad a partial last round by cycling the batch: node j's phase k runs
    // candidate k*N+j, names and durations identical across nodes so the
    // coordinator's barriers and sync verdicts work unchanged.
    auto padded = [&](std::size_t index) -> const PatternSpec& {
      return batch[index % batch.size()];
    };
    std::vector<std::string> texts(nodes);
    for (std::size_t j = 0; j < nodes; ++j) {
      std::ostringstream text;
      for (std::size_t k = 0; k < rounds; ++k) {
        const PatternSpec& spec = padded(k * nodes + j);
        text << strings::format("phase name=r%zu duration=%g profile=%s groups=%s",
                                k, duration_s_, eval_profile_spec(duration_s_).c_str(),
                                spec.groups.to_string().c_str());
        if (spec.unroll) text << strings::format(" unroll=%u", spec.unroll);
        text << " measure=temp\n";
      }
      texts[j] = text.str();
    }

    const cluster::Coordinator::Result result = run_cluster(texts, rounds);
    std::vector<Evaluation> out;
    out.reserve(batch.size());
    for (std::size_t index = 0; index < batch.size(); ++index) {
      const std::size_t j = index % nodes;
      const std::size_t k = index / nodes;
      Evaluation evaluation;
      evaluation.spec = batch[index];
      evaluation.node = result.nodes[j].name;
      evaluation.sku = result.nodes[j].sku;
      evaluation.signature = signature_from_rows(
          node_rows(result, result.nodes[j].name), strings::format("r%zu", k),
          duration_s_);
      out.push_back(std::move(evaluation));
    }
    return out;
  }

  std::vector<Evaluation> baseline() override {
    const std::string text =
        strings::format("phase name=base duration=%g profile=%s measure=temp\n",
                        duration_s_, eval_profile_spec(duration_s_).c_str());
    const cluster::Coordinator::Result result =
        run_cluster(std::vector<std::string>(specs_.size(), text), 1);

    std::vector<Evaluation> out;
    out.reserve(specs_.size());
    for (std::size_t j = 0; j < specs_.size(); ++j) {
      firestarter::Config node_cfg = cfg_;
      node_cfg.target = specs_[j].target;
      node_cfg.sim_freq_mhz = specs_[j].freq_mhz;
      const firestarter::Target target = firestarter::resolve_target(node_cfg);
      Evaluation evaluation;
      evaluation.spec = default_spec(node_cfg, firestarter::resolve_function(node_cfg, target));
      evaluation.node = result.nodes[j].name;
      evaluation.sku = result.nodes[j].sku;
      evaluation.signature =
          signature_from_rows(node_rows(result, result.nodes[j].name), "base",
                              duration_s_);
      out.push_back(std::move(evaluation));
    }
    return out;
  }

 private:
  static std::vector<metrics::Summary> node_rows(
      const cluster::Coordinator::Result& result, const std::string& node) {
    std::vector<metrics::Summary> rows;
    for (const cluster::ClusterBus::Row& row : result.rows)
      if (row.node == node) rows.push_back(row.summary);
    return rows;
  }

  /// One coordinator/agent round trip, mirroring the --coordinator wiring:
  /// ephemeral loopback port, the SimFleet on its own thread, the
  /// coordinator torn down on failure so agents error out of their waits.
  cluster::Coordinator::Result run_cluster(const std::vector<std::string>& texts,
                                           std::size_t phase_count) {
    TRACE_SPAN("fuzz.cluster_round");
    static trace::Counter& rounds =
        trace::Registry::instance().counter("fuzz.cluster_rounds");
    rounds.add();
    // Generated campaigns should always parse; catching authoring bugs here
    // beats decoding an agent-side protocol failure.
    std::istringstream probe(texts.front());
    sched::Campaign::parse(probe, "fuzz campaign");

    cluster::Coordinator::Options options;
    options.port = 0;
    options.loopback_only = true;
    options.nodes = specs_.size();
    options.campaign_text = texts.front();
    options.per_node_campaigns = texts;
    options.phase_count = phase_count;
    options.start_delay_s = cfg_.cluster_start_delay_s;
    options.sync_tolerance_s = cfg_.sync_tolerance_s;
    options.seed = cfg_.seed;
    firestarter::raise_fd_limit(4 * specs_.size() + 64);

    auto coordinator = std::make_unique<cluster::Coordinator>(options);
    const std::uint16_t port = coordinator->port();
    std::unique_ptr<firestarter::SimFleet> fleet;
    std::string fleet_error;
    std::thread fleet_thread([&, port] {
      try {
        fleet = std::make_unique<firestarter::SimFleet>(cfg_, specs_, port);
        fleet->run();
      } catch (const std::exception& e) {
        fleet_error = e.what();
      }
    });

    // Per-node clock-sync chatter is noise at fuzz scale (a line per node
    // per cluster run); buffer it and surface it only when the run fails.
    std::ostringstream chatter;
    cluster::Coordinator::Result result;
    std::string failure;
    try {
      result = coordinator->run(chatter);
    } catch (const std::exception& e) {
      failure = e.what();
      coordinator.reset();
    }
    if (fleet_thread.joinable()) fleet_thread.join();
    if (!fleet_error.empty()) failure = "loopback fleet failed: " + fleet_error;
    if (failure.empty() && fleet)
      for (const firestarter::SimFleet::Outcome& outcome : fleet->outcomes())
        if (!outcome.ok) {
          failure = "loopback agent " + outcome.name + ": " + outcome.error;
          break;
        }
    if (!failure.empty()) {
      log_ << chatter.str();
      throw Error("fuzz cluster round failed: " + failure);
    }
    return result;
  }

  firestarter::Config cfg_;
  double duration_s_;
  std::ostream& log_;
  std::vector<firestarter::LoopbackSpec> specs_;
};

}  // namespace

std::unique_ptr<Evaluator> make_local_evaluator(const firestarter::Config& cfg,
                                                double duration_s) {
  return std::make_unique<LocalEvaluator>(cfg, duration_s);
}

std::unique_ptr<Evaluator> make_fleet_evaluator(const firestarter::Config& cfg,
                                                double duration_s, std::ostream& log) {
  return std::make_unique<FleetEvaluator>(cfg, duration_s, log);
}

}  // namespace fs2::fuzz
