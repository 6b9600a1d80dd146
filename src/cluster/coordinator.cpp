#include "cluster/coordinator.hpp"

#include <poll.h>

#include <algorithm>
#include <cerrno>

#include "cluster/clock_sync.hpp"
#include "cluster/exposition.hpp"
#include "trace/flight_recorder.hpp"
#include "trace/registry.hpp"
#include "trace/tracer.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace fs2::cluster {

namespace {

/// How long a fresh connection may take to send its whole first message.
constexpr double kHelloWindowS = 10.0;
/// How long a joiner in clock sync may take to answer each probe.
constexpr double kSyncReplyS = 5.0;

}  // namespace

Coordinator::Coordinator(Options options)
    : options_(std::move(options)),
      listener_(options_.port, options_.loopback_only),
      phase_end_counts_(options_.phase_count, 0),
      phase_released_(options_.phase_count, 0),
      phase_barrier_open_s_(options_.phase_count, 0.0) {
  if (options_.nodes == 0) throw ConfigError("--coordinator: --nodes must be >= 1");
  if (options_.phase_count == 0)
    throw ConfigError("--coordinator: the campaign has no phases");
  if (!options_.per_node_campaigns.empty() &&
      options_.per_node_campaigns.size() != options_.nodes)
    throw ConfigError(
        strings::format("coordinator: %zu per-node campaigns for %zu nodes",
                        options_.per_node_campaigns.size(), options_.nodes));
  if (options_.budget) {
    if (options_.budget->variable != control::ControlVariable::kClusterPower)
      throw ConfigError("--coordinator: --target must be cluster-power=WATTS");
    apportioner_ = std::make_unique<control::BudgetApportioner>(options_.budget->value,
                                                                options_.nodes);
  }
  // Run-unique campaign id: the seed alone would collide across repeated
  // runs of the same spec, which is exactly when a zombie agent from the
  // previous run might still be retrying its rejoin.
  std::uint64_t id_state =
      options_.seed ^ static_cast<std::uint64_t>(local_clock_s() * 1e6);
  campaign_id_ = splitmix64(id_state);
}

void Coordinator::start_campaign(std::ostream& log) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    NodeInfo& info = nodes_[i].info;
    if (info.name.empty()) info.name = strings::format("node-%zu", i);
    // Names key the merged CSV's node column; make collisions unambiguous.
    for (std::size_t j = 0; j < i; ++j)
      if (nodes_[j].info.name == info.name) info.name += strings::format("#%zu", i);
    names.push_back(info.name);
    log << strings::format("node %s (%s): clock offset %+.1f us, rtt %.1f us\n",
                           info.name.c_str(), info.sku.c_str(), info.clock_offset_s * 1e6,
                           info.rtt_s * 1e6);
    log::debug() << "cluster: handshake " << log::kv("node", info.name) << ' '
                 << log::kv("sku", info.sku) << ' '
                 << log::kv("offset_us", info.clock_offset_s * 1e6) << ' '
                 << log::kv("rtt_us", info.rtt_s * 1e6);
  }
  bus_ = std::make_unique<ClusterBus>(std::move(names));

  AnomalyDetector::Options detect;
  detect.metrics_interval_s = options_.metrics_interval_s;
  detect.sync_tolerance_s = options_.sync_tolerance_s;
  if (options_.budget)
    detect.divergence_band = std::max(0.05, 2.0 * options_.budget->band);
  detector_ = AnomalyDetector(detect, nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    detector_.set_node_name(i, nodes_[i].info.name);
  metrics_.resize(nodes_.size());
  // Register the fleet up front so Perfetto pids follow node (hello) order,
  // with the coordinator first — independent of which node ships spans first.
  if (options_.trace) {
    trace_.add_node("coordinator", 0.0);
    for (const Node& node : nodes_) trace_.add_node(node.info.name, node.info.clock_offset_s);
  }

  epoch_local_s_ = local_clock_s() + options_.start_delay_s;
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    send_campaign(nodes_[i].conn, i, nodes_[i].info.clock_offset_s, nodes_[i].info.rtt_s);
  log << strings::format("epoch: T0 in %.2f s, %zu nodes in lockstep\n",
                         options_.start_delay_s, nodes_.size());
  log::info() << "cluster: epoch announced " << log::kv("nodes", nodes_.size()) << ' '
              << log::kv("start_delay_s", options_.start_delay_s);
  trace::FlightRecorder::instance().note_event(
      strings::format("epoch announced: %zu nodes, start delay %.2fs", nodes_.size(),
                      options_.start_delay_s));
  if (apportioner_) apportioner_->begin_window();
}

void Coordinator::send_campaign(Connection& conn, std::size_t index, double offset_s,
                                double rtt_s) {
  CampaignMsg campaign;
  campaign.campaign_id = campaign_id_;
  campaign.has_budget = apportioner_ ? 1 : 0;
  // A rejoiner is still marked lost here and holds no share; re-admission
  // re-seeds the whole live set equal, so the equal share is its setpoint,
  // as it is a first joiner's.
  campaign.initial_setpoint_w = apportioner_ ? apportioner_->initial_share_w() : 0.0;
  campaign.ctl_interval_s = options_.ctl_interval_s;
  campaign.budget_interval_s = options_.budget ? options_.budget->interval_s : 0.5;
  campaign.budget_band = options_.budget ? options_.budget->band : 0.02;
  campaign.trace_enabled = options_.trace ? 1 : 0;
  campaign.metrics_interval_s = options_.metrics_interval_s;
  campaign.campaign_text = options_.per_node_campaigns.empty()
                               ? options_.campaign_text
                               : options_.per_node_campaigns[index];
  conn.send(campaign.encode());
  // The shared epoch in the agent's own clock. A rejoiner gets the ORIGINAL
  // epoch through its fresh sync, so it lands on the fleet's timeline.
  EpochMsg epoch;
  epoch.t0_agent_s = epoch_local_s_ + offset_s;
  epoch.offset_s = offset_s;
  epoch.rtt_s = rtt_s;
  conn.send(epoch.encode());
}

std::size_t Coordinator::alive_nodes() const {
  std::size_t alive = 0;
  for (const Node& node : nodes_)
    if (!node.lost) ++alive;
  return alive;
}

std::size_t Coordinator::voting_nodes() const {
  std::size_t voting = 0;
  for (const Node& node : nodes_)
    if (!node.given_up) ++voting;
  return voting;
}

double Coordinator::epoch_elapsed_s() const {
  return epoch_local_s_ > 0.0 ? local_clock_s() - epoch_local_s_ : 0.0;
}

void Coordinator::record_budget_phase(std::uint32_t phase_index) {
  if (!apportioner_) return;
  PhaseBudgetVerdict verdict;
  verdict.phase = phase_index < bus_->phase_sync().size()
                      ? bus_->phase_sync()[phase_index].name
                      : strings::format("phase%u", phase_index + 1);
  verdict.trailing_total_w = apportioner_->trailing_total_w();
  verdict.converged = apportioner_->converged(options_.budget->band);
  result_.budget_converged &= verdict.converged;
  result_.budget_phases.push_back(std::move(verdict));
  apportioner_->begin_window();
}

void Coordinator::handle_frame(std::size_t index, const Frame& frame, std::ostream& log) {
  Node& node = nodes_[index];
  WireReader reader(frame.payload);
  switch (frame.type) {
    case MessageType::kChannel:
      bus_->on_channel(index, ChannelMsg::decode(reader));
      break;
    case MessageType::kSampleBatch:
      // Scratch message: the sample vector's capacity survives across
      // batches, so steady-state decode is a bounds check plus one memcpy.
      SampleBatchMsg::decode_into(reader, batch_scratch_);
      bus_->on_samples(index, batch_scratch_);
      break;
    case MessageType::kNodeSummary:
      bus_->on_summary(index, NodeSummaryMsg::decode(reader));
      break;
    case MessageType::kPhaseBracket: {
      const PhaseBracketMsg bracket = PhaseBracketMsg::decode(reader);
      bus_->on_bracket(index, bracket);
      if (bracket.is_begin) {
        ++node.phases_begun;
      } else {
        ++node.phases_ended;
        if (bracket.phase_index >= phase_end_counts_.size())
          throw WireError(strings::format("node %s ended unknown phase %u",
                                          node.info.name.c_str(), bracket.phase_index));
        // The barrier span opens when the first node finishes the phase and
        // closes when the straggler arrives and the fleet is released — its
        // width IS the coordinator-side wait.
        if (phase_end_counts_[bracket.phase_index] == 0)
          phase_barrier_open_s_[bracket.phase_index] = local_clock_s();
        ++phase_end_counts_[bracket.phase_index];
        maybe_release_phase(bracket.phase_index, log);
      }
      break;
    }
    case MessageType::kBudgetReport: {
      TRACE_SPAN("cluster.budget_exchange");
      const BudgetReportMsg report = BudgetReportMsg::decode(reader);
      if (!apportioner_)
        throw WireError("cluster: budget report without a cluster-power target");
      BudgetAssignMsg assign;
      assign.seq = report.seq;
      assign.setpoint_w = apportioner_->on_report(index, report.achieved_w);
      node.conn.send(assign.encode());
      node.achieved_w = report.achieved_w;
      node.setpoint_w = assign.setpoint_w;
      node.level = report.level;
      detector_.on_budget_report(index, report.achieved_w, report.setpoint_w,
                                 epoch_elapsed_s());
      break;
    }
    case MessageType::kMetricUpdate: {
      const MetricUpdateMsg msg = MetricUpdateMsg::decode(reader);
      const double now = epoch_elapsed_s();
      metrics_.fold(index, msg, now);
      detector_.on_metric_update(index, now);
      break;
    }
    case MessageType::kFlightRecord: {
      const FlightRecordMsg msg = FlightRecordMsg::decode(reader);
      log::warn() << "cluster: flight record received "
                  << log::kv("node", node.info.name) << ' '
                  << log::kv("reason", msg.reason);
      log << strings::format("node %s shipped a flight record (%s)\n",
                             node.info.name.c_str(), msg.reason.c_str());
      trace::FlightRecorder::instance().note_event(
          "flight record from node " + node.info.name + " (" + msg.reason + "):\n" +
          msg.dump);
      trace::FlightRecorder::instance().dump("node " + node.info.name +
                                             " abnormal exit: " + msg.reason);
      break;
    }
    case MessageType::kTraceSpans: {
      TraceSpansMsg msg = TraceSpansMsg::decode(reader);
      if (msg.dropped > 0)
        log::warn() << "trace: node " << node.info.name << " dropped " << msg.dropped
                    << " spans on a full ring";
      trace_.add_node(node.info.name, node.info.clock_offset_s);
      trace_.add_spans(node.info.name, std::move(msg.spans));
      break;
    }
    case MessageType::kCounterSnapshot: {
      CounterSnapshotMsg msg = CounterSnapshotMsg::decode(reader);
      trace_.add_node(node.info.name, node.info.clock_offset_s);
      trace_.add_counters(node.info.name, std::move(msg.counters));
      break;
    }
    case MessageType::kVerdict: {
      const VerdictMsg verdict = VerdictMsg::decode(reader);
      node.info.converged = verdict.converged != 0;
      node.info.verdict_detail = verdict.detail;
      if (!node.verdict_received) {
        node.verdict_received = true;
        ++verdicts_;
        detector_.on_node_done(index);
      }
      result_.nodes_converged &= node.info.converged;
      log << "node " << node.info.name << ": "
          << (node.info.converged ? "converged" : "NOT converged");
      if (!verdict.detail.empty()) log << " (" << verdict.detail << ")";
      log << "\n";
      break;
    }
    default:
      throw WireError(strings::format("cluster: unexpected %s from node %s",
                                      to_string(frame.type), node.info.name.c_str()));
  }
}

void Coordinator::maybe_release_phase(std::uint32_t phase_index, std::ostream& log) {
  if (phase_index >= phase_released_.size() || phase_released_[phase_index]) return;
  // Barrier condition: every VOTING node has ended the phase. A lost node
  // inside its rejoin grace window still votes — the fleet holds for a node
  // that may come back, so a rejoined node contributes to every remaining
  // phase. Only a given-up node's vote is waived. If nobody ended the phase
  // yet there is nothing to release (0 == 0 must not fire before the phase
  // even ran).
  if (phase_end_counts_[phase_index] == 0) return;
  if (phase_end_counts_[phase_index] < voting_nodes()) return;
  phase_released_[phase_index] = 1;
  if (trace::Tracer::enabled())
    trace::Tracer::record("cluster.phase_barrier", phase_barrier_open_s_[phase_index],
                          local_clock_s());
  // Straggler check at barrier close, while the spread is fresh.
  if (bus_ && phase_index < bus_->phase_sync().size()) {
    const ClusterBus::PhaseSync& sync = bus_->phase_sync()[phase_index];
    if (sync.nodes >= 2)
      detector_.on_phase_spread(sync.name, sync.max_node, sync.spread_s(),
                                epoch_elapsed_s());
  }
  process_new_alerts(log);
  // The fleet finished this phase: close the budget window and, unless it
  // was the last phase, release the next one.
  record_budget_phase(phase_index);
  if (phase_index + 1 < options_.phase_count) {
    PhaseGoMsg go;
    go.phase_index = phase_index + 1;
    for (Node& n : nodes_)
      if (!n.lost && n.conn.valid()) n.conn.send(go.encode());
  }
}

void Coordinator::mark_node_lost(std::size_t index, const std::string& why,
                                 std::ostream& log) {
  Node& node = nodes_[index];
  if (node.lost) return;
  node.lost = true;
  node.lost_since_s = local_clock_s();
  node.lost_why = why;
  node.conn.close();
  log << strings::format("node %s LOST mid-campaign (%s) — rejoin window %.1fs open\n",
                         node.info.name.c_str(), why.c_str(), options_.rejoin_grace_s);
  log::warn() << "cluster: node lost " << log::kv("node", node.info.name) << ' '
              << log::kv("phase", node.phases_ended) << ' '
              << log::kv("reason", why);
  detector_.on_node_lost(index, why, epoch_elapsed_s());
  // The dead node's budget share flows to the survivors NOW, not at the
  // next phase boundary: its stale achieved sample stops counting and
  // every survivor's next report sees the smaller denominator. The
  // convergence window restarts too — the phase is judged on the fleet
  // composition it ends with, not on totals that straddle the loss.
  if (apportioner_) {
    apportioner_->on_node_lost(index);
    apportioner_->begin_window();
  }
  trace::FlightRecorder::instance().note_event(
      strings::format("node %s lost at t=%.2fs: %s", node.info.name.c_str(),
                      epoch_elapsed_s(), why.c_str()));
  process_new_alerts(log);
  if (options_.rejoin_grace_s <= 0.0) give_up_node(index, log);
}

void Coordinator::give_up_node(std::size_t index, std::ostream& log) {
  Node& node = nodes_[index];
  if (node.given_up) return;
  node.given_up = true;
  node.info.converged = false;
  node.info.verdict_detail = "node lost: " + node.lost_why;
  result_.nodes_converged = false;
  if (!node.verdict_received) {
    node.verdict_received = true;
    ++verdicts_;
  }
  log << strings::format("node %s given up (%s) — continuing with %zu nodes\n",
                         node.info.name.c_str(), node.lost_why.c_str(), voting_nodes());
  log::warn() << "cluster: node given up " << log::kv("node", node.info.name) << ' '
              << log::kv("reason", node.lost_why);
  // A given-up node can no longer vote: drop it from the aggregate gate and
  // re-check every pending barrier so the survivors aren't wedged waiting
  // for its end brackets.
  if (bus_) bus_->on_node_lost(index);
  for (std::uint32_t p = 0; p < phase_end_counts_.size(); ++p)
    maybe_release_phase(p, log);
  trace::FlightRecorder::instance().dump("node " + node.info.name +
                                         " lost: " + node.lost_why);
}

void Coordinator::sweep_rejoin_grace(std::ostream& log) {
  const double now = local_clock_s();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    if (node.lost && !node.given_up &&
        now - node.lost_since_s >= options_.rejoin_grace_s)
      give_up_node(i, log);
  }
}

bool Coordinator::ack_rejoin(Joiner& joiner, const RejoinMsg& msg) {
  std::size_t index = nodes_.size();
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (nodes_[i].info.name == msg.node_name) index = i;
  std::string refusal;
  if (msg.version != kProtocolVersion)
    refusal = strings::format("protocol %u, need %u", msg.version, kProtocolVersion);
  else if (!bus_)
    refusal = "the campaign has not started";
  else if (msg.campaign_id != campaign_id_)
    refusal = "campaign id mismatch (agent from another run?)";
  else if (index == nodes_.size())
    refusal = "unknown node name";
  else if (nodes_[index].given_up)
    refusal = strings::format("rejoin window (%.1fs) expired", options_.rejoin_grace_s);
  else if (nodes_[index].verdict_received)
    refusal = "verdict already recorded";
  RejoinAckMsg ack;
  if (!refusal.empty()) {
    log::warn() << "cluster: rejoin refused " << log::kv("node", msg.node_name) << ' '
                << log::kv("why", refusal);
    ack.detail = refusal;
    joiner.conn.send(ack.encode());
    joiner.conn.close();
    return false;
  }
  // The agent may have completed phases whose end brackets never survived
  // the wire; its own count is proof of completion, so credit the missing
  // barrier votes rather than making it re-run work the fleet would then
  // double-count.
  joiner.resume = std::min(static_cast<std::uint32_t>(options_.phase_count),
                           std::max(nodes_[index].phases_ended, msg.phases_ended));
  joiner.order = index;
  joiner.stage = Joiner::Stage::kRejoinSync;
  ack.accepted = 1;
  ack.resume_phase = joiner.resume;
  joiner.conn.send(ack.encode());
  return true;
}

void Coordinator::readmit(Joiner& joiner, std::ostream& log) {
  const std::size_t index = joiner.order;
  const std::uint32_t resume = joiner.resume;
  const ClockSync& sync = joiner.sync;
  Node& node = nodes_[index];
  if (node.given_up || node.verdict_received)
    throw WireError("cluster: node " + node.info.name + "'s rejoin window closed in sync");
  // Replay the admission sequence on the fresh socket BEFORE flipping any
  // coordinator state: if the rejoiner dies mid-replay the node stays as it
  // was, a lost one with its grace window still ticking.
  send_campaign(joiner.conn, index, sync.offset_s, sync.rtt_s);
  // If the go for its resume phase fired while it was away, replay it —
  // the node would otherwise wait for a broadcast that already happened.
  if (resume > 0 && resume < options_.phase_count && phase_released_[resume - 1]) {
    PhaseGoMsg go;
    go.phase_index = resume;
    joiner.conn.send(go.encode());
  }
  // Double rejoin: a fresh socket for a node we still believe connected
  // means the old connection is dead on the agent's side (half-open TCP).
  // Latest wins — adopting the new socket closes the stale one, so exactly
  // one stays live.
  if (!node.lost)
    log::warn() << "cluster: node " << node.info.name
                << " rejoined over a live connection; replacing the stale socket";

  const std::uint32_t prev_ended = node.phases_ended;
  node.conn = std::move(joiner.conn);
  node.lost = false;
  node.lost_why.clear();
  node.phases_begun = resume;
  node.phases_ended = resume;
  node.info.clock_offset_s = sync.offset_s;
  node.info.rtt_s = sync.rtt_s;
  ++node.info.rejoins;
  for (std::uint32_t p = prev_ended; p < resume; ++p) {
    if (phase_end_counts_[p] == 0) phase_barrier_open_s_[p] = local_clock_s();
    ++phase_end_counts_[p];
  }
  bus_->on_node_rejoin(index, resume);
  // Re-seed shares equal across the grown fleet and restart the window:
  // budget convergence is judged on the composition the phase ends with.
  if (apportioner_) {
    apportioner_->on_node_rejoin(index);
    apportioner_->begin_window();
  }
  detector_.on_node_recovered(index, epoch_elapsed_s());
  trace::Registry::instance().counter("coordinator.rejoins").add();
  log << strings::format("node %s REJOINED at phase %u (rejoin #%u)\n",
                         node.info.name.c_str(), resume, node.info.rejoins);
  log::info() << "cluster: node rejoined " << log::kv("node", node.info.name) << ' '
              << log::kv("resume_phase", resume) << ' '
              << log::kv("rejoins", node.info.rejoins) << ' '
              << log::kv("offset_us", sync.offset_s * 1e6);
  trace::FlightRecorder::instance().note_event(
      strings::format("node %s rejoined at t=%.2fs, resuming phase %u",
                      node.info.name.c_str(), epoch_elapsed_s(), resume));
  process_new_alerts(log);
  // Credited end brackets may have completed pending barriers.
  for (std::uint32_t p = prev_ended; p < resume; ++p) maybe_release_phase(p, log);
}

void Coordinator::process_new_alerts(std::ostream& log) {
  for (Alert& alert : detector_.take_new()) {
    log << strings::format("ALERT [%s] node=%s %s\n", alert.kind.c_str(),
                           alert.node.empty() ? "-" : alert.node.c_str(),
                           alert.detail.c_str());
    log::warn() << "cluster: alert " << log::kv("kind", alert.kind) << ' '
                << log::kv("node", alert.node) << ' '
                << log::kv("t_s", alert.t_s) << ' ' << alert.detail;
    trace::FlightRecorder::instance().note_alert(
        strings::format("t=%.2fs [%s] node=%s %s", alert.t_s, alert.kind.c_str(),
                        alert.node.c_str(), alert.detail.c_str()));
    if (options_.trace) {
      // Zero-width span in the merged timeline at the moment the detector
      // fired — alerts land between the spans they explain.
      const double t = epoch_local_s_ + alert.t_s;
      trace_.add_span("coordinator",
                      trace::Span{"alert:" + alert.kind + ":" + alert.node, t, t});
    }
    result_.alerts.push_back(std::move(alert));
  }
}

std::string Coordinator::render_exposition() const {
  std::vector<ExpositionNode> rows;
  rows.reserve(nodes_.size());
  const double now = epoch_elapsed_s();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    ExpositionNode row;
    row.name = node.info.name;
    row.lost = node.lost;
    row.phases_begun = node.phases_begun;
    row.phases_ended = node.phases_ended;
    row.clock_offset_s = node.info.clock_offset_s;
    row.clock_rtt_s = node.info.rtt_s;
    row.achieved_w = node.achieved_w;
    row.setpoint_w = node.setpoint_w;
    row.level = node.level;
    row.metrics_age_s = metrics_.age_s(i, now);
    row.rejoins = node.info.rejoins;
    rows.push_back(std::move(row));
  }
  return render_metrics(trace::Registry::instance().snapshot(),
                        trace::Registry::instance().histogram_snapshots(), metrics_,
                        rows, detector_.alerts().size(), detector_.fleet_healthy());
}

void Coordinator::serve_joiner(Joiner& joiner, std::ostream& log) {
  try {
    if (joiner.stage == Joiner::Stage::kGreeting) {
      if (!read_greeting(joiner.conn.fd(), joiner.head)) return;
      if (joiner.head.compare(0, 4, "GET ") == 0) {
        trace::Registry::instance().counter("coordinator.http_requests").add();
        serve_http_client(std::move(joiner.conn), joiner.head, render_exposition(),
                          detector_.fleet_healthy());
        return;
      }
      const std::vector<std::uint8_t> payload(joiner.head.begin() + 5, joiner.head.end());
      WireReader reader(payload);
      switch (static_cast<MessageType>(joiner.head[4])) {
        case MessageType::kStatusRequest:
          // Probes may land while the fleet is still assembling; they are
          // answered with what is known so far and take no --nodes slot.
          trace::Registry::instance().counter("coordinator.status_probes").add();
          joiner.conn.send(build_status(/*accepting=*/!bus_).encode());
          joiner.conn.close();
          return;
        case MessageType::kRejoin:
          if (!ack_rejoin(joiner, RejoinMsg::decode(reader))) return;
          break;
        case MessageType::kHello: {
          const HelloMsg hello = HelloMsg::decode(reader);
          if (hello.version != kProtocolVersion)
            throw WireError(strings::format("node '%s' speaks protocol %u, need %u",
                                            hello.node_name.c_str(), hello.version,
                                            kProtocolVersion));
          const auto syncing = std::count_if(joiners_.begin(), joiners_.end(),
              [](const Joiner& j) { return j.stage == Joiner::Stage::kHelloSync; });
          if (nodes_.size() + static_cast<std::size_t>(syncing) >= options_.nodes)
            throw WireError(strings::format("hello from '%s' past --nodes %zu",
                                            hello.node_name.c_str(), options_.nodes));
          joiner.info.name = hello.node_name;
          joiner.info.sku = hello.sku;
          joiner.order = hellos_++;
          joiner.stage = Joiner::Stage::kHelloSync;
          break;
        }
        default:
          throw WireError(std::string("first frame was a ") +
                          to_string(static_cast<MessageType>(joiner.head[4])));
      }
    } else {
      Frame reply;
      joiner.conn.recv_into(reply);  // poll(2) found it readable: no wait
      // One reply per probe. Anything more would wait in the read buffer,
      // where poll(2) cannot see it.
      if (joiner.conn.buffered()) throw WireError("sent ahead of its clock-sync probe");
      joiner.sync.on_reply(reply);
      if (joiner.sync.done() && joiner.stage == Joiner::Stage::kRejoinSync) {
        readmit(joiner, log);
        return;
      }
      if (joiner.sync.done()) {
        Node node;
        node.info = std::move(joiner.info);
        node.info.clock_offset_s = joiner.sync.offset_s;
        node.info.rtt_s = joiner.sync.rtt_s;
        node.hello = joiner.order;
        node.conn = std::move(joiner.conn);
        // Node order is hello order, whichever sync finishes first.
        const auto at = std::find_if(nodes_.begin(), nodes_.end(),
                                     [&](const Node& n) { return n.hello > node.hello; });
        nodes_.insert(at, std::move(node));
        return;
      }
    }
    joiner.conn.send(joiner.sync.probe());
    joiner.deadline_s = local_clock_s() + kSyncReplyS;
  } catch (const WireError& e) {
    // A malformed, wrong-version or vanished client costs itself the
    // socket, never the fleet.
    log::warn() << "cluster: dropping joining connection: " << e.what();
    joiner.conn.close();
  }
}

StatusReplyMsg Coordinator::build_status(bool accepting) const {
  StatusReplyMsg reply;
  reply.accepting = accepting ? 1 : 0;
  reply.nodes_expected = static_cast<std::uint32_t>(options_.nodes);
  reply.phase_count = static_cast<std::uint32_t>(options_.phase_count);
  reply.queued_samples = bus_ ? bus_->queued_samples() : 0;
  reply.budget_w = options_.budget ? options_.budget->value : 0.0;
  reply.fleet_healthy = detector_.fleet_healthy() ? 1 : 0;
  const double now = epoch_elapsed_s();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    StatusNodeRec rec;
    rec.name = node.info.name;
    rec.sku = node.info.sku;
    rec.connected = node.conn.valid() ? 1 : 0;
    rec.phases_begun = node.phases_begun;
    rec.phases_ended = node.phases_ended;
    rec.clock_offset_s = node.info.clock_offset_s;
    rec.clock_rtt_s = node.info.rtt_s;
    rec.achieved_w = node.achieved_w;
    rec.setpoint_w = node.setpoint_w;
    rec.level = node.level;
    rec.lost = node.lost ? 1 : 0;
    rec.last_metrics_age_s = metrics_.age_s(i, now);
    rec.rejoins = node.info.rejoins;
    reply.nodes.push_back(std::move(rec));
  }
  if (bus_) {
    for (const ClusterBus::PhaseSync& sync : bus_->phase_sync()) {
      StatusSpreadRec rec;
      rec.phase = sync.name;
      rec.min_node = sync.min_node;
      rec.max_node = sync.max_node;
      rec.min_begin_s = sync.min_begin_s;
      rec.max_begin_s = sync.max_begin_s;
      rec.nodes = static_cast<std::uint32_t>(sync.nodes);
      reply.spreads.push_back(std::move(rec));
    }
  }
  reply.counters = trace::Registry::instance().snapshot();
  for (const Alert& alert : detector_.alerts()) {
    StatusAlertRec rec;
    rec.kind = alert.kind;
    rec.node = alert.node;
    rec.detail = alert.detail;
    rec.t_s = alert.t_s;
    reply.alerts.push_back(std::move(rec));
  }
  return reply;
}

void Coordinator::event_loop(std::ostream& log) {
  // The one poll(2) of the coordinator, from the first accept to shutdown.
  // Each iteration refills the pollfd set (a reused vector, so no
  // allocation once it has grown): the nodes, the listener, then the
  // joiners. A node's slot is parked at fd -1, which poll(2) ignores, until
  // the campaign starts and while the node is LOST. One scratch frame serves
  // every node receive — the loop allocates nothing per frame.
  std::vector<pollfd> fds;
  Frame frame;
  trace::Registry& registry = trace::Registry::instance();
  trace::Counter& frames = registry.counter("coordinator.frames");
  trace::Counter& wakeups = registry.counter("coordinator.poll_wakeups");
  trace::Counter& metric_updates = registry.counter("coordinator.metric_updates");
  trace::Histogram& rx_bytes = registry.histogram("coordinator.rx_frame_bytes");

  // Poll tick: half the metrics interval so flat-line detection reacts
  // within one interval of the deadline, bounded below so an aggressive
  // interval doesn't busy-spin the loop. 600 s stays the hard stall guard
  // when the metrics plane is off.
  const bool live_metrics = options_.metrics_interval_s > 0.0;
  const int tick_ms =
      live_metrics
          ? std::clamp(static_cast<int>(options_.metrics_interval_s * 500.0), 50, 600000)
          : 600000;
  double last_traffic_s = local_clock_s();
  double last_sweep_s = last_traffic_s;
  // Progress-based admission deadline: a coordinator told to expect N nodes
  // fails loudly when the NEXT agent never arrives, not after N quiet
  // windows stack up.
  double accept_deadline_s = last_traffic_s + options_.accept_timeout_s;
  std::size_t admitted = 0;

  while (!bus_ || verdicts_ < nodes_.size()) {
    fds.clear();
    for (const Node& node : nodes_)
      fds.push_back(pollfd{node.lost || !bus_ ? -1 : node.conn.fd(), POLLIN, 0});
    const std::size_t listener_slot = fds.size();
    fds.push_back(pollfd{listener_.fd(), POLLIN, 0});
    for (const Joiner& joiner : joiners_)
      fds.push_back(pollfd{joiner.conn.fd(), POLLIN, 0});
    // A lost node's grace window must expire on time even when the metrics
    // plane is off (tick_ms = 600 s): bound the wait while any window is
    // open. The admission deadline and the joiners' deadlines bound it too.
    int timeout_ms = tick_ms;
    for (const Node& node : nodes_)
      if (node.lost && !node.given_up) timeout_ms = std::min(timeout_ms, 50);
    const double before_s = local_clock_s();
    double wake_s = bus_ ? before_s + 600.0 : accept_deadline_s;
    for (const Joiner& joiner : joiners_) wake_s = std::min(wake_s, joiner.deadline_s);
    timeout_ms = std::min(
        timeout_ms, static_cast<int>(std::clamp(wake_s - before_s, 0.0, 600.0) * 1000.0) + 1);
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw Error("cluster: poll failed");
    }
    const double now = local_clock_s();
    sweep_rejoin_grace(log);
    if (ready == 0 && now - last_traffic_s > 600.0) {
      // A generous stall guard, not a pacing interval: agents push traffic
      // continuously while phases run. Preserve the evidence before dying.
      trace::FlightRecorder::instance().dump("fleet stalled: no traffic for 600 s");
      throw Error("cluster: no agent traffic for 600 s — fleet stalled");
    }
    if (ready > 0) {
      last_traffic_s = now;
      wakeups.add();
      TRACE_SPAN("coordinator.wakeup");
      for (std::size_t i = 0; i < listener_slot; ++i) {
        if (nodes_[i].lost || !(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
        // Drain everything this node has ready before re-polling: a
        // streaming agent delivers many frames per wakeup, and poll() per
        // frame would make the syscall, not the merge, the bottleneck. A
        // node whose socket dies, or stalls mid-frame past the transport's
        // frame bound, is marked lost and the campaign continues with the
        // survivors — a crash is an observable outcome, not a fleet-wide
        // abort.
        try {
          while (nodes_[i].conn.recv_into(frame, /*timeout_s=*/0.0)) {
            rx_bytes.record(static_cast<double>(frame.payload.size()));
            if (frame.type == MessageType::kMetricUpdate) metric_updates.add();
            handle_frame(i, frame, log);
            frames.add();
          }
        } catch (const WireError& e) {
          mark_node_lost(i, e.what(), log);
        }
      }
      // fds pairs with joiners_ in pre-poll order; connections accepted
      // below sit past its end and wait a turn.
      for (std::size_t slot = listener_slot + 1; slot < fds.size(); ++slot)
        if (fds[slot].revents & (POLLIN | POLLHUP | POLLERR))
          serve_joiner(joiners_[slot - listener_slot - 1], log);
      if (fds[listener_slot].revents & POLLIN) {
        // Take the whole backlog: a large fleet dials in faster than one
        // accept per wake-up.
        pollfd backlog{listener_.fd(), POLLIN, 0};
        try {
          do {
            Joiner& joiner = joiners_.emplace_back();
            joiner.deadline_s = now + kHelloWindowS;
            joiner.conn = listener_.accept(-1.0);
          } while (::poll(&backlog, 1, 0) > 0);
        } catch (const Error& e) {
          log::warn() << e.what();
        }
      }
    }
    // A joiner whose connection was admitted, served or dropped is done, and
    // so is one that missed its deadline: its socket closes as it goes.
    const double swept_s = local_clock_s();
    std::erase_if(joiners_, [&](const Joiner& joiner) {
      if (joiner.conn.valid() && swept_s >= joiner.deadline_s)
        log::warn() << "cluster: dropping a connection that missed its "
                    << (joiner.stage == Joiner::Stage::kGreeting ? "hello window"
                                                                 : "sync-reply bound");
      return !joiner.conn.valid() || swept_s >= joiner.deadline_s;
    });
    if (!bus_) {
      if (nodes_.size() == options_.nodes) {
        start_campaign(log);
      } else if (nodes_.size() > admitted) {
        admitted = nodes_.size();
        accept_deadline_s = local_clock_s() + options_.accept_timeout_s;
      } else if (local_clock_s() >= accept_deadline_s) {
        throw Error(strings::format(
            "cluster: accepted %zu of %zu nodes, none arrived for %.0f s", nodes_.size(),
            options_.nodes, options_.accept_timeout_s));
      }
    }
    // Periodic detector sweep + flight-recorder heartbeat, paced by the
    // tick whether traffic is flowing or not.
    if (bus_ && live_metrics && now - last_sweep_s >= options_.metrics_interval_s * 0.5) {
      last_sweep_s = now;
      detector_.sweep(epoch_elapsed_s());
      process_new_alerts(log);
      trace::FlightRecorder::instance().note_metrics(strings::format(
          "t=%.2fs frames=%llu metric_updates=%llu alive=%zu verdicts=%zu",
          epoch_elapsed_s(), static_cast<unsigned long long>(frames.value()),
          static_cast<unsigned long long>(metric_updates.value()), alive_nodes(),
          verdicts_));
    }
  }
  ShutdownMsg shutdown;
  shutdown.ok = 1;
  for (Node& node : nodes_)
    if (!node.lost && node.conn.valid()) node.conn.send(shutdown.encode());
  // Every verdict is in: stop listening. Anything still in the accept
  // backlog or still joining (a rejoiner that arrived after its node was
  // given up) gets a reset instead of an eternal unanswered handshake.
  listener_.close();
  joiners_.clear();
}

Coordinator::Result Coordinator::run(std::ostream& log) {
  if (options_.trace) trace::Tracer::set_enabled(true);
  nodes_.reserve(options_.nodes);
  event_loop(log);

  bus_->finish();
  result_.rows = bus_->merged_rows();
  result_.sync = bus_->phase_sync();
  for (const Node& node : nodes_) result_.nodes.push_back(node.info);

  for (const ClusterBus::PhaseSync& sync : result_.sync) {
    const bool ok = sync.spread_s() <= options_.sync_tolerance_s;
    result_.sync_ok &= ok;
    if (ok || sync.nodes < 2) {
      log << strings::format("phase '%s': start spread %.2f ms across %zu nodes%s\n",
                             sync.name.c_str(), sync.spread_s() * 1e3, sync.nodes,
                             ok ? "" : "  [exceeds tolerance]");
    } else {
      // Name the offenders: the straggler (and who it trailed) is what an
      // operator chases, not the aggregate number.
      log << strings::format(
          "phase '%s': start spread %.2f ms across %zu nodes exceeds tolerance %.2f ms — "
          "node %s began %.2f ms after node %s\n",
          sync.name.c_str(), sync.spread_s() * 1e3, sync.nodes,
          options_.sync_tolerance_s * 1e3, sync.max_node.c_str(), sync.spread_s() * 1e3,
          sync.min_node.c_str());
    }
  }
  for (const PhaseBudgetVerdict& verdict : result_.budget_phases)
    log << strings::format("phase '%s': cluster power %.1f W trailing (budget %g W) %s\n",
                           verdict.phase.c_str(), verdict.trailing_total_w,
                           options_.budget->value,
                           verdict.converged ? "converged" : "NOT converged");

  for (const Alert& alert : result_.alerts)
    log << strings::format("alert recap [%s] node=%s t=%.2fs %s\n", alert.kind.c_str(),
                           alert.node.empty() ? "-" : alert.node.c_str(), alert.t_s,
                           alert.detail.c_str());
  if (!result_.alerts.empty())
    trace::FlightRecorder::instance().dump(
        strings::format("campaign finished with %zu alerts", result_.alerts.size()));

  // Fold the coordinator's own rings and counters into the fleet timeline
  // (offset 0 — its clock IS the merged time base) and hand it over.
  if (options_.trace) {
    std::vector<trace::SpanEvent> events;
    trace::Tracer::drain(events);
    for (const trace::SpanEvent& e : events)
      trace_.add_span("coordinator", trace::Span{e.name, e.begin_s, e.end_s});
    trace_.add_counters("coordinator", trace::Registry::instance().snapshot());
    result_.trace = std::move(trace_);
  }
  return result_;
}

}  // namespace fs2::cluster
