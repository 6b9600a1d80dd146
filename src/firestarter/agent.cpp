#include "firestarter/agent.hpp"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <sstream>

#include "cluster/clock_sync.hpp"
#include "trace/flight_recorder.hpp"
#include "trace/tracer.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace fs2::firestarter {

namespace {

Agent::Clock::time_point after_s(double seconds) {
  return Agent::Clock::now() + std::chrono::duration_cast<Agent::Clock::duration>(
                                   std::chrono::duration<double>(seconds));
}

}  // namespace

std::string agent_sku(const Config& cfg) {
  std::string sku = to_string(cfg.target);
  if (cfg.target != TargetSystem::kHost && cfg.sim_freq_mhz > 0.0)
    sku += strings::format("@%.0fMHz", cfg.sim_freq_mhz);
  return sku;
}

// ---- Agent ------------------------------------------------------------------

Agent::Agent(Config cfg, const std::string& endpoint, AgentSeat& seat,
             std::optional<RejoinSpec> rejoin)
    : cfg_(std::move(cfg)),
      node_name_(cfg_.node_name.value_or("agent")),
      seat_(seat),
      // A first incarnation may start well before the coordinator's
      // listener is up, so it retries long. A replacement dials a
      // coordinator that was provably listening moments ago, so it dials
      // once: a refused dial means the run is over (grace expired, listener
      // closed), and a retry would stall the fleet's one event loop.
      conn_(cluster::Connection::connect(endpoint, /*retry_for_s=*/rejoin ? 0.0 : 30.0)),
      rejoin_(rejoin) {
  if (seat_.faults) conn_.set_faults(&*seat_.faults);
  if (seat_.plan != nullptr && !rejoin_) {
    if (const cluster::KillCue* kill = seat_.plan->kill_for(node_name_)) kill_cue_ = *kill;
    if (const cluster::StallCue* stall = seat_.plan->stall_for(node_name_)) stall_cue_ = *stall;
  }
  if (rejoin_) {
    cluster::RejoinMsg msg;
    msg.node_name = node_name_;
    msg.campaign_id = rejoin_->campaign_id;
    msg.phases_ended = rejoin_->phases_ended;
    conn_.send(msg.encode());
    phases_ended_ = rejoin_->phases_ended;
    // The coordinator may have finished (or given this node up and shut
    // down) meanwhile, leaving the handshake in a backlog nobody serves.
    expect(State::kAwaitRejoinAck, "rejoin ack", kRejoinAckTimeoutS);
    return;
  }
  cluster::HelloMsg hello;
  hello.node_name = node_name_;
  hello.sku = agent_sku(cfg_);
  conn_.send(hello.encode());
  expect(State::kHandshake, "campaign and epoch", kHandshakeTimeoutS);
}

template <class Fn>
void Agent::guarded(Fn&& fn) {
  try {
    fn();
  } catch (const cluster::WireError& e) {
    lose(e.what());
  } catch (const std::exception& e) {
    fail(e.what());
  }
}

void Agent::expect(State state, const char* what, double timeout_s) {
  state_ = state;
  wait_ = Wait::kFrame;
  deadline_ = after_s(timeout_s);
  awaited_ = what;
  wait_bound_s_ = timeout_s;
}

Agent::Clock::time_point Agent::next_wake() const {
  if (wait_ == Wait::kUntil) return wake_time_;
  return wait_ == Wait::kFrame ? deadline_ : Clock::time_point::max();
}

void Agent::lose(const std::string& why) {
  if (!admitted()) {
    fail(why);
    return;
  }
  log::warn() << "[" << node_name_ << "] " << why << " (a replacement will rejoin)";
  // No ceremony — no flight record, no goodbye: the coordinator sees a dead
  // link mid-stream, exactly like a real crash.
  conn_.close();
  lost_ = true;
  error_ = why;
  state_ = State::kDone;
  wait_ = Wait::kDone;
}

bool Agent::kill_due() const {
  if (!kill_cue_ || lost_) return false;
  if (kill_cue_->phase) return *kill_cue_->phase == phase_index_;
  if (kill_cue_->t_s) return have_epoch_ && epoch_elapsed_s() >= *kill_cue_->t_s;
  return false;
}

bool Agent::maybe_stall() {
  if (stalled_) return true;
  if (!stall_cue_ || stall_fired_ || !have_epoch_) return false;
  if (epoch_elapsed_s() < stall_cue_->t_s) return false;
  stall_fired_ = true;
  stalled_ = true;
  stall_resume_ = wait_;
  wake_time_ = epoch_time_ + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     stall_cue_->t_s + stall_cue_->duration_s));
  wait_ = Wait::kUntil;
  log::warn() << "[" << node_name_ << "] chaos stall: frozen for "
              << stall_cue_->duration_s << "s";
  return true;
}

double Agent::flush_pending() {
  if (!conn_.valid() || !conn_.has_pending()) return 0.0;
  double due = 0.0;
  guarded([&] { due = conn_.flush_pending(); });
  return due;
}

void Agent::fail(const std::string& what) {
  failed_ = true;
  error_ = what;
  state_ = State::kDone;
  wait_ = Wait::kDone;
  // Best-effort black box: ship the flight record so the coordinator's
  // post-mortem has this node's last view.
  if (conn_.valid()) {
    try {
      cluster::FlightRecordMsg record;
      record.reason = node_name_ + ": " + what;
      record.dump = trace::FlightRecorder::instance().serialize();
      conn_.send(record.encode());
    } catch (const std::exception&) {
      // The socket is the thing that broke; nothing more to do.
    }
  }
  conn_.close();
}

double Agent::epoch_elapsed_s() const {
  return std::chrono::duration<double>(Clock::now() - epoch_time_).count();
}

void Agent::maybe_ship_metrics(bool force) {
  if (campaign_.metrics_interval_s <= 0.0 || !have_epoch_ || !conn_.valid()) return;
  const double t = epoch_elapsed_s();
  if (!force && t < next_metrics_s_) return;
  // Re-arm on the fixed grid so a late ship doesn't drift the cadence.
  while (next_metrics_s_ <= t) next_metrics_s_ += campaign_.metrics_interval_s;
  trace::MetricDelta delta = seat_.tracker.collect();
  if (delta.empty()) return;
  cluster::MetricUpdateMsg msg;
  msg.seq = metrics_seq_++;
  msg.t_agent_s = t;
  msg.delta = std::move(delta);
  conn_.send(msg.encode());
}

void Agent::prepare_campaign() {
  // The coordinator decides fleet-wide whether spans are recorded; the flag
  // arrives before the epoch, so phase 0 is covered.
  if (tracing() && seat_.process_wide()) trace::Tracer::set_enabled(true);
  std::optional<control::Setpoint> budget;
  if (campaign_.has_budget != 0) {
    // The coordinator owns every phase's duty cycle: regulate this node's
    // apportioned power share.
    budget.emplace();
    budget->variable = control::ControlVariable::kPower;
    budget->value = current_setpoint_w_;
    budget->interval_s = campaign_.ctl_interval_s;
    budget->band = campaign_.budget_band;
  }
  std::istringstream in(campaign_.campaign_text);
  phases_ = std::make_unique<PhaseResolver>(
      cfg_, sched::Campaign::parse(in, "(from coordinator)"), budget);
  sink_ = std::make_unique<cluster::RemoteSink>(&conn_, epoch_time_);
  bus_.attach(sink_.get());
  PhaseRunner::Options options;
  options.epoch = epoch_time_;
  options.quiet = !seat_.process_wide();
  runner_ = std::make_unique<PhaseRunner>(cfg_, *phases_, bus_, options);
  next_metrics_s_ = campaign_.metrics_interval_s;
  // Loopback nodes stay quiet: the coordinator prints every handshake.
  if (seat_.process_wide())
    log::info() << "agent: joined cluster " << log::kv("node", node_name_) << ' '
                << log::kv("phases", phases_->phases().size()) << ' '
                << log::kv("budget", campaign_.has_budget != 0 ? "yes" : "no");

  state_ = State::kWaitStart;  // phase 0's barrier is the epoch itself
  wait_ = Wait::kUntil;
  wake_time_ = epoch_time_;
  if (!rejoin_) return;
  // Resume where the previous incarnation ended. The coordinator already
  // credited the completed phases — they are never re-run. The fresh
  // sink's phase counter must agree: its first begin bracket has to carry
  // the coordinator-assigned resume index, not 0.
  phase_index_ = resume_phase_;
  phases_ended_ = resume_phase_;
  sink_->rewind_phase(resume_phase_);
  if (phase_index_ >= phases_->phases().size())
    send_verdict();  // everything already ran; only the verdict is owed
  else if (phase_index_ > 0)
    expect(State::kAwaitGo, "phase-go", kPhaseGoTimeoutS);  // replayed or still to come
}

void Agent::close_wait_span(const char* name) {
  if (!tracing() || wait_open_s_ <= 0.0) return;
  spans_.push_back(trace::Span{name, wait_open_s_, trace::now_s()});
  wait_open_s_ = 0.0;
}

void Agent::begin_phase() {
  close_wait_span("agent.barrier_wait");
  if (tracing()) phase_open_s_ = trace::now_s();
  // The budget share is re-read AFTER the barrier so the phase starts from
  // the latest apportionment.
  runner_->begin(phase_index_, campaign_.has_budget != 0
                                   ? std::make_optional(current_setpoint_w_)
                                   : std::nullopt);
  seat_.registry.gauge("agent.phase").set(static_cast<double>(phase_index_));
  next_budget_s_ = campaign_.budget_interval_s;
  state_ = State::kRunPhase;
  wait_ = Wait::kRun;
  // A phase-cued kill fires right after the begin bracket: the coordinator
  // has counted the node into the phase, then the link goes dark mid-phase.
  if (kill_cue_ && kill_cue_->phase && *kill_cue_->phase == phase_index_)
    lose(strings::format("chaos kill: cue at phase %zu", phase_index_));
}

void Agent::send_budget_report() {
  if (tracing()) wait_open_s_ = trace::now_s();
  next_budget_s_ += campaign_.budget_interval_s;
  const control::FeedbackLoop& loop = *runner_->loop();
  cluster::BudgetReportMsg report;
  report.seq = budget_seq_++;
  report.achieved_w = loop.trailing_mean(campaign_.budget_interval_s);
  report.setpoint_w = loop.setpoint().value;
  report.level = loop.profile().level();
  if (!budget_metrics_) {
    trace::Registry& registry = seat_.registry;
    budget_metrics_.emplace(BudgetMetrics{
        registry.counter("agent.budget_exchanges"), registry.gauge("agent.achieved_w"),
        registry.gauge("agent.setpoint_w"), registry.gauge("agent.level"),
        registry.histogram("agent.ctl_error_w")});
  }
  budget_metrics_->exchanges.add();
  budget_metrics_->achieved_w.set(report.achieved_w);
  budget_metrics_->setpoint_w.set(report.setpoint_w);
  budget_metrics_->level.set(report.level);
  budget_metrics_->ctl_error_w.record(std::abs(report.achieved_w - report.setpoint_w));
  conn_.send(report.encode());
  expect(State::kAwaitAssign, "budget assign", kBudgetAssignTimeoutS);
}

void Agent::advance() {
  if (state_ != State::kRunPhase) return;
  if (maybe_stall()) return;
  if (kill_due()) {
    lose(strings::format("chaos kill: cue at t=%.1fs", epoch_elapsed_s()));
    return;
  }
  guarded([&] {
    while (!runner_->done()) {
      if (runner_->due() > Clock::now()) {  // host phases sample on a 50 ms tick
        wake_time_ = runner_->due();
        wait_ = Wait::kUntil;
        return;
      }
      const double t = runner_->step();
      // Live metrics ride the step loop at wall-clock cadence — the plane
      // stays fresh even when virtual time outpaces real time.
      maybe_ship_metrics();
      if (kill_due()) {
        lose(strings::format("chaos kill: cue at t=%.1fs", epoch_elapsed_s()));
        return;
      }
      if (maybe_stall()) return;  // resume this step loop after the window
      // Budget round: report the trailing achieved watts and wait for the
      // reassigned share. Simulated time pauses for the round trip, so the
      // exchange is deterministic.
      if (campaign_.has_budget != 0 && runner_->loop() != nullptr &&
          t >= next_budget_s_ - 1e-9) {
        send_budget_report();
        return;
      }
    }
    runner_->finish();
    maybe_ship_metrics();
    finish_phase();
  });
}

void Agent::finish_phase() {
  ++phases_ended_;
  if (tracing())
    spans_.push_back(trace::Span{"phase:" + phases_->phases()[phase_index_].spec->name,
                                 phase_open_s_, trace::now_s()});
  ++phase_index_;
  if (phase_index_ < phases_->phases().size()) {
    if (tracing()) wait_open_s_ = trace::now_s();
    expect(State::kAwaitGo, "phase-go", kPhaseGoTimeoutS);
    return;
  }
  send_verdict();
}

void Agent::send_verdict() {
  bus_.finish();
  // The final metric delta ships before the verdict so the coordinator's
  // folded series equal this node's final registry totals.
  maybe_ship_metrics(/*force=*/true);
  // Span shipment precedes the verdict (the coordinator's "node done"
  // signal) so the merged timeline is complete when the run closes.
  if (tracing()) {
    cluster::TraceSpansMsg spans;
    if (seat_.process_wide()) {
      std::vector<trace::SpanEvent> events;
      trace::Tracer::drain(events);
      for (const trace::SpanEvent& e : events)
        spans_.push_back(trace::Span{e.name, e.begin_s, e.end_s});
      spans.dropped = trace::Tracer::dropped();
    }
    spans.spans = std::move(spans_);
    conn_.send(spans.encode());
    cluster::CounterSnapshotMsg counters;
    counters.counters = seat_.registry.snapshot();
    conn_.send(counters.encode());
  }
  const Target& target = phases_->target();
  cluster::VerdictMsg verdict;
  verdict.converged = runner_->all_converged() ? 1 : 0;
  verdict.detail =
      strings::format("%zu phases on %s", phases_->phases().size(),
                      target.simulated ? target.sim_config.name.c_str() : "host");
  conn_.send(verdict.encode());
  expect(State::kAwaitShutdown, "shutdown", kPhaseGoTimeoutS);
}

void Agent::handle_frame(const cluster::Frame& frame) {
  cluster::WireReader reader(frame.payload);
  switch (frame.type) {
    case cluster::MessageType::kSyncProbe: {
      const cluster::SyncProbeMsg probe = cluster::SyncProbeMsg::decode(reader);
      cluster::SyncReplyMsg reply;
      reply.seq = probe.seq;
      reply.t_coord_s = probe.t_coord_s;
      reply.t_agent_s = cluster::local_clock_s();
      conn_.send(reply.encode());
      break;
    }
    case cluster::MessageType::kCampaign:
      campaign_ = cluster::CampaignMsg::decode(reader);
      current_setpoint_w_ = campaign_.initial_setpoint_w;
      have_campaign_ = true;
      if (have_epoch_) prepare_campaign();
      break;
    case cluster::MessageType::kEpoch:
      epoch_time_ = cluster::to_time_point(cluster::EpochMsg::decode(reader).t0_agent_s);
      have_epoch_ = true;
      if (have_campaign_) prepare_campaign();
      break;
    case cluster::MessageType::kRejoinAck: {
      const cluster::RejoinAckMsg ack = cluster::RejoinAckMsg::decode(reader);
      if (state_ != State::kAwaitRejoinAck)
        throw cluster::WireError("agent " + node_name_ + ": unsolicited rejoin ack");
      // Authoritative: the window expired, the campaign id is stale, or the
      // verdict is already in. Another replacement cannot change the answer.
      if (ack.accepted == 0)
        throw Error("agent " + node_name_ + ": rejoin refused: " + ack.detail);
      resume_phase_ = ack.resume_phase;
      expect(State::kHandshake, "campaign and epoch", kHandshakeTimeoutS);
      log::info() << "[" << node_name_ << "] rejoin accepted "
                  << log::kv("resume_phase", ack.resume_phase);
      trace::FlightRecorder::instance().note_event(strings::format(
          "%s rejoined, resuming phase %u", node_name_.c_str(), ack.resume_phase));
      break;
    }
    case cluster::MessageType::kPhaseGo: {
      const cluster::PhaseGoMsg go = cluster::PhaseGoMsg::decode(reader);
      if (state_ != State::kAwaitGo || go.phase_index != phase_index_)
        throw cluster::WireError(strings::format(
            "agent %s: phase-go for %u while at phase %zu", node_name_.c_str(),
            go.phase_index, phase_index_));
      begin_phase();
      break;
    }
    case cluster::MessageType::kBudgetAssign: {
      const cluster::BudgetAssignMsg assign = cluster::BudgetAssignMsg::decode(reader);
      if (state_ != State::kAwaitAssign || assign.seq + 1 != budget_seq_)
        throw cluster::WireError(
            strings::format("agent %s: unexpected budget assign seq %u",
                            node_name_.c_str(), assign.seq));
      close_wait_span("agent.budget_wait");
      current_setpoint_w_ = assign.setpoint_w;
      runner_->loop()->set_target(assign.setpoint_w);
      state_ = State::kRunPhase;
      wait_ = Wait::kRun;
      break;
    }
    case cluster::MessageType::kShutdown:
      if (state_ != State::kAwaitShutdown)
        throw Error("agent " + node_name_ + ": coordinator shut the run down early");
      conn_.close();
      state_ = State::kDone;
      wait_ = Wait::kDone;
      break;
    default:
      throw cluster::WireError(std::string("agent ") + node_name_ + ": unexpected " +
                               cluster::to_string(frame.type));
  }
}

void Agent::on_readable() {
  if (state_ == State::kDone) return;
  if (maybe_stall()) return;  // frozen: stop reading; frames queue in the kernel
  guarded([&] {
    cluster::Frame frame;
    // Drain everything available without blocking; each frame may flip the
    // state machine (including to kDone, which closes the socket).
    while (state_ != State::kDone && conn_.recv_into(frame, /*timeout_s=*/0.0))
      handle_frame(frame);
  });
}

void Agent::on_time() {
  if (stalled_) {
    // The stall window ended: thaw and pick up where the freeze hit.
    stalled_ = false;
    wait_ = stall_resume_;
    return;
  }
  if (wait_ == Wait::kFrame) {
    if (Clock::now() < deadline_) return;
    const std::string why = strings::format("no %s from the coordinator within %.0f s",
                                            awaited_, wait_bound_s_);
    if (state_ == State::kAwaitShutdown) fail(why);
    else lose(why);
    return;
  }
  if (state_ == State::kRunPhase) {
    wait_ = Wait::kRun;  // the host sampling tick came due
    return;
  }
  if (state_ == State::kWaitStart) guarded([&] { begin_phase(); });
}

// ---- AgentFleet ---------------------------------------------------------------

/// One node's place in the fleet: its current incarnation plus what
/// survives it — the config and the seat.
struct AgentFleet::Slot {
  Slot(Config config, trace::Registry* registry, const cluster::FaultPlan* plan)
      : cfg(std::move(config)),
        own_registry(registry != nullptr ? nullptr : std::make_unique<trace::Registry>()),
        seat(registry != nullptr ? *registry : *own_registry, plan,
             cfg.node_name.value_or("agent")) {}

  Config cfg;
  std::unique_ptr<trace::Registry> own_registry;
  AgentSeat seat;
  std::unique_ptr<Agent> agent;
  std::uint32_t respawns = 0;
  std::optional<Agent::Clock::time_point> respawn_due;
  std::string respawn_error;  ///< a replacement could not even dial in
};

AgentFleet::AgentFleet(std::string endpoint, const cluster::FaultPlan* plan)
    : endpoint_(std::move(endpoint)) {
  if (plan != nullptr) plan_ = *plan;
}

AgentFleet::~AgentFleet() = default;

void AgentFleet::add(Config cfg, trace::Registry* registry) {
  auto slot = std::make_unique<Slot>(std::move(cfg), registry, plan_ ? &*plan_ : nullptr);
  slot->agent = std::make_unique<Agent>(slot->cfg, endpoint_, slot->seat);
  slots_.push_back(std::move(slot));
}

void AgentFleet::run() {
  using Clock = Agent::Clock;
  std::vector<pollfd> fds;
  std::vector<Agent*> fd_agents;
  fds.reserve(slots_.size());
  fd_agents.reserve(slots_.size());

  trace::Counter& iterations = trace::Registry::instance().counter("reactor.poll_iterations");
  trace::Histogram& poll_wait =
      trace::Registry::instance().histogram("reactor.poll_wait_s");
  for (;;) {
    iterations.add();
    TRACE_SPAN("reactor.iteration");

    // A lost incarnation's replacement dials back after one jittered backoff
    // delay and presents the rejoin handshake. The jitter is seeded from the
    // plan, the node and the respawn count, not the clock: a chaos run's
    // redials replay, and a fleet knocked over at once fans them out.
    const Clock::time_point now = Clock::now();
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Slot* slot = slots_[i].get();
      if (!slot->agent->lost() || !slot->respawn_error.empty()) continue;
      if (!slot->respawn_due) {
        cluster::Backoff::Options backoff;
        backoff.seed = (plan_ ? plan_->seed : 1) * 0x9E3779B97F4A7C15ull + i +
                       (std::uint64_t{slot->respawns++} << 32);
        slot->respawn_due = now + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(
                                          cluster::Backoff(backoff).next_s()));
        continue;
      }
      if (now < *slot->respawn_due) continue;
      slot->respawn_due.reset();
      const Agent::RejoinSpec spec{slot->agent->campaign_id(), slot->agent->phases_ended()};
      try {
        slot->agent = std::make_unique<Agent>(slot->cfg, endpoint_, slot->seat, spec);
      } catch (const std::exception& e) {
        // The coordinator refuses connections: the run is over, and the lost
        // incarnation stays in the slot for the outcome.
        slot->respawn_error = e.what();
        log::warn() << "[" << slot->agent->name() << "] rejoin failed: " << e.what();
      }
    }

    // Drain chaos-delayed frames that have come due, and learn how soon the
    // next one is due so the poll timeout never overshoots it.
    double pending_due_s = 0.0;
    for (const auto& slot : slots_) {
      const double due = slot->agent->flush_pending();
      if (due > 0.0)
        pending_due_s = pending_due_s == 0.0 ? due : std::min(pending_due_s, due);
    }

    fds.clear();
    fd_agents.clear();
    bool alive = false;
    bool runnable = false;
    Clock::time_point next_wake = Clock::time_point::max();
    for (const auto& slot : slots_) {
      Agent& agent = *slot->agent;
      if (slot->respawn_due) {
        next_wake = std::min(next_wake, *slot->respawn_due);
        alive = true;
      }
      if (agent.wait() == Agent::Wait::kDone) continue;
      alive = true;
      if (agent.wait() == Agent::Wait::kRun) runnable = true;
      if (agent.wait() == Agent::Wait::kFrame) {
        fds.push_back(pollfd{agent.fd(), POLLIN, 0});
        fd_agents.push_back(&agent);
      }
      next_wake = std::min(next_wake, agent.next_wake());
    }
    if (!alive) break;

    // Every wait is bounded, so next_wake is always finite while anyone is
    // alive; 600 s only caps the poll(2) argument.
    int timeout_ms = 0;
    if (!runnable) {
      const auto until =
          std::chrono::duration_cast<std::chrono::milliseconds>(next_wake - Clock::now());
      timeout_ms = static_cast<int>(std::clamp<long long>(until.count() + 1, 0, 600000));
    }
    if (pending_due_s > 0.0)
      timeout_ms = std::min(timeout_ms, static_cast<int>(pending_due_s * 1000.0) + 1);
    const Clock::time_point poll_begin = Clock::now();
    const int ready = ::poll(fds.empty() ? nullptr : fds.data(), fds.size(), timeout_ms);
    poll_wait.record(std::chrono::duration<double>(Clock::now() - poll_begin).count());
    if (ready < 0) {
      if (errno == EINTR) continue;
      for (Agent* agent : fd_agents) agent->on_readable();
      break;
    }

    // Epoch wakes and barrier releases first — every agent's begin bracket
    // hits the wire before any agent starts its phase compute.
    const Clock::time_point wake_now = Clock::now();
    for (const auto& slot : slots_)
      if (wake_now >= slot->agent->next_wake()) slot->agent->on_time();
    if (ready > 0)
      for (std::size_t k = 0; k < fds.size(); ++k)
        if (fds[k].revents & (POLLIN | POLLHUP | POLLERR)) fd_agents[k]->on_readable();
    for (const auto& slot : slots_)
      if (slot->agent->wait() == Agent::Wait::kRun) slot->agent->advance();
  }

  outcomes_.clear();
  for (const auto& slot : slots_) {
    const Agent& agent = *slot->agent;
    Outcome outcome;
    outcome.name = agent.name();
    outcome.ok = agent.wait() == Agent::Wait::kDone && !agent.failed() && !agent.lost();
    outcome.error = !slot->respawn_error.empty() ? "rejoin failed: " + slot->respawn_error
                                                 : agent.error();
    if (!outcome.ok && outcome.error.empty()) outcome.error = "fleet stalled";
    outcomes_.push_back(std::move(outcome));
  }
}

bool AgentFleet::all_ok() const {
  for (const Outcome& outcome : outcomes_)
    if (!outcome.ok) return false;
  return true;
}

}  // namespace fs2::firestarter
