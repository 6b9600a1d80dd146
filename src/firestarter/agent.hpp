#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/fault_injection.hpp"
#include "cluster/messages.hpp"
#include "cluster/remote_sink.hpp"
#include "cluster/transport.hpp"
#include "firestarter/config.hpp"
#include "firestarter/phase_runner.hpp"
#include "telemetry/bus.hpp"
#include "trace/metric_delta.hpp"
#include "trace/registry.hpp"
#include "trace/trace_event.hpp"

namespace fs2::firestarter {

/// Bounds on every wait an agent makes on the coordinator. A wait that runs
/// out ends the incarnation (before admission, or after the verdict, it
/// fails the agent).
inline constexpr double kHandshakeTimeoutS = 30.0;  ///< hello/ack -> campaign + epoch
inline constexpr double kBudgetAssignTimeoutS = 60.0;
inline constexpr double kPhaseGoTimeoutS = 600.0;   ///< also verdict -> shutdown
inline constexpr double kRejoinAckTimeoutS = 10.0;

/// The SKU an agent announces in its hello, e.g. "sim-zen2@1500MHz".
std::string agent_sku(const Config& cfg);

/// What outlives one agent incarnation, owned by its driver: the registry
/// the live metrics plane ships from and the watermark of what the
/// coordinator has already folded (so a rejoined replacement continues the
/// node's series instead of re-shipping them), and the link's chaos fault
/// stream (so a replacement continues the schedule instead of replaying
/// it).
struct AgentSeat {
  /// `plan` (may be null) must outlive the seat.
  AgentSeat(trace::Registry& r, const cluster::FaultPlan* plan, const std::string& node)
      : registry(r), tracker(r), plan(plan) {
    if (plan != nullptr && plan->link_faults_enabled()) faults.emplace(plan->link(node));
  }
  AgentSeat(const AgentSeat&) = delete;  // connections point at `faults`
  AgentSeat& operator=(const AgentSeat&) = delete;

  trace::Registry& registry;
  trace::MetricDeltaTracker tracker;
  const cluster::FaultPlan* plan;            ///< kill/stall cues, first incarnation only
  std::optional<cluster::LinkFaults> faults;
  /// The process-global registry marks the process's only agent (--agent):
  /// it also owns the process-wide span tracer and logs its verdicts.
  bool process_wide() const { return &registry == &trace::Registry::instance(); }
};

/// One node's side of a coordinated run as a cooperative state machine:
/// it dials the coordinator, says hello (or presents a rejoin), answers
/// clock-sync probes, takes the campaign and the shared epoch, then runs
/// the campaign's phases through a PhaseRunner — yielding to its driver
/// wherever the protocol waits (epoch, phase-go barriers, budget
/// reassignments, host sampling ticks, shutdown). Every wait is bounded.
///
/// An incarnation ends done, failed, or lost. Lost means the link went
/// away after admission (a wire error, a missed deadline, a chaos kill);
/// the driver then starts a replacement that presents `rejoin` with the
/// phases this one completed.
class Agent {
 public:
  using Clock = std::chrono::steady_clock;

  /// What the agent is blocked on.
  enum class Wait {
    kFrame,  ///< a coordinator frame (poll the socket) until next_wake()
    kUntil,  ///< a point in time: next_wake()
    kRun,    ///< nothing — runnable; the driver should advance() it
    kDone,   ///< finished (cleanly, failed(), or lost())
  };

  /// A replacement incarnation's credentials: instead of hello it presents
  /// kRejoin with these and resumes the campaign where its predecessor
  /// ended.
  struct RejoinSpec {
    std::uint64_t campaign_id = 0;
    std::uint32_t phases_ended = 0;
  };

  /// Connects and sends hello (or the rejoin handshake) immediately, so the
  /// coordinator's handshake finds every agent already dialed in. Throws
  /// when the coordinator cannot be reached. The seat's kill/stall cues
  /// fire once per run: a rejoined incarnation does not re-arm them.
  Agent(Config cfg, const std::string& endpoint, AgentSeat& seat,
        std::optional<RejoinSpec> rejoin = std::nullopt);
  Agent(const Agent&) = delete;  // the sink points at conn_
  Agent& operator=(const Agent&) = delete;

  Wait wait() const { return wait_; }
  int fd() const { return conn_.fd(); }
  /// When on_time() is due: the end of a kUntil wait, or the deadline of a
  /// kFrame wait; time_point::max() otherwise.
  Clock::time_point next_wake() const;
  const std::string& name() const { return node_name_; }
  bool failed() const { return failed_; }
  bool lost() const { return lost_; }
  const std::string& error() const { return error_; }
  std::uint64_t campaign_id() const { return campaign_.campaign_id; }
  std::uint32_t phases_ended() const { return phases_ended_; }

  /// Write any delay-held frames that have come due; returns seconds until
  /// the next held frame (0 = none pending). The driver bounds its poll
  /// timeout by the result, so chaos-delayed frames drain even while the
  /// agent itself is blocked.
  double flush_pending();

  /// Drain and handle every frame the socket has ready. Cheap: protocol
  /// transitions only — phase work happens in advance(), so a barrier
  /// release reaches a whole fleet before any node starts burning time
  /// (keeping begin-bracket spreads tight).
  void on_readable();

  /// next_wake() passed: the epoch arrived, a stall or host tick ended, or
  /// a frame wait ran out.
  void on_time();

  /// Run the current phase until it yields (budget exchange, host tick) or
  /// completes (end bracket sent, next phase awaited / verdict sent).
  void advance();

 private:
  enum class State {
    kAwaitRejoinAck,
    kHandshake,
    kWaitStart,
    kRunPhase,
    kAwaitAssign,
    kAwaitGo,
    kAwaitShutdown,
    kDone,
  };

  /// Run `fn`; a wire error loses the link, anything else fails the agent.
  template <class Fn>
  void guarded(Fn&& fn);
  /// Wait for a coordinator frame (`what`) in `state`, for at most
  /// `timeout_s`.
  void expect(State state, const char* what, double timeout_s);
  void handle_frame(const cluster::Frame& frame);
  void prepare_campaign();
  void begin_phase();
  void finish_phase();
  /// Final metrics flush + span ship + convergence verdict; await shutdown.
  void send_verdict();
  void send_budget_report();
  void fail(const std::string& what);
  /// End this incarnation without ceremony (mid-stream, as a real crash
  /// would) so the driver starts a rejoining replacement. Before admission
  /// there is nothing to rejoin: the agent fails instead.
  void lose(const std::string& why);
  bool admitted() const { return have_campaign_ && have_epoch_; }
  /// True when the kill cue is due at the current point (phase begin or
  /// epoch-elapsed time).
  bool kill_due() const;
  /// Arm the stall window if its cue time has passed: the agent stops
  /// reading and writing (socket stays open) until the window ends.
  bool maybe_stall();
  /// Ship one kMetricUpdate delta when the wall-clock cadence is due
  /// (`force` flushes regardless — the final delta before the verdict).
  void maybe_ship_metrics(bool force = false);
  double epoch_elapsed_s() const;
  bool tracing() const { return campaign_.trace_enabled != 0; }
  /// Close the open barrier/budget wait span (no-op when none is open).
  void close_wait_span(const char* name);

  Config cfg_;
  std::string node_name_;
  AgentSeat& seat_;
  cluster::Connection conn_;
  State state_ = State::kHandshake;
  Wait wait_ = Wait::kFrame;
  bool failed_ = false;
  bool lost_ = false;
  std::string error_;
  Clock::time_point deadline_ = Clock::time_point::max();  ///< of a kFrame wait
  const char* awaited_ = "";     ///< what the kFrame wait is for
  double wait_bound_s_ = 0.0;    ///< ... and its bound
  Clock::time_point wake_time_;  ///< of a kUntil wait

  std::optional<cluster::KillCue> kill_cue_;
  std::optional<cluster::StallCue> stall_cue_;
  bool stall_fired_ = false;
  bool stalled_ = false;
  Wait stall_resume_ = Wait::kRun;  ///< wait to restore when the stall ends
  std::uint32_t phases_ended_ = 0;

  std::optional<RejoinSpec> rejoin_;
  std::uint32_t resume_phase_ = 0;

  // Handshake results.
  bool have_campaign_ = false;
  bool have_epoch_ = false;
  cluster::CampaignMsg campaign_;
  Clock::time_point epoch_time_;

  // Campaign state (valid after prepare_campaign()).
  telemetry::TelemetryBus bus_;
  std::unique_ptr<cluster::RemoteSink> sink_;
  std::unique_ptr<PhaseResolver> phases_;
  std::unique_ptr<PhaseRunner> runner_;
  std::size_t phase_index_ = 0;
  double current_setpoint_w_ = 0.0;
  double next_budget_s_ = 0.0;
  std::uint32_t budget_seq_ = 0;
  /// The budget exchange's metrics in seat_.registry, looked up on this
  /// incarnation's first exchange: a registry lookup takes its mutex.
  struct BudgetMetrics {
    trace::Counter& exchanges;
    trace::Gauge& achieved_w;
    trace::Gauge& setpoint_w;
    trace::Gauge& level;
    trace::Histogram& ctl_error_w;
  };
  std::optional<BudgetMetrics> budget_metrics_;
  double next_metrics_s_ = 0.0;
  std::uint32_t metrics_seq_ = 0;

  // Observability (campaign_.trace_enabled): an explicit span buffer.
  // Hundreds of loopback agents share one thread, so the thread-local
  // tracer cannot attribute spans per node; phase and wait boundaries are
  // cold, so owned-string spans are fine here.
  std::vector<trace::Span> spans_;
  double phase_open_s_ = 0.0;  ///< begin of the running phase span
  double wait_open_s_ = 0.0;   ///< begin of the open barrier/budget wait (0 = none)
};

/// Drives agents on ONE thread: a poll(2) loop over every agent's socket, a
/// run queue for agents with phase work pending, and replacements for lost
/// incarnations (after a seeded backoff delay). `fs2 --agent` runs one
/// agent through it; SimFleet runs a whole --loopback fleet.
class AgentFleet {
 public:
  /// `plan` (may be null; copied) arms each agent's chaos faults and cues.
  explicit AgentFleet(std::string endpoint, const cluster::FaultPlan* plan = nullptr);
  AgentFleet(const AgentFleet&) = delete;  // seats point into plan_
  AgentFleet& operator=(const AgentFleet&) = delete;
  ~AgentFleet();

  /// Dial in one agent (throws when the coordinator cannot be reached).
  /// `registry` (may be null) is where its metrics plane reads; null gives
  /// the agent a private one — agents sharing a process cannot attribute
  /// per-node series through the global registry.
  void add(Config cfg, trace::Registry* registry = nullptr);

  /// Run every agent to completion. Never throws — per-agent failures are
  /// recorded; the outcome row reflects the final incarnation.
  void run();

  struct Outcome {
    std::string name;
    bool ok = true;
    std::string error;
  };
  const std::vector<Outcome>& outcomes() const { return outcomes_; }
  bool all_ok() const;

 private:
  struct Slot;

  std::string endpoint_;
  std::optional<cluster::FaultPlan> plan_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<Outcome> outcomes_;
};

}  // namespace fs2::firestarter
