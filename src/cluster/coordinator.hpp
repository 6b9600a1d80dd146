#pragma once

#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "cluster/clock_sync.hpp"
#include "cluster/cluster_bus.hpp"
#include "cluster/metrics_plane.hpp"
#include "cluster/transport.hpp"
#include "control/budget.hpp"
#include "control/setpoint.hpp"
#include "trace/trace_event.hpp"

namespace fs2::cluster {

/// The fleet conductor. One event loop, from the first accept to shutdown,
/// admits N agents, clock-syncing them concurrently (RTT-compensated offset
/// estimation), hands out the campaign and a shared epoch, merges streamed
/// telemetry through a ClusterBus, barriers phase transitions, answers
/// budget reports with reapportioned per-node setpoints, re-admits
/// rejoining agents, serves status probes and scrapes, and collects
/// end-of-campaign verdicts.
class Coordinator {
 public:
  struct Options {
    std::uint16_t port = 0;         ///< 0 = ephemeral (loopback tests)
    /// Bind 127.0.0.1 instead of all interfaces, and listen on
    /// local_name(port) too, where an in-process fleet (SimFleet) dials in
    /// over AF_UNIX.
    bool loopback_only = false;
    std::size_t nodes = 0;
    std::string campaign_text;
    /// Per-node campaign texts, indexed by HELLO order (empty = every node
    /// gets `campaign_text`). The fuzz sweep's fan-out hook: each agent
    /// runs a different candidate per phase while phase names, durations,
    /// and count stay identical across nodes — so barriers, phase-major
    /// row merging, and sync verdicts work unchanged. When set, its size
    /// must equal `nodes`.
    std::vector<std::string> per_node_campaigns;
    std::size_t phase_count = 0;
    /// The global power budget (--target cluster-power=NNNW); nullopt runs
    /// the fleet open-loop (profiles/targets straight from the campaign).
    std::optional<control::Setpoint> budget;
    double ctl_interval_s = 0.25;   ///< per-node controller tick under budget
    double start_delay_s = 0.5;     ///< epoch lead time after the last admission
    double sync_tolerance_s = 0.25; ///< max allowed phase-begin spread
    double accept_timeout_s = 60.0; ///< the longest wait for the next node's admission
    std::uint64_t seed = 0;         ///< echoed into logs only
    /// Fleet tracing (--trace-out): agents record spans and ship them with
    /// a counter snapshot before their verdict; the coordinator rebases
    /// every buffer through the clock-sync offsets into Result.trace.
    bool trace = false;
    /// kMetricUpdate cadence handed to every agent (--metrics-interval);
    /// 0 disables the live metrics plane (and flat-line detection with it).
    double metrics_interval_s = 1.0;
    /// How long a lost node may take to reconnect and rejoin before the
    /// coordinator gives up on it (waives its barrier votes, records a NOT
    /// converged verdict). While the window is open the fleet HOLDS at the
    /// node's next barrier — a rejoined node must contribute to every
    /// remaining phase, not limp in after the campaign moved on. 0 gives up
    /// immediately (the pre-rejoin behavior).
    double rejoin_grace_s = 2.0;
  };

  struct NodeInfo {
    std::string name;
    std::string sku;
    double clock_offset_s = 0.0;
    double rtt_s = 0.0;
    bool converged = true;
    std::string verdict_detail;
    std::uint32_t rejoins = 0;  ///< accepted kRejoin handshakes for this node
  };

  struct PhaseBudgetVerdict {
    std::string phase;
    double trailing_total_w = 0.0;
    bool converged = false;
  };

  struct Result {
    std::vector<ClusterBus::Row> rows;            ///< merged summary rows
    std::vector<ClusterBus::PhaseSync> sync;      ///< per-phase begin spreads
    std::vector<NodeInfo> nodes;
    std::vector<PhaseBudgetVerdict> budget_phases;
    /// Merged fleet timeline (Options::trace): every node's spans rebased
    /// into the coordinator clock, ready for trace_event JSON export.
    trace::TraceCollector trace;
    /// Anomaly log, oldest first (flat-lines, divergence, stragglers,
    /// node losses) — also folded into `trace` as zero-width alert spans.
    std::vector<Alert> alerts;
    bool nodes_converged = true;   ///< every node verdict (controlled phases)
    bool budget_converged = true;  ///< every phase's trailing total in band
    bool sync_ok = true;           ///< every spread within tolerance
    bool converged() const { return nodes_converged && budget_converged && sync_ok; }
  };

  /// Binds the listeners immediately so port() is valid before agents spawn.
  explicit Coordinator(Options options);

  std::uint16_t port() const { return listener_.port(); }

  /// Admission, campaign and shutdown, all in one event loop. `log`
  /// receives human-readable progress lines. Throws when the fleet does not
  /// assemble or stalls.
  Result run(std::ostream& log);

 private:
  struct Node {
    Connection conn;
    NodeInfo info;
    std::uint32_t phases_begun = 0;
    std::uint32_t phases_ended = 0;
    bool verdict_received = false;
    /// Connection dropped mid-campaign. Loss opens a rejoin grace window
    /// (Options::rejoin_grace_s): the node's budget share flows to the
    /// survivors immediately, but its barrier votes still count — the fleet
    /// holds for a node that may come back. If the window expires the node
    /// is GIVEN UP: votes waived, verdict recorded as NOT converged, and
    /// the campaign runs on with the survivors.
    bool lost = false;
    bool given_up = false;        ///< grace expired; no rejoin accepted
    double lost_since_s = 0.0;    ///< local clock at loss (grace bookkeeping)
    std::string lost_why;         ///< first loss reason, for the give-up verdict
    // Latest budget exchange, surfaced on the status plane.
    double achieved_w = 0.0;
    double setpoint_w = 0.0;
    double level = 0.0;
    std::size_t hello = 0;  ///< place in hello order, which node order follows
  };

  /// A connection that is not (yet) a node, polled alongside the nodes. It
  /// awaits its first message (a hello, a rejoin, a status request or an
  /// HTTP scrape), or it is a hello or a rejoin in clock sync.
  struct Joiner {
    enum class Stage : std::uint8_t { kGreeting, kHelloSync, kRejoinSync };
    Connection conn;
    double deadline_s = 0.0;  ///< hello window, then each sync reply's bound
    Stage stage = Stage::kGreeting;
    std::string head;         ///< bytes of the first message read so far
    ClockSync sync;
    NodeInfo info;            ///< hello: the node's name and SKU
    std::size_t order = 0;    ///< hello: its place in hello order; rejoin: the node
    std::uint32_t resume = 0; ///< rejoin: the acked resume phase
  };

  void event_loop(std::ostream& log);
  /// Take `listener`'s whole backlog into joiners_.
  void accept_joiners(Listener& listener, double now);
  /// A joiner dropped while the fleet assembles is counted, and the last
  /// reason kept, for the admission timeout's error.
  void note_dropped_joiner(const std::string& why);
  /// Advance one readable joiner. A joiner that is served, admitted,
  /// re-admitted or dropped is left with no connection.
  void serve_joiner(Joiner& joiner, std::ostream& log);
  /// Validate a kRejoin and ack it; an accepted rejoin goes on to clock sync.
  bool ack_rejoin(Joiner& joiner, const RejoinMsg& msg);
  /// A rejoin's sync completed: replay the campaign, the epoch and any
  /// missed phase-go on the fresh socket, then flip the node back to alive.
  void readmit(Joiner& joiner, std::ostream& log);
  /// Every node is admitted: name the fleet, size the merge and the
  /// detector, and hand each node its campaign and the shared epoch.
  void start_campaign(std::ostream& log);
  /// The campaign and the epoch (in the agent's clock) for node `index`: the
  /// tail of every admission, a first join and a rejoin alike.
  void send_campaign(Connection& conn, std::size_t index, double offset_s, double rtt_s);
  void handle_frame(std::size_t node, const Frame& frame, std::ostream& log);
  void record_budget_phase(std::uint32_t phase_index);
  /// Fleet health snapshot for the status plane. `accepting` = the campaign
  /// has not started yet.
  StatusReplyMsg build_status(bool accepting) const;

  std::size_t alive_nodes() const;
  /// Nodes whose barrier votes still count: everyone not given up —
  /// including lost nodes inside their rejoin grace window.
  std::size_t voting_nodes() const;
  double epoch_elapsed_s() const;
  /// Release the phase barrier once every VOTING node has ended the phase —
  /// re-checked on end brackets, on give-up (so a crashed node cannot wedge
  /// the survivors forever), and on rejoin (credited end brackets).
  void maybe_release_phase(std::uint32_t phase_index, std::ostream& log);
  void mark_node_lost(std::size_t index, const std::string& why, std::ostream& log);
  /// The rejoin grace window expired: waive the node's barrier votes and
  /// record its NOT-converged verdict. Loss with rejoin_grace_s == 0 lands
  /// here immediately.
  void give_up_node(std::size_t index, std::ostream& log);
  /// Expire grace windows of lost nodes that never came back.
  void sweep_rejoin_grace(std::ostream& log);
  /// Drain newly raised detector alerts into the log, the trace timeline,
  /// the flight recorder, and Result.alerts.
  void process_new_alerts(std::ostream& log);
  /// The /metrics payload rendered from live state.
  std::string render_exposition() const;

  Options options_;
  Listener listener_;
  Listener local_listener_;  ///< Listener::local beside a loopback_only listener_
  std::vector<Node> nodes_;  ///< admitted nodes, in hello order
  std::vector<Joiner> joiners_;
  std::size_t hellos_ = 0;   ///< hellos taken into clock sync so far
  std::size_t admission_drops_ = 0;  ///< joiners dropped before the campaign started
  std::string last_drop_;            ///< why the last of them was dropped
  SampleBatchMsg batch_scratch_;  ///< reused decode target for sample batches
  std::unique_ptr<ClusterBus> bus_;
  std::unique_ptr<control::BudgetApportioner> apportioner_;
  Result result_;
  std::vector<std::uint32_t> phase_end_counts_;
  std::vector<std::uint8_t> phase_released_;  ///< barrier already opened
  /// Local clock when the FIRST node ended each phase — the open edge of
  /// the barrier span recorded when the LAST node arrives.
  std::vector<double> phase_barrier_open_s_;
  trace::TraceCollector trace_;
  std::size_t verdicts_ = 0;
  // Live metrics plane: per-node folds of the kMetricUpdate stream plus
  // the rolling-window anomaly detector over them.
  MetricStore metrics_;
  AnomalyDetector detector_;
  double epoch_local_s_ = 0.0;  ///< coordinator clock at the shared epoch
  /// Run-unique id stamped into the campaign and echoed by every kRejoin:
  /// an agent from yesterday's run (or someone else's coordinator) cannot
  /// splice itself into this campaign.
  std::uint64_t campaign_id_ = 0;
};

}  // namespace fs2::cluster
