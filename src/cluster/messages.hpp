#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/wire.hpp"
#include "telemetry/sample.hpp"
#include "trace/metric_delta.hpp"
#include "trace/registry.hpp"
#include "trace/trace_event.hpp"

namespace fs2::cluster {

/// Protocol version: bumped on any wire-incompatible change. The hello
/// exchange rejects mismatches up front instead of failing mysteriously
/// mid-campaign. v2: per-node summaries are computed at the edge and ship
/// as kNodeSummary rows; sample batches cross the wire only for channels
/// that feed cluster aggregates. v3: observability — trace span buffers and
/// counter snapshots ship after the campaign (kTraceSpans/kCounterSnapshot,
/// CampaignMsg.trace_enabled), and the status plane adds the
/// kStatusRequest/kStatusReply introspection pair. v4: live metrics plane —
/// agents stream incremental registry deltas mid-run (kMetricUpdate,
/// CampaignMsg.metrics_interval_s) and ship a flight-recorder dump on
/// abnormal exit (kFlightRecord); status replies carry per-node health
/// (lost flag, metric-update age) plus the coordinator's alert log. v5:
/// chaos hardening — campaigns carry a run-unique campaign id, lost agents
/// reconnect and present a kRejoin/kRejoinAck handshake (node name +
/// campaign id + last completed phase), and status node rows count rejoins.
constexpr std::uint32_t kProtocolVersion = 5;

/// One framed message on the coordinator<->agent TCP stream. The transport
/// prefixes `u32 length` (payload size + 1 for the type byte); the first
/// payload byte is the MessageType.
enum class MessageType : std::uint8_t {
  kHello = 1,        ///< agent -> coordinator: identity + protocol version
  kSyncProbe = 2,    ///< coordinator -> agent: clock-sync ping
  kSyncReply = 3,    ///< agent -> coordinator: ping echo + agent clock
  kCampaign = 4,     ///< coordinator -> agent: campaign text + run options
  kEpoch = 5,        ///< coordinator -> agent: shared start time (agent clock)
  kChannel = 6,      ///< agent -> coordinator: telemetry channel registration
  kPhaseBracket = 7, ///< agent -> coordinator: phase begin/end marker
  kSampleBatch = 8,  ///< agent -> coordinator: batched telemetry samples
  kPhaseGo = 9,      ///< coordinator -> agent: all nodes ready, start phase k
  kBudgetReport = 10,///< agent -> coordinator: achieved watts this interval
  kBudgetAssign = 11,///< coordinator -> agent: new per-node power setpoint
  kVerdict = 12,     ///< agent -> coordinator: end-of-campaign convergence
  kShutdown = 13,    ///< coordinator -> agent: run over, disconnect
  kNodeSummary = 14, ///< agent -> coordinator: one edge-aggregated summary row
  kTraceSpans = 15,  ///< agent -> coordinator: node-local trace span buffer
  kCounterSnapshot = 16, ///< agent -> coordinator: counter/gauge registry snapshot
  kStatusRequest = 17,   ///< any client -> coordinator: live fleet health probe
  kStatusReply = 18,     ///< coordinator -> client: fleet health snapshot
  kMetricUpdate = 19,    ///< agent -> coordinator: incremental registry delta
  kFlightRecord = 20,    ///< agent -> coordinator: flight-recorder dump (abnormal exit)
  kRejoin = 21,          ///< agent -> coordinator: reconnect handshake after a loss
  kRejoinAck = 22,       ///< coordinator -> agent: rejoin verdict + resume phase
};

const char* to_string(MessageType type);

struct Frame {
  MessageType type = MessageType::kShutdown;
  std::vector<std::uint8_t> payload;
};

// ---- message structs --------------------------------------------------------
//
// Each struct encodes itself into a Frame and decodes from a WireReader
// positioned after the type byte. The wire layout of each struct, and of
// each record nested in one, is its `fields` list in messages.cpp, which
// names the fields in their declaration order here; docs/cluster.md lists
// the message types.

struct HelloMsg {
  std::uint32_t version = kProtocolVersion;
  std::string node_name;
  std::string sku;  ///< e.g. "sim-zen2@1500MHz" or "host"
  Frame encode() const;
  static HelloMsg decode(WireReader& in);
};

struct SyncProbeMsg {
  std::uint32_t seq = 0;
  double t_coord_s = 0.0;  ///< coordinator steady-clock seconds at send
  Frame encode() const;
  static SyncProbeMsg decode(WireReader& in);
};

struct SyncReplyMsg {
  std::uint32_t seq = 0;
  double t_coord_s = 0.0;  ///< echoed from the probe
  double t_agent_s = 0.0;  ///< agent steady-clock seconds at reply
  Frame encode() const;
  static SyncReplyMsg decode(WireReader& in);
};

struct CampaignMsg {
  std::string campaign_text;      ///< the campaign file, verbatim
  std::uint8_t has_budget = 0;    ///< 1 = run every phase under budget control
  double initial_setpoint_w = 0;  ///< this node's starting power share
  double ctl_interval_s = 0.25;   ///< per-node controller tick period
  double budget_interval_s = 0.5; ///< report/assign exchange cadence
  double budget_band = 0.02;      ///< convergence band (informational)
  std::uint8_t trace_enabled = 0; ///< 1 = record spans, ship kTraceSpans at end
  /// kMetricUpdate cadence in seconds; 0 disables in-run metric shipping.
  double metrics_interval_s = 1.0;
  /// Run-unique id (derived from the coordinator's seed + start time). A
  /// rejoining agent echoes it so the coordinator can tell "my agent coming
  /// back" from "an agent of some other run dialing the wrong port".
  std::uint64_t campaign_id = 0;
  Frame encode() const;
  static CampaignMsg decode(WireReader& in);
};

struct EpochMsg {
  double t0_agent_s = 0.0;  ///< campaign start, in the AGENT's steady clock
  double offset_s = 0.0;    ///< estimated agent-minus-coordinator clock offset
  double rtt_s = 0.0;       ///< round-trip time of the best sync sample
  Frame encode() const;
  static EpochMsg decode(WireReader& in);
};

struct ChannelMsg {
  std::uint32_t channel_id = 0;  ///< agent-local TelemetryBus channel id
  std::string name;
  std::string unit;
  std::uint8_t trim_phase = 1;   ///< telemetry::TrimMode::kPhase
  std::uint8_t summarize = 1;
  Frame encode() const;
  static ChannelMsg decode(WireReader& in);
};

struct PhaseBracketMsg {
  std::uint8_t is_begin = 1;
  std::uint32_t phase_index = 0;
  std::string phase_name;
  double duration_s = 0.0;
  double time_offset_s = 0.0;   ///< campaign time of the phase start
  double start_delta_s = 0.0;   ///< trim deltas (begin only)
  double stop_delta_s = 0.0;
  /// Wall-clock seconds since the shared epoch at the moment the bracket
  /// was emitted — what the coordinator compares across nodes to verify
  /// lockstep (begin brackets) and report phase wall durations (end).
  double epoch_elapsed_s = 0.0;
  Frame encode() const;
  static PhaseBracketMsg decode(WireReader& in);
};

/// The hot message: every telemetry sample of every node crosses the wire
/// inside one of these. The payload is `u32 channel | u32 count | count x
/// (f64 time, f64 value)` — i.e. exactly a telemetry::Sample array in
/// little-endian, so on little-endian hosts encode and decode are single
/// memcpys. Senders and the coordinator use the *_into variants with
/// reused scratch buffers; the allocating encode()/decode() remain for
/// cold paths and tests.
struct SampleBatchMsg {
  std::uint32_t channel_id = 0;
  std::vector<telemetry::Sample> samples;  ///< phase-local timestamps

  Frame encode() const;
  static SampleBatchMsg decode(WireReader& in);

  /// Encode straight from a sample array into a reused writer (cleared
  /// here) — no intermediate message object, no allocation once the writer
  /// has warmed up.
  static void encode_into(WireWriter& w, std::uint32_t channel_id,
                          const telemetry::Sample* samples, std::size_t count);
  /// Decode reusing `out`'s sample-vector capacity.
  static void decode_into(WireReader& in, SampleBatchMsg& out);
};

/// One per-phase, per-channel summary row aggregated ON THE NODE (the same
/// SummarySink a local run uses, so values are identical to what the
/// coordinator's replay used to produce) and shipped at phase end, before
/// the end bracket. The coordinator stores rows verbatim instead of
/// re-deriving them from sample batches — O(rows) per phase instead of
/// O(samples), which is what lets one coordinator hold hundreds of
/// streaming agents.
struct NodeSummaryMsg {
  std::uint32_t phase_index = 0;
  std::string name;
  std::string unit;
  std::uint64_t samples = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  Frame encode() const;
  static NodeSummaryMsg decode(WireReader& in);
};

struct PhaseGoMsg {
  std::uint32_t phase_index = 0;
  Frame encode() const;
  static PhaseGoMsg decode(WireReader& in);
};

struct BudgetReportMsg {
  std::uint32_t seq = 0;         ///< per-node report counter
  double achieved_w = 0.0;       ///< trailing-mean measured power
  double setpoint_w = 0.0;       ///< the node's current setpoint
  double level = 0.0;            ///< commanded load level (saturation signal)
  Frame encode() const;
  static BudgetReportMsg decode(WireReader& in);
};

struct BudgetAssignMsg {
  std::uint32_t seq = 0;         ///< echoes the report
  double setpoint_w = 0.0;
  Frame encode() const;
  static BudgetAssignMsg decode(WireReader& in);
};

struct VerdictMsg {
  std::uint8_t converged = 1;
  std::string detail;            ///< human-readable one-liner for the log
  Frame encode() const;
  static VerdictMsg decode(WireReader& in);
};

struct ShutdownMsg {
  std::uint8_t ok = 1;
  Frame encode() const;
  static ShutdownMsg decode(WireReader& in);
};

/// A node's buffered trace spans, shipped once after the last phase (before
/// the verdict). Timestamps stay in the AGENT's steady clock — the
/// coordinator rebases them through the handshake's clock-sync offset when
/// it merges the fleet timeline.
struct TraceSpansMsg {
  std::vector<trace::Span> spans;
  std::uint64_t dropped = 0;  ///< ring overflow count (0 = lossless)
  Frame encode() const;
  static TraceSpansMsg decode(WireReader& in);
};

/// End-of-run counter/gauge registry snapshot (one entry per metric).
struct CounterSnapshotMsg {
  std::vector<trace::MetricSnapshot> counters;
  Frame encode() const;
  static CounterSnapshotMsg decode(WireReader& in);
};

/// Incremental registry delta, shipped every CampaignMsg.metrics_interval_s
/// seconds while a campaign runs. Counter deltas and histogram bucket
/// increments are associative sums the coordinator folds into per-node and
/// fleet-rollup series; gauges are last-write-wins. Metric definitions
/// (id -> name/kind) ship once, the first interval each metric exists.
struct MetricUpdateMsg {
  std::uint32_t seq = 0;      ///< per-connection update counter
  double t_agent_s = 0.0;     ///< epoch-elapsed seconds on the agent clock
  trace::MetricDelta delta;
  Frame encode() const;
  static MetricUpdateMsg decode(WireReader& in);
};

/// A node's flight-recorder dump, shipped on abnormal exit so the
/// coordinator's post-mortem does not depend on reaching the node's disk.
struct FlightRecordMsg {
  std::string reason;  ///< one-liner: what killed the node
  std::string dump;    ///< FlightRecorder::serialize() text
  Frame encode() const;
  static FlightRecordMsg decode(WireReader& in);
};

/// Reconnect handshake: a previously-admitted agent dialing back in after
/// losing its connection. Sent instead of kHello on the fresh socket; the
/// coordinator validates the (name, campaign id) pair against its node
/// table, answers kRejoinAck, re-runs clock sync, and re-ships the
/// campaign + epoch so the agent can resume at the acked phase.
struct RejoinMsg {
  std::uint32_t version = kProtocolVersion;
  std::string node_name;
  std::uint64_t campaign_id = 0;
  std::uint32_t phases_ended = 0;  ///< last completed phase count on the agent
  Frame encode() const;
  static RejoinMsg decode(WireReader& in);
};

/// The coordinator's rejoin verdict. `resume_phase` is the phase the agent
/// must run next — the coordinator's released-barrier prefix, which may be
/// ahead of the agent's own count when phase-gos were lost with the
/// connection. On resume_phase == phase count the agent goes straight to
/// its verdict. `accepted == 0` means the handshake was refused (unknown
/// node, wrong campaign, stale protocol); `detail` says why.
struct RejoinAckMsg {
  std::uint8_t accepted = 0;
  std::uint32_t resume_phase = 0;
  std::string detail;
  Frame encode() const;
  static RejoinAckMsg decode(WireReader& in);
};

/// Live health probe. Any TCP client may connect to the coordinator port,
/// send one of these, and read back a single kStatusReply — the connection
/// is closed afterwards and never counts against --nodes.
struct StatusRequestMsg {
  std::uint32_t version = kProtocolVersion;
  Frame encode() const;
  static StatusRequestMsg decode(WireReader& in);
};

/// One node's health row inside a status reply.
struct StatusNodeRec {
  std::string name;
  std::string sku;
  std::uint8_t connected = 1;
  std::uint32_t phases_begun = 0;
  std::uint32_t phases_ended = 0;
  double clock_offset_s = 0.0;  ///< agent minus coordinator
  double clock_rtt_s = 0.0;
  double achieved_w = 0.0;      ///< latest budget report (0 until one lands)
  double setpoint_w = 0.0;
  double level = 0.0;
  std::uint8_t lost = 0;        ///< connection dropped mid-campaign
  /// Seconds since the node's last kMetricUpdate (-1 = none yet / disabled).
  double last_metrics_age_s = -1.0;
  std::uint32_t rejoins = 0;    ///< successful reconnect handshakes
};

/// One phase's begin-spread row inside a status reply.
struct StatusSpreadRec {
  std::string phase;
  std::string min_node;  ///< earliest beginner
  std::string max_node;  ///< latest beginner (the straggler)
  double min_begin_s = 0.0;
  double max_begin_s = 0.0;
  std::uint32_t nodes = 0;
};

/// One anomaly-detector alert inside a status reply.
struct StatusAlertRec {
  std::string kind;    ///< "flatline" | "divergence" | "straggler" | "node-lost"
  std::string node;    ///< offending node ("" = fleet-wide)
  std::string detail;
  double t_s = 0.0;    ///< coordinator epoch-elapsed seconds
};

/// Fleet health snapshot: what `firestarter --status host:port` prints.
struct StatusReplyMsg {
  std::uint8_t accepting = 0;      ///< 1 = handshake window, campaign not started
  std::uint32_t nodes_expected = 0;
  std::uint32_t phase_count = 0;
  std::uint64_t queued_samples = 0;  ///< coordinator-side aggregate lag
  double budget_w = 0.0;             ///< global power budget (0 = none)
  /// 0 when any node is unhealthy (lost, flat-lined, diverged, straggling) —
  /// `firestarter --status` exits nonzero on this, so scripts can gate on
  /// fleet health without parsing the table.
  std::uint8_t fleet_healthy = 1;
  std::vector<StatusNodeRec> nodes;
  std::vector<StatusSpreadRec> spreads;
  std::vector<trace::MetricSnapshot> counters;  ///< coordinator registry
  std::vector<StatusAlertRec> alerts;           ///< anomaly log, oldest first
  Frame encode() const;
  static StatusReplyMsg decode(WireReader& in);
};

}  // namespace fs2::cluster
