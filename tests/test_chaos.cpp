// Tests of the chaos/fault-injection subsystem: the --chaos grammar and its
// determinism guarantees, the seeded reconnect backoff, wire-protocol
// hardening against malformed frames of every message type, budget
// re-apportionment across loss and rejoin, admission and the rejoin
// protocol driven by hand-rolled raw connections against a live coordinator
// (concurrent clock sync, stray clients, a joiner that replies ahead, a
// node stalled mid-frame, barrier re-check, double-rejoin), and the
// end-to-end loopback fleet surviving a chaos kill.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "cluster/clock_sync.hpp"
#include "cluster/fault_injection.hpp"
#include "cluster/coordinator.hpp"
#include "cluster/metrics_plane.hpp"
#include "cluster/messages.hpp"
#include "cluster/transport.hpp"
#include "cluster/wire.hpp"
#include "control/budget.hpp"
#include "firestarter/config.hpp"
#include "firestarter/firestarter.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace {

using namespace fs2;
using namespace fs2::cluster;

// ---- FaultPlan grammar ------------------------------------------------------

TEST(FaultPlan, ParsesFullGrammar) {
  const FaultPlan plan = FaultPlan::parse(
      "seed=7,drop=1%,delay=5ms+-3ms,corrupt=0.1%,truncate=0.5%,"
      "stall=node3@t12s:2s,kill=node7@phase2,kill=node1@t30s");
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_DOUBLE_EQ(plan.drop, 0.01);
  EXPECT_DOUBLE_EQ(plan.corrupt, 0.001);
  EXPECT_DOUBLE_EQ(plan.truncate, 0.005);
  EXPECT_DOUBLE_EQ(plan.delay_s, 0.005);
  EXPECT_DOUBLE_EQ(plan.delay_jitter_s, 0.003);
  ASSERT_EQ(plan.stalls.size(), 1u);
  EXPECT_EQ(plan.stalls[0].node, "node3");
  EXPECT_DOUBLE_EQ(plan.stalls[0].t_s, 12.0);
  EXPECT_DOUBLE_EQ(plan.stalls[0].duration_s, 2.0);
  ASSERT_EQ(plan.kills.size(), 2u);
  ASSERT_TRUE(plan.kills[0].phase.has_value());
  EXPECT_EQ(*plan.kills[0].phase, 2u);
  ASSERT_TRUE(plan.kills[1].t_s.has_value());
  EXPECT_DOUBLE_EQ(*plan.kills[1].t_s, 30.0);
  // The UTF-8 ± spelling parses identically to the ASCII +-.
  const FaultPlan utf8 = FaultPlan::parse("delay=5ms\xc2\xb1"
                                          "3ms");
  EXPECT_DOUBLE_EQ(utf8.delay_s, plan.delay_s);
  EXPECT_DOUBLE_EQ(utf8.delay_jitter_s, plan.delay_jitter_s);
}

TEST(FaultPlan, DescribeRoundTripsThroughParse) {
  const char* spec =
      "seed=11,drop=2%,corrupt=0.1%,delay=2ms+-1ms,kill=node5@phase1,"
      "stall=node3@t12s:2s";
  const FaultPlan plan = FaultPlan::parse(spec);
  const FaultPlan replay = FaultPlan::parse(plan.describe());
  EXPECT_EQ(replay.describe(), plan.describe());
  EXPECT_EQ(replay.seed, plan.seed);
  EXPECT_DOUBLE_EQ(replay.drop, plan.drop);
  EXPECT_DOUBLE_EQ(replay.delay_jitter_s, plan.delay_jitter_s);
  ASSERT_EQ(replay.kills.size(), 1u);
  ASSERT_EQ(replay.stalls.size(), 1u);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("drop"), ConfigError);          // no '='
  EXPECT_THROW(FaultPlan::parse("drop="), ConfigError);         // empty value
  EXPECT_THROW(FaultPlan::parse("drop=150%"), ConfigError);     // p > 1
  EXPECT_THROW(FaultPlan::parse("drop=oops"), ConfigError);     // not a number
  EXPECT_THROW(FaultPlan::parse("delay=5"), ConfigError);       // missing unit
  EXPECT_THROW(FaultPlan::parse("delay=5ms~3ms"), ConfigError); // bad jitter sep
  EXPECT_THROW(FaultPlan::parse("kill=node5"), ConfigError);    // no '@when'
  EXPECT_THROW(FaultPlan::parse("kill=node5@never"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("stall=node3@phase1"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("warp=1%"), ConfigError);       // unknown key
}

TEST(FaultPlan, CueMatchingCoversLoopbackNames) {
  EXPECT_TRUE(FaultPlan::node_matches("node5", "n5-zen2"));
  EXPECT_TRUE(FaultPlan::node_matches("n5", "n5-zen2"));
  EXPECT_TRUE(FaultPlan::node_matches("n5", "n5"));
  EXPECT_TRUE(FaultPlan::node_matches("alpha", "alpha"));
  EXPECT_FALSE(FaultPlan::node_matches("n5", "n51-zen2"));  // no prefix bleed
  EXPECT_FALSE(FaultPlan::node_matches("node5", "n6-zen2"));
  EXPECT_FALSE(FaultPlan::node_matches("nx", "n5-zen2"));
}

// ---- determinism ------------------------------------------------------------

std::vector<LinkFaults::Verdict> sample_schedule(const FaultPlan& plan,
                                                 const std::string& node, int frames) {
  LinkFaults link = plan.link(node);
  std::vector<LinkFaults::Verdict> out;
  for (int i = 0; i < frames; ++i)
    out.push_back(link.on_send(MessageType::kSampleBatch, 64));
  return out;
}

TEST(FaultPlan, SameSeedReproducesTheSameFaultSchedule) {
  const char* spec = "seed=42,drop=20%,corrupt=20%,truncate=20%,delay=1ms+-1ms";
  const auto a = sample_schedule(FaultPlan::parse(spec), "n3-zen2", 500);
  const auto b = sample_schedule(FaultPlan::parse(spec), "n3-zen2", 500);
  ASSERT_EQ(a.size(), b.size());
  int faults = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].drop, b[i].drop);
    EXPECT_EQ(a[i].corrupt_bit, b[i].corrupt_bit);
    EXPECT_EQ(a[i].truncate_to, b[i].truncate_to);
    EXPECT_DOUBLE_EQ(a[i].delay_s, b[i].delay_s);
    if (a[i].drop || a[i].corrupt_bit != LinkFaults::kNone ||
        a[i].truncate_to != LinkFaults::kNone)
      ++faults;
  }
  EXPECT_GT(faults, 0) << "20% rates over 500 frames must fire";
  // Per-link streams are independent: another node sees a different
  // schedule from the same plan (seed ^ hash(name) decorrelates them).
  const auto c = sample_schedule(FaultPlan::parse(spec), "n4-zen2", 500);
  int diffs = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].drop != c[i].drop || a[i].corrupt_bit != c[i].corrupt_bit) ++diffs;
  EXPECT_GT(diffs, 0);
}

TEST(FaultPlan, ControlPlaneFramesAreNeverDroppedOrMangled) {
  const FaultPlan plan = FaultPlan::parse("seed=1,drop=100%,corrupt=100%,truncate=100%");
  LinkFaults link = plan.link("n0");
  for (const MessageType type :
       {MessageType::kHello, MessageType::kPhaseBracket, MessageType::kPhaseGo,
        MessageType::kBudgetReport, MessageType::kVerdict, MessageType::kRejoin}) {
    const LinkFaults::Verdict v = link.on_send(type, 64);
    EXPECT_FALSE(v.drop) << to_string(type);
    EXPECT_EQ(v.corrupt_bit, LinkFaults::kNone) << to_string(type);
    EXPECT_EQ(v.truncate_to, LinkFaults::kNone) << to_string(type);
  }
  // Telemetry, by contrast, is fair game.
  const LinkFaults::Verdict v = link.on_send(MessageType::kSampleBatch, 64);
  EXPECT_TRUE(v.drop);
}

TEST(Backoff, DeterministicScheduleWithBoundedJitter) {
  Backoff::Options opts;
  opts.base_s = 0.05;
  opts.factor = 2.0;
  opts.max_s = 2.0;
  opts.jitter = 0.2;
  opts.seed = 99;
  Backoff a(opts), b(opts);
  double nominal = opts.base_s;
  for (int attempt = 0; attempt < 12; ++attempt) {
    const double da = a.next_s();
    const double db = b.next_s();
    EXPECT_DOUBLE_EQ(da, db) << "same seed, attempt " << attempt;
    EXPECT_GE(da, nominal * (1.0 - opts.jitter) - 1e-12);
    EXPECT_LE(da, nominal * (1.0 + opts.jitter) + 1e-12);
    nominal = std::min(nominal * opts.factor, opts.max_s);
  }
  // Different seeds must not synchronize their reconnect storms.
  opts.seed = 100;
  Backoff c(opts);
  a.reset();
  int diffs = 0;
  for (int attempt = 0; attempt < 12; ++attempt)
    if (a.next_s() != c.next_s()) ++diffs;
  EXPECT_GT(diffs, 0);
  EXPECT_EQ(a.attempts(), 12u);
}

// ---- wire-protocol hardening ------------------------------------------------

/// Decode one message of `type` from `in` and hand it to `fn`.
template <class Fn>
void decode_as(MessageType type, WireReader& in, Fn&& fn) {
  switch (type) {
    case MessageType::kHello: fn(HelloMsg::decode(in)); break;
    case MessageType::kSyncProbe: fn(SyncProbeMsg::decode(in)); break;
    case MessageType::kSyncReply: fn(SyncReplyMsg::decode(in)); break;
    case MessageType::kCampaign: fn(CampaignMsg::decode(in)); break;
    case MessageType::kEpoch: fn(EpochMsg::decode(in)); break;
    case MessageType::kChannel: fn(ChannelMsg::decode(in)); break;
    case MessageType::kPhaseBracket: fn(PhaseBracketMsg::decode(in)); break;
    case MessageType::kSampleBatch: fn(SampleBatchMsg::decode(in)); break;
    case MessageType::kPhaseGo: fn(PhaseGoMsg::decode(in)); break;
    case MessageType::kBudgetReport: fn(BudgetReportMsg::decode(in)); break;
    case MessageType::kBudgetAssign: fn(BudgetAssignMsg::decode(in)); break;
    case MessageType::kVerdict: fn(VerdictMsg::decode(in)); break;
    case MessageType::kShutdown: fn(ShutdownMsg::decode(in)); break;
    case MessageType::kNodeSummary: fn(NodeSummaryMsg::decode(in)); break;
    case MessageType::kTraceSpans: fn(TraceSpansMsg::decode(in)); break;
    case MessageType::kCounterSnapshot: fn(CounterSnapshotMsg::decode(in)); break;
    case MessageType::kStatusRequest: fn(StatusRequestMsg::decode(in)); break;
    case MessageType::kStatusReply: fn(StatusReplyMsg::decode(in)); break;
    case MessageType::kMetricUpdate: fn(MetricUpdateMsg::decode(in)); break;
    case MessageType::kFlightRecord: fn(FlightRecordMsg::decode(in)); break;
    case MessageType::kRejoin: fn(RejoinMsg::decode(in)); break;
    case MessageType::kRejoinAck: fn(RejoinAckMsg::decode(in)); break;
  }
}

/// Decode `payload` as `type`; returns true if the decoder accepted it.
/// Anything other than a clean return or a WireError is a hardening bug
/// (uncaught std::length_error from a hostile vector resize, a segfault,
/// an infinite loop) — the gtest harness converts those into failures.
bool decode_any(MessageType type, const std::vector<std::uint8_t>& payload) {
  WireReader in(payload);
  try {
    decode_as(type, in, [](const auto&) {});
  } catch (const WireError&) {
    return false;  // the one sanctioned failure mode
  }
  return true;
}

/// Decode a frame and encode the message again.
Frame reencode(const Frame& frame) {
  WireReader in(frame.payload);
  Frame out;
  decode_as(frame.type, in, [&](const auto& m) { out = m.encode(); });
  return out;
}

/// FNV-1a 64 over the type byte and the payload.
std::uint64_t frame_digest(const Frame& frame) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  auto mix = [&](std::uint8_t byte) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  };
  mix(static_cast<std::uint8_t>(frame.type));
  for (const std::uint8_t byte : frame.payload) mix(byte);
  return hash;
}

/// One well-formed exemplar frame per message type, with strings and
/// vectors populated so truncation cuts through length-prefixed fields.
std::vector<Frame> exemplar_frames() {
  std::vector<Frame> frames;
  { HelloMsg m; m.node_name = "alpha"; m.sku = "sim-zen2@1500MHz"; frames.push_back(m.encode()); }
  { SyncProbeMsg m; m.seq = 3; m.t_coord_s = 1.5; frames.push_back(m.encode()); }
  { SyncReplyMsg m; m.seq = 3; m.t_coord_s = 1.5; m.t_agent_s = 1.6; frames.push_back(m.encode()); }
  { CampaignMsg m; m.campaign_text = "phase name=p duration=5\n"; m.has_budget = 1;
    m.campaign_id = 0xFEEDF00Dull; frames.push_back(m.encode()); }
  { EpochMsg m; m.t0_agent_s = 12.0; frames.push_back(m.encode()); }
  { ChannelMsg m; m.channel_id = 2; m.name = "sim-wall-power"; m.unit = "W";
    frames.push_back(m.encode()); }
  { PhaseBracketMsg m; m.phase_index = 1; m.phase_name = "hold"; frames.push_back(m.encode()); }
  { SampleBatchMsg m; m.channel_id = 2;
    for (int i = 0; i < 4; ++i) m.samples.push_back(telemetry::Sample{i * 0.05, 250.0});
    frames.push_back(m.encode()); }
  { PhaseGoMsg m; m.phase_index = 2; frames.push_back(m.encode()); }
  { BudgetReportMsg m; m.seq = 9; m.achieved_w = 240.0; frames.push_back(m.encode()); }
  { BudgetAssignMsg m; m.seq = 9; m.setpoint_w = 260.0; frames.push_back(m.encode()); }
  { VerdictMsg m; m.detail = "3 phases on sim-zen2"; frames.push_back(m.encode()); }
  { ShutdownMsg m; frames.push_back(m.encode()); }
  { NodeSummaryMsg m; m.name = "sim-wall-power"; m.unit = "W"; m.samples = 100;
    frames.push_back(m.encode()); }
  { TraceSpansMsg m; m.spans.push_back(trace::Span{"agent.phase", 1.0, 2.0});
    frames.push_back(m.encode()); }
  { CounterSnapshotMsg m;
    m.counters.push_back(trace::MetricSnapshot{"cluster.frames_sent", 42.0, true});
    m.counters.push_back(trace::MetricSnapshot{"cluster.queue_depth", 3.5, false});
    frames.push_back(m.encode()); }
  { StatusRequestMsg m; frames.push_back(m.encode()); }
  { StatusReplyMsg m; m.nodes_expected = 2;
    StatusNodeRec rec; rec.name = "alpha"; rec.sku = "sim-zen2"; rec.rejoins = 1;
    m.nodes.push_back(rec);
    StatusSpreadRec spread; spread.phase = "hold"; spread.min_node = "alpha";
    spread.max_node = "beta"; m.spreads.push_back(spread);
    StatusAlertRec alert; alert.kind = "node-lost"; alert.node = "beta";
    alert.detail = "peer closed"; m.alerts.push_back(alert);
    m.counters.push_back(trace::MetricSnapshot{"coordinator.frames_in", 128.0, true});
    frames.push_back(m.encode()); }
  { MetricUpdateMsg m; m.seq = 1; m.t_agent_s = 2.5;
    m.delta.defs.push_back(trace::MetricDefRec{4, "agent.poll_us", trace::MetricKind::kHistogram});
    m.delta.counters.push_back(trace::CounterDeltaRec{1, 7});
    m.delta.gauges.push_back(trace::GaugeValueRec{2, 0.75});
    m.delta.hists.push_back(trace::HistogramDeltaRec{4, 5, 12.5, 4.0, {{3, 2}, {7, 3}}});
    frames.push_back(m.encode()); }
  { FlightRecordMsg m; m.reason = "test"; m.dump = "dump text"; frames.push_back(m.encode()); }
  { RejoinMsg m; m.node_name = "alpha"; m.campaign_id = 0xFEEDF00Dull;
    m.phases_ended = 1; frames.push_back(m.encode()); }
  { RejoinAckMsg m; m.accepted = 1; m.resume_phase = 1; m.detail = "ok";
    frames.push_back(m.encode()); }
  return frames;
}

TEST(WireHardening, ExemplarCorpusCoversEveryMessageType) {
  // FNV-1a of each exemplar's type byte and payload, indexed by MessageType
  // value - 1. They pin the wire bytes of every message type.
  const std::uint64_t recorded[22] = {
      0x24f42639489f4cc4ULL, 0x8ea80b3453e0374fULL,  // hello, sync-probe
      0xc8e5bb43b9e4c1f9ULL, 0xefa5c84b20fc0e94ULL,  // sync-reply, campaign
      0x22a3169517d714c8ULL, 0x7d96a0133cdf66f5ULL,  // epoch, channel
      0x6dee849dda84dd0dULL, 0xc05392d59295a8daULL,  // phase-bracket, sample-batch
      0x7d79de133ec34b26ULL, 0xf89a2e4642a9756aULL,  // phase-go, budget-report
      0x01ce8c8ad121c7c3ULL, 0x06208bb84de53745ULL,  // budget-assign, verdict
      0x083cbb07b4f41b1bULL, 0x41ac2fcbd2667d15ULL,  // shutdown, node-summary
      0xcf8115d7fedbe541ULL, 0x08c136c30d76de55ULL,  // trace-spans, counter-snapshot
      0xc30b9b3d7a31ef69ULL, 0x94eabb729cc52828ULL,  // status-request, status-reply
      0xbe85bcab75c05439ULL, 0x7ebe263f14dbf287ULL,  // metric-update, flight-record
      0x51010d31ae0f6ccfULL, 0x5f867c1052a947d5ULL,  // rejoin, rejoin-ack
  };
  // If a new MessageType lands without an exemplar, the corpus silently
  // stops covering it — fail loudly instead.
  const auto frames = exemplar_frames();
  EXPECT_EQ(frames.size(), 22u);
  std::vector<bool> seen(64, false);
  for (const Frame& f : frames) {
    const auto idx = static_cast<std::size_t>(f.type);
    ASSERT_GE(idx, 1u);
    ASSERT_LE(idx, 22u);
    EXPECT_FALSE(seen[idx]) << "duplicate exemplar for " << to_string(f.type);
    seen[idx] = true;
    EXPECT_TRUE(decode_any(f.type, f.payload))
        << to_string(f.type) << ": a well-formed frame must decode";
    const Frame again = reencode(f);
    EXPECT_EQ(again.type, f.type);
    EXPECT_EQ(again.payload, f.payload)
        << to_string(f.type) << ": decode then encode changed the bytes";
    EXPECT_EQ(frame_digest(f), recorded[idx - 1])
        << to_string(f.type) << ": wire bytes changed (measured 0x" << std::hex << frame_digest(f)
        << "); a wire change must bump kProtocolVersion and re-record this digest";
  }
}

TEST(WireHardening, TruncationAtEveryLengthFailsCleanly) {
  for (const Frame& frame : exemplar_frames()) {
    for (std::size_t cut = 0; cut < frame.payload.size(); ++cut) {
      const std::vector<std::uint8_t> prefix(frame.payload.begin(),
                                             frame.payload.begin() + cut);
      // Must return or throw WireError; any other escape fails the test.
      decode_any(frame.type, prefix);
    }
    // Trailing garbage after a complete message must not break the decode
    // of the declared fields (framing already bounds the payload).
    std::vector<std::uint8_t> padded = frame.payload;
    padded.insert(padded.end(), 16, 0xAA);
    EXPECT_TRUE(decode_any(frame.type, padded)) << to_string(frame.type);
  }
}

TEST(WireHardening, SeededBitFlipsNeverEscapeAsUB) {
  Xoshiro256 rng(2024);
  for (const Frame& frame : exemplar_frames()) {
    if (frame.payload.empty()) continue;
    for (int trial = 0; trial < 64; ++trial) {
      std::vector<std::uint8_t> mutated = frame.payload;
      // Flip 1-3 bits; length-prefix bytes are in range, so hostile string
      // and vector lengths get exercised constantly.
      const int flips = 1 + static_cast<int>(rng.below(3));
      for (int f = 0; f < flips; ++f) {
        const std::size_t bit = rng.below(mutated.size() * 8);
        mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
      decode_any(frame.type, mutated);  // clean accept or WireError only
    }
  }
}

TEST(WireHardening, HostileLengthPrefixesAreRejectedNotAllocated) {
  // A length prefix of ~4 GiB must throw before any allocation attempt.
  for (const MessageType type :
       {MessageType::kHello, MessageType::kCampaign, MessageType::kSampleBatch,
        MessageType::kTraceSpans, MessageType::kStatusReply, MessageType::kRejoin}) {
    WireWriter w;
    w.u32(0xFFFFFFFFu);  // absurd count/length with no bytes behind it
    EXPECT_FALSE(decode_any(type, w.bytes())) << to_string(type);
  }
}

TEST(WireHardening, HostileCountAtEveryOffsetFailsCleanly) {
  // Stamping 0xFFFFFFFF over every 4-byte window lands a ~4 Gi count on each
  // length prefix in turn, nested ones included (histogram buckets, status
  // rows), without the test knowing the layout. Every decoder must check the
  // count against the bytes left before it allocates.
  for (const Frame& frame : exemplar_frames()) {
    for (std::size_t at = 0; at < frame.payload.size(); ++at) {
      std::vector<std::uint8_t> hostile = frame.payload;
      for (std::size_t i = at; i < std::min(at + 4, hostile.size()); ++i) hostile[i] = 0xFF;
      decode_any(frame.type, hostile);  // clean accept or WireError only
    }
  }
}

// ---- budget re-apportionment across loss and rejoin -------------------------

TEST(Budget, LossReapportionsToSurvivorsAtTheMomentOfLoss) {
  control::BudgetApportioner budget(1000.0, 4);
  for (std::size_t n = 0; n < 4; ++n) budget.on_report(n, 250.0);
  EXPECT_NEAR(budget.total_achieved_w(), 1000.0, 1e-9);
  EXPECT_NEAR(budget.share_w(0), 250.0, 1e-9);

  budget.on_node_lost(2);
  EXPECT_FALSE(budget.active(2));
  EXPECT_EQ(budget.active_count(), 3u);
  // The dead node's stale 250 W no longer count; each survivor's implied
  // share absorbs a third of the freed budget immediately.
  EXPECT_NEAR(budget.total_achieved_w(), 750.0, 1e-9);
  EXPECT_NEAR(budget.share_w(0), 1000.0 / 3.0, 1e-6);
  // The lost node itself holds no share while lost.
  EXPECT_NEAR(budget.share_w(2), 0.0, 1e-9);

  budget.on_node_rejoin(2);
  EXPECT_TRUE(budget.active(2));
  EXPECT_EQ(budget.active_count(), 4u);
  // Ramp-in treats the rejoiner like an unreported node at its equal
  // share, so the denominator is whole again and survivors fall back.
  EXPECT_NEAR(budget.total_achieved_w(), 1000.0, 1e-9);
  EXPECT_NEAR(budget.share_w(0), 250.0, 1e-6);
  EXPECT_NEAR(budget.share_w(2), 250.0, 1e-6);
}

// ---- rejoin protocol against a live coordinator -----------------------------

/// Minimal hand-rolled agent: speaks just enough of the protocol to drive
/// the coordinator through handshake, brackets, verdict, and shutdown —
/// with every step under test control (unlike SimFleet, which recovers on
/// its own and would hide the intermediate states these tests assert).
struct FakeAgent {
  Connection conn;
  CampaignMsg campaign;
  EpochMsg epoch;
  bool have_campaign = false;
  bool have_epoch = false;

  /// Connect and say hello. Admission (clock sync, campaign, epoch) is
  /// served separately: the coordinator probes every joiner at once, but
  /// several fake agents share ONE test thread, which answers them in turn.
  static FakeAgent dial(std::uint16_t port, const std::string& name) {
    FakeAgent agent;
    agent.conn = Connection::connect("127.0.0.1:" + std::to_string(port));
    HelloMsg hello;
    hello.node_name = name;
    hello.sku = "fake";
    agent.conn.send(hello.encode());
    return agent;
  }

  /// Handle at most one admission frame (clock-sync probe, campaign, or
  /// epoch); false on timeout.
  bool poll_admission(double timeout_s) {
    if (have_campaign && have_epoch) return false;
    const auto frame = conn.recv(timeout_s);
    if (!frame) return false;
    WireReader in(frame->payload);
    if (frame->type == MessageType::kSyncProbe) {
      const SyncProbeMsg probe = SyncProbeMsg::decode(in);
      SyncReplyMsg reply;
      reply.seq = probe.seq;
      reply.t_coord_s = probe.t_coord_s;
      reply.t_agent_s = local_clock_s();
      conn.send(reply.encode());
    } else if (frame->type == MessageType::kCampaign) {
      campaign = CampaignMsg::decode(in);
      have_campaign = true;
    } else if (frame->type == MessageType::kEpoch) {
      epoch = EpochMsg::decode(in);
      have_epoch = true;
    } else {
      throw WireError(std::string("fake agent: unexpected ") + to_string(frame->type));
    }
    return true;
  }

  /// Answer clock-sync probes until the campaign and epoch both arrive
  /// (single-agent path: rejoin replay, or a fleet of one).
  void serve_until_epoch() {
    have_campaign = have_epoch = false;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!have_campaign || !have_epoch) {
      if (std::chrono::steady_clock::now() > deadline)
        throw WireError("fake agent: handshake stalled");
      poll_admission(/*timeout_s=*/1.0);
    }
  }

  /// Round-robin the admission exchange across a whole fake fleet until
  /// every agent holds its campaign and epoch.
  static void serve_all(std::initializer_list<FakeAgent*> agents) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (;;) {
      bool all = true;
      for (FakeAgent* agent : agents)
        all = all && agent->have_campaign && agent->have_epoch;
      if (all) return;
      if (std::chrono::steady_clock::now() > deadline)
        throw WireError("fake agent: fleet handshake stalled");
      for (FakeAgent* agent : agents) agent->poll_admission(/*timeout_s=*/0.05);
    }
  }

  void send_bracket(bool begin, std::uint32_t phase, const char* name) {
    PhaseBracketMsg msg;
    msg.is_begin = begin ? 1 : 0;
    msg.phase_index = phase;
    msg.phase_name = name;
    msg.duration_s = 1.0;
    msg.epoch_elapsed_s = 0.5 + phase;  // identical per phase: zero spread
    conn.send(msg.encode());
  }

  void await_go(std::uint32_t phase) {
    for (;;) {
      const auto frame = conn.recv(/*timeout_s=*/10.0);
      if (!frame) throw WireError("fake agent: waiting for phase-go on a dead link");
      if (frame->type != MessageType::kPhaseGo) continue;  // ignore chatter
      WireReader in(frame->payload);
      const PhaseGoMsg go = PhaseGoMsg::decode(in);
      if (go.phase_index == phase) return;
    }
  }

  void send_verdict() {
    VerdictMsg verdict;
    verdict.detail = "fake agent";
    conn.send(verdict.encode());
  }

  void await_shutdown() {
    for (;;) {
      const auto frame = conn.recv(/*timeout_s=*/10.0);
      if (!frame) throw WireError("fake agent: no shutdown");
      if (frame->type == MessageType::kShutdown) return;
    }
  }

  /// The reconnect path: a fresh socket presenting the rejoin handshake,
  /// then the replayed admission sequence (ack, clock sync, campaign,
  /// epoch). Returns the acked resume phase.
  std::uint32_t rejoin(std::uint16_t port, const std::string& name,
                       std::uint32_t phases_ended) {
    conn = Connection::connect("127.0.0.1:" + std::to_string(port));
    RejoinMsg msg;
    msg.node_name = name;
    msg.campaign_id = campaign.campaign_id;
    msg.phases_ended = phases_ended;
    conn.send(msg.encode());
    const auto frame = conn.recv(/*timeout_s=*/10.0);
    if (!frame || frame->type != MessageType::kRejoinAck)
      throw WireError("fake agent: expected rejoin ack");
    WireReader in(frame->payload);
    const RejoinAckMsg ack = RejoinAckMsg::decode(in);
    if (ack.accepted == 0) throw WireError("fake agent: rejoin refused: " + ack.detail);
    serve_until_epoch();
    return ack.resume_phase;
  }
};

struct CoordinatorHarness {
  Coordinator coordinator;
  std::ostringstream out;
  Coordinator::Result result;
  std::thread thread;
  bool failed = false;
  std::string error;

  explicit CoordinatorHarness(std::size_t nodes, std::size_t phases,
                              double rejoin_grace_s = 5.0)
      : coordinator([&] {
          Coordinator::Options options;
          options.loopback_only = true;
          options.nodes = nodes;
          options.phase_count = phases;
          std::string text;
          for (std::size_t p = 0; p < phases; ++p)
            text += "phase name=p" + std::to_string(p) + " duration=1\n";
          options.campaign_text = text;
          options.start_delay_s = 0.05;
          options.metrics_interval_s = 0.0;  // no metrics plane: protocol only
          options.rejoin_grace_s = rejoin_grace_s;
          return options;
        }()) {
    thread = std::thread([this] {
      try {
        result = coordinator.run(out);
      } catch (const std::exception& e) {
        failed = true;
        error = e.what();
      }
    });
  }

  ~CoordinatorHarness() {
    if (thread.joinable()) thread.join();
  }
};

/// Ask the coordinator for its status; nullopt unless the reply lands
/// within `timeout_s`.
std::optional<StatusReplyMsg> probe_status(std::uint16_t port, double timeout_s) {
  Connection probe = Connection::connect("127.0.0.1:" + std::to_string(port));
  probe.send(StatusRequestMsg{}.encode());
  const auto frame = probe.recv(timeout_s);
  if (!frame || frame->type != MessageType::kStatusReply) return std::nullopt;
  WireReader in(frame->payload);
  return StatusReplyMsg::decode(in);
}

TEST(Admission, JoinersSyncConcurrentlyAndKeepHelloOrder) {
  CoordinatorHarness harness(2, 1);
  FakeAgent alpha = FakeAgent::dial(harness.coordinator.port(), "alpha");
  FakeAgent beta = FakeAgent::dial(harness.coordinator.port(), "beta");
  // Beta runs its whole clock sync while alpha sits on its first probe.
  int answered = 0;
  while (answered < ClockSync::kRounds && beta.poll_admission(/*timeout_s=*/2.0))
    ++answered;
  EXPECT_EQ(answered, ClockSync::kRounds) << "beta waited for alpha's clock sync";
  FakeAgent::serve_all({&alpha, &beta});

  for (FakeAgent* agent : {&alpha, &beta}) agent->send_bracket(true, 0, "p0");
  for (FakeAgent* agent : {&alpha, &beta}) agent->send_bracket(false, 0, "p0");
  for (FakeAgent* agent : {&alpha, &beta}) agent->send_verdict();
  alpha.await_shutdown();
  beta.await_shutdown();
  harness.thread.join();
  ASSERT_FALSE(harness.failed) << harness.error;
  // Node order is hello order, whichever sync finished first.
  ASSERT_EQ(harness.result.nodes.size(), 2u);
  EXPECT_EQ(harness.result.nodes[0].name, "alpha");
  EXPECT_EQ(harness.result.nodes[1].name, "beta");
}

TEST(Admission, StrayClientsNeverStallTheEventLoop) {
  CoordinatorHarness harness(1, 1);
  FakeAgent alpha = FakeAgent::dial(harness.coordinator.port(), "alpha");
  alpha.serve_until_epoch();
  alpha.send_bracket(true, 0, "p0");

  // Mid-run: a silent client, three bytes of a frame header, and two HTTP
  // requests that never reach their line end.
  const std::string endpoint = "127.0.0.1:" + std::to_string(harness.coordinator.port());
  std::vector<Connection> strays;
  for (const std::string& bytes : {std::string(), std::string("\x05\x00\x00", 3),
                                   std::string("GET"), std::string("GET ")}) {
    strays.push_back(Connection::connect(endpoint));
    if (!bytes.empty()) {
      EXPECT_GT(::send(strays.back().fd(), bytes.data(), bytes.size(), 0), 0);
    }
  }
  const std::optional<StatusReplyMsg> status =
      probe_status(harness.coordinator.port(), /*timeout_s=*/1.0);
  EXPECT_TRUE(status.has_value()) << "a stray client stalled the event loop";
  if (status) {
    EXPECT_EQ(status->nodes.size(), 1u);
  }
  // Closing the strays also frees a coordinator that waits on one of them.
  strays.clear();

  alpha.send_bracket(false, 0, "p0");
  alpha.send_verdict();
  alpha.await_shutdown();
  harness.thread.join();
  ASSERT_FALSE(harness.failed) << harness.error;
  EXPECT_TRUE(harness.result.nodes_converged);
}

TEST(Admission, JoinerThatRepliesAheadOfItsProbeIsDropped) {
  CoordinatorHarness harness(1, 1);
  {
    // Two answers to the first probe in one write: the second would sit in
    // the coordinator's read buffer, out of poll(2)'s sight.
    FakeAgent eager = FakeAgent::dial(harness.coordinator.port(), "eager");
    const auto probe_frame = eager.conn.recv(/*timeout_s=*/5.0);
    ASSERT_TRUE(probe_frame.has_value());
    ASSERT_EQ(probe_frame->type, MessageType::kSyncProbe);
    WireReader in(probe_frame->payload);
    const SyncProbeMsg probe = SyncProbeMsg::decode(in);
    SyncReplyMsg reply;
    reply.seq = probe.seq;
    reply.t_coord_s = probe.t_coord_s;
    reply.t_agent_s = local_clock_s();
    const Frame frame = reply.encode();
    WireWriter twice;
    for (int i = 0; i < 2; ++i) {
      twice.u32(static_cast<std::uint32_t>(frame.payload.size() + 1));
      twice.u8(static_cast<std::uint8_t>(frame.type));
      twice.raw(frame.payload.data(), frame.payload.size());
    }
    ASSERT_GT(::send(eager.conn.fd(), twice.bytes().data(), twice.bytes().size(), 0), 0);
    EXPECT_THROW(eager.conn.recv(/*timeout_s=*/5.0), WireError)
        << "the coordinator kept a joiner that replied ahead";
  }
  // The slot stays free for a well-behaved node.
  FakeAgent alpha = FakeAgent::dial(harness.coordinator.port(), "alpha");
  alpha.serve_until_epoch();
  alpha.send_bracket(true, 0, "p0");
  alpha.send_bracket(false, 0, "p0");
  alpha.send_verdict();
  alpha.await_shutdown();
  harness.thread.join();
  ASSERT_FALSE(harness.failed) << harness.error;
  ASSERT_EQ(harness.result.nodes.size(), 1u);
  EXPECT_EQ(harness.result.nodes[0].name, "alpha");
}

TEST(Rejoin, NodeStalledMidFrameIsLostWithinTheFrameBound) {
  CoordinatorHarness harness(1, 1);
  FakeAgent alpha = FakeAgent::dial(harness.coordinator.port(), "alpha");
  alpha.serve_until_epoch();
  alpha.send_bracket(true, 0, "p0");

  // Three bytes of a frame header, then silence. The coordinator gives up
  // on the frame after the transport's bound and serves the probe.
  const std::uint8_t partial[] = {0x05, 0x00, 0x00};
  EXPECT_GT(::send(alpha.conn.fd(), partial, sizeof partial, 0), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::optional<StatusReplyMsg> status =
      probe_status(harness.coordinator.port(), Connection::kFrameReadBoundS + 1.0);
  EXPECT_TRUE(status.has_value()) << "a node stalled mid-frame held the event loop";
  if (status && status->nodes.size() == 1) {
    EXPECT_EQ(status->nodes[0].lost, 1);
  }

  // The stalled node takes the loss path: it rejoins and finishes.
  EXPECT_EQ(alpha.rejoin(harness.coordinator.port(), "alpha", 0), 0u);
  alpha.send_bracket(true, 0, "p0");
  alpha.send_bracket(false, 0, "p0");
  alpha.send_verdict();
  alpha.await_shutdown();
  harness.thread.join();
  ASSERT_FALSE(harness.failed) << harness.error;
  EXPECT_TRUE(harness.result.nodes_converged);
  EXPECT_EQ(harness.result.nodes[0].rejoins, 1u);
}

TEST(Rejoin, DuringBarrierRechecksBarrierAndFleetCompletes) {
  CoordinatorHarness harness(2, 2);
  FakeAgent alpha = FakeAgent::dial(harness.coordinator.port(), "alpha");
  FakeAgent beta = FakeAgent::dial(harness.coordinator.port(), "beta");
  FakeAgent::serve_all({&alpha, &beta});
  ASSERT_EQ(alpha.campaign.campaign_id, beta.campaign.campaign_id);

  // Alpha completes phase 0 and waits at the barrier. Beta begins phase 0
  // and dies mid-phase: the barrier must HOLD (grace window open), not
  // release with a waived vote.
  alpha.send_bracket(true, 0, "p0");
  alpha.send_bracket(false, 0, "p0");
  beta.send_bracket(true, 0, "p0");
  beta.conn.close();

  // If the barrier had released without beta, alpha would see its phase-go
  // almost immediately; give that wrong outcome a moment to materialize.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // Beta's replacement rejoins claiming no completed phases: the
  // coordinator must resume it at phase 0 (its interrupted phase).
  const std::uint32_t resume = beta.rejoin(harness.coordinator.port(), "beta", 0);
  EXPECT_EQ(resume, 0u);

  // The re-run of phase 0 completes the barrier; both proceed to phase 1.
  beta.send_bracket(true, 0, "p0");
  beta.send_bracket(false, 0, "p0");
  alpha.await_go(1);
  beta.await_go(1);
  alpha.send_bracket(true, 1, "p1");
  beta.send_bracket(true, 1, "p1");
  alpha.send_bracket(false, 1, "p1");
  beta.send_bracket(false, 1, "p1");
  alpha.send_verdict();
  beta.send_verdict();
  alpha.await_shutdown();
  beta.await_shutdown();
  harness.thread.join();

  ASSERT_FALSE(harness.failed) << harness.error;
  ASSERT_EQ(harness.result.nodes.size(), 2u);
  EXPECT_TRUE(harness.result.nodes_converged);
  EXPECT_EQ(harness.result.nodes[1].rejoins, 1u);
  // The loss and recovery both landed in the alert stream.
  bool lost = false, recovered = false;
  for (const Alert& alert : harness.result.alerts) {
    if (alert.kind == "node-lost" && alert.node == "beta") lost = true;
    if (alert.kind == "node-recovered" && alert.node == "beta") recovered = true;
  }
  EXPECT_TRUE(lost);
  EXPECT_TRUE(recovered);
}

TEST(Rejoin, DoubleRejoinKeepsExactlyOneLiveConnection) {
  CoordinatorHarness harness(2, 1);
  FakeAgent alpha = FakeAgent::dial(harness.coordinator.port(), "alpha");
  FakeAgent beta = FakeAgent::dial(harness.coordinator.port(), "beta");
  FakeAgent::serve_all({&alpha, &beta});

  alpha.send_bracket(true, 0, "p0");
  beta.send_bracket(true, 0, "p0");

  // Beta's link goes half-open: the agent side believes it dead and dials
  // back in, but the coordinator still sees the old socket as live. Latest
  // wins — the coordinator must adopt the new socket and close the stale
  // one, leaving exactly one live connection for beta.
  Connection stale = std::move(beta.conn);
  const std::uint32_t resume = beta.rejoin(harness.coordinator.port(), "beta", 0);
  EXPECT_EQ(resume, 0u);

  // The stale socket is dead: the coordinator closed it during the swap.
  Frame frame;
  EXPECT_THROW(
      {
        while (stale.recv_into(frame, /*timeout_s=*/5.0)) {
        }
        throw WireError("stale socket still open after double-rejoin");
      },
      WireError);

  // The fresh socket drives the rest of the campaign to a clean verdict —
  // proof the coordinator follows the new connection, not the old one.
  beta.send_bracket(true, 0, "p0");
  alpha.send_bracket(false, 0, "p0");
  beta.send_bracket(false, 0, "p0");
  alpha.send_verdict();
  beta.send_verdict();
  alpha.await_shutdown();
  beta.await_shutdown();
  harness.thread.join();

  ASSERT_FALSE(harness.failed) << harness.error;
  EXPECT_TRUE(harness.result.nodes_converged);
  EXPECT_EQ(harness.result.nodes[1].rejoins, 1u);
}

TEST(Rejoin, GarbageMidRunClientNeverWedgesTheCoordinator) {
  CoordinatorHarness harness(1, 1);
  FakeAgent alpha = FakeAgent::dial(harness.coordinator.port(), "alpha");
  alpha.serve_until_epoch();
  alpha.send_bracket(true, 0, "p0");

  {
    // A client that frames garbage: an absurd declared length (way past
    // kMaxFrameBytes), then hangs up. The coordinator must shrug it off.
    Connection garbage =
        Connection::connect("127.0.0.1:" + std::to_string(harness.coordinator.port()));
    const std::uint8_t junk[] = {0xFF, 0xFF, 0xFF, 0x7F, 0xEE, 0x01, 0x02};
    ASSERT_GT(::send(garbage.fd(), junk, sizeof junk, 0), 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  {
    // A rejoin for a node the coordinator never admitted: refused with a
    // clean ack, no side effects on the real fleet.
    Connection impostor =
        Connection::connect("127.0.0.1:" + std::to_string(harness.coordinator.port()));
    RejoinMsg msg;
    msg.node_name = "never-admitted";
    msg.campaign_id = alpha.campaign.campaign_id;
    impostor.send(msg.encode());
    const auto reply = impostor.recv(/*timeout_s=*/5.0);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, MessageType::kRejoinAck);
    WireReader in(reply->payload);
    EXPECT_EQ(RejoinAckMsg::decode(in).accepted, 0);
  }

  // The campaign proceeds as if nothing happened.
  alpha.send_bracket(false, 0, "p0");
  alpha.send_verdict();
  alpha.await_shutdown();
  harness.thread.join();
  ASSERT_FALSE(harness.failed) << harness.error;
  EXPECT_TRUE(harness.result.nodes_converged);
  EXPECT_EQ(harness.result.nodes[0].rejoins, 0u);
}

// ---- end to end: loopback fleet under chaos ---------------------------------

/// A campaign file of the running test's own, named by the pid and the
/// test's name so that concurrent copies of the suite never share one;
/// removed when the test ends.
class TempCampaign {
 public:
  explicit TempCampaign(const char* text) {
    const ::testing::TestInfo& test = *::testing::UnitTest::GetInstance()->current_test_info();
    path_ = std::filesystem::temp_directory_path() /
            strings::format("fs2_chaos_%d_%s.%s.campaign", static_cast<int>(::getpid()),
                            test.test_suite_name(), test.name());
    std::ofstream(path_) << text;
  }
  TempCampaign(const TempCampaign&) = delete;
  TempCampaign& operator=(const TempCampaign&) = delete;
  ~TempCampaign() { std::filesystem::remove(path_); }
  std::string path() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

TEST(ChaosFleet, KilledNodeRejoinsAndFleetConverges) {
  const TempCampaign campaign("phase name=ramp duration=10\n"
                              "phase name=hold duration=14\n"
                              "phase name=cool duration=10\n");
  firestarter::Config cfg;
  cfg.loopback_nodes = "zen2@1500x4";
  cfg.coordinator = true;
  cfg.campaign_file = campaign.path();
  cfg.target_spec = "cluster-power=1000W";
  cfg.require_convergence = true;
  cfg.chaos_spec = "seed=7,drop=1%,delay=1ms,kill=node1@phase1";
  cfg.seed = 11;
  cfg.log_level = "error";
  std::ostringstream out;
  firestarter::Firestarter app(cfg, out);
  const int code = app.run();
  const std::string output = out.str();
  EXPECT_EQ(code, 0) << output;
  // The kill, the recovery, and the rejoined node's contribution to the
  // final phase are all visible in the run report.
  EXPECT_NE(output.find("LOST mid-campaign"), std::string::npos) << output;
  EXPECT_NE(output.find("REJOINED at phase"), std::string::npos) << output;
  EXPECT_NE(output.find("node-recovered"), std::string::npos) << output;
  EXPECT_NE(output.find("'cool': start spread"), std::string::npos) << output;
  EXPECT_NE(output.find("across 4 nodes"), std::string::npos) << output;
  EXPECT_EQ(output.find("NOT converged"), std::string::npos) << output;
}

TEST(ChaosFleet, UnrecoveredLossFailsRequireConvergence) {
  const TempCampaign campaign("phase name=ramp duration=8\n"
                              "phase name=hold duration=8\n");
  firestarter::Config cfg;
  cfg.loopback_nodes = "zen2@1500x4";
  cfg.coordinator = true;
  cfg.campaign_file = campaign.path();
  cfg.target_spec = "cluster-power=1000W";
  cfg.require_convergence = true;
  cfg.chaos_spec = "seed=7,kill=node1@phase1";
  cfg.rejoin_grace_s = 0.0;  // give up instantly: the node can never return
  cfg.seed = 11;
  cfg.log_level = "error";
  std::ostringstream out;
  firestarter::Firestarter app(cfg, out);
  const auto start = std::chrono::steady_clock::now();
  const int code = app.run();
  const double run_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  const std::string output = out.str();
  EXPECT_EQ(code, 1) << output;
  EXPECT_NE(output.find("given up"), std::string::npos) << output;
  // The lost node's replacement finds the listener closed and gives up at
  // once rather than redialling; 3 s leaves room for sanitizer builds.
  EXPECT_LT(run_s, 3.0) << output;
}

}  // namespace
