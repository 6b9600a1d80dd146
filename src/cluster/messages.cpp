#include "cluster/messages.hpp"

#include <bit>
#include <cstring>
#include <type_traits>
#include <utility>

namespace fs2::cluster {

const char* to_string(MessageType type) {
  switch (type) {
    case MessageType::kHello: return "hello";
    case MessageType::kSyncProbe: return "sync-probe";
    case MessageType::kSyncReply: return "sync-reply";
    case MessageType::kCampaign: return "campaign";
    case MessageType::kEpoch: return "epoch";
    case MessageType::kChannel: return "channel";
    case MessageType::kPhaseBracket: return "phase-bracket";
    case MessageType::kSampleBatch: return "sample-batch";
    case MessageType::kPhaseGo: return "phase-go";
    case MessageType::kBudgetReport: return "budget-report";
    case MessageType::kBudgetAssign: return "budget-assign";
    case MessageType::kVerdict: return "verdict";
    case MessageType::kShutdown: return "shutdown";
    case MessageType::kNodeSummary: return "node-summary";
    case MessageType::kTraceSpans: return "trace-spans";
    case MessageType::kCounterSnapshot: return "counter-snapshot";
    case MessageType::kStatusRequest: return "status-request";
    case MessageType::kStatusReply: return "status-reply";
    case MessageType::kMetricUpdate: return "metric-update";
    case MessageType::kFlightRecord: return "flight-record";
    case MessageType::kRejoin: return "rejoin";
    case MessageType::kRejoinAck: return "rejoin-ack";
  }
  return "?";
}

namespace {

// ---- one field list per record ---------------------------------------------
//
// `fields(record, io)` names a record's fields in wire order, which is their
// declaration order in messages.hpp (and trace/ for the nested trace
// records). FieldWriter and FieldReader turn that single list into every
// encode() and decode() below:
//   - u8, bool and enums are one byte;
//   - u32, u64, f64 and strings are as WireWriter writes them;
//   - a vector is its u32 count followed by its elements.

class FieldWriter {
 public:
  template <class... T>
  void operator()(const T&... v) { (put(v), ...); }
  std::vector<std::uint8_t> take() { return w_.take(); }

 private:
  void put(std::uint8_t v) { w_.u8(v); }
  void put(bool v) { w_.u8(v ? 1 : 0); }
  void put(std::uint32_t v) { w_.u32(v); }
  void put(std::uint64_t v) { w_.u64(v); }
  void put(double v) { w_.f64(v); }
  void put(const std::string& v) { w_.str(v); }
  template <class E> requires std::is_enum_v<E>
  void put(E v) { w_.u8(static_cast<std::uint8_t>(v)); }
  template <class A, class B>
  void put(const std::pair<A, B>& v) {
    put(v.first);
    put(v.second);
  }
  template <class T>
  void put(const std::vector<T>& v) {
    w_.u32(static_cast<std::uint32_t>(v.size()));
    for (const T& e : v) put(e);
  }
  /// A record: its field list. `fields` takes the record non-const so the
  /// reader can fill it; the writer only reads through it.
  template <class R> requires std::is_class_v<R>
  void put(const R& record) { fields(const_cast<R&>(record), *this); }

  WireWriter w_;
};

/// Wire size of a default-constructed T. Strings and vectors default to
/// empty and every other field has a fixed width, so no T is shorter.
template <class T>
std::size_t min_wire_size() {
  static const std::size_t size = [] {
    FieldWriter w;
    w(T{});
    return w.take().size();
  }();
  return size;
}

class FieldReader {
 public:
  explicit FieldReader(WireReader& in) : in_(in) {}
  template <class... T>
  void operator()(T&... v) { (get(v), ...); }

 private:
  void get(std::uint8_t& v) { v = in_.u8(); }
  void get(bool& v) { v = in_.u8() != 0; }
  void get(std::uint32_t& v) { v = in_.u32(); }
  void get(std::uint64_t& v) { v = in_.u64(); }
  void get(double& v) { v = in_.f64(); }
  void get(std::string& v) { v = in_.str(); }
  template <class E> requires std::is_enum_v<E>
  void get(E& v) { v = static_cast<E>(in_.u8()); }
  template <class A, class B>
  void get(std::pair<A, B>& v) {
    get(v.first);
    get(v.second);
  }
  template <class T>
  void get(std::vector<T>& v) {
    const std::uint32_t n = in_.u32();
    // Count check before reserving: a hostile count must not drive a
    // multi-gigabyte allocation.
    if (in_.remaining() < std::size_t{n} * min_wire_size<T>())
      throw WireError("cluster wire: sequence shorter than its count");
    v.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) get(v.emplace_back());
  }
  template <class R> requires std::is_class_v<R>
  void get(R& record) { fields(record, *this); }

  WireReader& in_;
};

template <class M>
Frame encode_message(MessageType type, const M& m) {
  FieldWriter w;
  w(m);
  return Frame{type, w.take()};
}

template <class M>
M decode_message(WireReader& in) {
  M m;
  FieldReader{in}(m);
  return m;
}

// ---- field lists, in wire order --------------------------------------------

void fields(HelloMsg& m, auto& io) { io(m.version, m.node_name, m.sku); }
void fields(SyncProbeMsg& m, auto& io) { io(m.seq, m.t_coord_s); }
void fields(SyncReplyMsg& m, auto& io) { io(m.seq, m.t_coord_s, m.t_agent_s); }
void fields(CampaignMsg& m, auto& io) {
  io(m.campaign_text, m.has_budget, m.initial_setpoint_w, m.ctl_interval_s, m.budget_interval_s,
     m.budget_band, m.trace_enabled, m.metrics_interval_s, m.campaign_id);
}
void fields(EpochMsg& m, auto& io) { io(m.t0_agent_s, m.offset_s, m.rtt_s); }
void fields(ChannelMsg& m, auto& io) {
  io(m.channel_id, m.name, m.unit, m.trim_phase, m.summarize);
}
void fields(PhaseBracketMsg& m, auto& io) {
  io(m.is_begin, m.phase_index, m.phase_name, m.duration_s, m.time_offset_s, m.start_delta_s,
     m.stop_delta_s, m.epoch_elapsed_s);
}
void fields(NodeSummaryMsg& m, auto& io) {
  io(m.phase_index, m.name, m.unit, m.samples, m.mean, m.stddev, m.min, m.max, m.p50, m.p95,
     m.p99);
}
void fields(PhaseGoMsg& m, auto& io) { io(m.phase_index); }
void fields(BudgetReportMsg& m, auto& io) { io(m.seq, m.achieved_w, m.setpoint_w, m.level); }
void fields(BudgetAssignMsg& m, auto& io) { io(m.seq, m.setpoint_w); }
void fields(VerdictMsg& m, auto& io) { io(m.converged, m.detail); }
void fields(ShutdownMsg& m, auto& io) { io(m.ok); }
void fields(trace::Span& s, auto& io) { io(s.name, s.begin_s, s.end_s); }
void fields(TraceSpansMsg& m, auto& io) { io(m.spans, m.dropped); }
void fields(trace::MetricSnapshot& c, auto& io) { io(c.name, c.value, c.is_counter); }
void fields(CounterSnapshotMsg& m, auto& io) { io(m.counters); }
void fields(trace::MetricDefRec& d, auto& io) { io(d.id, d.name, d.kind); }
void fields(trace::CounterDeltaRec& c, auto& io) { io(c.id, c.delta); }
void fields(trace::GaugeValueRec& g, auto& io) { io(g.id, g.value); }
void fields(trace::HistogramDeltaRec& h, auto& io) {
  io(h.id, h.count_delta, h.sum_delta, h.max, h.buckets);
}
void fields(MetricUpdateMsg& m, auto& io) {
  io(m.seq, m.t_agent_s, m.delta.defs, m.delta.counters, m.delta.gauges, m.delta.hists);
}
void fields(FlightRecordMsg& m, auto& io) { io(m.reason, m.dump); }
void fields(RejoinMsg& m, auto& io) { io(m.version, m.node_name, m.campaign_id, m.phases_ended); }
void fields(RejoinAckMsg& m, auto& io) { io(m.accepted, m.resume_phase, m.detail); }
void fields(StatusRequestMsg& m, auto& io) { io(m.version); }
void fields(StatusNodeRec& n, auto& io) {
  io(n.name, n.sku, n.connected, n.phases_begun, n.phases_ended, n.clock_offset_s, n.clock_rtt_s,
     n.achieved_w, n.setpoint_w, n.level, n.lost, n.last_metrics_age_s, n.rejoins);
}
void fields(StatusSpreadRec& s, auto& io) {
  io(s.phase, s.min_node, s.max_node, s.min_begin_s, s.max_begin_s, s.nodes);
}
void fields(StatusAlertRec& a, auto& io) { io(a.kind, a.node, a.detail, a.t_s); }
void fields(StatusReplyMsg& m, auto& io) {
  io(m.accepting, m.nodes_expected, m.phase_count, m.queued_samples, m.budget_w, m.fleet_healthy,
     m.nodes, m.spreads, m.counters, m.alerts);
}

}  // namespace

// Every message but SampleBatchMsg (hand-written below: its samples cross
// the wire as one memcpy) encodes and decodes through its field list.
#define FS2_WIRE_MESSAGE(Msg, type)                                               \
  Frame Msg::encode() const { return encode_message(MessageType::type, *this); } \
  Msg Msg::decode(WireReader& in) { return decode_message<Msg>(in); }

FS2_WIRE_MESSAGE(HelloMsg, kHello)
FS2_WIRE_MESSAGE(SyncProbeMsg, kSyncProbe)
FS2_WIRE_MESSAGE(SyncReplyMsg, kSyncReply)
FS2_WIRE_MESSAGE(CampaignMsg, kCampaign)
FS2_WIRE_MESSAGE(EpochMsg, kEpoch)
FS2_WIRE_MESSAGE(ChannelMsg, kChannel)
FS2_WIRE_MESSAGE(PhaseBracketMsg, kPhaseBracket)
FS2_WIRE_MESSAGE(NodeSummaryMsg, kNodeSummary)
FS2_WIRE_MESSAGE(PhaseGoMsg, kPhaseGo)
FS2_WIRE_MESSAGE(BudgetReportMsg, kBudgetReport)
FS2_WIRE_MESSAGE(BudgetAssignMsg, kBudgetAssign)
FS2_WIRE_MESSAGE(VerdictMsg, kVerdict)
FS2_WIRE_MESSAGE(ShutdownMsg, kShutdown)
FS2_WIRE_MESSAGE(TraceSpansMsg, kTraceSpans)
FS2_WIRE_MESSAGE(CounterSnapshotMsg, kCounterSnapshot)
FS2_WIRE_MESSAGE(MetricUpdateMsg, kMetricUpdate)
FS2_WIRE_MESSAGE(FlightRecordMsg, kFlightRecord)
FS2_WIRE_MESSAGE(RejoinMsg, kRejoin)
FS2_WIRE_MESSAGE(RejoinAckMsg, kRejoinAck)
FS2_WIRE_MESSAGE(StatusRequestMsg, kStatusRequest)
FS2_WIRE_MESSAGE(StatusReplyMsg, kStatusReply)

#undef FS2_WIRE_MESSAGE

// The wire layout of one sample is two packed little-endian IEEE doubles —
// identical to telemetry::Sample's in-memory layout on little-endian hosts,
// which is what makes the memcpy fast paths below exact.
static_assert(sizeof(telemetry::Sample) == 16);

void SampleBatchMsg::encode_into(WireWriter& w, std::uint32_t channel_id,
                                 const telemetry::Sample* samples, std::size_t count) {
  w.clear();
  w.reserve(8 + count * sizeof(telemetry::Sample));
  w.u32(channel_id);
  w.u32(static_cast<std::uint32_t>(count));
  if constexpr (std::endian::native == std::endian::little) {
    w.raw(samples, count * sizeof(telemetry::Sample));
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      w.f64(samples[i].time_s);
      w.f64(samples[i].value);
    }
  }
}

void SampleBatchMsg::decode_into(WireReader& in, SampleBatchMsg& out) {
  out.channel_id = in.u32();
  const std::uint32_t n = in.u32();
  // Truncation check before resizing: a hostile length field must not
  // drive a multi-gigabyte allocation.
  if (in.remaining() < static_cast<std::size_t>(n) * sizeof(telemetry::Sample))
    throw WireError("cluster wire: sample batch shorter than its count");
  out.samples.resize(n);
  if (n == 0) return;  // data() may be null on an empty vector; memcpy(null) is UB
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out.samples.data(), in.raw(n * sizeof(telemetry::Sample)),
                n * sizeof(telemetry::Sample));
  } else {
    for (std::uint32_t i = 0; i < n; ++i) {
      out.samples[i].time_s = in.f64();
      out.samples[i].value = in.f64();
    }
  }
}

Frame SampleBatchMsg::encode() const {
  WireWriter w;
  encode_into(w, channel_id, samples.data(), samples.size());
  return Frame{MessageType::kSampleBatch, w.take()};
}

SampleBatchMsg SampleBatchMsg::decode(WireReader& in) {
  SampleBatchMsg m;
  decode_into(in, m);
  return m;
}

}  // namespace fs2::cluster
