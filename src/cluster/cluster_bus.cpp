#include "cluster/cluster_bus.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>

#include "cluster/aggregate_rules.hpp"
#include "trace/registry.hpp"
#include "trace/tracer.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace fs2::cluster {

namespace {

/// Process-wide skew gauge: every ClusterBus mirrors its alignment-queue
/// depth here (one live bus per process in practice). Resolved once — the
/// registry lookup takes a mutex, the gauge store does not.
trace::Gauge& queued_gauge() {
  static trace::Gauge& g = trace::Registry::instance().gauge("cluster.bus.queued_samples");
  return g;
}

trace::Counter& batch_counter() {
  static trace::Counter& c = trace::Registry::instance().counter("cluster.bus.sample_batches");
  return c;
}

/// Wall time spent aligning and draining completed sample groups — the bus's
/// dominant per-batch cost, so its tail quantiles are the first thing to read
/// when coordinator ingest falls behind.
trace::Histogram& drain_hist() {
  static trace::Histogram& h = trace::Registry::instance().histogram("cluster.bus.drain_s");
  return h;
}

/// Per-node phase-begin lag behind the earliest beginner of the same phase.
/// The CSV's phase-begin-spread row keeps only min/max; the histogram keeps
/// the distribution across all nodes and phases.
trace::Histogram& spread_hist() {
  static trace::Histogram& h =
      trace::Registry::instance().histogram("cluster.phase_begin_spread_s");
  return h;
}

}  // namespace

ClusterBus::ClusterBus(std::vector<std::string> node_names) {
  nodes_.resize(node_names.size());
  for (std::size_t i = 0; i < node_names.size(); ++i)
    nodes_[i].name = std::move(node_names[i]);
}

void ClusterBus::on_channel(std::size_t node, const ChannelMsg& msg) {
  Node& n = nodes_.at(node);
  if (n.registered.size() <= msg.channel_id) {
    n.registered.resize(msg.channel_id + 1, 0);
    n.aggregate_of.resize(msg.channel_id + 1, kNoAggregate);
  }
  n.registered[msg.channel_id] = 1;

  if (const AggregateRule* rule = aggregate_rule_for(msg.name)) {
    std::size_t index = aggregates_.size();
    for (std::size_t i = 0; i < aggregates_.size(); ++i)
      if (aggregates_[i].name == rule->cluster_name) index = i;
    if (index == aggregates_.size()) {
      AggregateStream stream;
      stream.name = rule->cluster_name;
      stream.unit = rule->unit;
      stream.is_sum = rule->is_sum;
      stream.participating.assign(nodes_.size(), 0);
      stream.queues.resize(nodes_.size());
      aggregates_.push_back(std::move(stream));
    }
    if (!aggregates_[index].participating[node]) {
      aggregates_[index].participating[node] = 1;
      ++aggregates_[index].participants;
    }
    n.aggregate_of[msg.channel_id] = index;
    // Host agents register metric channels from inside the first phase
    // (sensors spin up after the begin bracket is on the wire), so a
    // stream born mid-phase must get its aggregator NOW — otherwise the
    // phase's samples would queue un-drained, emit no cluster row, and
    // contaminate the next phase. Samples published by earlier-registered
    // nodes before this one joined have already drained as smaller groups;
    // the overlap is bounded by one registration round trip.
    if (agg_phase_open_ && aggregates_[index].agg == nullptr)
      aggregates_[index].agg = std::make_unique<telemetry::StreamingAggregator>(
          agg_phase_.start_delta_s, agg_phase_.stop_delta_s);
  }
}

void ClusterBus::on_bracket(std::size_t node, const PhaseBracketMsg& msg) {
  Node& n = nodes_.at(node);
  if (msg.is_begin) {
    if (msg.phase_index != n.phases_begun)
      throw WireError(strings::format("node %s began phase %u out of order (expected %u)",
                                      n.name.c_str(), msg.phase_index, n.phases_begun));
    ++n.phases_begun;

    // A rejoined node's re-begin of its interrupted phase arrives seconds
    // after the fleet's — recovery lateness, not a lockstep straggle.
    const bool sync_exempt = msg.phase_index == n.sync_exempt_phase;
    if (sync_exempt) n.sync_exempt_phase = kNoSyncExempt;

    if (sync_.size() <= msg.phase_index) {
      PhaseSync sync;
      sync.name = msg.phase_name;
      sync.min_begin_s = sync.max_begin_s = msg.epoch_elapsed_s;
      sync.min_node = sync.max_node = n.name;
      sync.nodes = 1;
      sync_.push_back(sync);
      phase_names_.push_back(msg.phase_name);
    } else if (sync_exempt) {
      // Keep the entry's stats untouched; the re-begin still opens the
      // aggregate phase below.
    } else {
      PhaseSync& sync = sync_[msg.phase_index];
      if (msg.epoch_elapsed_s < sync.min_begin_s) {
        sync.min_begin_s = msg.epoch_elapsed_s;
        sync.min_node = n.name;
      }
      if (msg.epoch_elapsed_s > sync.max_begin_s) {
        sync.max_begin_s = msg.epoch_elapsed_s;
        sync.max_node = n.name;
      }
      ++sync.nodes;
      spread_hist().record(std::max(0.0, msg.epoch_elapsed_s - sync.min_begin_s));
    }

    if (!agg_phase_open_ && msg.phase_index == agg_phase_index_) {
      agg_phase_.name = msg.phase_name;
      agg_phase_.duration_s = msg.duration_s;
      agg_phase_.start_delta_s = msg.start_delta_s;
      agg_phase_.stop_delta_s = msg.stop_delta_s;
      agg_phase_open_ = true;
      for (AggregateStream& stream : aggregates_)
        stream.agg = std::make_unique<telemetry::StreamingAggregator>(msg.start_delta_s,
                                                                      msg.stop_delta_s);
    }
  } else {
    ++n.phases_ended;
    close_completed_phases();
  }
}

void ClusterBus::close_completed_phases() {
  while (agg_phase_open_) {
    bool all_ended = true;
    bool any = false;
    for (const Node& other : nodes_) {
      if (other.lost) continue;
      any = true;
      all_ended &= other.phases_ended > agg_phase_index_;
    }
    if (!any || !all_ended) return;
    close_aggregate_phase();
  }
}

void ClusterBus::on_node_lost(std::size_t node) {
  Node& n = nodes_.at(node);
  if (n.lost) return;
  n.lost = true;
  for (AggregateStream& stream : aggregates_) {
    if (stream.participating[node]) {
      stream.participating[node] = 0;
      --stream.participants;
    }
    queued_ -= stream.queues[node].size();
    stream.queues[node].clear();
    // Groups that were only waiting on the dead node can complete now.
    drain_aligned(stream);
  }
  queued_gauge().set(static_cast<double>(queued_));
  close_completed_phases();
}

void ClusterBus::on_node_rejoin(std::size_t node, std::uint32_t resume) {
  Node& n = nodes_.at(node);
  n.lost = false;
  n.phases_begun = resume;
  n.phases_ended = resume;
  // The re-begin of the interrupted phase (if the fleet already began it)
  // is late by the whole outage; exempt it from the lockstep spread.
  if (resume < sync_.size()) n.sync_exempt_phase = resume;
  // The dead incarnation's queued samples must not align with the fresh
  // run — a restarted agent re-publishes its interrupted phase from the top.
  for (AggregateStream& stream : aggregates_) {
    queued_ -= stream.queues[node].size();
    stream.queues[node].clear();
  }
  // Restore aggregate participation for channels the node had registered.
  // A restarted sim agent re-registers (on_channel would heal this), but a
  // surviving real agent keeps its sink and never re-sends kChannel.
  for (std::size_t ch = 0; ch < n.aggregate_of.size(); ++ch) {
    const std::size_t agg = n.aggregate_of[ch];
    if (agg == kNoAggregate || n.registered[ch] == 0) continue;
    AggregateStream& stream = aggregates_[agg];
    if (!stream.participating[node]) {
      stream.participating[node] = 1;
      ++stream.participants;
    }
  }
  queued_gauge().set(static_cast<double>(queued_));
  close_completed_phases();
}

void ClusterBus::on_samples(std::size_t node, const SampleBatchMsg& msg) {
  Node& n = nodes_.at(node);
  batch_counter().add();
  // Resolve channel and aggregate stream ONCE per batch from the flat
  // tables; the per-sample loops below are straight-line array walks.
  if (msg.channel_id >= n.registered.size() || !n.registered[msg.channel_id])
    throw WireError(strings::format("node %s sent samples on unregistered channel %u",
                                    n.name.c_str(), msg.channel_id));
  const std::size_t agg = n.aggregate_of[msg.channel_id];
  // Edge-summarized channels have no per-sample consumer here; tolerating
  // (and dropping) their batches keeps the bus usable with senders that
  // stream everything.
  if (agg == kNoAggregate) return;
  AggregateStream& stream = aggregates_[agg];
  // Single-participant stream: every group is this node's own sample, so
  // the alignment queue is a round trip to nowhere — feed the aggregator
  // directly (identical values and order; sum-of-one and max-of-one are
  // both the sample itself). Anything queued from before the phase opened
  // drains first so arrival order is preserved.
  if (stream.agg != nullptr && stream.participants == 1 && stream.participating[node]) {
    if (!stream.queues[node].empty()) drain_aligned(stream);
    stream.agg->add_batch(msg.samples.data(), msg.samples.size());
    return;
  }
  std::deque<telemetry::Sample>& queue = stream.queues[node];
  for (const telemetry::Sample& sample : msg.samples) {
    if (queue.size() >= kMaxLagSamples) {
      if (!stream.warned_lag) {
        log::warn() << "cluster: node " << n.name << " is more than " << kMaxLagSamples
                    << " samples ahead on " << stream.name
                    << "; dropping its oldest unmatched samples";
        stream.warned_lag = true;
      }
      queue.pop_front();
      --queued_;
    }
    queue.push_back(sample);
    ++queued_;
  }
  drain_aligned(stream);
  queued_gauge().set(static_cast<double>(queued_));
}

void ClusterBus::on_summary(std::size_t node, const NodeSummaryMsg& msg) {
  Node& n = nodes_.at(node);
  if (msg.phase_index >= phase_names_.size())
    throw WireError(strings::format("node %s sent a summary row for unknown phase %u",
                                    n.name.c_str(), msg.phase_index));
  metrics::Summary row;
  row.name = msg.name;
  row.unit = msg.unit;
  row.samples = msg.samples;
  row.mean = msg.mean;
  row.stddev = msg.stddev;
  row.min = msg.min;
  row.max = msg.max;
  row.p50 = msg.p50;
  row.p95 = msg.p95;
  row.p99 = msg.p99;
  row.phase = phase_names_[msg.phase_index];
  n.rows.push_back(std::move(row));
}

void ClusterBus::drain_aligned(AggregateStream& stream) {
  if (stream.agg == nullptr) return;
  TRACE_SPAN("cluster.bus.drain");
  const auto drain_begin = std::chrono::steady_clock::now();
  struct DrainTimer {
    std::chrono::steady_clock::time_point begin;
    ~DrainTimer() {
      drain_hist().record(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count());
    }
  } timer{drain_begin};
  // Completed groups collect into a scratch batch and hit the aggregator
  // once — the P² updates run over a contiguous span instead of a call per
  // group.
  drain_scratch_.clear();
  for (;;) {
    // A group is complete when every PARTICIPATING node (one that
    // registered a source channel for this stream) has an unconsumed
    // sample. Non-participants (e.g. a host node without RAPL) are skipped
    // rather than stalling the whole aggregate.
    double sum = 0.0;
    double max_value = 0.0;
    double time_s = 0.0;
    bool first = true;
    bool complete = true;
    for (std::size_t node = 0; node < nodes_.size(); ++node) {
      if (!stream.participating[node]) continue;
      if (stream.queues[node].empty()) {
        complete = false;  // group incomplete
        break;
      }
      const telemetry::Sample& sample = stream.queues[node].front();
      sum += sample.value;
      max_value = first ? sample.value : std::max(max_value, sample.value);
      time_s = first ? sample.time_s : std::max(time_s, sample.time_s);
      first = false;
    }
    if (!complete || first) break;  // incomplete, or no participants yet
    for (std::size_t node = 0; node < nodes_.size(); ++node) {
      if (!stream.participating[node]) continue;
      stream.queues[node].pop_front();
      --queued_;
    }
    drain_scratch_.push_back(telemetry::Sample{time_s, stream.is_sum ? sum : max_value});
  }
  if (!drain_scratch_.empty())
    stream.agg->add_batch(drain_scratch_.data(), drain_scratch_.size());
}

void ClusterBus::close_aggregate_phase() {
  if (!agg_phase_open_) return;
  for (AggregateStream& stream : aggregates_) {
    drain_aligned(stream);
    // Leftover unmatched samples (count skew between nodes) are discarded
    // UNCONDITIONALLY: the next phase's alignment must not pair one
    // phase's tail with another's head.
    for (auto& queue : stream.queues) {
      queued_ -= queue.size();
      queue.clear();
    }
    queued_gauge().set(static_cast<double>(queued_));
    if (stream.agg == nullptr) continue;
    if (stream.agg->total_samples() > 0) {
      const telemetry::StreamingSummary summary = stream.agg->summarize();
      metrics::Summary row;
      row.name = stream.name;
      row.unit = stream.unit;
      row.mean = summary.mean;
      row.stddev = summary.stddev;
      row.min = summary.min;
      row.max = summary.max;
      row.p50 = summary.p50;
      row.p95 = summary.p95;
      row.p99 = summary.p99;
      row.samples = summary.samples;
      row.phase = agg_phase_.name;
      stream.rows.push_back(std::move(row));
    }
    stream.agg.reset();
  }
  agg_phase_open_ = false;
  ++agg_phase_index_;
}

void ClusterBus::finish() { close_aggregate_phase(); }

std::vector<ClusterBus::Row> ClusterBus::merged_rows() const {
  std::vector<Row> rows;
  // Phase-major grouping: campaign phase names are unique (the parser
  // rejects duplicates), so grouping per-node rows by phase name is exact.
  for (std::size_t p = 0; p < phase_names_.size(); ++p) {
    const std::string& phase = phase_names_[p];
    for (const Node& node : nodes_)
      for (const metrics::Summary& summary : node.rows)
        if (summary.phase == phase) rows.push_back(Row{summary, node.name});
    for (const AggregateStream& stream : aggregates_)
      for (const metrics::Summary& summary : stream.rows)
        if (summary.phase == phase) rows.push_back(Row{summary, "cluster"});
    // Lockstep evidence rides in the CSV: min/max are the earliest/latest
    // begin offsets since the epoch, everything else is the spread itself.
    if (p < sync_.size()) {
      const PhaseSync& sync = sync_[p];
      const double spread_s = sync.spread_s();
      rows.push_back(Row{metrics::Summary{.name = "phase-begin-spread",
                                          .unit = "s",
                                          .mean = spread_s,
                                          .min = sync.min_begin_s,
                                          .max = sync.max_begin_s,
                                          .p50 = spread_s,
                                          .p95 = spread_s,
                                          .p99 = spread_s,
                                          .samples = sync.nodes,
                                          .phase = phase},
                         "cluster"});
    }
  }
  return rows;
}

void ClusterBus::write_csv(std::ostream& out, const std::vector<Row>& rows) {
  CsvWriter csv(out);
  csv.row(std::vector<std::string>{"metric", "unit", "samples", "mean", "stddev", "min",
                                   "max", "p50", "p95", "p99", "phase", "node"});
  for (const Row& row : rows) {
    const metrics::Summary& s = row.summary;
    csv.row(std::vector<std::string>{s.name, s.unit, std::to_string(s.samples),
                                     strings::format("%.4f", s.mean),
                                     strings::format("%.4f", s.stddev),
                                     strings::format("%.4f", s.min),
                                     strings::format("%.4f", s.max),
                                     strings::format("%.4f", s.p50),
                                     strings::format("%.4f", s.p95),
                                     strings::format("%.4f", s.p99), s.phase, row.node});
  }
}

}  // namespace fs2::cluster
