#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "trace/registry.hpp"

namespace fs2::trace {

/// One closed span with an owned name — the cold, serializable counterpart
/// of SpanEvent. Timestamps are seconds in the ORIGIN node's steady clock;
/// the collector rebases them into the coordinator's clock at merge time.
struct Span {
  std::string name;
  double begin_s = 0.0;
  double end_s = 0.0;
};

/// Merges per-node span buffers and counter snapshots into one fleet
/// timeline and exports it as Chrome trace_event JSON (Perfetto-loadable).
///
/// Rebasing: clock sync estimates offset_s = agent_clock - coordinator_clock
/// for each node, so a span stamped t on the agent happened at
/// t - offset_s on the coordinator's clock. The coordinator itself is node 0
/// with offset 0. Exported timestamps are microseconds relative to the
/// earliest rebased span begin (Perfetto dislikes huge absolute epochs);
/// each node becomes one "process" (pid) named via metadata events.
class TraceCollector {
 public:
  /// Register a node; returns its pid. Registering the same name again
  /// returns the existing pid (the offset is not updated).
  int add_node(const std::string& name, double offset_s);

  void add_span(const std::string& node, Span span);
  void add_spans(const std::string& node, std::vector<Span> spans);
  void add_counters(const std::string& node, std::vector<MetricSnapshot> counters);

  /// All spans rebased into the coordinator clock, sorted by begin time
  /// (ties by node then name). The node name rides in `name` untouched —
  /// callers that need it use spans_for_node().
  std::vector<Span> merged_timeline() const;

  /// Rebased spans of one node, recording order.
  std::vector<Span> spans_for_node(const std::string& node) const;

  std::size_t span_count() const;
  bool empty() const { return span_count() == 0; }

  /// Write {"traceEvents":[...]} — "M" process_name metadata per node,
  /// "X" complete events per span, "C" counter events per snapshot entry.
  /// A node's spans share tid 1 unless they overlap without nesting (spans
  /// of work on parallel threads); each of those goes to the next track on
  /// which it nests. Spans carry no thread identity, so a track is a
  /// nesting lane: a short span of one thread can sit under a longer span
  /// of another.
  void write_json(std::ostream& out) const;

 private:
  struct NodeRecord {
    std::string name;
    double offset_s = 0.0;
    std::vector<Span> spans;  ///< local-clock timestamps as recorded
    std::vector<MetricSnapshot> counters;
  };

  NodeRecord& node(const std::string& name);

  std::vector<NodeRecord> nodes_;
};

}  // namespace fs2::trace
