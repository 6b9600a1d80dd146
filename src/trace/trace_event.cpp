#include "trace/trace_event.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <numeric>

#include "util/error.hpp"

namespace fs2::trace {

namespace {

void write_escaped(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

/// trace_event timestamps are microseconds; emit as integers (Perfetto
/// accepts fractional but integers keep files small and diffs stable).
std::int64_t to_us(double seconds) {
  return static_cast<std::int64_t>(seconds * 1e6 + (seconds >= 0 ? 0.5 : -0.5));
}

/// A track (tid) per span such that the spans on each track nest: Perfetto
/// drops a complete event that overlaps another on its track without
/// nesting in it, and spans of work on different threads (the stress
/// workers' parallel buffer builds) overlap. In begin order, each span takes the
/// first track whose innermost open span encloses it, or a new track.
std::vector<int> nesting_tracks(const std::vector<std::int64_t>& begin,
                                const std::vector<std::int64_t>& end) {
  std::vector<std::size_t> order(begin.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return begin[a] != begin[b] ? begin[a] < begin[b] : end[a] > end[b];  // encloser first
  });
  std::vector<std::vector<std::int64_t>> open;  ///< per track: open spans' ends, innermost last
  std::vector<int> track(begin.size());
  for (const std::size_t i : order) {
    std::size_t t = 0;
    for (; t < open.size(); ++t) {
      while (!open[t].empty() && open[t].back() <= begin[i]) open[t].pop_back();
      if (open[t].empty() || end[i] <= open[t].back()) break;
    }
    if (t == open.size()) open.emplace_back();
    open[t].push_back(end[i]);
    track[i] = static_cast<int>(t) + 1;
  }
  return track;
}

}  // namespace

TraceCollector::NodeRecord& TraceCollector::node(const std::string& name) {
  for (NodeRecord& n : nodes_)
    if (n.name == name) return n;
  throw Error("trace: unknown node '" + name + "' (add_node first)");
}

int TraceCollector::add_node(const std::string& name, double offset_s) {
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (nodes_[i].name == name) return static_cast<int>(i);
  nodes_.push_back(NodeRecord{name, offset_s, {}, {}});
  return static_cast<int>(nodes_.size() - 1);
}

void TraceCollector::add_span(const std::string& node_name, Span span) {
  node(node_name).spans.push_back(std::move(span));
}

void TraceCollector::add_spans(const std::string& node_name, std::vector<Span> spans) {
  NodeRecord& n = node(node_name);
  if (n.spans.empty()) {
    n.spans = std::move(spans);
  } else {
    n.spans.insert(n.spans.end(), std::make_move_iterator(spans.begin()),
                   std::make_move_iterator(spans.end()));
  }
}

void TraceCollector::add_counters(const std::string& node_name,
                                  std::vector<MetricSnapshot> counters) {
  NodeRecord& n = node(node_name);
  n.counters.insert(n.counters.end(), std::make_move_iterator(counters.begin()),
                    std::make_move_iterator(counters.end()));
}

std::vector<Span> TraceCollector::merged_timeline() const {
  struct Keyed {
    Span span;
    std::size_t node_index;
  };
  std::vector<Keyed> all;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    for (const Span& s : nodes_[i].spans) {
      all.push_back(
          Keyed{Span{s.name, s.begin_s - nodes_[i].offset_s, s.end_s - nodes_[i].offset_s}, i});
    }
  }
  std::stable_sort(all.begin(), all.end(), [](const Keyed& a, const Keyed& b) {
    if (a.span.begin_s != b.span.begin_s) return a.span.begin_s < b.span.begin_s;
    if (a.node_index != b.node_index) return a.node_index < b.node_index;
    return a.span.name < b.span.name;
  });
  std::vector<Span> out;
  out.reserve(all.size());
  for (Keyed& k : all) out.push_back(std::move(k.span));
  return out;
}

std::vector<Span> TraceCollector::spans_for_node(const std::string& node_name) const {
  for (const NodeRecord& n : nodes_) {
    if (n.name != node_name) continue;
    std::vector<Span> out;
    out.reserve(n.spans.size());
    for (const Span& s : n.spans)
      out.push_back(Span{s.name, s.begin_s - n.offset_s, s.end_s - n.offset_s});
    return out;
  }
  throw Error("trace: unknown node '" + node_name + "'");
}

std::size_t TraceCollector::span_count() const {
  std::size_t total = 0;
  for (const NodeRecord& n : nodes_) total += n.spans.size();
  return total;
}

void TraceCollector::write_json(std::ostream& out) const {
  // Shift so the earliest rebased begin lands at ts 0 and everything else
  // stays non-negative — Perfetto renders negative timestamps poorly.
  double min_s = std::numeric_limits<double>::infinity();
  for (const NodeRecord& n : nodes_)
    for (const Span& s : n.spans) min_s = std::min(min_s, s.begin_s - n.offset_s);
  if (!(min_s < std::numeric_limits<double>::infinity())) min_s = 0.0;

  out << "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n";
  };

  for (std::size_t pid = 0; pid < nodes_.size(); ++pid) {
    const NodeRecord& n = nodes_[pid];
    sep();
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid + 1
        << ",\"tid\":0,\"args\":{\"name\":";
    write_escaped(out, n.name);
    out << "}}";
    std::vector<std::int64_t> begin, end;
    for (const Span& s : n.spans) {
      begin.push_back(to_us(s.begin_s - n.offset_s - min_s));
      end.push_back(begin.back() + to_us(std::max(s.end_s - s.begin_s, 0.0)));
    }
    const std::vector<int> tracks = nesting_tracks(begin, end);
    for (std::size_t i = 0; i < n.spans.size(); ++i) {
      sep();
      out << "{\"name\":";
      write_escaped(out, n.spans[i].name);
      out << ",\"ph\":\"X\",\"ts\":" << begin[i] << ",\"dur\":" << end[i] - begin[i]
          << ",\"pid\":" << pid + 1 << ",\"tid\":" << tracks[i] << "}";
    }
    // Counters land at the node's last rebased timestamp: they are
    // end-of-run snapshots, not a time series.
    double last = 0.0;
    for (const Span& s : n.spans) last = std::max(last, s.end_s - n.offset_s - min_s);
    for (const MetricSnapshot& c : n.counters) {
      sep();
      out << "{\"name\":";
      write_escaped(out, c.name);
      out << ",\"ph\":\"C\",\"ts\":" << to_us(last) << ",\"pid\":" << pid + 1
          << ",\"args\":{\"value\":" << c.value << "}}";
    }
  }
  out << "\n]}\n";
}

}  // namespace fs2::trace
