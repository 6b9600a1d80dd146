#include "cluster/exposition.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/strings.hpp"

namespace fs2::cluster {

namespace {

constexpr double kQuantiles[] = {0.5, 0.95, 0.99};
constexpr const char* kQuantileLabels[] = {"0.5", "0.95", "0.99"};

void append_number(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_label(std::string& out, const char* key, const std::string& value) {
  out += '{';
  out += key;
  out += "=\"";
  for (char c : value) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') { out += "\\n"; continue; }
    out += c;
  }
  out += "\"}";
}

void append_type(std::string& out, const std::string& name, const char* type) {
  out += "# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

/// One histogram as a Prometheus summary: quantile series + _sum + _count.
void append_summary(std::string& out, const std::string& name,
                    const trace::HistogramSnapshot& hist) {
  append_type(out, name, "summary");
  for (std::size_t q = 0; q < 3; ++q) {
    out += name;
    append_label(out, "quantile", kQuantileLabels[q]);
    out += ' ';
    append_number(out, hist.quantile(kQuantiles[q]));
    out += '\n';
  }
  out += name + "_sum ";
  append_number(out, hist.sum);
  out += '\n';
  out += name + "_count " + std::to_string(hist.count) + '\n';
}

}  // namespace

std::string exposition_name(const std::string& name) {
  std::string out = "fs2_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

std::string render_metrics(const std::vector<trace::MetricSnapshot>& local,
                           const std::vector<trace::HistogramSnapshot>& local_hists,
                           const MetricStore& store,
                           const std::vector<ExpositionNode>& nodes,
                           std::size_t alert_count, bool fleet_healthy) {
  std::string out;
  out.reserve(4096);

  // Fleet identity and health first — what a dashboard keys its panels on.
  append_type(out, "fs2_fleet_nodes", "gauge");
  out += "fs2_fleet_nodes " + std::to_string(nodes.size()) + '\n';
  append_type(out, "fs2_fleet_healthy", "gauge");
  out += std::string("fs2_fleet_healthy ") + (fleet_healthy ? "1" : "0") + '\n';
  append_type(out, "fs2_fleet_alerts_total", "counter");
  out += "fs2_fleet_alerts_total " + std::to_string(alert_count) + '\n';

  // Coordinator-local registry (counters and gauges).
  for (const trace::MetricSnapshot& m : local) {
    const std::string name = exposition_name(m.name);
    append_type(out, name, m.is_counter ? "counter" : "gauge");
    out += name + ' ';
    append_number(out, m.value);
    out += '\n';
  }
  // Coordinator-local histograms as quantile summaries.
  for (const trace::HistogramSnapshot& h : local_hists)
    append_summary(out, exposition_name(h.name), h);

  // Fleet rollups folded from the kMetricUpdate stream.
  const MetricStore::Rollup rollup = store.rollup();
  for (const auto& [name, total] : rollup.counters) {
    const std::string prom = exposition_name("fleet." + name);
    append_type(out, prom, "counter");
    out += prom + ' ' + std::to_string(total) + '\n';
  }
  for (const trace::HistogramSnapshot& h : rollup.hists)
    append_summary(out, exposition_name("fleet." + h.name), h);

  // Per-node gauges, one labelled series per node.
  struct NodeGauge {
    const char* metric;
    double (*value)(const ExpositionNode&);
  };
  static const NodeGauge kNodeGauges[] = {
      {"fs2_node_up", [](const ExpositionNode& n) { return n.lost ? 0.0 : 1.0; }},
      {"fs2_node_phases_begun",
       [](const ExpositionNode& n) { return static_cast<double>(n.phases_begun); }},
      {"fs2_node_phases_ended",
       [](const ExpositionNode& n) { return static_cast<double>(n.phases_ended); }},
      {"fs2_node_clock_offset_seconds",
       [](const ExpositionNode& n) { return n.clock_offset_s; }},
      {"fs2_node_clock_rtt_seconds",
       [](const ExpositionNode& n) { return n.clock_rtt_s; }},
      {"fs2_node_achieved_watts", [](const ExpositionNode& n) { return n.achieved_w; }},
      {"fs2_node_setpoint_watts", [](const ExpositionNode& n) { return n.setpoint_w; }},
      {"fs2_node_level", [](const ExpositionNode& n) { return n.level; }},
      {"fs2_node_metrics_age_seconds",
       [](const ExpositionNode& n) { return n.metrics_age_s; }},
      {"fs2_node_rejoins",
       [](const ExpositionNode& n) { return static_cast<double>(n.rejoins); }},
  };
  for (const NodeGauge& g : kNodeGauges) {
    append_type(out, g.metric, "gauge");
    for (const ExpositionNode& n : nodes) {
      out += g.metric;
      append_label(out, "node", n.name);
      out += ' ';
      append_number(out, g.value(n));
      out += '\n';
    }
  }

  // Per-node gauges shipped through the metrics plane (agent-side registry
  // gauges — e.g. a loopback agent's private "agent.*" series).
  const std::vector<MetricStore::NodeSeries>& series = store.nodes();
  for (std::size_t node = 0; node < series.size() && node < nodes.size(); ++node) {
    for (std::size_t id = 0; id < series[node].defs.size(); ++id) {
      const trace::MetricDefRec& def = series[node].defs[id];
      if (def.name.empty() || def.kind != trace::MetricKind::kGauge) continue;
      const std::string prom = exposition_name(def.name);
      out += prom;
      append_label(out, "node", nodes[node].name);
      out += ' ';
      append_number(out, series[node].gauges[id]);
      out += '\n';
    }
  }

  return out;
}

bool read_greeting(int fd, std::string& head) {
  constexpr std::size_t kMaxRequestHead = 4096;
  constexpr std::uint32_t kMaxGreetingBytes = 64u << 10;
  for (;;) {
    // Read no further than the message: a frame's header, then its declared
    // length; a request up to its first line end.
    std::size_t want = 4;
    if (head.size() >= 4 && head.compare(0, 4, "GET ") == 0) {
      if (head.find("\r\n") != std::string::npos || head.size() >= kMaxRequestHead)
        return true;
      want = kMaxRequestHead;
    } else if (head.size() >= 4) {
      const std::uint32_t length =
          WireReader(reinterpret_cast<const std::uint8_t*>(head.data()), 4).u32();
      if (length == 0 || length > kMaxGreetingBytes)
        throw WireError(
            strings::format("cluster: first frame length %u out of range", length));
      want = 4 + std::size_t{length};
      if (head.size() == want) return true;
    }
    char buf[1024];
    const ssize_t n =
        ::recv(fd, buf, std::min(sizeof buf, want - head.size()), MSG_DONTWAIT);
    if (n > 0) {
      head.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0) {
      throw WireError("cluster: peer closed before its first message was whole");
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return false;
    } else if (errno != EINTR) {
      throw WireError(std::string("cluster: recv failed (") + std::strerror(errno) + ")");
    }
  }
}

void serve_http_client(Connection conn, const std::string& request,
                       const std::string& metrics_body, bool fleet_healthy) {
  std::string path = "/";
  const std::size_t sp1 = request.find(' ');
  if (sp1 != std::string::npos) {
    const std::size_t sp2 = request.find(' ', sp1 + 1);
    if (sp2 != std::string::npos) path = request.substr(sp1 + 1, sp2 - sp1 - 1);
  }

  const char* status = "200 OK";
  std::string body;
  if (path == "/metrics") {
    body = metrics_body;
  } else if (path == "/healthz") {
    status = fleet_healthy ? "200 OK" : "503 Service Unavailable";
    body = fleet_healthy ? "ok\n" : "unhealthy\n";
  } else {
    status = "404 Not Found";
    body = "not found\n";
  }

  std::string response = "HTTP/1.1 ";
  response += status;
  response += "\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n";
  response += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  response += "Connection: close\r\n\r\n";
  response += body;

  std::size_t off = 0;
  while (off < response.size()) {
    const ssize_t n =
        ::send(conn.fd(), response.data() + off, response.size() - off, MSG_NOSIGNAL);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  conn.close();
}

}  // namespace fs2::cluster
