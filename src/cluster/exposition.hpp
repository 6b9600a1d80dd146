#pragma once

#include <string>
#include <vector>

#include "cluster/metrics_plane.hpp"
#include "cluster/transport.hpp"
#include "trace/registry.hpp"

namespace fs2::cluster {

/// One node's identity row for the exposition endpoint (per-node gauges:
/// phase progress, clock quality, budget tracking, update freshness).
struct ExpositionNode {
  std::string name;
  bool lost = false;
  std::uint32_t phases_begun = 0;
  std::uint32_t phases_ended = 0;
  double clock_offset_s = 0.0;
  double clock_rtt_s = 0.0;
  double achieved_w = 0.0;
  double setpoint_w = 0.0;
  double level = 0.0;
  double metrics_age_s = -1.0;  ///< -1 = no update yet
  std::uint32_t rejoins = 0;    ///< accepted rejoin handshakes
};

/// Sanitize a dotted metric name into a Prometheus identifier:
/// "cluster.bus.queued_samples" -> "fs2_cluster_bus_queued_samples".
std::string exposition_name(const std::string& name);

/// Render the full /metrics payload in Prometheus plaintext exposition
/// format (version 0.0.4): coordinator-local counters/gauges, fleet-rollup
/// counters and histogram quantiles (summaries), and per-node gauges with
/// {node="..."} labels.
std::string render_metrics(const std::vector<trace::MetricSnapshot>& local,
                           const std::vector<trace::HistogramSnapshot>& local_hists,
                           const MetricStore& store,
                           const std::vector<ExpositionNode>& nodes,
                           std::size_t alert_count, bool fleet_healthy);

/// Read what has arrived of a fresh connection's first message into `head`,
/// without waiting: an HTTP request ("GET " up to the end of the request
/// line, at most 4 KiB) or one frame of at most 64 KiB. Bytes are consumed
/// as they arrive, so a client that stops mid-message leaves nothing
/// readable behind and costs the caller's poll loop no wake-ups. True once
/// the message is whole; throws WireError when the peer closes first or
/// declares a frame length out of range.
bool read_greeting(int fd, std::string& head);

/// Answer one HTTP request, whose head `read_greeting` read, and close the
/// connection: GET /metrics -> 200 with `metrics_body`; GET /healthz -> 200
/// "ok" when healthy, 503 otherwise; anything else -> 404. Never throws — a
/// broken scraper must not take the campaign down.
void serve_http_client(Connection conn, const std::string& request,
                       const std::string& metrics_body, bool fleet_healthy);

}  // namespace fs2::cluster
