#pragma once

#include <cstddef>
#include <deque>
#include <mutex>
#include <string>

namespace fs2::trace {

/// Crash-surviving ring of recent observability state: alerts, lifecycle
/// events, and the last N metric snapshot lines, each ring independently
/// bounded so a chatty source can't evict the others. The recorder exists
/// so post-mortems don't depend on the run finishing — the paper's whole
/// methodology is watching a campaign evolve, and the most interesting
/// campaigns are the ones that die.
///
/// Three exits write the dump:
///  - dump(reason): normal code paths (fleet stall, node loss, run end
///    with alerts) write the configured --flight-out file directly.
///  - SIGTERM/SIGINT: configure() pre-opens the output fd and keeps the
///    serialized dump in a pre-rendered buffer republished after every
///    note_*() call, so the signal handler is a single async-signal-safe
///    ::write of bytes that already exist — no allocation, no locks.
///  - serialize(): agents ship the text to the coordinator in a
///    kFlightRecord frame on abnormal exit.
class FlightRecorder {
 public:
  static constexpr std::size_t kMaxAlerts = 64;
  static constexpr std::size_t kMaxEvents = 64;
  static constexpr std::size_t kMaxMetricLines = 128;

  static FlightRecorder& instance();

  /// Enable crash dumping: opens `path` (truncating), installs SIGTERM and
  /// SIGINT handlers that write the current buffer and re-raise. Safe to
  /// call more than once (last path wins).
  void configure(const std::string& path);

  void note_alert(const std::string& line);
  void note_event(const std::string& line);
  void note_metrics(const std::string& line);

  /// Render the dump text (header + the three rings, oldest first).
  std::string serialize();

  /// Write the dump to the configured path now (no-op when unconfigured).
  void dump(const std::string& reason);

  /// Drop all recorded lines and close any configured output. Test hook —
  /// keeps the singleton from leaking state across fixtures.
  void reset();

 private:
  FlightRecorder() = default;

  void append(std::deque<std::string>& ring, std::size_t cap, const std::string& line);
  std::string render_locked() const;  ///< dump text (mutex held)
  void republish_locked();  ///< rebuild the signal-handler buffer (mutex held)

  std::mutex mutex_;
  std::deque<std::string> alerts_;
  std::deque<std::string> events_;
  std::deque<std::string> metrics_;
  int fd_ = -1;
  std::string path_;
};

}  // namespace fs2::trace
