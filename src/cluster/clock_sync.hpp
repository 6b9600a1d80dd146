#pragma once

#include <chrono>

#include "cluster/messages.hpp"

namespace fs2::cluster {

/// Steady-clock seconds since this process's (arbitrary) clock epoch — the
/// time representation both sync messages and the epoch handoff use. Each
/// machine's value is meaningless to the other; only differences and the
/// estimated offset between them are.
double local_clock_s();

/// Convert a local-clock seconds value back to a time point (for
/// sleep_until and PhaseClock epoch injection).
std::chrono::steady_clock::time_point to_time_point(double clock_s);

/// The coordinator's RTT-compensated estimate of one agent's clock offset,
/// folded one exchange at a time so that its event loop keeps many agents'
/// probes in flight: send probe(), feed the agent's kSyncReply to
/// on_reply(), repeat until done(). NTP-style, the reply's remote timestamp
/// is assumed to sit midway through the round trip, and the minimum-RTT
/// round wins because queueing delay only ever adds to (never subtracts
/// from) the apparent offset error.
struct ClockSync {
  static constexpr int kRounds = 8;
  /// agent_clock - coordinator_clock, in seconds: the agent's clock reads
  /// `coordinator_now + offset_s` right now. Accurate to about rtt_s / 2
  /// under asymmetric routing; exact under symmetric delays.
  double offset_s = 0.0;
  double rtt_s = 0.0;  ///< round-trip of the best (minimum-RTT) sample
  int rounds = 0;

  /// The next probe, stamped with the coordinator clock now.
  Frame probe() const;
  /// Fold the answer to the last probe. Throws WireError on anything but
  /// the kSyncReply that echoes its sequence number.
  void on_reply(const Frame& frame);
  bool done() const { return rounds >= kRounds; }
};

}  // namespace fs2::cluster
