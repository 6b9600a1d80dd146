#include "cluster/clock_sync.hpp"

#include "util/strings.hpp"

namespace fs2::cluster {

double local_clock_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::chrono::steady_clock::time_point to_time_point(double clock_s) {
  return std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(clock_s)));
}

Frame ClockSync::probe() const {
  SyncProbeMsg probe;
  probe.seq = static_cast<std::uint32_t>(rounds);
  probe.t_coord_s = local_clock_s();
  return probe.encode();
}

void ClockSync::on_reply(const Frame& frame) {
  const double t_recv = local_clock_s();
  if (frame.type != MessageType::kSyncReply)
    throw WireError(std::string("clock sync: expected sync-reply, got ") +
                    to_string(frame.type));
  WireReader reader(frame.payload);
  const SyncReplyMsg reply = SyncReplyMsg::decode(reader);
  if (reply.seq != static_cast<std::uint32_t>(rounds))
    throw WireError(strings::format("clock sync: reply seq %u for probe %d", reply.seq,
                                    rounds));
  const double rtt = t_recv - reply.t_coord_s;
  if (rounds == 0 || rtt < rtt_s) {
    rtt_s = rtt;
    // The agent stamped its reply somewhere inside our round trip; the
    // midpoint assumption cancels symmetric network delay exactly.
    offset_s = reply.t_agent_s - (reply.t_coord_s + t_recv) / 2.0;
  }
  ++rounds;
}

}  // namespace fs2::cluster
