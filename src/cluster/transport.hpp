#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "cluster/messages.hpp"

namespace fs2::cluster {

class LinkFaults;

/// One framed, blocking TCP connection between coordinator and agent.
/// Frames are `u32 length | u8 type | payload` with the length covering
/// type + payload. Send and receive are whole-frame operations; partial
/// socket reads/writes are looped internally. Not thread-safe — each side
/// of the protocol drives its connection from a single thread (the
/// coordinator's event loop, the agent's campaign thread).
class Connection {
 public:
  Connection() = default;
  explicit Connection(int fd);
  ~Connection();

  Connection(Connection&& other) noexcept;
  Connection& operator=(Connection&& other) noexcept;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Connect to "host:port" (numeric IPv4 or a resolvable name), retrying
  /// for up to `retry_for_s` seconds — an agent routinely starts before its
  /// coordinator finishes binding. Throws fs2::Error on final failure.
  static Connection connect(const std::string& endpoint, double retry_for_s = 5.0);

  void send(const Frame& frame);

  /// Send one frame from raw payload bytes. The length prefix, type byte,
  /// and payload are assembled in a reused scratch buffer and written with
  /// a single send(2): the hot path (telemetry sample batches) costs one
  /// syscall and zero allocations per frame instead of two writes plus a
  /// fresh header vector.
  void send(MessageType type, const std::uint8_t* payload, std::size_t size);
  /// Send a payload encoded in a (typically reused) WireWriter.
  void send(MessageType type, const WireWriter& payload) {
    send(type, payload.bytes().data(), payload.bytes().size());
  }

  /// Receive the next frame, blocking. `timeout_s` bounds the wait for the
  /// frame's first byte (< 0 waits forever; on timeout returns
  /// std::nullopt). Once that byte is in, the rest of the frame must follow
  /// within kFrameReadBoundS. Throws WireError on disconnect, on a peer
  /// that stalls mid-frame, or on a frame exceeding kMaxFrameBytes.
  std::optional<Frame> recv(double timeout_s = -1.0);

  /// Receive into a caller-owned scratch frame, reusing its payload
  /// capacity across calls — the coordinator's event loop drains thousands
  /// of frames per second and must not allocate per frame. Returns false on
  /// timeout (`frame` untouched).
  bool recv_into(Frame& frame, double timeout_s = -1.0);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();

  /// Attach a chaos injector (nullptr = disabled, the production path: one
  /// pointer compare per send). The injector is consulted on every outgoing
  /// frame; delayed frames are held in a FIFO so chaos never reorders the
  /// stream, only slows it.
  void set_faults(LinkFaults* faults) { faults_ = faults; }

  /// Frames held back by a delay fault and not yet written.
  bool has_pending() const { return !pending_.empty(); }

  /// Write every held frame whose due time has arrived. Returns seconds
  /// until the next held frame is due, or 0 when none remain — cooperative
  /// reactors (SimFleet) call this each iteration so delayed frames drain
  /// even while the owning agent is idle.
  double flush_pending();

  /// Upper bound on a frame (type + payload). A sample batch of 4096
  /// samples is ~64 KiB; anything near this limit indicates a corrupt or
  /// hostile length prefix, not real traffic.
  static constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

  /// Seconds a peer may take to finish a frame it has begun: the one read
  /// from a single peer that can hold the coordinator's event loop.
  static constexpr double kFrameReadBoundS = 10.0;

 private:
  struct PendingFrame {
    double due_s = 0.0;  ///< monotonic seconds when the frame may be written
    std::vector<std::uint8_t> bytes;
  };

  void write_all(const std::uint8_t* data, std::size_t size);
  /// `frame_deadline_s` is 0 until the frame's first byte sets it. False =
  /// clean EOF before that byte (peer closed between frames).
  bool read_all(std::uint8_t* data, std::size_t size, double& frame_deadline_s);
  /// Build header + payload in send_buf_.
  void assemble(MessageType type, const std::uint8_t* payload, std::size_t size);
  /// Write send_buf_ now, or queue it behind delayed frames.
  void enqueue_or_write(double delay_s);

  int fd_ = -1;
  std::vector<std::uint8_t> send_buf_;  ///< header+payload assembly scratch
  LinkFaults* faults_ = nullptr;        ///< chaos injector; null in production
  std::deque<PendingFrame> pending_;    ///< delay-faulted frames, FIFO
};

/// Listening TCP socket for the coordinator. Binds immediately (port 0
/// selects an ephemeral port — loopback tests read the chosen one back via
/// port()).
class Listener {
 public:
  /// `loopback_only` binds 127.0.0.1 instead of all interfaces.
  explicit Listener(std::uint16_t port, bool loopback_only = false);
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Accept one connection, waiting up to `timeout_s` (< 0 = forever).
  /// Throws fs2::Error on timeout — a coordinator told to expect N nodes
  /// must fail loudly when one never dials in, not hang the campaign.
  Connection accept(double timeout_s);

  std::uint16_t port() const { return port_; }
  /// Raw socket for poll(2) — the coordinator's event loop watches the
  /// listener alongside agent connections to serve status clients mid-run.
  int fd() const { return fd_; }

  /// Stop listening (idempotent). Connections still sitting in the accept
  /// backlog are reset, so a late rejoiner fails fast instead of waiting on
  /// a socket nobody will ever serve.
  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace fs2::cluster
