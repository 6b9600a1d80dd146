#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/messages.hpp"

namespace fs2::cluster {

class LinkFaults;

/// One framed, blocking TCP connection between coordinator and agent.
/// Frames are `u32 length | u8 type | payload` with the length covering
/// type + payload. Send and receive are whole-frame operations; partial
/// socket reads/writes are looped internally. Frames come in through a
/// small read buffer (kReadBufferBytes, never zero-filled, held only while
/// some of its bytes are unread): one recv(2) takes whatever the socket
/// holds, and every whole frame in it is handed out without another
/// syscall. Not thread-safe — each side of the protocol drives its
/// connection from a single thread (the coordinator's event loop, the
/// agent's campaign thread).
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
  /// for up to `retry_for_s` seconds (0 dials once) — an agent routinely
  /// starts before its coordinator binds. Throws fs2::Error on final failure.
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
  /// of frames per second and must not allocate a payload per frame. The
  /// read buffer is allocated when a recv(2) needs it and freed once it is
  /// read out: one allocation per drain, not per frame. Returns false on
  /// timeout (`frame` untouched). A frame already whole in the read buffer
  /// costs no syscall; one that has begun is finished before returning,
  /// within kFrameReadBoundS. A frame longer than the buffer is finished
  /// straight into `frame`.
  ///
  /// With `timeout_s` 0 the call never waits for a first byte, and after a
  /// recv(2) that came back short (the socket held nothing more) it does
  /// not look at the socket again: it returns false, and the caller's
  /// poll(2) says when more has arrived. So a zero-timeout reader drains
  /// until false before it polls — otherwise a frame can sit whole in the
  /// buffer while its owner sleeps.
  bool recv_into(Frame& frame, double timeout_s = -1.0);

  /// Unread bytes held in the read buffer: the start of frames a blocking
  /// receive fetched along with the one it returned.
  bool buffered() const { return rx_begin_ < rx_end_; }

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

  /// Size of the read buffer. A budget report or assign, a phase bracket, a
  /// phase-go or a sync probe fits several times over. A connection holds
  /// one only while some of its bytes are unread, so a large loopback fleet
  /// (two connections per node) keeps no buffer per idle connection.
  static constexpr std::size_t kReadBufferBytes = 512;

 private:
  struct PendingFrame {
    double due_s = 0.0;  ///< monotonic seconds when the frame may be written
    std::vector<std::uint8_t> bytes;
  };

  void write_all(const std::uint8_t* data, std::size_t size);
  /// Wait until the socket is readable, writing chaos-held frames as they
  /// come due. False when `timeout_s` (>= 0) runs out first.
  bool await_readable(double timeout_s);
  /// One recv(2), blocking when `wait`. Returns the bytes read, 0 on
  /// EAGAIN. EOF throws: `mid_frame` picks which text.
  std::size_t recv_some(std::uint8_t* data, std::size_t size, bool wait, bool mid_frame);
  /// poll(2) until the socket is readable; throws once `frame_deadline_s`
  /// passes (a peer stalled mid-frame).
  void await_rest(double frame_deadline_s);
  /// One recv_some() into the free end of the read buffer, allocating it
  /// first if need be. False on EAGAIN.
  bool fill(bool wait, bool mid_frame);
  /// Free the read buffer once nothing in it is unread.
  void release_buffer();
  /// fill() more of a begun frame, waiting until `frame_deadline_s` (set
  /// on the first call, when it is 0).
  void fill_begun(double& frame_deadline_s);
  /// Read a begun frame's remainder straight into `data`, within the
  /// frame's deadline.
  void read_all(std::uint8_t* data, std::size_t size, double frame_deadline_s);
  /// Build header + payload in send_buf_.
  void assemble(MessageType type, const std::uint8_t* payload, std::size_t size);
  /// Write send_buf_ now, or queue it behind delayed frames.
  void enqueue_or_write(double delay_s);

  int fd_ = -1;
  std::vector<std::uint8_t> send_buf_;  ///< header+payload assembly scratch
  std::unique_ptr<std::uint8_t[]> rx_;  ///< read buffer, null while empty
  std::size_t rx_begin_ = 0;            ///< unread bytes are [rx_begin_, rx_end_)
  std::size_t rx_end_ = 0;
  bool rx_drained_ = false;             ///< the last recv(2) came back short
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
