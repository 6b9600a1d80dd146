#include "cluster/transport.hpp"

#include "cluster/fault_injection.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "util/strings.hpp"

namespace fs2::cluster {

namespace {

std::string errno_text() { return std::strerror(errno); }

/// Disable Nagle: the protocol is many small request/response frames
/// (sync probes, budget exchanges) whose latency IS the product — clock
/// sync quality and budget reaction time both degrade with batching delay.
void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

/// Bound every blocking send: a peer that stops reading (stalled agent,
/// dead network) must surface as a WireError within the deadline instead
/// of wedging the sender forever once the socket buffer fills.
void set_send_deadline(int fd) {
  timeval tv{};
  tv.tv_sec = 30;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

double mono_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// ---- Connection -------------------------------------------------------------

Connection::Connection(int fd) : fd_(fd) {
  if (fd_ >= 0) {
    set_nodelay(fd_);
    set_send_deadline(fd_);
  }
}

Connection::~Connection() { close(); }

Connection::Connection(Connection&& other) noexcept
    : fd_(other.fd_),
      send_buf_(std::move(other.send_buf_)),
      rx_(std::move(other.rx_)),
      rx_begin_(other.rx_begin_),
      rx_end_(other.rx_end_),
      rx_drained_(other.rx_drained_),
      faults_(other.faults_),
      pending_(std::move(other.pending_)) {
  other.fd_ = -1;
  other.rx_begin_ = other.rx_end_ = 0;
  other.faults_ = nullptr;
  other.pending_.clear();
}

Connection& Connection::operator=(Connection&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    send_buf_ = std::move(other.send_buf_);
    rx_ = std::move(other.rx_);
    rx_begin_ = other.rx_begin_;
    rx_end_ = other.rx_end_;
    rx_drained_ = other.rx_drained_;
    faults_ = other.faults_;
    pending_ = std::move(other.pending_);
    other.fd_ = -1;
    other.rx_begin_ = other.rx_end_ = 0;
    other.faults_ = nullptr;
    other.pending_.clear();
  }
  return *this;
}

void Connection::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  release_buffer();
  rx_drained_ = false;
  pending_.clear();
}

void Connection::release_buffer() {
  rx_.reset();
  rx_begin_ = rx_end_ = 0;
}

Connection Connection::connect(const std::string& endpoint, double retry_for_s) {
  const auto colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == endpoint.size())
    throw ConfigError("--agent: endpoint '" + endpoint + "' is not HOST:PORT");
  const std::string host = endpoint.substr(0, colon);
  const std::string port = endpoint.substr(colon + 1);
  const std::uint64_t port_num = strings::parse_u64(port, "--agent port");
  if (port_num == 0 || port_num > 65535)
    throw ConfigError("--agent: port must be within [1, 65535]");

  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  if (::getaddrinfo(host.c_str(), port.c_str(), &hints, &result) != 0 || result == nullptr)
    throw Error("cluster: cannot resolve '" + host + "'");

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(retry_for_s);
  std::string last_error;
  for (;;) {
    for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
      const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
      if (fd < 0) continue;
      if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
        ::freeaddrinfo(result);
        return Connection(fd);
      }
      last_error = errno_text();
      ::close(fd);
    }
    if (std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  ::freeaddrinfo(result);
  throw Error("cluster: cannot connect to " + endpoint + " (" + last_error + ")");
}

void Connection::write_all(const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd_, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        throw WireError("cluster: send timed out (peer stopped reading)");
      throw WireError("cluster: send failed (" + errno_text() + ")");
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

bool Connection::await_readable(double timeout_s) {
  // Bound each poll by the next delayed frame's due time so chaos-held
  // sends still drain while this side blocks waiting for the peer — the
  // peer may be waiting on exactly the frame we are holding.
  const double deadline = timeout_s >= 0.0 ? mono_s() + timeout_s : -1.0;
  for (;;) {
    double wait_s = deadline < 0.0 ? -1.0 : std::max(0.0, deadline - mono_s());
    if (!pending_.empty()) {
      const double until_due = flush_pending();
      if (until_due > 0.0 && (wait_s < 0.0 || until_due < wait_s)) wait_s = until_due;
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready =
        ::poll(&pfd, 1, wait_s < 0.0 ? -1 : static_cast<int>(wait_s * 1000.0));
    if (ready < 0) throw WireError("cluster: poll failed (" + errno_text() + ")");
    if (ready > 0) return true;
    if (!pending_.empty()) flush_pending();
    if (deadline >= 0.0 && mono_s() >= deadline) return false;
  }
}

std::size_t Connection::recv_some(std::uint8_t* data, std::size_t size, bool wait,
                                  bool mid_frame) {
  for (;;) {
    const ssize_t n = ::recv(fd_, data, size, wait ? 0 : MSG_DONTWAIT);
    if (n > 0) return static_cast<std::size_t>(n);
    if (n == 0)
      throw WireError(mid_frame ? "cluster: peer disconnected mid-frame"
                                : "cluster: peer closed the connection");
    if (errno == EINTR) continue;
    if (!wait && (errno == EAGAIN || errno == EWOULDBLOCK)) return 0;
    throw WireError("cluster: recv failed (" + errno_text() + ")");
  }
}

void Connection::await_rest(double frame_deadline_s) {
  pollfd pfd{fd_, POLLIN, 0};
  const double left_s = frame_deadline_s - mono_s();
  if (left_s <= 0.0 || ::poll(&pfd, 1, static_cast<int>(left_s * 1000.0) + 1) == 0)
    throw WireError("cluster: peer stalled mid-frame");
}

bool Connection::fill(bool wait, bool mid_frame) {
  if (!rx_) rx_ = std::make_unique_for_overwrite<std::uint8_t[]>(kReadBufferBytes);
  if (rx_begin_ > 0) {
    std::memmove(rx_.get(), rx_.get() + rx_begin_, rx_end_ - rx_begin_);
    rx_end_ -= rx_begin_;
    rx_begin_ = 0;
  }
  // Callers leave room: the buffer is empty, or holds less than one frame
  // that fits in it.
  const std::size_t room = kReadBufferBytes - rx_end_;
  const std::size_t n = recv_some(rx_.get() + rx_end_, room, wait, mid_frame);
  if (n == 0) return false;
  rx_end_ += n;
  rx_drained_ = n < room;
  return true;
}

void Connection::fill_begun(double& frame_deadline_s) {
  if (frame_deadline_s == 0.0) frame_deadline_s = mono_s() + kFrameReadBoundS;
  while (!fill(/*wait=*/false, /*mid_frame=*/true)) await_rest(frame_deadline_s);
}

void Connection::read_all(std::uint8_t* data, std::size_t size, double frame_deadline_s) {
  while (size > 0) {
    const std::size_t n = recv_some(data, size, /*wait=*/false, /*mid_frame=*/true);
    if (n == 0) await_rest(frame_deadline_s);
    data += n;
    size -= n;
  }
}

void Connection::send(MessageType type, const std::uint8_t* payload, std::size_t size) {
  if (fd_ < 0) throw WireError("cluster: send on a closed connection");
  double delay_s = 0.0;
  if (faults_ != nullptr) {
    const LinkFaults::Verdict verdict = faults_->on_send(type, size);
    if (verdict.drop) return;
    if (verdict.truncate_to != LinkFaults::kNone && verdict.truncate_to < size)
      // Frame-level truncation: the length prefix matches the bytes
      // actually sent, so the stream never desyncs — the DECODER sees a
      // short payload and must throw cleanly (what the hardening corpus
      // asserts), while the transport keeps framing.
      size = verdict.truncate_to;
    delay_s = verdict.delay_s;
    if (verdict.corrupt_bit != LinkFaults::kNone && verdict.corrupt_bit < size * 8) {
      assemble(type, payload, size);
      send_buf_[5 + verdict.corrupt_bit / 8] ^=
          static_cast<std::uint8_t>(1u << (verdict.corrupt_bit % 8));
      enqueue_or_write(delay_s);
      return;
    }
  }
  assemble(type, payload, size);
  enqueue_or_write(delay_s);
}

void Connection::assemble(MessageType type, const std::uint8_t* payload,
                          std::size_t size) {
  // One contiguous buffer, one send(2). Copying the payload into the
  // scratch costs nanoseconds; the second syscall (and the Nagle-less
  // two-segment wakeup it causes on the peer) costs microseconds. No
  // clear() first: resize only value-initializes *growth*, and every byte
  // of [0, 5 + size) is overwritten below — clearing would re-zero the
  // whole buffer on each frame.
  const std::uint32_t length = static_cast<std::uint32_t>(size + 1);
  send_buf_.resize(5 + size);
  for (int i = 0; i < 4; ++i)
    send_buf_[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(length >> (8 * i));
  send_buf_[4] = static_cast<std::uint8_t>(type);
  if (size > 0) std::memcpy(send_buf_.data() + 5, payload, size);
}

void Connection::enqueue_or_write(double delay_s) {
  // FIFO past any held frame: delays slow the stream but never reorder it
  // (due times are monotonic along the queue).
  if (delay_s <= 0.0 && pending_.empty()) {
    write_all(send_buf_.data(), send_buf_.size());
    return;
  }
  flush_pending();
  double due = mono_s() + delay_s;
  if (!pending_.empty() && pending_.back().due_s > due) due = pending_.back().due_s;
  if (pending_.empty() && delay_s <= 0.0) {
    write_all(send_buf_.data(), send_buf_.size());
    return;
  }
  pending_.push_back({due, send_buf_});
}

double Connection::flush_pending() {
  while (!pending_.empty()) {
    const double now = mono_s();
    if (pending_.front().due_s > now) return pending_.front().due_s - now;
    const PendingFrame frame = std::move(pending_.front());
    pending_.pop_front();
    write_all(frame.bytes.data(), frame.bytes.size());
  }
  return 0.0;
}

void Connection::send(const Frame& frame) {
  send(frame.type, frame.payload.data(), frame.payload.size());
}

bool Connection::recv_into(Frame& frame, double timeout_s) {
  if (fd_ < 0) throw WireError("cluster: recv on a closed connection");
  if (!pending_.empty()) flush_pending();
  if (rx_begin_ == rx_end_) {
    // Between frames: wait for the next one's first bytes as asked. A
    // zero-timeout receive never waits, and after a short read it leaves
    // the socket to the caller's poll(2).
    if (timeout_s == 0.0) {
      if (rx_drained_) {
        rx_drained_ = false;
        return false;
      }
      if (!fill(/*wait=*/false, /*mid_frame=*/false)) return false;
    } else {
      if ((timeout_s > 0.0 || !pending_.empty()) && !await_readable(timeout_s)) return false;
      fill(/*wait=*/true, /*mid_frame=*/false);
    }
  }
  // A frame has begun: the rest must follow within the frame bound.
  double frame_deadline_s = 0.0;
  while (rx_end_ - rx_begin_ < 5) fill_begun(frame_deadline_s);
  const std::uint8_t* header = rx_.get() + rx_begin_;
  const std::uint32_t length = WireReader(header, 4).u32();
  if (length == 0 || length > kMaxFrameBytes)
    throw WireError(strings::format("cluster: bad frame length %u", length));
  frame.type = static_cast<MessageType>(header[4]);
  const std::size_t size = 4 + std::size_t{length};
  if (size <= kReadBufferBytes) {
    while (rx_end_ - rx_begin_ < size) fill_begun(frame_deadline_s);
    const std::uint8_t* payload = rx_.get() + rx_begin_ + 5;
    frame.payload.assign(payload, payload + (length - 1));
    rx_begin_ += size;
    if (rx_begin_ == rx_end_) release_buffer();
    return true;
  }
  // Longer than the buffer: what it holds starts the payload, and the rest
  // is read straight into the frame.
  const std::size_t held = rx_end_ - rx_begin_ - 5;
  frame.payload.resize(length - 1);
  std::memcpy(frame.payload.data(), header + 5, held);
  release_buffer();
  if (frame_deadline_s == 0.0) frame_deadline_s = mono_s() + kFrameReadBoundS;
  read_all(frame.payload.data() + held, frame.payload.size() - held, frame_deadline_s);
  rx_drained_ = false;
  return true;
}

std::optional<Frame> Connection::recv(double timeout_s) {
  Frame frame;
  if (!recv_into(frame, timeout_s)) return std::nullopt;
  return frame;
}

// ---- Listener ---------------------------------------------------------------

Listener::Listener(std::uint16_t port, bool loopback_only) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw Error("cluster: cannot create listen socket (" + errno_text() + ")");
  int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(loopback_only ? INADDR_LOOPBACK : INADDR_ANY);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string reason = errno_text();
    ::close(fd_);
    fd_ = -1;
    throw Error(strings::format("cluster: cannot bind port %u (%s)", port, reason.c_str()));
  }
  // A loopback fleet dials in all of its agents in one burst. The
  // coordinator's event loop empties the backlog on every wake-up, so 1024
  // queued connections are enough to admit a 4096-node loopback fleet.
  if (::listen(fd_, 1024) != 0) {
    const std::string reason = errno_text();
    ::close(fd_);
    fd_ = -1;
    throw Error("cluster: listen failed (" + reason + ")");
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
}

Listener::~Listener() {
  if (fd_ >= 0) ::close(fd_);
}

void Listener::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Connection Listener::accept(double timeout_s) {
  if (timeout_s >= 0.0) {
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(timeout_s * 1000.0));
    if (ready < 0) throw Error("cluster: poll failed (" + errno_text() + ")");
    if (ready == 0)
      throw Error(strings::format(
          "cluster: no agent connected within %.0f s (expected more nodes)", timeout_s));
  }
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) throw Error("cluster: accept failed (" + errno_text() + ")");
  return Connection(fd);
}

}  // namespace fs2::cluster
