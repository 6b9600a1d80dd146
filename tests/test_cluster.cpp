// Tests of the cluster orchestration subsystem: wire encoding, the framed
// transport over TCP and over the local AF_UNIX link, RTT-compensated clock
// sync, budget apportioning, the coordinator-side telemetry merge, and the
// full loopback fleet — coordinator plus heterogeneous in-process sim agents
// exercising the whole protocol over real localhost sockets,
// deterministically.

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "cluster/clock_sync.hpp"
#include "cluster/cluster_bus.hpp"
#include "cluster/coordinator.hpp"
#include "cluster/messages.hpp"
#include "cluster/remote_sink.hpp"
#include "cluster/transport.hpp"
#include "cluster/wire.hpp"
#include "control/budget.hpp"
#include "firestarter/config.hpp"
#include "firestarter/firestarter.hpp"
#include "firestarter/sim_fleet.hpp"
#include "sim/machine_config.hpp"
#include "temp_file.hpp"
#include "trace/tracer.hpp"
#include "util/strings.hpp"

namespace {

using namespace fs2;
using namespace fs2::cluster;

// ---- wire -------------------------------------------------------------------

TEST(Wire, RoundTripsPrimitives) {
  WireWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.f64(-273.15);
  w.str("fs2");
  w.str("");
  WireReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(r.f64(), -273.15);
  EXPECT_EQ(r.str(), "fs2");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
}

TEST(Wire, TruncatedReadThrows) {
  WireWriter w;
  w.u32(7);
  WireReader r(w.bytes());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_THROW(r.u8(), WireError);
  // A string length pointing past the end must not read out of bounds.
  WireWriter bad;
  bad.u32(1000);  // claims a 1000-byte string with no bytes following
  WireReader r2(bad.bytes());
  EXPECT_THROW(r2.str(), WireError);
}

// ---- messages ---------------------------------------------------------------

TEST(Messages, CampaignRoundTrip) {
  CampaignMsg msg;
  msg.campaign_text = "phase name=x duration=5\n";
  msg.has_budget = 1;
  msg.initial_setpoint_w = 250.0;
  msg.ctl_interval_s = 0.25;
  msg.budget_interval_s = 0.5;
  msg.budget_band = 0.02;
  const Frame frame = msg.encode();
  EXPECT_EQ(frame.type, MessageType::kCampaign);
  WireReader r(frame.payload);
  const CampaignMsg back = CampaignMsg::decode(r);
  EXPECT_EQ(back.campaign_text, msg.campaign_text);
  EXPECT_EQ(back.has_budget, 1);
  EXPECT_DOUBLE_EQ(back.initial_setpoint_w, 250.0);
  EXPECT_DOUBLE_EQ(back.budget_interval_s, 0.5);
}

TEST(Messages, SampleBatchRoundTrip) {
  SampleBatchMsg msg;
  msg.channel_id = 3;
  for (int i = 0; i < 300; ++i)
    msg.samples.push_back(telemetry::Sample{i * 0.05, 100.0 + i});
  const Frame frame = msg.encode();
  WireReader r(frame.payload);
  const SampleBatchMsg back = SampleBatchMsg::decode(r);
  ASSERT_EQ(back.samples.size(), 300u);
  EXPECT_DOUBLE_EQ(back.samples[299].time_s, 299 * 0.05);
  EXPECT_DOUBLE_EQ(back.samples[0].value, 100.0);
}

TEST(Messages, SampleBatchScratchReuseMatchesFreshDecode) {
  // The hot path encodes from a reused writer and decodes into a reused
  // message; both must agree with the allocating round trip bit for bit.
  std::vector<telemetry::Sample> samples;
  for (int i = 0; i < 100; ++i)
    samples.push_back(telemetry::Sample{i * 0.25, 300.0 - i});
  WireWriter scratch;
  scratch.u32(999);  // stale content the clear() must discard
  SampleBatchMsg::encode_into(scratch, 7, samples.data(), samples.size());

  SampleBatchMsg reused;
  reused.samples.assign(512, telemetry::Sample{9.0, 9.0});  // stale capacity
  WireReader r1(scratch.bytes());
  SampleBatchMsg::decode_into(r1, reused);
  EXPECT_EQ(reused.channel_id, 7u);
  ASSERT_EQ(reused.samples.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_DOUBLE_EQ(reused.samples[i].time_s, samples[i].time_s);
    EXPECT_DOUBLE_EQ(reused.samples[i].value, samples[i].value);
  }
}

TEST(Messages, SampleBatchRejectsHostileCount) {
  // A batch claiming 2^31 samples with a tiny payload must throw, not
  // allocate gigabytes.
  WireWriter w;
  w.u32(1);            // channel
  w.u32(0x80000000u);  // sample count
  WireReader r(w.bytes());
  EXPECT_THROW(SampleBatchMsg::decode(r), WireError);
}

TEST(Messages, PhaseBracketRoundTrip) {
  PhaseBracketMsg msg;
  msg.is_begin = 1;
  msg.phase_index = 2;
  msg.phase_name = "swing";
  msg.duration_s = 30.0;
  msg.time_offset_s = 40.0;
  msg.start_delta_s = 5.0;
  msg.stop_delta_s = 2.0;
  msg.epoch_elapsed_s = 40.123;
  const Frame frame = msg.encode();
  WireReader r(frame.payload);
  const PhaseBracketMsg back = PhaseBracketMsg::decode(r);
  EXPECT_EQ(back.phase_index, 2u);
  EXPECT_EQ(back.phase_name, "swing");
  EXPECT_DOUBLE_EQ(back.epoch_elapsed_s, 40.123);
}

// ---- transport --------------------------------------------------------------

/// The listener a Transport test's connections go through: a loopback TCP
/// one, or the local (AF_UNIX) one a loopback coordinator adds beside it.
enum class Link { kTcp, kLocal };

/// A loopback TCP listener and, for Link::kLocal, the local listener named
/// after its port.
struct Listeners {
  explicit Listeners(Link link)
      : local(link == Link::kLocal ? Listener::local(tcp.port()) : Listener()) {}
  Listener tcp{0, /*loopback_only=*/true};
  Listener local;
  /// Dial the listener under test: the local one by name, else TCP.
  Connection dial() const {
    return local.fd() >= 0 ? Connection::connect_local(tcp.port())
                           : Connection::connect("127.0.0.1:" + std::to_string(tcp.port()));
  }
  /// The listener dial() reaches.
  Listener& serving() { return local.fd() >= 0 ? local : tcp; }
};

/// The address family of `conn`'s socket.
int socket_family(const Connection& conn) {
  sockaddr_storage addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(conn.fd(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) return -1;
  return addr.ss_family;
}

/// The framing tests run over both links: the bytes on the wire are the
/// same, and so must be every way of reading them.
class Transport : public ::testing::TestWithParam<Link> {};

INSTANTIATE_TEST_SUITE_P(Link, Transport, ::testing::Values(Link::kTcp, Link::kLocal),
                         [](const ::testing::TestParamInfo<Link>& info) {
                           return info.param == Link::kTcp ? "Tcp" : "Local";
                         });

TEST_P(Transport, FramesRoundTripOverLoopback) {
  Listeners listeners(GetParam());
  ASSERT_GT(listeners.tcp.port(), 0);

  // A jthread joins on the way out, so a failed accept or assertion fails
  // this test instead of terminating the suite.
  std::jthread client([&listeners] {
    Connection conn = listeners.dial();
    HelloMsg hello;
    hello.node_name = "tester";
    hello.sku = "sim-zen2";
    conn.send(hello.encode());
    const auto reply = conn.recv(5.0);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, MessageType::kShutdown);
  });

  Connection server = listeners.serving().accept(5.0);
  EXPECT_EQ(socket_family(server), GetParam() == Link::kLocal ? AF_UNIX : AF_INET);
  const auto frame = server.recv(5.0);
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->type, MessageType::kHello);
  WireReader r(frame->payload);
  EXPECT_EQ(HelloMsg::decode(r).node_name, "tester");
  ShutdownMsg shutdown;
  server.send(shutdown.encode());
  client.join();
}

TEST_P(Transport, PeerDisconnectThrowsWireError) {
  Listeners listeners(GetParam());
  std::jthread client([&listeners] {
    Connection conn = listeners.dial();
    // Close immediately without sending a frame.
  });
  Connection server = listeners.serving().accept(5.0);
  client.join();
  EXPECT_THROW(server.recv(5.0), WireError);
}

TEST_P(Transport, AcceptTimesOutWithClearError) {
  Listeners listeners(GetParam());
  try {
    listeners.serving().accept(0.05);
    FAIL() << "expected a timeout error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("no agent connected"), std::string::npos);
  }
}

// ---- buffered read ----------------------------------------------------------

/// A connected client/server pair over loopback.
struct LoopbackPair {
  explicit LoopbackPair(Link link) : listeners(link) {}
  Listeners listeners;
  Connection client = listeners.dial();
  Connection server = listeners.serving().accept(5.0);
};

/// What Connection::send puts on the wire for `frame`.
std::vector<std::uint8_t> wire_bytes(const Frame& frame) {
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(frame.payload.size() + 1));
  w.u8(static_cast<std::uint8_t>(frame.type));
  w.raw(frame.payload.data(), frame.payload.size());
  return w.take();
}

/// `count` budget reports, seq first_seq.., back to back as one byte run.
std::vector<std::uint8_t> report_bytes(std::uint32_t first_seq, std::uint32_t count) {
  std::vector<std::uint8_t> bytes;
  for (std::uint32_t seq = first_seq; seq < first_seq + count; ++seq) {
    BudgetReportMsg report;
    report.seq = seq;
    report.achieved_w = 100.0 + seq;
    const std::vector<std::uint8_t> one = wire_bytes(report.encode());
    bytes.insert(bytes.end(), one.begin(), one.end());
  }
  return bytes;
}

void send_raw(const Connection& conn, const std::uint8_t* data, std::size_t size) {
  ASSERT_EQ(::send(conn.fd(), data, size, MSG_NOSIGNAL), static_cast<ssize_t>(size));
}

/// Wait, as a zero-timeout reader's owner does, until `conn`'s socket is
/// readable.
void await_readable(const Connection& conn) {
  pollfd pfd{conn.fd(), POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 5000), 1);
}

void expect_report(const Frame& frame, std::uint32_t seq) {
  ASSERT_EQ(frame.type, MessageType::kBudgetReport);
  WireReader in(frame.payload);
  const BudgetReportMsg report = BudgetReportMsg::decode(in);
  EXPECT_EQ(report.seq, seq);
  EXPECT_DOUBLE_EQ(report.achieved_w, 100.0 + seq);
}

TEST_P(Transport, FramesFromOneSendDrainInOrderThenReportEmpty) {
  // More frames than the read buffer holds, in one send(2).
  LoopbackPair link(GetParam());
  constexpr std::uint32_t kFrames = 40;
  const std::vector<std::uint8_t> bytes = report_bytes(0, kFrames);
  ASSERT_GT(bytes.size(), Connection::kReadBufferBytes);
  send_raw(link.client, bytes.data(), bytes.size());
  await_readable(link.server);
  Frame frame;
  for (std::uint32_t seq = 0; seq < kFrames; ++seq) {
    ASSERT_TRUE(link.server.recv_into(frame, /*timeout_s=*/0.0)) << "frame " << seq;
    expect_report(frame, seq);
  }
  EXPECT_FALSE(link.server.recv_into(frame, /*timeout_s=*/0.0));
  EXPECT_FALSE(link.server.buffered());
  // Once poll(2) says more has arrived, the next zero-timeout receive reads it.
  const std::vector<std::uint8_t> next = report_bytes(kFrames, 1);
  send_raw(link.client, next.data(), next.size());
  await_readable(link.server);
  ASSERT_TRUE(link.server.recv_into(frame, /*timeout_s=*/0.0));
  expect_report(frame, kFrames);
  EXPECT_FALSE(link.server.recv_into(frame, /*timeout_s=*/0.0));
}

TEST_P(Transport, FrameSplitAcrossWritesIsReassembled) {
  // The header arrives 50 ms before the payload: a zero-timeout receive
  // that has begun the frame finishes it.
  LoopbackPair link(GetParam());
  SampleBatchMsg batch;
  batch.channel_id = 9;
  for (int i = 0; i < 10; ++i) batch.samples.push_back(telemetry::Sample{i * 0.5, 1.0 + i});
  const Frame sent = batch.encode();
  const std::vector<std::uint8_t> bytes = wire_bytes(sent);
  std::thread writer([&] {
    send_raw(link.client, bytes.data(), 5);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    send_raw(link.client, bytes.data() + 5, bytes.size() - 5);
  });
  await_readable(link.server);
  Frame frame;
  bool got = false;
  std::string error;
  try {
    got = link.server.recv_into(frame, /*timeout_s=*/0.0);
  } catch (const WireError& e) {
    error = e.what();
  }
  writer.join();
  ASSERT_TRUE(got) << error;
  EXPECT_EQ(frame.type, sent.type);
  EXPECT_EQ(frame.payload, sent.payload);
  EXPECT_FALSE(link.server.recv_into(frame, /*timeout_s=*/0.0));
}

TEST_P(Transport, FrameLargerThanTheReadBufferRoundTrips) {
  LoopbackPair link(GetParam());
  SampleBatchMsg batch;
  batch.channel_id = 4;
  for (int i = 0; i < 4096; ++i)
    batch.samples.push_back(telemetry::Sample{i * 0.001, 200.0 + i});
  const Frame sent = batch.encode();
  ASSERT_GT(sent.payload.size(), 16 * Connection::kReadBufferBytes);
  // The batch outgrows the socket buffers, so a second thread writes it;
  // a small frame follows it.
  std::thread writer([&] {
    try {
      link.client.send(sent);
    } catch (const WireError&) {
      return;  // the reader failed and closed its end
    }
    const std::vector<std::uint8_t> after = report_bytes(7, 1);
    send_raw(link.client, after.data(), after.size());
  });
  Frame batch_frame;
  Frame report_frame;
  std::string error;
  try {
    link.server.recv_into(batch_frame, /*timeout_s=*/5.0);
    link.server.recv_into(report_frame, /*timeout_s=*/5.0);
  } catch (const WireError& e) {
    error = e.what();
    link.server.close();  // unblocks the writer
  }
  writer.join();
  ASSERT_EQ(error, "");
  EXPECT_EQ(batch_frame.type, MessageType::kSampleBatch);
  EXPECT_EQ(batch_frame.payload, sent.payload);
  expect_report(report_frame, 7);
}

TEST_P(Transport, MovedConnectionYieldsItsBufferedFrames) {
  LoopbackPair link(GetParam());
  const std::vector<std::uint8_t> bytes = report_bytes(0, 3);
  send_raw(link.client, bytes.data(), bytes.size());
  await_readable(link.server);
  // A blocking receive fetches all three frames with one recv(2) and
  // returns the first.
  Frame frame;
  ASSERT_TRUE(link.server.recv_into(frame, /*timeout_s=*/5.0));
  expect_report(frame, 0);
  ASSERT_TRUE(link.server.buffered());
  Connection constructed(std::move(link.server));
  EXPECT_FALSE(link.server.buffered());
  ASSERT_TRUE(constructed.recv_into(frame, /*timeout_s=*/0.0));
  expect_report(frame, 1);
  Connection assigned;
  assigned = std::move(constructed);
  ASSERT_TRUE(assigned.recv_into(frame, /*timeout_s=*/0.0));
  expect_report(frame, 2);
  EXPECT_FALSE(assigned.recv_into(frame, /*timeout_s=*/0.0));
}

TEST_P(Transport, EofBetweenFramesAndMidFrameRaiseDifferentErrors) {
  const auto expect_wire_error = [](Connection& conn, const std::string& text) {
    Frame frame;
    try {
      conn.recv_into(frame, /*timeout_s=*/5.0);
      ADD_FAILURE() << "no error; expected '" << text << "'";
    } catch (const WireError& e) {
      EXPECT_NE(std::string(e.what()).find(text), std::string::npos) << e.what();
    }
  };
  {
    LoopbackPair link(GetParam());
    const std::vector<std::uint8_t> bytes = report_bytes(0, 1);
    send_raw(link.client, bytes.data(), bytes.size());
    link.client.close();
    Frame frame;
    ASSERT_TRUE(link.server.recv_into(frame, /*timeout_s=*/5.0));
    expect_wire_error(link.server, "peer closed the connection");
  }
  // Cut inside the header, inside a payload that fits the read buffer, and
  // inside one that does not.
  SampleBatchMsg batch;
  for (int i = 0; i < 4096; ++i) batch.samples.push_back(telemetry::Sample{i * 1.0, 1.0});
  const std::vector<std::uint8_t> large = wire_bytes(batch.encode());
  const std::vector<std::uint8_t> small = report_bytes(0, 1);
  for (const auto& [bytes, cut] : {std::pair{&small, std::size_t{3}},
                                   std::pair{&small, small.size() - 1},
                                   std::pair{&large, std::size_t{3000}}}) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    LoopbackPair link(GetParam());
    send_raw(link.client, bytes->data(), cut);
    link.client.close();
    expect_wire_error(link.server, "peer disconnected mid-frame");
  }
}

/// A port nothing listens on yet (the probe listener is freed on return).
std::uint16_t free_port() {
  Listener probe(0, /*loopback_only=*/true);
  return probe.port();
}

/// Options for a coordinator that tests only bind: one node, one phase.
Coordinator::Options bind_only_options(bool loopback_only, std::uint16_t port = 0) {
  Coordinator::Options options;
  options.port = port;
  options.loopback_only = loopback_only;
  options.nodes = 1;
  options.campaign_text = "phase name=p duration=1\n";
  options.phase_count = 1;
  return options;
}

TEST(LocalLink, SimFleetDialsTheLocalSocketAndAPlainDialStaysOnTcp) {
  // A loopback_only coordinator's two listeners, without the coordinator:
  // which of them accepts a dial shows the link it took.
  Listeners listeners(Link::kLocal);
  firestarter::Config cfg;
  cfg.log_level = "error";
  // The fleet's agent dials in and sends its hello from the constructor.
  const firestarter::SimFleet fleet(cfg, firestarter::parse_loopback_specs("zen2@1500"),
                                    listeners.tcp.port());
  EXPECT_EQ(socket_family(listeners.local.accept(5.0)), AF_UNIX);
  pollfd tcp_backlog{listeners.tcp.fd(), POLLIN, 0};
  EXPECT_EQ(::poll(&tcp_backlog, 1, 0), 0) << "the fleet dialed TCP";

  // Connection::connect is TCP, to 127.0.0.1 as to any address.
  const Connection plain =
      Connection::connect("127.0.0.1:" + std::to_string(listeners.tcp.port()), 0.0);
  EXPECT_EQ(socket_family(plain), AF_INET);
  EXPECT_EQ(socket_family(listeners.tcp.accept(5.0)), AF_INET);
}

TEST(LocalLink, NameHeldBesideAnAllInterfacesCoordinatorIsNotDialed) {
  // --coordinator binds no local name, so any local process may hold the
  // one after its port. An agent's dial to 127.0.0.1 still reaches the
  // coordinator over TCP, and the holder sees no connection.
  Coordinator coordinator(bind_only_options(/*loopback_only=*/false));
  const Listener holder = Listener::local(coordinator.port());
  const Connection conn =
      Connection::connect("127.0.0.1:" + std::to_string(coordinator.port()), 0.0);
  EXPECT_EQ(socket_family(conn), AF_INET);
  pollfd backlog{holder.fd(), POLLIN, 0};
  EXPECT_EQ(::poll(&backlog, 1, 0), 0) << "the dial reached the name's holder";
}

TEST(LocalLink, LocalDialRefusesAListenerOfAnotherProcess) {
  // A local dial joins a fleet to the coordinator in its own process, and
  // any process may bind an abstract name: the dial refuses a listener
  // whose peer credentials (taken at listen(2)) name another process.
  // Holding the TCP port keeps the name after it this test's own.
  const Listener tcp(0, /*loopback_only=*/true);
  const std::uint16_t port = tcp.port();
  const std::string name = local_name(port);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path + 1, name.data(), name.size());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                   static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + 1 + name.size())),
            0);
  int ready[2];
  ASSERT_EQ(::pipe(ready), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Async-signal-safe calls only: the child listens, says so, and waits
    // to be killed.
    if (::listen(fd, 8) != 0) ::_exit(1);
    if (::write(ready[1], "x", 1) != 1) ::_exit(1);
    for (;;) ::pause();
  }
  ::close(fd);
  ::close(ready[1]);
  char byte = 0;
  const bool listening = ::read(ready[0], &byte, 1) == 1;
  ::close(ready[0]);
  if (listening) {
    try {
      Connection::connect_local(port, /*retry_for_s=*/0.0);
      ADD_FAILURE() << "dialed the listener of process " << child;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("held by process " + std::to_string(child)),
                std::string::npos)
          << e.what();
    }
  }
  ::kill(child, SIGKILL);
  ::waitpid(child, nullptr, 0);
  EXPECT_TRUE(listening) << "the child could not listen on " << name;
}

TEST(Coordinator, TakenLocalNameFailsLoudly) {
  // Its in-process fleet would have no listener of its own to dial, so a
  // coordinator that cannot bind the name refuses to start rather than
  // serve TCP alone.
  const std::uint16_t port = free_port();
  const Listener squatter = Listener::local(port);
  try {
    Coordinator coordinator(bind_only_options(/*loopback_only=*/true, port));
    FAIL() << "the coordinator started without its local listener";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot bind local socket '" + local_name(port) + "'"),
              std::string::npos)
        << e.what();
  }
}

// ---- clock sync -------------------------------------------------------------

TEST(ClockSync, LoopbackOffsetIsTiny) {
  Listener listener(0, /*loopback_only=*/true);
  std::thread agent([port = listener.port()] {
    Connection conn = Connection::connect("127.0.0.1:" + std::to_string(port));
    // Answer probes until the coordinator side closes.
    for (;;) {
      std::optional<Frame> frame;
      try {
        frame = conn.recv(5.0);
      } catch (const WireError&) {
        return;
      }
      if (!frame || frame->type != MessageType::kSyncProbe) return;
      WireReader r(frame->payload);
      const SyncProbeMsg probe = SyncProbeMsg::decode(r);
      SyncReplyMsg reply;
      reply.seq = probe.seq;
      reply.t_coord_s = probe.t_coord_s;
      reply.t_agent_s = local_clock_s();
      conn.send(reply.encode());
    }
  });
  {
    // Round by round, as the coordinator's event loop drives it.
    Connection conn = listener.accept(5.0);
    ClockSync sync;
    while (!sync.done()) {
      conn.send(sync.probe());
      const auto reply = conn.recv(5.0);
      ASSERT_TRUE(reply.has_value());
      sync.on_reply(*reply);
    }
    EXPECT_EQ(sync.rounds, 8);
    EXPECT_GT(sync.rtt_s, 0.0);
    EXPECT_LT(sync.rtt_s, 0.1);
    // Same process, same steady clock: the estimated offset must be
    // bounded by the round trip.
    EXPECT_LT(std::abs(sync.offset_s), sync.rtt_s);
  }
  agent.join();
}

// ---- budget apportioner -----------------------------------------------------

TEST(Budget, AssignmentsSumToBudgetAndFollowAchieved) {
  control::BudgetApportioner budget(600.0, 2);
  EXPECT_DOUBLE_EQ(budget.initial_share_w(), 300.0);
  // Node 0 delivers more than node 1: its share grows proportionally.
  const double w0 = budget.on_report(0, 400.0);
  // total = 400 + 300 (node 1 assumed at initial share) = 700
  EXPECT_NEAR(w0, 400.0 * 600.0 / 700.0, 1e-9);
  const double w1 = budget.on_report(1, 200.0);
  EXPECT_NEAR(w1, 200.0 * 600.0 / 600.0, 1e-9);
  EXPECT_NEAR(budget.total_achieved_w(), 600.0, 1e-9);
}

TEST(Budget, AllIdleFleetFallsBackToEqualShares) {
  control::BudgetApportioner budget(500.0, 4);
  EXPECT_DOUBLE_EQ(budget.on_report(2, 0.0), 125.0);
}

TEST(Budget, ConvergenceJudgesTrailingWindow) {
  control::BudgetApportioner budget(500.0, 2);
  budget.begin_window();
  EXPECT_FALSE(budget.converged(0.02));  // no data yet
  // Ramp far from target, then settle on it: trailing window forgives the
  // ramp.
  for (int i = 0; i < 10; ++i) {
    budget.on_report(0, 100.0);
    budget.on_report(1, 100.0);
  }
  EXPECT_FALSE(budget.converged(0.02));
  for (int i = 0; i < 60; ++i) {
    budget.on_report(0, 251.0);
    budget.on_report(1, 250.0);
  }
  EXPECT_TRUE(budget.converged(0.02));
  EXPECT_NEAR(budget.trailing_total_w(), 501.0, 1.0);
  // A fresh window forgets the settled history.
  budget.begin_window();
  EXPECT_FALSE(budget.converged(0.02));
}

TEST(Budget, SetpointParsesClusterPower) {
  const control::Setpoint sp = control::Setpoint::parse("cluster-power=2000W,band=5");
  EXPECT_EQ(sp.variable, control::ControlVariable::kClusterPower);
  EXPECT_DOUBLE_EQ(sp.value, 2000.0);
  EXPECT_DOUBLE_EQ(sp.band, 0.05);
  EXPECT_DOUBLE_EQ(sp.interval_s, 0.5);  // cluster default cadence
  EXPECT_THROW(control::Setpoint::parse("cluster-power=0W"), ConfigError);
}

// ---- cluster bus ------------------------------------------------------------

ChannelMsg make_channel(std::uint32_t id, const std::string& name, const std::string& unit) {
  ChannelMsg msg;
  msg.channel_id = id;
  msg.name = name;
  msg.unit = unit;
  return msg;
}

PhaseBracketMsg make_bracket(bool begin, std::uint32_t index, const std::string& name,
                             double epoch_elapsed_s) {
  PhaseBracketMsg msg;
  msg.is_begin = begin ? 1 : 0;
  msg.phase_index = index;
  msg.phase_name = name;
  msg.duration_s = 10.0;
  msg.epoch_elapsed_s = epoch_elapsed_s;
  return msg;
}

SampleBatchMsg make_batch(std::uint32_t id, std::initializer_list<double> values) {
  SampleBatchMsg msg;
  msg.channel_id = id;
  double t = 0.0;
  for (double v : values) msg.samples.push_back(telemetry::Sample{t += 1.0, v});
  return msg;
}

/// Edge-summarized row the v2 protocol ships at phase end (mean is all the
/// merge tests check; the other statistics travel verbatim anyway).
NodeSummaryMsg make_summary(std::uint32_t phase_index, const std::string& name,
                            const std::string& unit, double mean) {
  NodeSummaryMsg msg;
  msg.phase_index = phase_index;
  msg.name = name;
  msg.unit = unit;
  msg.samples = 3;
  msg.mean = mean;
  return msg;
}

TEST(ClusterBusTest, MergesPerNodeRowsAndAggregates) {
  ClusterBus bus({"alpha", "beta"});
  for (std::size_t node = 0; node < 2; ++node) {
    bus.on_channel(node, make_channel(0, "sim-wall-power", "W"));
    bus.on_channel(node, make_channel(1, "sim-package-temp", "degC"));
  }
  bus.on_bracket(0, make_bracket(true, 0, "hold", 1.001));
  bus.on_bracket(1, make_bracket(true, 0, "hold", 1.004));
  bus.on_samples(0, make_batch(0, {100.0, 110.0, 120.0}));
  bus.on_samples(1, make_batch(0, {200.0, 210.0, 220.0}));
  bus.on_samples(0, make_batch(1, {50.0, 55.0, 60.0}));
  bus.on_samples(1, make_batch(1, {70.0, 65.0, 40.0}));
  // Per-node rows arrive pre-aggregated from the edge, before the end
  // bracket (the agent's RemoteSink sends them at phase end).
  bus.on_summary(0, make_summary(0, "sim-wall-power", "W", 110.0));
  bus.on_summary(1, make_summary(0, "sim-wall-power", "W", 210.0));
  bus.on_bracket(0, make_bracket(false, 0, "hold", 11.0));
  bus.on_bracket(1, make_bracket(false, 0, "hold", 11.0));
  bus.finish();

  const auto rows = bus.merged_rows();
  auto find = [&rows](const std::string& name, const std::string& node) {
    for (const ClusterBus::Row& row : rows)
      if (row.summary.name == name && row.node == node) return row.summary;
    ADD_FAILURE() << "missing row " << name << " / " << node;
    return metrics::Summary{};
  };
  EXPECT_NEAR(find("sim-wall-power", "alpha").mean, 110.0, 1e-9);
  EXPECT_NEAR(find("sim-wall-power", "beta").mean, 210.0, 1e-9);
  // Cluster power: per-index sums 300/320/340.
  const metrics::Summary power = find("cluster-power", "cluster");
  EXPECT_EQ(power.samples, 3u);
  EXPECT_NEAR(power.mean, 320.0, 1e-9);
  EXPECT_NEAR(power.max, 340.0, 1e-9);
  // Cluster temp: per-index maxes 70/65/60.
  const metrics::Summary temp = find("cluster-temp-max", "cluster");
  EXPECT_NEAR(temp.mean, 65.0, 1e-9);
  EXPECT_NEAR(temp.min, 60.0, 1e-9);

  ASSERT_EQ(bus.phase_sync().size(), 1u);
  EXPECT_EQ(bus.phase_sync()[0].name, "hold");
  EXPECT_NEAR(bus.phase_sync()[0].spread_s(), 0.003, 1e-9);
}

TEST(ClusterBusTest, NonParticipantDoesNotStallAggregates) {
  // Node beta has no power channel: cluster-power is alpha alone.
  ClusterBus bus({"alpha", "beta"});
  bus.on_channel(0, make_channel(0, "sim-wall-power", "W"));
  bus.on_channel(1, make_channel(0, "load-level", "fraction"));
  bus.on_bracket(0, make_bracket(true, 0, "p", 0.0));
  bus.on_bracket(1, make_bracket(true, 0, "p", 0.0));
  bus.on_samples(0, make_batch(0, {100.0, 120.0}));
  bus.on_samples(1, make_batch(0, {0.5, 0.5}));
  bus.on_bracket(0, make_bracket(false, 0, "p", 2.0));
  bus.on_bracket(1, make_bracket(false, 0, "p", 2.0));
  bus.finish();
  for (const ClusterBus::Row& row : bus.merged_rows())
    if (row.summary.name == "cluster-power") {
      EXPECT_NEAR(row.summary.mean, 110.0, 1e-9);
      return;
    }
  FAIL() << "cluster-power row missing";
}

TEST(ClusterBusTest, ChannelRegisteredMidPhaseStillAggregates) {
  // Host agents register sensor channels from inside the first phase (the
  // begin bracket is on the wire before the metric set spins up). The
  // stream must still aggregate that phase and must not leak its samples
  // into the next one.
  ClusterBus bus({"alpha"});
  bus.on_bracket(0, make_bracket(true, 0, "p1", 0.0));
  bus.on_channel(0, make_channel(0, "sysfs-powercap-rapl", "W"));
  bus.on_samples(0, make_batch(0, {100.0, 120.0}));
  bus.on_bracket(0, make_bracket(false, 0, "p1", 2.0));
  bus.on_bracket(0, make_bracket(true, 1, "p2", 3.0));
  bus.on_samples(0, make_batch(0, {200.0, 200.0}));
  bus.on_bracket(0, make_bracket(false, 1, "p2", 5.0));
  bus.finish();
  const auto rows = bus.merged_rows();
  double p1 = -1.0, p2 = -1.0;
  for (const ClusterBus::Row& row : rows) {
    if (row.summary.name != "cluster-power") continue;
    if (row.summary.phase == "p1") p1 = row.summary.mean;
    if (row.summary.phase == "p2") p2 = row.summary.mean;
    EXPECT_EQ(row.summary.samples, 2u);  // no cross-phase contamination
  }
  EXPECT_NEAR(p1, 110.0, 1e-9);
  EXPECT_NEAR(p2, 200.0, 1e-9);
}

TEST(ClusterBusTest, OutOfOrderBracketThrows) {
  ClusterBus bus({"alpha"});
  EXPECT_THROW(bus.on_bracket(0, make_bracket(true, 1, "p", 0.0)), WireError);
  EXPECT_THROW(bus.on_samples(0, make_batch(7, {1.0})), WireError);
}

// ---- per-node machine configs -----------------------------------------------

TEST(NodeConfigs, NamedSkusAreGenuinelyHeterogeneous) {
  // The loopback acceptance fleet mixes these two: they must model
  // different machines, or "heterogeneous SKUs" tests nothing.
  const sim::MachineConfig zen2 = sim::MachineConfig::named("zen2");
  const sim::MachineConfig haswell = sim::MachineConfig::named("haswell");
  EXPECT_NE(zen2.total_cores(), haswell.total_cores());
  EXPECT_NE(zen2.power.active_cycle_nj, haswell.power.active_cycle_nj);
  EXPECT_EQ(sim::MachineConfig::named("haswell-gpu").gpu.count, 4);
  EXPECT_THROW(sim::MachineConfig::named("epyc9754"), ConfigError);
}

// ---- loopback fleet (end to end) --------------------------------------------

using tests::TempCampaign;
using tests::TempFile;

/// Mean value of the merged-CSV row for (metric, phase, node).
double csv_mean(const std::string& output, const std::string& metric,
                const std::string& phase, const std::string& node) {
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(metric + ",", 0) != 0) continue;
    if (line.find("," + phase + "," + node) == std::string::npos) continue;
    // metric,unit,samples,mean,...
    std::size_t pos = 0;
    for (int commas = 0; commas < 3; ++commas) pos = line.find(',', pos) + 1;
    return std::stod(line.substr(pos));
  }
  return -1.0;
}

TEST(LoopbackFleet, HeterogeneousBudgetCampaignConvergesInLockstep) {
  const TempCampaign campaign("phase name=ramp duration=12\n"
                              "phase name=hold duration=16\n"
                              "phase name=cool duration=12\n");
  firestarter::Config cfg;
  cfg.loopback_nodes = "zen2@1500,haswell@2000";
  cfg.coordinator = true;
  cfg.campaign_file = campaign.path();
  cfg.target_spec = "cluster-power=500W";
  cfg.require_convergence = true;
  cfg.log_level = "warn";
  std::ostringstream out;
  firestarter::Firestarter app(cfg, out);
  const int code = app.run();
  const std::string output = out.str();
  EXPECT_EQ(code, 0) << output;

  // Merged CSV: per-node and cluster-aggregate rows for every phase.
  for (const char* phase : {"ramp", "hold", "cool"}) {
    EXPECT_GT(csv_mean(output, "sim-wall-power", phase, "n0-zen2"), 0.0) << output;
    EXPECT_GT(csv_mean(output, "sim-wall-power", phase, "n1-haswell"), 0.0) << output;
    const double cluster = csv_mean(output, "cluster-power", phase, "cluster");
    // The global budget holds on every phase: the cluster sum within the
    // 2 % band of 500 W (plus a little slack for the whole-phase mean,
    // which includes the ramp-in the trailing-window verdict excludes).
    EXPECT_NEAR(cluster, 500.0, 0.04 * 500.0) << output;
    // The aggregate is consistent with its parts.
    const double parts = csv_mean(output, "sim-wall-power", phase, "n0-zen2") +
                         csv_mean(output, "sim-wall-power", phase, "n1-haswell");
    EXPECT_NEAR(cluster, parts, 0.02 * parts) << output;
  }

  // Lockstep: the run reports per-phase start spreads and none exceeded the
  // tolerance (which would both flag the line and fail the exit code).
  EXPECT_NE(output.find("start spread"), std::string::npos) << output;
  EXPECT_EQ(output.find("exceeds tolerance"), std::string::npos) << output;
  EXPECT_NE(output.find("cluster power"), std::string::npos) << output;
  EXPECT_EQ(output.find("NOT converged"), std::string::npos) << output;
}

TEST(LoopbackFleet, OpenLoopCampaignMergesWithoutBudget) {
  const TempCampaign campaign("phase name=half duration=10 "
                              "profile=constant:50\n");
  firestarter::Config cfg;
  cfg.loopback_nodes = "zen2@1500,haswell@2000";
  cfg.coordinator = true;
  cfg.campaign_file = campaign.path();
  cfg.log_level = "warn";
  std::ostringstream out;
  firestarter::Firestarter app(cfg, out);
  EXPECT_EQ(app.run(), 0) << out.str();
  const std::string output = out.str();
  // Both nodes ran the same 50 % schedule; the cluster row sums their power.
  EXPECT_NEAR(csv_mean(output, "load-level", "half", "n0-zen2"), 0.5, 1e-6) << output;
  EXPECT_NEAR(csv_mean(output, "load-level", "half", "n1-haswell"), 0.5, 1e-6) << output;
  const double parts = csv_mean(output, "sim-wall-power", "half", "n0-zen2") +
                       csv_mean(output, "sim-wall-power", "half", "n1-haswell");
  EXPECT_NEAR(csv_mean(output, "cluster-power", "half", "cluster"), parts, 0.02 * parts)
      << output;
}

TEST(LoopbackFleet, UnreachableBudgetFailsRequireConvergence) {
  const TempCampaign campaign("phase name=hold duration=10\n");
  firestarter::Config cfg;
  cfg.loopback_nodes = "zen2@1500,haswell@2000";
  cfg.coordinator = true;
  cfg.campaign_file = campaign.path();
  // Both SKUs flat out cannot reach 5 kW.
  cfg.target_spec = "cluster-power=5000W";
  cfg.require_convergence = true;
  cfg.log_level = "error";
  std::ostringstream out;
  firestarter::Firestarter app(cfg, out);
  EXPECT_EQ(app.run(), 1) << out.str();
}

TEST(LoopbackFleet, SixtyFourNodeFleetMergesCorrectly) {
  // Fleet-scale stress: 64 heterogeneous in-process agents under a global
  // budget, driven by the shared event loop. Asserts the cluster
  // aggregates against their per-node parts and that the coordinator's
  // alignment queues stayed bounded (the run completing with converged
  // budget implies drained queues; kMaxLagSamples caps them throughout).
  const TempCampaign campaign("phase name=hold duration=10\n");
  firestarter::Config cfg;
  cfg.loopback_nodes = "zen2@1500x32,haswell@2000x32";
  cfg.coordinator = true;
  cfg.campaign_file = campaign.path();
  cfg.target_spec = "cluster-power=16000W";  // 250 W/node, as the pair test
  cfg.require_convergence = true;
  cfg.log_level = "error";
  std::ostringstream out;
  firestarter::Firestarter app(cfg, out);
  const int code = app.run();
  const std::string output = out.str();
  EXPECT_EQ(code, 0) << output;

  // Every node contributed a power row, and the cluster-power aggregate is
  // consistent with the sum of its 64 parts.
  double parts = 0.0;
  for (int i = 0; i < 64; ++i) {
    const std::string node = strings::format("n%d-%s", i, i < 32 ? "zen2" : "haswell");
    const double mean = csv_mean(output, "sim-wall-power", "hold", node);
    EXPECT_GT(mean, 0.0) << "missing power row for " << node;
    parts += mean;
  }
  const double cluster = csv_mean(output, "cluster-power", "hold", "cluster");
  EXPECT_NEAR(cluster, 16000.0, 0.04 * 16000.0) << output;
  EXPECT_NEAR(cluster, parts, 0.02 * parts) << output;

  // The hottest-package aggregate must sit at or above every node's own
  // mean temperature and below the hottest node's max.
  const double temp_max = csv_mean(output, "cluster-temp-max", "hold", "cluster");
  EXPECT_GT(temp_max, 0.0) << output;
  for (int i = 0; i < 64; i += 16) {
    const std::string node = strings::format("n%d-%s", i, i < 32 ? "zen2" : "haswell");
    EXPECT_GE(temp_max + 1e-9, csv_mean(output, "sim-package-temp", "hold", node));
  }
}

/// A coordinator Firestarter (budget mode, --require-convergence) on its
/// own thread, for real --agent instances to join.
struct CoordinatorRun {
  firestarter::Config cfg;
  std::ostringstream out;
  int code = -1;
  std::thread thread;

  CoordinatorRun(std::uint16_t port, const std::string& campaign, int nodes,
                 const char* budget, std::optional<std::string> trace_out = std::nullopt) {
    cfg.coordinator = true;
    cfg.listen_port = port;
    cfg.cluster_nodes = nodes;
    cfg.campaign_file = campaign;
    cfg.target_spec = budget;
    cfg.require_convergence = true;
    cfg.trace_out = trace_out;
    cfg.log_level = "error";
    thread = std::thread([this] {
      try {
        firestarter::Firestarter app(cfg, out);
        code = app.run();
      } catch (const std::exception& e) {
        out << "coordinator error: " << e.what() << "\n";
      }
    });
  }
  ~CoordinatorRun() {
    if (thread.joinable()) thread.join();
  }
};

/// One real `fs2 --agent` instance (the production agent path) on its own
/// thread; `code` receives its exit code (-2 when it threw).
std::thread run_agent(std::uint16_t port, firestarter::TargetSystem target, double freq_mhz,
                      const char* name, int* code) {
  return std::thread([=] {
    firestarter::Config cfg;
    cfg.agent_endpoint = "127.0.0.1:" + std::to_string(port);
    cfg.target = target;
    cfg.sim_freq_mhz = freq_mhz;
    cfg.node_name = name;
    cfg.log_level = "error";
    try {
      std::ostringstream out;
      firestarter::Firestarter app(cfg, out);
      *code = app.run();
    } catch (const std::exception&) {
      *code = -2;
    }
  });
}

/// Span names the merged --trace-out timeline attributes to `node`.
std::set<std::string> node_span_names(const std::string& json, const std::string& node) {
  const std::regex process(R"re("name":"process_name","ph":"M","pid":(\d+),.*"name":"([^"]*)")re");
  const std::regex span(R"re(^\{"name":"([^"]*)","ph":"X",.*"pid":(\d+),)re");
  std::string node_pid;
  std::set<std::string> names;
  std::istringstream lines(json);
  std::string line;
  std::smatch m;
  while (std::getline(lines, line)) {
    if (std::regex_search(line, m, process) && m[2] == node) node_pid = m[1];
    else if (std::regex_search(line, m, span) && m[2] == node_pid) names.insert(m[1]);
  }
  return names;
}

TEST(MultiProcessFleet, RealAgentProcessesConvergeOverTcp) {
  // The production --agent path (run_agent -> AgentFleet -> Agent) as
  // separate Firestarter instances over real TCP: the same agent state
  // machine the loopback fleet runs, driven one per process.
  const TempCampaign campaign("phase name=ramp duration=8\n"
                              "phase name=hold duration=8\n");
  const TempFile trace("trace.json");
  const std::uint16_t port = free_port();
  int zen2_code = -1;
  int haswell_code = -1;
  std::string output;
  {
    CoordinatorRun coordinator(port, campaign.path(), 2, "cluster-power=500W", trace.path());
    std::thread zen2 =
        run_agent(port, firestarter::TargetSystem::kSimZen2, 1500.0, "alpha", &zen2_code);
    std::thread haswell =
        run_agent(port, firestarter::TargetSystem::kSimHaswell, 2000.0, "beta", &haswell_code);
    zen2.join();
    haswell.join();
    coordinator.thread.join();
    output = coordinator.out.str();
    EXPECT_EQ(coordinator.code, 0) << output;
  }
  trace::Tracer::reset();  // do not leak an enabled tracer into other tests
  EXPECT_EQ(zen2_code, 0);
  EXPECT_EQ(haswell_code, 0);
  const double cluster = csv_mean(output, "cluster-power", "hold", "cluster");
  EXPECT_NEAR(cluster, 500.0, 0.04 * 500.0) << output;
  EXPECT_GT(csv_mean(output, "sim-wall-power", "ramp", "alpha"), 0.0) << output;
  EXPECT_GT(csv_mean(output, "sim-wall-power", "hold", "beta"), 0.0) << output;

  // Real agents ship the same span names as loopback agents.
  std::ifstream in(trace.path());
  ASSERT_TRUE(in.good());
  std::stringstream json;
  json << in.rdbuf();
  for (const char* node : {"alpha", "beta"}) {
    const std::set<std::string> names = node_span_names(json.str(), node);
    for (const char* name : {"agent.budget_wait", "phase:ramp", "phase:hold"})
      EXPECT_EQ(names.count(name), 1u) << node << " shipped no " << name << " span";
  }
}

/// A frame-level TCP relay in front of the coordinator. It forwards every
/// link frame by frame, except that it cuts the FIRST link (closes both
/// sockets) at that agent's `cut_at_report`-th budget report — a link lost
/// mid-phase. The report is swallowed and the cut held back 300 ms, so the
/// other agents finish the phase and park at the barrier first: their
/// setpoints never see the lost node's share. Later links (the rejoin) pass
/// intact.
class LinkCutter {
 public:
  LinkCutter(std::uint16_t upstream, int cut_at_report)
      : listener_(0, /*loopback_only=*/true),
        upstream_("127.0.0.1:" + std::to_string(upstream)),
        cut_at_report_(cut_at_report),
        thread_([this] { run(); }) {}
  ~LinkCutter() {
    stop_ = true;
    thread_.join();
  }
  std::uint16_t port() const { return listener_.port(); }
  bool cut() const { return cut_; }

 private:
  struct Link {
    Connection agent;
    Connection coordinator;
    int reports = 0;
  };

  /// Forward every frame `from` has ready; false once the link is over.
  bool pump(Link& link, Connection& from, Connection& to) {
    Frame frame;
    try {
      while (from.recv_into(frame, /*timeout_s=*/0.0)) {
        if (&from == &link.agent && frame.type == MessageType::kBudgetReport && !cut_ &&
            ++link.reports == cut_at_report_) {
          std::this_thread::sleep_for(std::chrono::milliseconds(300));
          cut_ = true;
          return false;
        }
        to.send(frame);
      }
      return true;
    } catch (const WireError&) {
      return false;  // one side hung up: hang up the other
    }
  }

  void run() {
    std::vector<std::unique_ptr<Link>> links;
    while (!stop_) {
      std::vector<pollfd> fds{pollfd{listener_.fd(), POLLIN, 0}};
      for (const auto& link : links) {
        fds.push_back(pollfd{link->agent.fd(), POLLIN, 0});
        fds.push_back(pollfd{link->coordinator.fd(), POLLIN, 0});
      }
      if (::poll(fds.data(), fds.size(), 50) <= 0) continue;
      for (std::size_t i = 0; i < links.size(); ++i) {
        Link& link = *links[i];
        bool open = true;
        if (fds[1 + 2 * i].revents != 0) open = pump(link, link.agent, link.coordinator);
        if (open && fds[2 + 2 * i].revents != 0)
          open = pump(link, link.coordinator, link.agent);
        if (!open) {
          link.agent.close();
          link.coordinator.close();
        }
      }
      std::erase_if(links, [](const auto& link) { return !link->agent.valid(); });
      if (fds[0].revents & POLLIN) {
        auto link = std::make_unique<Link>();
        link->agent = listener_.accept(/*timeout_s=*/1.0);
        link->coordinator = Connection::connect(upstream_);
        links.push_back(std::move(link));
      }
    }
  }

  Listener listener_;
  std::string upstream_;
  int cut_at_report_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> cut_{false};
  std::thread thread_;
};

TEST(MultiProcessFleet, RealAgentRejoinsAfterLostLinkAndConverges) {
  // A real --agent loses its coordinator link mid-phase (the relay cuts it
  // during a budget exchange): the incarnation ends, its driver starts a
  // replacement that presents `rejoin`, and the run still converges.
  const TempCampaign campaign("phase name=ramp duration=8\n"
                              "phase name=hold duration=8\n");
  const std::uint16_t port = free_port();
  int zen2_code = -1;
  int haswell_code = -1;
  CoordinatorRun coordinator(port, campaign.path(), 2, "cluster-power=500W");
  LinkCutter relay(port, /*cut_at_report=*/6);
  std::thread zen2 =
      run_agent(port, firestarter::TargetSystem::kSimZen2, 1500.0, "alpha", &zen2_code);
  std::thread haswell = run_agent(relay.port(), firestarter::TargetSystem::kSimHaswell,
                                  2000.0, "beta", &haswell_code);
  zen2.join();
  haswell.join();
  coordinator.thread.join();
  const std::string output = coordinator.out.str();
  EXPECT_TRUE(relay.cut());
  EXPECT_EQ(coordinator.code, 0) << output;
  EXPECT_EQ(zen2_code, 0);
  EXPECT_EQ(haswell_code, 0);
  EXPECT_NE(output.find("node beta LOST mid-campaign"), std::string::npos) << output;
  EXPECT_NE(output.find("node beta REJOINED at phase 0"), std::string::npos) << output;
  EXPECT_GT(csv_mean(output, "sim-wall-power", "hold", "beta"), 0.0) << output;
}

TEST(LoopbackFleet, RejectsHostSpecs) {
  firestarter::Config cfg;
  cfg.loopback_nodes = "host,zen2";
  cfg.coordinator = true;
  const TempCampaign campaign("phase name=p duration=5\n");
  cfg.campaign_file = campaign.path();
  std::ostringstream out;
  firestarter::Firestarter app(cfg, out);
  EXPECT_THROW(app.run(), ConfigError);
}

TEST(ClusterBusTest, LagQueuesStayBounded) {
  // Node alpha streams far ahead while beta stays silent: the per-node
  // alignment queue must cap at kMaxLagSamples (dropping oldest), never
  // grow with the skew.
  ClusterBus bus({"alpha", "beta"});
  bus.on_channel(0, make_channel(0, "sim-wall-power", "W"));
  bus.on_channel(1, make_channel(0, "sim-wall-power", "W"));
  bus.on_bracket(0, make_bracket(true, 0, "p", 0.0));
  bus.on_bracket(1, make_bracket(true, 0, "p", 0.0));
  SampleBatchMsg batch;
  batch.channel_id = 0;
  for (int i = 0; i < 1000; ++i)
    batch.samples.push_back(telemetry::Sample{i * 0.05, 100.0});
  const std::size_t rounds = 3 * ClusterBus::kMaxLagSamples / 1000;
  for (std::size_t r = 0; r <= rounds; ++r) bus.on_samples(0, batch);
  EXPECT_LE(bus.queued_samples(), ClusterBus::kMaxLagSamples);
  EXPECT_GT(bus.queued_samples(), 0u);
}

TEST(RemoteSinkTest, EdgeSummarizesAndShipsOnlyAggregateSamples) {
  Listener listener(0, /*loopback_only=*/true);
  Connection agent = Connection::connect(
      "127.0.0.1:" + std::to_string(listener.port()));
  Connection coordinator = listener.accept(/*timeout_s=*/5.0);

  telemetry::TelemetryBus bus;
  RemoteSink sink(&agent, std::chrono::steady_clock::now());
  bus.attach(&sink);
  const telemetry::ChannelId power = bus.channel("sim-wall-power", "W");
  const telemetry::ChannelId load = bus.channel("load-level", "fraction");
  EXPECT_TRUE(sink.ships_samples(power));
  EXPECT_FALSE(sink.ships_samples(load));

  bus.begin_phase("hold", 10.0, 0.0, 0.0);
  for (int i = 0; i < 50; ++i) {
    bus.publish(power, i * 0.1, 200.0 + i);
    bus.publish(load, i * 0.1, 0.5);
  }
  bus.end_phase();
  bus.finish();

  // Expected wire order: channel registrations, begin bracket, the power
  // samples, then the edge summary rows (power AND load), then the end
  // bracket — never a raw load-level batch.
  std::size_t sample_batches = 0;
  std::vector<NodeSummaryMsg> summaries;
  bool end_bracket_seen = false;
  for (int i = 0; i < 20; ++i) {
    const auto frame = coordinator.recv(/*timeout_s=*/2.0);
    ASSERT_TRUE(frame.has_value());
    WireReader reader(frame->payload);
    if (frame->type == MessageType::kSampleBatch) {
      const SampleBatchMsg batch = SampleBatchMsg::decode(reader);
      EXPECT_EQ(batch.channel_id, static_cast<std::uint32_t>(power));
      EXPECT_FALSE(end_bracket_seen);
      sample_batches += batch.samples.size();
    } else if (frame->type == MessageType::kNodeSummary) {
      EXPECT_FALSE(end_bracket_seen);  // rows precede the barrier signal
      summaries.push_back(NodeSummaryMsg::decode(reader));
    } else if (frame->type == MessageType::kPhaseBracket) {
      const PhaseBracketMsg bracket = PhaseBracketMsg::decode(reader);
      if (!bracket.is_begin) {
        end_bracket_seen = true;
        break;
      }
    }
  }
  EXPECT_TRUE(end_bracket_seen);
  EXPECT_EQ(sample_batches, 50u);
  ASSERT_EQ(summaries.size(), 2u);
  EXPECT_EQ(summaries[0].name, "sim-wall-power");
  EXPECT_NEAR(summaries[0].mean, 224.5, 1e-9);  // mean of 200..249
  EXPECT_EQ(summaries[1].name, "load-level");
  EXPECT_NEAR(summaries[1].mean, 0.5, 1e-12);
}

TEST(RemoteSinkTest, BatchThresholdAdaptsToSampleRate) {
  Listener listener(0, /*loopback_only=*/true);
  Connection agent = Connection::connect(
      "127.0.0.1:" + std::to_string(listener.port()));
  Connection coordinator = listener.accept(/*timeout_s=*/5.0);

  std::atomic<bool> done{false};
  std::thread drain([&] {
    Frame frame;
    while (!done.load())
      if (!coordinator.recv_into(frame, /*timeout_s=*/0.05)) continue;
  });

  telemetry::TelemetryBus bus;
  RemoteSink sink(&agent, std::chrono::steady_clock::now());
  bus.attach(&sink);
  const telemetry::ChannelId power = bus.channel("sim-wall-power", "W");
  EXPECT_EQ(sink.batch_threshold(power), RemoteSink::kBatchSamples);

  bus.begin_phase("p", 1000.0, 0.0, 0.0);
  // 500 Sa/s: after the first full flush the threshold re-targets
  // kTargetBatchSeconds' worth of stream (1000 samples).
  for (int i = 0; i < 300; ++i) bus.publish(power, i / 500.0, 100.0);
  EXPECT_EQ(sink.batch_threshold(power),
            static_cast<std::size_t>(500.0 * RemoteSink::kTargetBatchSeconds));
  // 2 Sa/s: a slow channel adapts down to the floor instead of buffering
  // minutes of latency.
  const telemetry::ChannelId slow = bus.channel("sysfs-powercap-rapl", "W");
  for (int i = 0; i < 1100; ++i) bus.publish(slow, i / 2.0, 50.0);
  EXPECT_EQ(sink.batch_threshold(slow), RemoteSink::kMinBatchSamples);
  bus.finish();
  done.store(true);
  drain.join();
}

TEST(Coordinator, RequiresCampaignAndNodes) {
  firestarter::Config cfg;
  cfg.coordinator = true;
  std::ostringstream out;
  {
    firestarter::Firestarter app(cfg, out);
    EXPECT_THROW(app.run(), ConfigError);  // no campaign
  }
  const TempCampaign campaign("phase name=p duration=5\n");
  cfg.campaign_file = campaign.path();
  {
    firestarter::Firestarter app(cfg, out);
    EXPECT_THROW(app.run(), ConfigError);  // no --nodes / --loopback
  }
}

// ---- observability ----------------------------------------------------------

TEST(ClusterBusTest, MergedRowsIncludePhaseBeginSpread) {
  const TempCampaign campaign("phase name=solo duration=10 "
                              "profile=constant:60\n");
  firestarter::Config cfg;
  cfg.loopback_nodes = "zen2@1500,haswell@2000";
  cfg.coordinator = true;
  cfg.campaign_file = campaign.path();
  cfg.log_level = "warn";
  std::ostringstream out;
  firestarter::Firestarter app(cfg, out);
  EXPECT_EQ(app.run(), 0) << out.str();
  const std::string output = out.str();
  // The merged CSV carries one spread row per phase on the cluster
  // pseudo-node: mean = spread, samples = participating nodes.
  const double spread = csv_mean(output, "phase-begin-spread", "solo", "cluster");
  EXPECT_GE(spread, 0.0) << output;
  EXPECT_LT(spread, 0.25) << output;  // loopback agents start nearly together
  EXPECT_NE(output.find("phase-begin-spread,s,2,"), std::string::npos) << output;
}

TEST(LoopbackFleet, SyncToleranceFailureNamesOffendingNodes) {
  const TempCampaign campaign("phase name=tight duration=10 "
                              "profile=constant:50\n");
  firestarter::Config cfg;
  cfg.loopback_nodes = "zen2@1500,haswell@2000";
  cfg.coordinator = true;
  cfg.campaign_file = campaign.path();
  // No two nodes can begin within a nanosecond of each other; the lockstep
  // verdict must fail and say WHICH node straggled behind which.
  cfg.sync_tolerance_s = 1e-9;
  cfg.require_convergence = true;
  cfg.log_level = "error";
  std::ostringstream out;
  firestarter::Firestarter app(cfg, out);
  EXPECT_EQ(app.run(), 1) << out.str();
  const std::string output = out.str();
  EXPECT_NE(output.find("phase 'tight'"), std::string::npos) << output;
  EXPECT_NE(output.find("exceeds tolerance"), std::string::npos) << output;
  const std::size_t offender = output.find("— node ");
  ASSERT_NE(offender, std::string::npos) << output;
  EXPECT_NE(output.find("ms after node ", offender), std::string::npos) << output;
  // Both named nodes are real fleet members.
  const bool names_nodes = output.find("n0-zen2", offender) != std::string::npos ||
                           output.find("n1-haswell", offender) != std::string::npos;
  EXPECT_TRUE(names_nodes) << output;
}

TEST(LoopbackFleet, TraceOutExportsMergedFleetTimeline) {
  const TempCampaign campaign("phase name=ramp duration=8\n"
                              "phase name=cool duration=6\n");
  const TempFile trace("trace.json");
  firestarter::Config cfg;
  cfg.loopback_nodes = "zen2@1500,haswell@2000";
  cfg.coordinator = true;
  cfg.campaign_file = campaign.path();
  cfg.target_spec = "cluster-power=500W";
  cfg.trace_out = trace.path();
  cfg.log_level = "warn";
  std::ostringstream out;
  firestarter::Firestarter app(cfg, out);
  EXPECT_EQ(app.run(), 0) << out.str();
  EXPECT_NE(out.str().find("fleet trace written to"), std::string::npos) << out.str();
  trace::Tracer::reset();  // do not leak an enabled tracer into other tests

  std::ifstream in(trace.path());
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  // Every node became a named process on the merged timeline...
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"coordinator\""), std::string::npos);
  EXPECT_NE(json.find("\"n0-zen2\""), std::string::npos);
  EXPECT_NE(json.find("\"n1-haswell\""), std::string::npos);
  // ...with per-node phase spans, agent waits, and coordinator-side spans.
  EXPECT_NE(json.find("\"phase:ramp\""), std::string::npos);
  EXPECT_NE(json.find("\"phase:cool\""), std::string::npos);
  EXPECT_NE(json.find("\"cluster.phase_barrier\""), std::string::npos);
  EXPECT_NE(json.find("\"cluster.bus.drain\""), std::string::npos);
}

TEST(Coordinator, ServesStatusProbesDuringAcceptAndMidRun) {
  Coordinator::Options options;
  options.port = 0;
  options.loopback_only = true;
  options.nodes = 1;
  options.campaign_text = "phase name=p duration=6 profile=constant:50\n";
  options.phase_count = 1;
  // A generous epoch delay keeps the coordinator in its event loop (agents
  // parked at the epoch) long enough for the mid-run probes to land.
  options.start_delay_s = 1.5;
  Coordinator coordinator(options);
  const std::string endpoint = "127.0.0.1:" + std::to_string(coordinator.port());
  Coordinator::Result result;
  std::ostringstream out;
  std::thread run_thread([&] { result = coordinator.run(out); });

  // Probe 1: accept window, no agents yet — answered without consuming the
  // fleet slot.
  {
    Connection probe = Connection::connect(endpoint, /*retry_for_s=*/5.0);
    probe.send(StatusRequestMsg{}.encode());
    const auto frame = probe.recv(/*timeout_s=*/5.0);
    ASSERT_TRUE(frame.has_value());
    ASSERT_EQ(frame->type, MessageType::kStatusReply);
    WireReader reader(frame->payload);
    const StatusReplyMsg reply = StatusReplyMsg::decode(reader);
    EXPECT_EQ(reply.accepting, 1);
    EXPECT_EQ(reply.nodes_expected, 1u);
    EXPECT_EQ(reply.phase_count, 1u);
    EXPECT_TRUE(reply.nodes.empty());
  }

  firestarter::Config cfg;
  cfg.log_level = "error";
  const auto specs = firestarter::parse_loopback_specs("zen2@1500");
  std::unique_ptr<firestarter::SimFleet> fleet;
  std::thread fleet_thread([&, port = coordinator.port()] {
    fleet = std::make_unique<firestarter::SimFleet>(cfg, specs, port);
    fleet->run();
  });

  // Probe repeatedly until the campaign is live (accepting == 0 with the
  // node enrolled); the epoch delay guarantees a wide window.
  bool saw_running = false;
  for (int attempt = 0; attempt < 200 && !saw_running; ++attempt) {
    try {
      Connection probe = Connection::connect(endpoint, /*retry_for_s=*/0.2);
      probe.send(StatusRequestMsg{}.encode());
      const auto frame = probe.recv(/*timeout_s=*/2.0);
      if (!frame || frame->type != MessageType::kStatusReply) break;
      WireReader reader(frame->payload);
      const StatusReplyMsg reply = StatusReplyMsg::decode(reader);
      if (reply.accepting == 0 && !reply.nodes.empty()) {
        saw_running = true;
        EXPECT_EQ(reply.nodes[0].name, "n0-zen2");
        EXPECT_EQ(reply.nodes[0].connected, 1);
        EXPECT_LE(reply.nodes[0].phases_ended, reply.nodes[0].phases_begun);
      }
    } catch (const Error&) {
      break;  // listener gone: the run finished before we caught it mid-flight
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  run_thread.join();
  fleet_thread.join();
  EXPECT_TRUE(saw_running);
  ASSERT_TRUE(fleet != nullptr);
  EXPECT_TRUE(fleet->all_ok());
}

}  // namespace
