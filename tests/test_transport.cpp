// Reactor + transport tests: timers, tasks, local pipes, framed TCP.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <thread>

#include "helpers.hpp"
#include "transport/transport.hpp"

namespace flexric {
namespace {

using test::pump;
using test::pump_until;

// ---------------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------------

TEST(Reactor, PostedTasksRunFifo) {
  Reactor reactor;
  std::vector<int> order;
  reactor.post([&] { order.push_back(1); });
  reactor.post([&] { order.push_back(2); });
  reactor.post([&] { order.push_back(3); });
  reactor.run_once(0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Reactor, TaskPostedFromTaskStillRuns) {
  // A task posted from within a task is deferred past the current drain
  // batch (so I/O gets a chance) but still handled by the loop.
  Reactor reactor;
  int phase = 0;
  reactor.post([&] {
    phase = 1;
    reactor.post([&] {
      EXPECT_EQ(phase, 1);  // ran strictly after the posting task
      phase = 2;
    });
  });
  reactor.run_once(0);
  reactor.run_once(0);
  EXPECT_EQ(phase, 2);
}

TEST(Reactor, OneShotTimerFiresOnce) {
  Reactor reactor;
  int fired = 0;
  reactor.add_timer(kMilli, [&] { fired++; }, /*periodic=*/false);
  ASSERT_TRUE(pump_until(reactor, [&] { return fired >= 1; }));
  pump(reactor, 20);
  EXPECT_EQ(fired, 1);
}

TEST(Reactor, PeriodicTimerRepeats) {
  Reactor reactor;
  int fired = 0;
  auto id = reactor.add_timer(kMilli, [&] { fired++; });
  ASSERT_TRUE(pump_until(reactor, [&] { return fired >= 5; }));
  reactor.cancel_timer(id);
  int at_cancel = fired;
  pump(reactor, 50);
  EXPECT_LE(fired, at_cancel + 1);  // at most one already-queued firing
}

TEST(Reactor, CancelledTimerNeverFires) {
  Reactor reactor;
  int fired = 0;
  auto id = reactor.add_timer(kMilli, [&] { fired++; });
  reactor.cancel_timer(id);
  pump(reactor, 30);
  EXPECT_EQ(fired, 0);
}

// Timers due at one instant fire in the order they were armed, however the
// heap happens to be shaped, on the first round and after periodic re-arms.
TEST(Reactor, SameDeadlineTimersFireInArmingOrder) {
  VirtualClock clock;
  Reactor reactor;
  reactor.set_time_source(&clock);
  std::vector<int> order;
  constexpr int kTimers = 8;
  for (int i = 0; i < kTimers; ++i)
    reactor.add_timer(kMilli, [&order, i] { order.push_back(i); },
                      /*periodic=*/i % 2 == 0);
  clock.advance(kMilli);
  reactor.run_once(0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  order.clear();
  clock.advance(kMilli);
  reactor.run_once(0);
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 6}));
}

// One epoll batch reports two ready pipes. The first handler to run closes
// the other pipe and puts a quiet fd under its number: the closed fd's
// already-reported event must be dropped, not handed to the newcomer.
TEST(Reactor, StaleEventOfAClosedFdNeverReachesItsSuccessor) {
  Reactor reactor;
  std::array<int, 2> a{}, b{}, quiet{};
  ASSERT_EQ(pipe(a.data()), 0);
  ASSERT_EQ(pipe(b.data()), 0);
  ASSERT_EQ(pipe(quiet.data()), 0);
  int successor_events = 0;
  bool replaced = false;
  auto replace = [&](int victim) {
    if (replaced) return;
    replaced = true;
    reactor.del_fd(victim);
    ASSERT_EQ(dup2(quiet[0], victim), victim);  // closes the victim's pipe
    ASSERT_TRUE(reactor
                    .add_fd(victim, EPOLLIN,
                            [&](std::uint32_t) { successor_events++; })
                    .is_ok());
  };
  ASSERT_TRUE(
      reactor.add_fd(a[0], EPOLLIN, [&](std::uint32_t) { replace(b[0]); })
          .is_ok());
  ASSERT_TRUE(
      reactor.add_fd(b[0], EPOLLIN, [&](std::uint32_t) { replace(a[0]); })
          .is_ok());
  ASSERT_EQ(write(a[1], "x", 1), 1);
  ASSERT_EQ(write(b[1], "x", 1), 1);
  reactor.run_once(0);
  ASSERT_TRUE(replaced);
  pump(reactor, 5);
  EXPECT_EQ(successor_events, 0);
  for (int fd : {a[0], b[0]}) reactor.del_fd(fd);
  for (int fd : {a[0], a[1], b[0], b[1], quiet[0], quiet[1]}) close(fd);
}

// ---------------------------------------------------------------------------
// LocalTransport
// ---------------------------------------------------------------------------

TEST(LocalTransport, DeliversInOrder) {
  Reactor reactor;
  auto [a, b] = LocalTransport::make_pair(reactor);
  std::vector<int> got;
  b->set_on_message([&](StreamId, BytesView bytes) {
    got.push_back(bytes[0]);
  });
  for (std::uint8_t i = 0; i < 10; ++i) {
    Buffer msg{i};
    ASSERT_TRUE(a->send(msg).is_ok());
  }
  pump(reactor);
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(LocalTransport, StreamIdsPreserved) {
  Reactor reactor;
  auto [a, b] = LocalTransport::make_pair(reactor);
  StreamId seen = 0;
  b->set_on_message([&](StreamId s, BytesView) { seen = s; });
  Buffer msg{1};
  (void)a->send(msg, 5);
  pump(reactor);
  EXPECT_EQ(seen, 5);
}

TEST(LocalTransport, CloseNotifiesPeer) {
  Reactor reactor;
  auto [a, b] = LocalTransport::make_pair(reactor);
  bool b_closed = false;
  b->set_on_close([&] { b_closed = true; });
  a->close();
  pump(reactor);
  EXPECT_FALSE(a->is_open());
  EXPECT_TRUE(b_closed);
  EXPECT_FALSE(b->is_open());
}

TEST(LocalTransport, SendAfterCloseFails) {
  Reactor reactor;
  auto [a, b] = LocalTransport::make_pair(reactor);
  a->close();
  Buffer msg{1};
  EXPECT_FALSE(a->send(msg).is_ok());
}

// ---------------------------------------------------------------------------
// TCP transport + listener
// ---------------------------------------------------------------------------

struct TcpPair {
  Reactor reactor;
  std::unique_ptr<TcpListener> listener;
  std::shared_ptr<MsgTransport> server_side;
  std::unique_ptr<TcpTransport> client_side;

  TcpPair() {
    listener = std::make_unique<TcpListener>(
        reactor, [this](std::unique_ptr<TcpTransport> t) {
          server_side = std::shared_ptr<MsgTransport>(std::move(t));
        });
    EXPECT_TRUE(listener->listen(0).is_ok());
    auto client = TcpTransport::connect(reactor, "127.0.0.1",
                                        listener->port());
    EXPECT_TRUE(client.is_ok());
    client_side = std::move(*client);
    test::pump_until(reactor, [this] { return server_side != nullptr; });
  }
};

TEST(TcpTransport, EphemeralPortAssigned) {
  TcpPair pair;
  EXPECT_GT(pair.listener->port(), 0);
}

TEST(TcpTransport, SmallMessageRoundTrip) {
  TcpPair pair;
  Buffer received;
  pair.server_side->set_on_message([&](StreamId, BytesView b) {
    received.assign(b.begin(), b.end());
  });
  Buffer msg{1, 2, 3, 4, 5};
  ASSERT_TRUE(pair.client_side->send(msg).is_ok());
  ASSERT_TRUE(test::pump_until(pair.reactor,
                               [&] { return !received.empty(); }));
  EXPECT_EQ(received, msg);
}

TEST(TcpTransport, LargeMessagePreservesBoundaries) {
  TcpPair pair;
  std::vector<std::size_t> sizes;
  pair.server_side->set_on_message(
      [&](StreamId, BytesView b) { sizes.push_back(b.size()); });
  Buffer big(1'000'000, 0xAA);
  Buffer small{1};
  ASSERT_TRUE(pair.client_side->send(big).is_ok());
  ASSERT_TRUE(pair.client_side->send(small).is_ok());
  ASSERT_TRUE(
      test::pump_until(pair.reactor, [&] { return sizes.size() == 2; }));
  EXPECT_EQ(sizes[0], 1'000'000u);
  EXPECT_EQ(sizes[1], 1u);
}

TEST(TcpTransport, ManySmallMessagesCoalescedFramesSplitCorrectly) {
  TcpPair pair;
  int count = 0;
  std::uint64_t byte_sum = 0;
  pair.server_side->set_on_message([&](StreamId, BytesView b) {
    count++;
    for (auto x : b) byte_sum += x;
  });
  for (int i = 0; i < 500; ++i) {
    Buffer msg{static_cast<std::uint8_t>(i & 0xFF)};
    ASSERT_TRUE(pair.client_side->send(msg).is_ok());
  }
  ASSERT_TRUE(test::pump_until(pair.reactor, [&] { return count == 500; }));
  std::uint64_t expected = 0;
  for (int i = 0; i < 500; ++i) expected += static_cast<std::uint8_t>(i);
  EXPECT_EQ(byte_sum, expected);
}

TEST(TcpTransport, StreamIdTravelsWithFrame) {
  TcpPair pair;
  StreamId seen = 0;
  pair.server_side->set_on_message([&](StreamId s, BytesView) { seen = s; });
  Buffer msg{7};
  (void)pair.client_side->send(msg, 42);
  test::pump_until(pair.reactor, [&] { return seen == 42; });
  EXPECT_EQ(seen, 42);
}

TEST(TcpTransport, PeerCloseDetected) {
  TcpPair pair;
  bool closed = false;
  pair.server_side->set_on_close([&] { closed = true; });
  pair.client_side->close();
  ASSERT_TRUE(test::pump_until(pair.reactor, [&] { return closed; }));
  EXPECT_FALSE(pair.server_side->is_open());
}

TEST(TcpTransport, BidirectionalTraffic) {
  TcpPair pair;
  int client_got = 0, server_got = 0;
  pair.server_side->set_on_message([&](StreamId, BytesView b) {
    server_got++;
    (void)pair.server_side->send(b);  // echo
  });
  pair.client_side->set_on_message([&](StreamId, BytesView) { client_got++; });
  for (int i = 0; i < 20; ++i) {
    Buffer msg{static_cast<std::uint8_t>(i)};
    (void)pair.client_side->send(msg);
  }
  ASSERT_TRUE(
      test::pump_until(pair.reactor, [&] { return client_got == 20; }));
  EXPECT_EQ(server_got, 20);
}

TEST(TcpTransport, OversizedMessageRejected) {
  TcpPair pair;
  Buffer huge(17 * 1024 * 1024, 0);
  auto st = pair.client_side->send(huge);
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), Errc::capacity);
}

TEST(TcpTransport, ConnectToClosedPortFails) {
  Reactor reactor;
  auto res = TcpTransport::connect(reactor, "127.0.0.1", 1);
  EXPECT_FALSE(res.is_ok());
}

// ---------------------------------------------------------------------------
// Reactor: epoll readiness beyond a single fixed-size batch
// ---------------------------------------------------------------------------

// Regression: run_once used a fixed 64-entry epoll_wait array and handled at
// most 64 ready fds per call, starving the rest under load. With >64
// simultaneously-ready pipes, a single run_once must now service every one.
TEST(Reactor, RunOnceDrainsMoreThan64ReadyFds) {
  constexpr int kPipes = 100;
  Reactor reactor;
  std::vector<std::array<int, 2>> pipes(kPipes);
  int fired = 0;
  for (auto& p : pipes) {
    ASSERT_EQ(pipe(p.data()), 0);
    ASSERT_TRUE(reactor
                    .add_fd(p[0], EPOLLIN,
                            [&fired, fd = p[0]](std::uint32_t) {
                              char c;
                              ASSERT_EQ(read(fd, &c, 1), 1);
                              fired++;
                            })
                    .is_ok());
  }
  for (auto& p : pipes) ASSERT_EQ(write(p[1], "x", 1), 1);

  int handled = reactor.run_once(0);
  EXPECT_EQ(fired, kPipes) << "ready fds beyond the first epoll batch were "
                              "not serviced in this run_once";
  EXPECT_GE(handled, kPipes);

  for (auto& p : pipes) {
    reactor.del_fd(p[0]);
    close(p[0]);
    close(p[1]);
  }
}

// ---------------------------------------------------------------------------
// TcpTransport: send-buffer backpressure
// ---------------------------------------------------------------------------

// A peer that stops reading must not let our TX queue grow without bound:
// once the cap is hit, send() surfaces Errc::capacity, and sending works
// again after the peer drains.
TEST(TcpTransport, SendBufferExhaustionSurfacesCapacity) {
  TcpPair pair;
  pair.client_side->set_max_tx_buffer(64 * 1024);

  // Do not pump the reactor: nothing flushes, the peer "reads" nothing, and
  // every frame accumulates in the client's TX queue until the cap.
  Buffer chunk(8 * 1024, 0x42);
  Status st = Status::ok();
  int accepted = 0;
  for (int i = 0; i < 64 && st.is_ok(); ++i) {
    st = pair.client_side->send(chunk);
    if (st.is_ok()) accepted++;
  }
  ASSERT_FALSE(st.is_ok()) << "cap never enforced";
  EXPECT_EQ(st.code(), Errc::capacity);
  EXPECT_GT(accepted, 0);  // backpressure, not a dead link
  EXPECT_TRUE(pair.client_side->is_open());

  // Let the reactor flush and the peer consume; capacity frees up.
  int received = 0;
  pair.server_side->set_on_message([&](StreamId, BytesView) { received++; });
  ASSERT_TRUE(
      pump_until(pair.reactor, [&] { return received == accepted; }));
  EXPECT_EQ(pair.client_side->pending_tx_bytes(), 0u);
  EXPECT_TRUE(pair.client_side->send(chunk).is_ok());
}

/// A connected loopback TCP pair {client, server} with a small client send
/// buffer and a small server receive buffer, set before the handshake so the
/// advertised window is small too.
std::pair<int, int> narrow_tcp_pair() {
  const int small = 4096;
  const int lfd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_EQ(setsockopt(lfd, SOL_SOCKET, SO_RCVBUF, &small, sizeof small), 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  EXPECT_EQ(bind(lfd, reinterpret_cast<sockaddr*>(&addr), len), 0);
  EXPECT_EQ(listen(lfd, 1), 0);
  EXPECT_EQ(getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const int client = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_EQ(setsockopt(client, SOL_SOCKET, SO_SNDBUF, &small, sizeof small),
            0);
  EXPECT_EQ(connect(client, reinterpret_cast<sockaddr*>(&addr), len), 0);
  const int server = accept(lfd, nullptr, nullptr);
  close(lfd);
  return {client, server};
}

// Partial writes: with the socket buffers full and the peer not read,
// a flush leaves a backlog and arms EPOLLOUT; once the peer drains, the
// backlog goes out and EPOLLOUT is disarmed. The mask is only re-armed
// when it changes, not on every flush.
TEST(TcpTransport, PartialWritesArmEpolloutUntilBacklogDrains) {
  const auto [client_fd, server_fd] = narrow_tcp_pair();
  ASSERT_GE(server_fd, 0);
  Reactor client_reactor;
  Reactor server_reactor;
  TcpTransport client(client_reactor, client_fd);
  TcpTransport server(server_reactor, server_fd);
  int received = 0;
  std::size_t received_bytes = 0;
  server.set_on_message([&](StreamId, BytesView b) {
    received++;
    received_bytes += b.size();
  });

  constexpr int kFrames = 64;
  const Buffer frame(8 * 1024, 0x5A);
  for (int i = 0; i < kFrames; ++i)
    ASSERT_TRUE(client.send(frame).is_ok());
  EXPECT_FALSE(client.write_armed());
  pump(client_reactor);  // the corked flush hits EAGAIN; the peer reads nothing
  EXPECT_GT(client.pending_tx_bytes(), 0u);
  EXPECT_TRUE(client.write_armed());

  for (int i = 0; i < 20000 && received < kFrames; ++i) {
    server_reactor.run_once(0);
    client_reactor.run_once(1);
  }
  EXPECT_EQ(received, kFrames);
  EXPECT_EQ(received_bytes, kFrames * frame.size());
  EXPECT_EQ(client.pending_tx_bytes(), 0u);
  EXPECT_FALSE(client.write_armed());
}

// ---------------------------------------------------------------------------
// FrameAssembler: reassembly under pathological chunking
// ---------------------------------------------------------------------------

TEST(FrameAssembler, OneBytePerFeedNeverMisparses) {
  // Three frames of varying size/stream, delivered one byte at a time — the
  // worst short-read pattern a stalled TCP peer can produce.
  Buffer wire;
  Buffer m1{0xDE, 0xAD};
  Buffer m2;  // empty payload is a legal frame
  Buffer m3(300, 0x7F);
  append_frame(wire, m1, 0);
  append_frame(wire, m2, 42);
  append_frame(wire, m3, 7);

  FrameAssembler fa;
  std::vector<std::pair<StreamId, Buffer>> got;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    BytesView one(wire.data() + i, 1);
    ASSERT_TRUE(fa.feed(one,
                        [&](StreamId s, BytesView b) {
                          got.emplace_back(s, Buffer(b.begin(), b.end()));
                          return true;
                        })
                    .is_ok());
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].first, 0);
  EXPECT_EQ(got[0].second, m1);
  EXPECT_EQ(got[1].first, 42);
  EXPECT_TRUE(got[1].second.empty());
  EXPECT_EQ(got[2].first, 7);
  EXPECT_EQ(got[2].second, m3);
  EXPECT_EQ(fa.buffered(), 0u);  // nothing left over
}

// End-to-end dribble: a raw socket peer writes the frame stream to a
// TcpTransport ONE byte per reactor pump. Reassembly across 100% short
// reads must produce exactly the original messages, boundaries intact.
TEST(TcpTransport, OneBytePerPumpDribbleReassemblesFrames) {
  Reactor reactor;
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  TcpTransport receiver(reactor, sv[0]);

  std::vector<std::pair<StreamId, Buffer>> got;
  receiver.set_on_message([&](StreamId s, BytesView b) {
    got.emplace_back(s, Buffer(b.begin(), b.end()));
  });

  Buffer wire;
  Buffer m1{0x11, 0x22, 0x33};
  Buffer m2(200, 0x5A);
  Buffer m3{0xFF};
  append_frame(wire, m1, 1);
  append_frame(wire, m2, 2);
  append_frame(wire, m3, 3);

  for (std::uint8_t byte : wire) {
    ASSERT_EQ(write(sv[1], &byte, 1), 1);
    pump(reactor, 2);  // receiver sees a 1-byte short read each time
  }
  close(sv[1]);
  ASSERT_TRUE(pump_until(reactor, [&] { return got.size() == 3; }));
  EXPECT_EQ(got[0], (std::pair<StreamId, Buffer>{1, m1}));
  EXPECT_EQ(got[1], (std::pair<StreamId, Buffer>{2, m2}));
  EXPECT_EQ(got[2], (std::pair<StreamId, Buffer>{3, m3}));
}

TEST(FrameAssembler, SplitHeaderAcrossFeedsParsesOnce) {
  Buffer wire;
  Buffer msg{1, 2, 3};
  append_frame(wire, msg, 9);
  FrameAssembler fa;
  int frames = 0;
  // Split inside the 6-byte header, then the rest.
  ASSERT_TRUE(fa.feed(BytesView(wire.data(), 3),
                      [&](StreamId, BytesView) {
                        frames++;
                        return true;
                      })
                  .is_ok());
  EXPECT_EQ(frames, 0);
  ASSERT_TRUE(fa.feed(BytesView(wire.data() + 3, wire.size() - 3),
                      [&](StreamId s, BytesView b) {
                        frames++;
                        EXPECT_EQ(s, 9);
                        EXPECT_EQ(Buffer(b.begin(), b.end()), msg);
                        return true;
                      })
                  .is_ok());
  EXPECT_EQ(frames, 1);
}

TEST(FrameAssembler, OversizedLengthIsMalformed) {
  // Hand-craft a header whose length field exceeds kMaxFrameSize: the
  // stream is desynchronized garbage from here, feed must say so.
  Buffer wire(kFrameHeaderSize, 0);
  const std::uint32_t huge = kMaxFrameSize + 1;
  wire[0] = static_cast<std::uint8_t>(huge & 0xFF);
  wire[1] = static_cast<std::uint8_t>((huge >> 8) & 0xFF);
  wire[2] = static_cast<std::uint8_t>((huge >> 16) & 0xFF);
  wire[3] = static_cast<std::uint8_t>((huge >> 24) & 0xFF);
  FrameAssembler fa;
  auto st = fa.feed(wire, [](StreamId, BytesView) { return true; });
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), Errc::malformed);
}

TEST(FrameAssembler, SinkReturningFalseStopsDrain) {
  Buffer wire;
  Buffer msg{1};
  append_frame(wire, msg, 0);
  append_frame(wire, msg, 1);
  append_frame(wire, msg, 2);
  FrameAssembler fa;
  int delivered = 0;
  ASSERT_TRUE(fa.feed(wire,
                      [&](StreamId, BytesView) {
                        delivered++;
                        return delivered < 2;  // stop after the second
                      })
                  .is_ok());
  EXPECT_EQ(delivered, 2);
  // The undelivered third frame stays buffered, not lost.
  EXPECT_EQ(fa.buffered(), kFrameHeaderSize + msg.size());
}

// ---------------------------------------------------------------------------
// Receive path: whole frames are views into the read; only a trailing
// partial frame is copied into the connection's own buffer
// ---------------------------------------------------------------------------

using Frames = std::vector<std::pair<StreamId, Buffer>>;

/// A socketpair whose first end is a TcpTransport recording every frame.
struct RawPeer {
  Reactor reactor;
  int sv[2] = {-1, -1};
  std::unique_ptr<TcpTransport> rx;
  Frames got;

  RawPeer() {
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    rx = std::make_unique<TcpTransport>(reactor, sv[0]);
    rx->set_on_message([this](StreamId s, BytesView b) {
      got.emplace_back(s, Buffer(b.begin(), b.end()));
    });
  }
  ~RawPeer() { close(sv[1]); }
  void write_bytes(BytesView b) const {
    ASSERT_EQ(write(sv[1], b.data(), b.size()),
              static_cast<ssize_t>(b.size()));
  }
};

TEST(TcpTransport, ManyFramesInOneReadAllDelivered) {
  RawPeer p;
  Frames sent;
  Buffer wire;
  for (int i = 0; i < 300; ++i) {
    sent.emplace_back(static_cast<StreamId>(i),
                      Buffer(static_cast<std::size_t>(i % 40),
                             static_cast<std::uint8_t>(i)));
    append_frame(wire, sent.back().second, sent.back().first);
  }
  p.write_bytes(wire);
  p.reactor.run_once(100);  // one wake-up, one read
  EXPECT_EQ(p.got, sent);
}

TEST(TcpTransport, FrameDribbledOneBytePerReadBetweenWholeFrames) {
  RawPeer p;
  const Frames sent = {{1, Buffer(50, 0xA1)}, {2, Buffer(30, 0xB2)},
                       {3, Buffer(20, 0xC3)}};
  Buffer first, middle, last;
  append_frame(first, sent[0].second, sent[0].first);
  append_frame(middle, sent[1].second, sent[1].first);
  append_frame(last, sent[2].second, sent[2].first);
  first.push_back(middle.front());  // a whole frame and one byte
  p.write_bytes(first);
  pump(p.reactor, 2);
  ASSERT_EQ(p.got.size(), 1u);
  for (std::size_t i = 1; i + 1 < middle.size(); ++i) {
    p.write_bytes(BytesView(middle).subspan(i, 1));
    pump(p.reactor, 2);
    ASSERT_EQ(p.got.size(), 1u) << "delivered early at byte " << i;
  }
  last.insert(last.begin(), middle.back());  // the last byte, a whole frame
  p.write_bytes(last);
  pump(p.reactor, 2);
  EXPECT_EQ(p.got, sent);
}

TEST(TcpTransport, HandlerClosingItsTransportMidBatchStopsDelivery) {
  RawPeer p;
  int delivered = 0;
  p.rx->set_on_message([&](StreamId, BytesView) {
    if (++delivered == 2) p.rx->close();
  });
  Buffer wire;
  for (int i = 0; i < 5; ++i) append_frame(wire, Buffer{1, 2, 3}, 0);
  p.write_bytes(wire);  // five frames, one read
  pump(p.reactor, 5);
  EXPECT_EQ(delivered, 2);
  EXPECT_FALSE(p.rx->is_open());
}

// Shards pump one reactor per thread: each loop's frames are views into its
// own receive buffer, so two loops reading at once never share bytes (a
// shared buffer is a data race under TSan and garbles frames without it).
TEST(TcpTransport, ReactorsOnTwoThreadsReceiveIntoTheirOwnBuffers) {
  constexpr int kFrames = 2000;
  auto run = [](std::uint8_t fill, bool* ok) {
    RawPeer p;
    int good = 0;
    p.rx->set_on_message([&](StreamId, BytesView b) {
      good += b.size() == 64 &&
              std::all_of(b.begin(), b.end(),
                          [fill](std::uint8_t x) { return x == fill; });
    });
    Buffer wire;
    for (int i = 0; i < 50; ++i) append_frame(wire, Buffer(64, fill), 0);
    for (int sent = 0; sent < kFrames; sent += 50) {
      p.write_bytes(wire);
      pump(p.reactor, 2);
    }
    pump_until(p.reactor, [&] { return good == kFrames; });
    *ok = good == kFrames;
  };
  bool ok_a = false, ok_b = false;
  std::thread a(run, std::uint8_t{0xAA}, &ok_a);
  std::thread b(run, std::uint8_t{0xBB}, &ok_b);
  a.join();
  b.join();
  EXPECT_TRUE(ok_a);
  EXPECT_TRUE(ok_b);
}

TEST(FrameAssembler, PartialFrameAcrossThreeReadsBuffersOnlyThePartial) {
  const Frames sent = {{1, Buffer(10, 1)}, {2, Buffer(100, 2)},
                       {3, Buffer(5, 3)}, {4, Buffer(50, 4)}};
  Buffer wire;
  for (const auto& [s, m] : sent) append_frame(wire, m, s);
  const std::size_t a = kFrameHeaderSize + 10, b = kFrameHeaderSize + 100,
                    c = kFrameHeaderSize + 5;
  // Read 1: frame 1 and half of frame 2's header. Read 2: the rest of the
  // header and 37 payload bytes. Read 3: the rest of frame 2, frame 3 and
  // 20 bytes of frame 4.
  const std::size_t cut1 = a + 3, cut2 = cut1 + 40, cut3 = a + b + c + 20;
  FrameAssembler fa;
  Frames got;
  BytesView read;
  bool in_place = true;
  auto sink = [&](StreamId s, BytesView m) {
    got.emplace_back(s, Buffer(m.begin(), m.end()));
    // A frame that sits whole in the read is a view into it, not a copy.
    if (s != 2)
      in_place = in_place && m.data() >= read.data() &&
                 m.data() + m.size() <= read.data() + read.size();
    return true;
  };
  read = BytesView(wire).first(cut1);
  ASSERT_TRUE(fa.feed(read, sink).is_ok());
  EXPECT_EQ(got.size(), 1u);
  EXPECT_EQ(fa.buffered(), 3u);
  read = BytesView(wire).subspan(cut1, cut2 - cut1);
  ASSERT_TRUE(fa.feed(read, sink).is_ok());
  EXPECT_EQ(got.size(), 1u);
  EXPECT_EQ(fa.buffered(), 43u);
  read = BytesView(wire).subspan(cut2, cut3 - cut2);
  ASSERT_TRUE(fa.feed(read, sink).is_ok());
  EXPECT_EQ(got, Frames(sent.begin(), sent.begin() + 3));
  EXPECT_EQ(fa.buffered(), 20u) << "only frame 4's partial stays buffered";
  EXPECT_TRUE(in_place);
  read = BytesView(wire).subspan(cut3);
  ASSERT_TRUE(fa.feed(read, sink).is_ok());
  EXPECT_EQ(got, sent);
  EXPECT_EQ(fa.buffered(), 0u);
}

}  // namespace
}  // namespace flexric
