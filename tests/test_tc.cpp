// Traffic-control chain tests: classifier, queues, schedulers, BDP pacer,
// conservation properties, runtime reconfiguration.
#include <gtest/gtest.h>

#include "ran/rlc.hpp"
#include "tc/chain.hpp"

namespace flexric::tc {
namespace {

ran::Packet pkt(std::uint32_t size, std::uint16_t dst_port = 0,
                std::uint8_t proto = 17, std::uint64_t flow = 1) {
  ran::Packet p;
  p.size_bytes = size;
  p.tuple.dst_port = dst_port;
  p.tuple.proto = proto;
  p.flow_id = flow;
  return p;
}

QueueConf fifo(std::uint32_t qid, std::uint32_t limit = 1 << 20) {
  QueueConf q;
  q.qid = qid;
  q.kind = QueueKind::fifo;
  q.limit_bytes = limit;
  return q;
}

FilterConf filter_port(std::uint32_t id, std::uint16_t port,
                       std::uint32_t qid, std::uint8_t prec = 0) {
  FilterConf f;
  f.filter_id = id;
  f.match.dst_port = port;
  f.dst_qid = qid;
  f.precedence = prec;
  return f;
}

// ---------------------------------------------------------------------------
// Transparent mode
// ---------------------------------------------------------------------------

TEST(TcChain, TransparentModeMovesEverythingToRlc) {
  TcChain chain;
  ran::RlcEntity rlc;
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(chain.enqueue(pkt(1000), 0));
  EXPECT_EQ(chain.backlog_bytes(), 50'000u);
  chain.drain(rlc, kMilli, 20.0);
  EXPECT_EQ(chain.backlog_bytes(), 0u);
  EXPECT_EQ(rlc.buffer_bytes(), 50'000u);
  EXPECT_EQ(chain.pacer_rate_mbps(), 0.0);  // unpaced
}

TEST(TcChain, StartsWithSingleDefaultQueue) {
  TcChain chain;
  EXPECT_EQ(chain.num_queues(), 1u);
  auto stats = chain.stats_snapshot(false);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].qid, 0u);
}

// ---------------------------------------------------------------------------
// Control plane
// ---------------------------------------------------------------------------

TEST(TcChain, AddDelQueue) {
  TcChain chain;
  EXPECT_TRUE(chain.add_queue(fifo(1)).is_ok());
  EXPECT_EQ(chain.num_queues(), 2u);
  EXPECT_FALSE(chain.add_queue(fifo(1)).is_ok());  // duplicate
  EXPECT_TRUE(chain.del_queue(1).is_ok());
  EXPECT_FALSE(chain.del_queue(1).is_ok());   // gone
  EXPECT_FALSE(chain.del_queue(0).is_ok());   // default is permanent
}

TEST(TcChain, NonEmptyQueueCannotBeDeleted) {
  TcChain chain;
  (void)chain.add_queue(fifo(1));
  (void)chain.add_filter(filter_port(1, 5000, 1));
  chain.enqueue(pkt(100, 5000), 0);
  EXPECT_FALSE(chain.del_queue(1).is_ok());
}

TEST(TcChain, FilterRequiresExistingQueue) {
  TcChain chain;
  EXPECT_FALSE(chain.add_filter(filter_port(1, 5000, 9)).is_ok());
  (void)chain.add_queue(fifo(9));
  EXPECT_TRUE(chain.add_filter(filter_port(1, 5000, 9)).is_ok());
  EXPECT_FALSE(chain.add_filter(filter_port(1, 6000, 9)).is_ok());  // dup id
  EXPECT_TRUE(chain.del_filter(1).is_ok());
  EXPECT_FALSE(chain.del_filter(1).is_ok());
}

TEST(TcChain, DeletingQueueDropsItsFilters) {
  TcChain chain;
  (void)chain.add_queue(fifo(1));
  (void)chain.add_filter(filter_port(1, 5000, 1));
  ASSERT_TRUE(chain.del_queue(1).is_ok());
  // Packets for port 5000 now land in the default queue.
  ASSERT_TRUE(chain.enqueue(pkt(100, 5000), 0));
  auto stats = chain.stats_snapshot(false);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].backlog_pkts, 1u);
}

// ---------------------------------------------------------------------------
// Classifier
// ---------------------------------------------------------------------------

TEST(Classifier, FiveTupleExactAndWildcard) {
  TcChain chain;
  (void)chain.add_queue(fifo(1));
  (void)chain.add_queue(fifo(2));
  (void)chain.add_filter(filter_port(1, 5000, 1));
  FilterConf any_udp;
  any_udp.filter_id = 2;
  any_udp.match.proto = 17;  // all UDP
  any_udp.dst_qid = 2;
  any_udp.precedence = 10;  // after the port filter
  (void)chain.add_filter(any_udp);

  chain.enqueue(pkt(100, 5000, 17), 0);  // port filter wins
  chain.enqueue(pkt(100, 6000, 17), 0);  // udp wildcard
  chain.enqueue(pkt(100, 6000, 6), 0);   // tcp: default queue

  auto stats = chain.stats_snapshot(false);
  std::map<std::uint32_t, std::uint32_t> backlog;
  for (const auto& s : stats) backlog[s.qid] = s.backlog_pkts;
  EXPECT_EQ(backlog[0], 1u);
  EXPECT_EQ(backlog[1], 1u);
  EXPECT_EQ(backlog[2], 1u);
}

TEST(Classifier, PrecedenceOrdersFilters) {
  TcChain chain;
  (void)chain.add_queue(fifo(1));
  (void)chain.add_queue(fifo(2));
  // Two filters match port 5000; the lower precedence wins.
  (void)chain.add_filter(filter_port(1, 5000, 1, /*prec=*/5));
  (void)chain.add_filter(filter_port(2, 5000, 2, /*prec=*/1));
  chain.enqueue(pkt(100, 5000), 0);
  for (const auto& s : chain.stats_snapshot(false)) {
    if (s.qid == 2) { EXPECT_EQ(s.backlog_pkts, 1u); }
    if (s.qid == 1) { EXPECT_EQ(s.backlog_pkts, 0u); }
  }
}

// ---------------------------------------------------------------------------
// Queues
// ---------------------------------------------------------------------------

TEST(TcQueue, FifoLimitDrops) {
  TcChain chain;
  (void)chain.add_queue(fifo(1, /*limit=*/2'000));
  (void)chain.add_filter(filter_port(1, 5000, 1));
  EXPECT_TRUE(chain.enqueue(pkt(1000, 5000), 0));
  EXPECT_TRUE(chain.enqueue(pkt(1000, 5000), 0));
  EXPECT_FALSE(chain.enqueue(pkt(1000, 5000), 0));
  for (const auto& s : chain.stats_snapshot(false))
    if (s.qid == 1) { EXPECT_EQ(s.dropped_pkts, 1u); }
}

TEST(TcQueue, SojournMeasuredAtDequeue) {
  TcChain chain;
  ran::RlcEntity rlc;
  chain.enqueue(pkt(100), 0);
  chain.drain(rlc, 30 * kMilli, 10.0);
  auto stats = chain.stats_snapshot(true);
  EXPECT_DOUBLE_EQ(stats[0].sojourn_avg_ms, 30.0);
  EXPECT_DOUBLE_EQ(stats[0].sojourn_max_ms, 30.0);
}

TEST(TcQueue, ConservationEnqueuedEqualsDequeuedPlusBacklogPlusDrops) {
  TcChain chain;
  (void)chain.add_queue(fifo(1, 5'000));
  (void)chain.add_filter(filter_port(1, 5000, 1));
  ran::RlcEntity rlc;
  std::uint64_t offered = 0, accepted = 0;
  Nanos now = 0;
  for (int t = 0; t < 100; ++t) {
    now += kMilli;
    for (int k = 0; k < 3; ++k) {
      offered++;
      if (chain.enqueue(pkt(500, 5000), now)) accepted++;
    }
    if (t % 2 == 0) chain.drain(rlc, now, 5.0);
  }
  chain.drain(rlc, now, 5.0);
  auto stats = chain.stats_snapshot(false);
  std::uint64_t dequeued = 0, backlog = 0, dropped = 0;
  for (const auto& s : stats) {
    dequeued += s.tx_pkts;
    backlog += s.backlog_pkts;
    dropped += s.dropped_pkts;
  }
  EXPECT_EQ(accepted + dropped, offered);
  EXPECT_EQ(dequeued + backlog, accepted);
}

TEST(TcQueue, CodelDropsPersistentlyLatePackets) {
  TcChain chain;
  QueueConf q;
  q.qid = 1;
  q.kind = QueueKind::codel;
  (void)chain.add_queue(q);
  (void)chain.add_filter(filter_port(1, 5000, 1));
  ran::RlcEntity rlc(1'000'000);
  // Continuous overload: offer 2 pkt/ms while the pacer releases ~1 pkt/ms.
  // The queue stays persistently above the CoDel target, so after the
  // CoDel interval (100 ms) stale heads start getting dropped.
  chain.set_pacer({PacerKind::bdp, 1.0, 1.0});
  Nanos now = 0;
  std::uint64_t drops = 0;
  for (int t = 0; t < 500; ++t) {
    now += kMilli;
    chain.enqueue(pkt(1000, 5000), now);
    chain.enqueue(pkt(1000, 5000), now);
    chain.drain(rlc, now, 8.0);  // ~1000 B/ms budget
    rlc.pull(1'000, now, nullptr);
  }
  for (const auto& s : chain.stats_snapshot(false))
    if (s.qid == 1) drops = s.dropped_pkts;
  EXPECT_GT(drops, 0u);
}

// ---------------------------------------------------------------------------
// Schedulers
// ---------------------------------------------------------------------------

TEST(TcSched, RrAlternatesBetweenQueues) {
  TcChain chain;
  (void)chain.add_queue(fifo(1));
  (void)chain.add_filter(filter_port(1, 5000, 1));
  chain.set_sched({SchedKind::rr, {}});
  Nanos now = 0;
  for (int i = 0; i < 10; ++i) {
    chain.enqueue(pkt(100, 1111, 17, /*flow=*/1), now);  // default queue
    chain.enqueue(pkt(100, 5000, 17, /*flow=*/2), now);  // queue 1
  }
  ran::RlcEntity rlc;
  chain.drain(rlc, now, 10.0);
  // All 20 packets reach RLC; both queues served.
  EXPECT_EQ(rlc.buffer_pkts(), 20u);
  for (const auto& s : chain.stats_snapshot(false))
    EXPECT_EQ(s.tx_pkts, 10u);
}

TEST(TcSched, PrioServesLowQidFirst) {
  TcChain chain;
  (void)chain.add_queue(fifo(1));
  (void)chain.add_filter(filter_port(1, 5000, 1));
  chain.set_sched({SchedKind::prio, {}});
  chain.set_pacer({PacerKind::bdp, 1.0, 1.0});
  Nanos now = kMilli;
  for (int i = 0; i < 5; ++i) {
    chain.enqueue(pkt(400, 1111), now);  // q0 (higher prio)
    chain.enqueue(pkt(400, 5000), now);  // q1
  }
  ran::RlcEntity rlc;
  // Pacer budget limits the drain: only q0 packets should move first.
  chain.drain(rlc, now, 8.0);  // 8 Mbps * 1ms = 1000 B budget -> ~2-3 pkts
  auto stats = chain.stats_snapshot(false);
  for (const auto& s : stats) {
    if (s.qid == 0) { EXPECT_GT(s.tx_pkts, 0u); }
    if (s.qid == 1) { EXPECT_EQ(s.tx_pkts, 0u); }
  }
}

// ---------------------------------------------------------------------------
// BDP pacer
// ---------------------------------------------------------------------------

TEST(Pacer, KeepsRlcBacklogNearTarget) {
  TcChain chain;
  chain.set_pacer({PacerKind::bdp, 5.0, 1.0});
  ran::RlcEntity rlc;
  const double rate_mbps = 20.0;
  // target = 20 Mbps * 5 ms = 12.5 KB
  Nanos now = 0;
  for (int t = 0; t < 200; ++t) {
    now += kMilli;
    for (int k = 0; k < 10; ++k) chain.enqueue(pkt(1400), now);
    chain.drain(rlc, now, rate_mbps);
    // downstream serves 20 Mbps = 2500 B/ms
    rlc.pull(2'500, now, nullptr);
  }
  double target_bytes = rate_mbps * 1e6 / 8.0 * 0.005;
  EXPECT_LT(rlc.buffer_bytes(), 2.0 * target_bytes);
  EXPECT_GT(chain.backlog_bytes(), 0u);  // excess backlogged in TC
  EXPECT_NEAR(chain.pacer_rate_mbps(), rate_mbps, 0.1);
}

TEST(Pacer, DoesNotStarveDownstream) {
  TcChain chain;
  chain.set_pacer({PacerKind::bdp, 5.0, 1.0});
  ran::RlcEntity rlc;
  Nanos now = 0;
  std::uint64_t served = 0;
  for (int t = 0; t < 500; ++t) {
    now += kMilli;
    for (int k = 0; k < 3; ++k) chain.enqueue(pkt(1400), now);
    chain.drain(rlc, now, 20.0);
    std::uint32_t used = 0;
    rlc.pull(2'500, now, &used);
    served += used;
  }
  // 20 Mbps for 0.5 s = 1.25 MB; offered 3*1400*500 = 2.1 MB > capacity.
  // The link must stay ~fully utilized despite pacing.
  EXPECT_GT(served, 1'100'000u);
}

TEST(Pacer, DropHandlerFiresOnRlcOverflow) {
  TcChain chain;
  int drops = 0;
  chain.set_drop_handler([&](const ran::Packet&) { drops++; });
  ran::RlcEntity rlc(1'000);  // tiny
  for (int i = 0; i < 10; ++i) chain.enqueue(pkt(500), 0);
  chain.drain(rlc, kMilli, 10.0);  // transparent: pushes all -> overflow
  EXPECT_EQ(drops, 8);
  EXPECT_EQ(rlc.buffer_bytes(), 1'000u);
}

TEST(Pacer, DisablingPacerRestoresTransparentMode) {
  TcChain chain;
  chain.set_pacer({PacerKind::bdp, 5.0, 1.0});
  chain.set_pacer({PacerKind::none, 0, 0});
  ran::RlcEntity rlc;
  for (int i = 0; i < 20; ++i) chain.enqueue(pkt(1000), 0);
  chain.drain(rlc, kMilli, 1.0);
  EXPECT_EQ(rlc.buffer_pkts(), 20u);
}

}  // namespace
}  // namespace flexric::tc
