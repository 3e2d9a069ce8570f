// Property-based sweeps over the system invariants (DESIGN.md §6):
// NVS share attainment across the parameter space, TC conservation under
// random traffic, RLC byte conservation, Cubic sanity, and the TC policy
// (Appendix A.3) service.
#include <gtest/gtest.h>

#include "agent/agent.hpp"
#include "common/rng.hpp"
#include "e2sm/common.hpp"
#include "flows/cubic.hpp"
#include "helpers.hpp"
#include "ran/functions.hpp"
#include "ran/sched.hpp"
#include "server/server.hpp"
#include "server/sharding.hpp"
#include "tc/chain.hpp"

namespace flexric {
namespace {

// ---------------------------------------------------------------------------
// NVS share attainment sweep
// ---------------------------------------------------------------------------

class NvsShareSweep
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(NvsShareSweep, AttainedSharesMatchTargets) {
  auto [share1, share2] = GetParam();
  ran::CellConfig cfg{ran::Rat::nr, 1, 106, kMilli, 20, false};
  ran::MacScheduler mac(cfg);
  mac.add_ue(1);
  mac.add_ue(2);
  e2sm::slice::CtrlMsg msg;
  msg.kind = e2sm::slice::CtrlKind::add_mod;
  msg.algo = e2sm::slice::Algo::nvs;
  for (auto [id, share] : {std::pair<std::uint32_t, double>{1, share1},
                           {2, share2}}) {
    e2sm::slice::SliceConf conf;
    conf.id = id;
    conf.nvs = {e2sm::slice::NvsKind::capacity, share, 0, 0};
    msg.slices.push_back(conf);
  }
  ASSERT_TRUE(mac.apply(msg).is_ok());
  e2sm::slice::CtrlMsg assoc;
  assoc.kind = e2sm::slice::CtrlKind::assoc_ue;
  assoc.assoc = {{1, 1}, {2, 2}};
  ASSERT_TRUE(mac.apply(assoc).is_ok());

  std::vector<ran::UeInput> ues = {{1, 20, 1 << 20}, {2, 20, 1 << 20}};
  std::map<std::uint32_t, std::uint64_t> prbs;
  for (int t = 0; t < 6000; ++t)
    for (const auto& a : mac.schedule(ues)) prbs[a.slice_id] += a.prbs;
  double total = 6000.0 * 106.0;
  // Targets sum to 1 within the sweep, so the residual default share is
  // ~0.01 and attained shares track the configured ones.
  EXPECT_NEAR(static_cast<double>(prbs[1]) / total, share1, 0.04)
      << share1 << "/" << share2;
  EXPECT_NEAR(static_cast<double>(prbs[2]) / total, share2, 0.04);
}

INSTANTIATE_TEST_SUITE_P(
    Shares, NvsShareSweep,
    ::testing::Values(std::pair{0.1, 0.9}, std::pair{0.25, 0.75},
                      std::pair{0.34, 0.66}, std::pair{0.5, 0.5},
                      std::pair{0.66, 0.34}, std::pair{0.8, 0.2},
                      std::pair{0.9, 0.1}));

// ---------------------------------------------------------------------------
// TC chain conservation under random traffic
// ---------------------------------------------------------------------------

class TcConservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TcConservation, EnqueuedEqualsDequeuedPlusBacklogPlusDrops) {
  Rng rng(GetParam());
  tc::TcChain chain;
  // Random topology: 1-3 extra queues with random limits + filters.
  int extra_queues = 1 + static_cast<int>(rng.bounded(3));
  for (int q = 1; q <= extra_queues; ++q) {
    e2sm::tc::QueueConf conf;
    conf.qid = static_cast<std::uint32_t>(q);
    conf.kind = rng.chance(0.3) ? e2sm::tc::QueueKind::codel
                                : e2sm::tc::QueueKind::fifo;
    conf.limit_bytes = 5'000 + static_cast<std::uint32_t>(rng.bounded(50'000));
    ASSERT_TRUE(chain.add_queue(conf).is_ok());
    e2sm::tc::FilterConf filter;
    filter.filter_id = static_cast<std::uint32_t>(q);
    filter.match.dst_port = static_cast<std::uint16_t>(1000 + q);
    filter.dst_qid = conf.qid;
    ASSERT_TRUE(chain.add_filter(filter).is_ok());
  }
  if (rng.chance(0.5))
    chain.set_pacer({e2sm::tc::PacerKind::bdp,
                     1.0 + rng.uniform() * 10.0, 1.0});
  chain.set_sched({rng.chance(0.5) ? e2sm::tc::SchedKind::rr
                                   : e2sm::tc::SchedKind::prio,
                   {}});

  ran::RlcEntity rlc(100'000);
  std::uint64_t rlc_drops = 0;
  chain.set_drop_handler([&](const ran::Packet&) { rlc_drops++; });
  std::uint64_t offered = 0, accepted = 0, rlc_in = 0;
  Nanos now = 0;
  for (int t = 0; t < 2000; ++t) {
    now += kMilli;
    int burst = static_cast<int>(rng.bounded(6));
    for (int k = 0; k < burst; ++k) {
      ran::Packet p;
      p.size_bytes = 100 + static_cast<std::uint32_t>(rng.bounded(1400));
      p.tuple.dst_port =
          static_cast<std::uint16_t>(1000 + rng.bounded(6));  // some unmatched
      offered++;
      if (chain.enqueue(p, now)) accepted++;
    }
    chain.drain(rlc, now, 5.0 + rng.uniform() * 20.0);
    std::uint32_t used = 0;
    auto done = rlc.pull(static_cast<std::uint32_t>(rng.bounded(4000)), now,
                         &used);
    rlc_in += done.size();
  }
  auto stats = chain.stats_snapshot(false);
  std::uint64_t dequeued = 0, backlog = 0, dropped = 0;
  for (const auto& s : stats) {
    dequeued += s.tx_pkts;
    backlog += s.backlog_pkts;
    dropped += s.dropped_pkts;
  }
  // `dropped` counts both enqueue-time (full queue) and dequeue-time
  // (CoDel) drops, so conservation holds over the whole chain:
  EXPECT_EQ(dequeued + backlog + dropped, offered);
  EXPECT_LE(accepted, offered);
  // Everything dequeued either reached RLC or was counted as an RLC drop.
  EXPECT_EQ(rlc_in + rlc.buffer_pkts() + rlc_drops, dequeued);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TcConservation,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

// ---------------------------------------------------------------------------
// RLC byte conservation under random drive
// ---------------------------------------------------------------------------

class RlcConservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RlcConservation, BytesInEqualsBytesOutPlusBacklogPlusDropped) {
  Rng rng(GetParam());
  ran::RlcEntity rlc(50'000 + rng.bounded(200'000));
  std::uint64_t offered_bytes = 0, dropped_bytes = 0, out_bytes = 0;
  Nanos now = 0;
  std::uint64_t partial = 0;  // bytes of the in-flight head segment
  for (int t = 0; t < 5000; ++t) {
    now += kMilli;
    int burst = static_cast<int>(rng.bounded(4));
    for (int k = 0; k < burst; ++k) {
      ran::Packet p;
      p.size_bytes = 40 + static_cast<std::uint32_t>(rng.bounded(1460));
      offered_bytes += p.size_bytes;
      if (!rlc.enqueue(p, now)) dropped_bytes += p.size_bytes;
    }
    std::uint32_t used = 0;
    rlc.pull(static_cast<std::uint32_t>(rng.bounded(3000)), now, &used);
    out_bytes += used;
  }
  // buffer_bytes excludes already-transmitted head segments, so:
  EXPECT_EQ(out_bytes + rlc.buffer_bytes() + dropped_bytes, offered_bytes)
      << "partial=" << partial;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RlcConservation,
                         ::testing::Values(7, 77, 777));

// ---------------------------------------------------------------------------
// Cubic sanity under adversarial ack/drop interleavings
// ---------------------------------------------------------------------------

class CubicSanity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CubicSanity, WindowStaysBoundedAndPositive) {
  Rng rng(GetParam());
  flows::CubicSource cubic(1, {});
  std::vector<ran::Packet> inflight;
  Nanos now = 0;
  for (int t = 0; t < 20'000; ++t) {
    now += kMilli;
    cubic.tick(now, [&](ran::Packet p) { inflight.push_back(p); });
    while (!inflight.empty() && rng.chance(0.7)) {
      ran::Packet p = inflight.back();
      inflight.pop_back();
      if (rng.chance(0.02))
        cubic.on_drop(p, now);
      else
        cubic.on_ack(p, now + 20 * kMilli);
    }
    ASSERT_GE(cubic.cwnd_bytes(), 2.0 * 1448);  // floor: 2 MSS
    ASSERT_LT(cubic.cwnd_bytes(), 1e9);         // no runaway
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CubicSanity, ::testing::Values(5, 55, 555));

// ---------------------------------------------------------------------------
// TC POLICY service (Appendix A.3): the RAN function reacts locally
// ---------------------------------------------------------------------------

TEST(TcPolicy, AgentAppliesPacerWithoutControllerRoundTrip) {
  Reactor reactor;
  ran::BaseStation bs({ran::Rat::lte, 1, 25, kMilli, 3, false});  // slow cell
  agent::E2Agent agent(reactor,
                       {{1, 10, e2ap::NodeType::enb}, WireFormat::flat});
  ran::BsFunctionBundle bundle(bs, agent, WireFormat::flat);
  server::E2Server server(reactor, {21, WireFormat::flat});
  auto [a, s] = LocalTransport::make_pair(reactor);
  server.attach(s);
  ASSERT_TRUE(agent.add_controller(a).is_ok());
  ASSERT_TRUE(test::pump_until(
      reactor, [&] { return server.ran_db().num_agents() == 1; }));
  ASSERT_TRUE(bs.attach_ue({100, 1, 0, 15, 3}).is_ok());

  // Install the policy: sojourn > 30 ms => BDP pacer, locally.
  e2sm::tc::PolicyDef def;
  def.sojourn_limit_ms = 30.0;
  def.pacer_target_ms = 5.0;
  bool admitted = false;
  server::SubCallbacks cbs;
  cbs.on_response = [&](const e2ap::SubscriptionResponse& resp) {
    admitted = !resp.admitted.empty();
  };
  auto h = server.subscribe(
      1, e2sm::tc::Sm::kId,
      e2sm::sm_encode(e2sm::EventTrigger{e2sm::TriggerKind::periodic, 1000},
                      WireFormat::flat),
      {{1, e2ap::ActionType::policy,
        e2sm::sm_encode(def, WireFormat::flat)}},
      cbs);
  ASSERT_TRUE(h.is_ok());
  ASSERT_TRUE(test::pump_until(reactor, [&] { return admitted; }));
  EXPECT_EQ(bundle.tc().num_policies(), 1u);

  // Overload the bearer; the agent must flip the pacer on by itself —
  // WITHOUT the server sending any control message.
  std::uint64_t msgs_tx_before = server.stats().msgs_tx;
  Nanos now = 0;
  for (int t = 0; t < 500; ++t) {
    now += kMilli;
    for (int k = 0; k < 6; ++k) {
      ran::Packet p;
      p.size_bytes = 1400;
      bs.deliver_downlink(100, 1, p);
    }
    bs.tick(now);
    bundle.on_tti(now);
    reactor.run_once(0);
  }
  tc::TcChain* chain = bs.tc_chain(100, 1);
  ASSERT_NE(chain, nullptr);
  EXPECT_EQ(chain->pacer().kind, e2sm::tc::PacerKind::bdp);
  EXPECT_EQ(server.stats().msgs_tx, msgs_tx_before);  // no controller action
}

TEST(TcPolicy, PolicyRemovedWithSubscription) {
  Reactor reactor;
  ran::BaseStation bs({ran::Rat::lte, 1, 25, kMilli, 28, false});
  agent::E2Agent agent(reactor,
                       {{1, 10, e2ap::NodeType::enb}, WireFormat::flat});
  ran::BsFunctionBundle bundle(bs, agent, WireFormat::flat);
  server::E2Server server(reactor, {21, WireFormat::flat});
  auto [a, s] = LocalTransport::make_pair(reactor);
  server.attach(s);
  ASSERT_TRUE(agent.add_controller(a).is_ok());
  ASSERT_TRUE(test::pump_until(
      reactor, [&] { return server.ran_db().num_agents() == 1; }));

  e2sm::tc::PolicyDef def;
  auto h = server.subscribe(
      1, e2sm::tc::Sm::kId,
      e2sm::sm_encode(e2sm::EventTrigger{e2sm::TriggerKind::periodic, 1000},
                      WireFormat::flat),
      {{1, e2ap::ActionType::policy,
        e2sm::sm_encode(def, WireFormat::flat)}},
      {});
  ASSERT_TRUE(h.is_ok());
  test::pump_until(reactor, [&] { return bundle.tc().num_policies() == 1; });
  ASSERT_TRUE(server.unsubscribe(*h).is_ok());
  ASSERT_TRUE(test::pump_until(
      reactor, [&] { return bundle.tc().num_policies() == 0; }));
}

// ---------------------------------------------------------------------------
// Shard partitioner properties (DESIGN.md §13)
// ---------------------------------------------------------------------------

class ShardPartition : public ::testing::TestWithParam<std::uint64_t> {};

/// 1k seeded random node ids: the partition must be (a) stable — the same
/// node maps to the same shard forever, across reconnects and unrelated
/// churn, because the hash is a pure function of the GlobalNodeId — and
/// (b) balanced — no shard owns more than 2x its ideal share.
TEST_P(ShardPartition, StableUnderChurnAndBalancedWithin2x) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  constexpr int kNodes = 1000;
  std::vector<e2ap::GlobalNodeId> nodes;
  nodes.reserve(kNodes);
  for (int i = 0; i < kNodes; ++i) {
    e2ap::GlobalNodeId n;
    n.plmn = 1 + rng.bounded(500);
    n.nb_id = 1 + rng.bounded(1u << 20);
    switch (rng.bounded(4)) {
      case 0: n.type = e2ap::NodeType::enb; break;
      case 1: n.type = e2ap::NodeType::gnb; break;
      case 2: n.type = e2ap::NodeType::cu; break;
      default: n.type = e2ap::NodeType::du; break;
    }
    nodes.push_back(n);
  }
  for (std::uint32_t shards : {1u, 2u, 4u, 8u, 16u}) {
    std::vector<int> load(shards, 0);
    std::vector<std::uint32_t> first(kNodes);
    for (int i = 0; i < kNodes; ++i) {
      first[i] = server::shard_of(nodes[i], shards);
      ASSERT_LT(first[i], shards);
      load[first[i]]++;
    }
    // Stability: a reconnect (re-evaluation, any order, after any churn)
    // lands on the same shard — shuffle and re-ask.
    for (int i = kNodes - 1; i > 0; --i) {
      const std::uint32_t j = rng.bounded(static_cast<std::uint32_t>(i + 1));
      std::swap(nodes[i], nodes[j]);
      std::swap(first[i], first[j]);
    }
    for (int i = 0; i < kNodes; ++i)
      EXPECT_EQ(server::shard_of(nodes[i], shards), first[i])
          << "partition moved a node: reconnect would land on a new shard";
    // Balance: within 2x of ideal occupancy on every shard.
    const double ideal = static_cast<double>(kNodes) / shards;
    for (std::uint32_t s = 0; s < shards; ++s)
      EXPECT_LE(load[s], static_cast<int>(2.0 * ideal))
          << "shard " << s << "/" << shards << " overloaded (seed " << seed
          << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardPartition,
                         ::testing::Values(7u, 77u, 777u),
                         [](const auto& pi) {
                           return "seed_" + std::to_string(pi.param);
                         });

}  // namespace
}  // namespace flexric
