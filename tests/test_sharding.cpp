// Sharded multi-reactor RIC (DESIGN.md §13): partitioner, SPSC conduits,
// ShardPool scheduling, and the ShardedE2Server cross-shard paths — RAN-DB
// merge-on-query, xApp fan-out, northbound queries, global overload ledger —
// all under the deterministic shard-scheduling harness (world.hpp),
// which drives every shard reactor from one VirtualClock in a fixed
// interleaving order so multi-shard scenarios replay byte-identically.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/shard_stats.hpp"
#include "common/spsc_ring.hpp"
#include "server/sharding.hpp"
#include "world.hpp"
#include "transport/shard_pool.hpp"

namespace flexric {
namespace {

using test::World;
using test::nb_id_on_shard;
using test::uniform_ledger;

// ---------------------------------------------------------------------------
// Partitioner
// ---------------------------------------------------------------------------

TEST(Sharding, SingleShardOwnsEverything) {
  for (std::uint32_t nb = 1; nb < 100; ++nb)
    EXPECT_EQ(server::shard_of({1, nb, e2ap::NodeType::gnb}, 1), 0u);
}

TEST(Sharding, HashIsAFunctionOfTheFullNodeId) {
  const e2ap::GlobalNodeId a{1, 42, e2ap::NodeType::gnb};
  EXPECT_EQ(server::shard_hash(a), server::shard_hash(a));
  // Each component feeds the hash.
  EXPECT_NE(server::shard_hash(a),
            server::shard_hash({2, 42, e2ap::NodeType::gnb}));
  EXPECT_NE(server::shard_hash(a),
            server::shard_hash({1, 43, e2ap::NodeType::gnb}));
  EXPECT_NE(server::shard_hash(a),
            server::shard_hash({1, 42, e2ap::NodeType::cu}));
}

TEST(Sharding, GlobalAgentIdRoundTrips) {
  const server::AgentId g = server::global_agent_id(3, 0x00ABCD);
  EXPECT_EQ(server::shard_of_global(g), 3u);
  EXPECT_EQ(server::local_agent_id(g), 0x00ABCDu);
  EXPECT_EQ(server::global_agent_id(0, 7), 7u)
      << "shard 0 ids equal their local ids (unsharded compatibility)";
}

// ---------------------------------------------------------------------------
// SpscRing: capacity bounds, FIFO, exact backpressure
// ---------------------------------------------------------------------------

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(1000).capacity(), 1024u);
}

TEST(SpscRing, FifoOrderAcrossWraps) {
  SpscRing<int> ring(4);
  int out = 0;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 3; ++i)
      ASSERT_TRUE(ring.try_push(round * 10 + i).is_ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(ring.try_pop(out));
      EXPECT_EQ(out, round * 10 + i);
    }
  }
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, FullRingRejectsWithCapacityAndCounts) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ring.try_push(int{i}).is_ok());
  Status st = ring.try_push(99);
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), Errc::capacity) << "backpressure must be typed";
  EXPECT_EQ(ring.rejected(), 1u);
  EXPECT_EQ(ring.size(), 4u) << "a rejected push must not disturb the ring";
  int out = 0;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 0) << "rejection must not clobber the head";
  EXPECT_TRUE(ring.try_push(99).is_ok()) << "one pop frees one slot";
}

TEST(SpscRing, PopOnEmptyReturnsFalse) {
  SpscRing<int> ring(2);
  int out = 0;
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(SpscRing, CarriesMoveOnlyTypes) {
  SpscRing<std::unique_ptr<int>> ring(2);
  ASSERT_TRUE(ring.try_push(std::make_unique<int>(42)).is_ok());
  std::unique_ptr<int> out;
  ASSERT_TRUE(ring.try_pop(out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 42);
}

// Two real threads hammering one ring. Under ci.sh --shard this runs with
// TSan, which proves the acquire/release protocol; in any build it proves
// nothing is lost or reordered and every rejection was counted.
TEST(SpscRing, TwoThreadHammerLosesNothing) {
  SpscRing<std::uint64_t> ring(64);
  constexpr std::uint64_t kItems = 50000;
  std::uint64_t consumed = 0, sum = 0;
  bool ordered = true;
  std::thread consumer([&] {
    std::uint64_t expected = 0;
    while (consumed < kItems) {
      std::uint64_t v = 0;
      if (!ring.try_pop(v)) {
        std::this_thread::yield();  // single-core CI: let the producer run
        continue;
      }
      if (v != expected) ordered = false;
      expected = v + 1;
      sum += v;
      consumed++;
    }
  });
  std::uint64_t produced = 0;
  while (produced < kItems) {
    if (ring.try_push(std::uint64_t{produced}).is_ok())
      produced++;
    else
      std::this_thread::yield();  // full: every rejection is in rejected()
  }
  consumer.join();
  EXPECT_EQ(consumed, kItems);
  EXPECT_TRUE(ordered) << "SPSC FIFO order violated across threads";
  EXPECT_EQ(sum, kItems * (kItems - 1) / 2);
  EXPECT_TRUE(ring.empty());
}

// Wrap-around torture: a capacity-4 ring cycled far past its index mask with
// mixed batch sizes. FIFO order, occupancy and the rejected counter must be
// exact at every capacity boundary, not just on the happy path.
TEST(SpscRing, WrapAroundTortureKeepsCountsExact) {
  SpscRing<std::uint64_t> ring(4);
  ASSERT_EQ(ring.capacity(), 4u);
  std::uint64_t pushed = 0, popped = 0, rejected = 0;
  std::uint64_t next_out = 0;
  for (int round = 0; round < 1000; ++round) {
    const int batch = 1 + round % 6;  // drives occupancy across the mask
    for (int i = 0; i < batch; ++i) {
      if (ring.try_push(std::uint64_t{pushed}).is_ok())
        pushed++;
      else
        rejected++;
    }
    const int drains = 1 + round % 4;
    std::uint64_t v = 0;
    for (int i = 0; i < drains && ring.try_pop(v); ++i) {
      ASSERT_EQ(v, next_out) << "FIFO broke at round " << round;
      next_out = v + 1;
      popped++;
    }
    ASSERT_EQ(ring.size(), pushed - popped);
    ASSERT_EQ(ring.rejected(), rejected);
  }
  std::uint64_t v = 0;
  while (ring.try_pop(v)) {
    ASSERT_EQ(v, next_out);
    next_out = v + 1;
    popped++;
  }
  EXPECT_EQ(popped, pushed);
  EXPECT_GT(rejected, 0u) << "torture must actually hit the full case";
}

// Two threads, producer never retries: every attempted push either lands or
// is counted. popped + rejected == attempted exactly — overflow under a
// hammer is auditable, never approximate.
TEST(SpscRing, TwoThreadHammerRejectedCounterIsExact) {
  SpscRing<std::uint64_t> ring(8);
  constexpr std::uint64_t kAttempts = 200000;
  std::atomic<bool> done{false};
  std::uint64_t popped = 0;
  std::thread consumer([&] {
    std::uint64_t v = 0;
    for (;;) {
      if (ring.try_pop(v)) {
        popped++;
      } else if (done.load(std::memory_order_acquire)) {
        while (ring.try_pop(v)) popped++;
        return;
      } else {
        std::this_thread::yield();
      }
    }
  });
  std::uint64_t accepted = 0;
  for (std::uint64_t i = 0; i < kAttempts; ++i)
    if (ring.try_push(std::uint64_t{i}).is_ok()) accepted++;
  done.store(true, std::memory_order_release);
  consumer.join();
  EXPECT_EQ(popped, accepted);
  EXPECT_EQ(ring.rejected(), kAttempts - accepted);
  EXPECT_TRUE(ring.empty());
}

using SpscRingDeathTest = ::testing::Test;

// Runtime half of the @producer/@consumer discipline: the first pushing
// thread owns the producer end for the ring's lifetime; a push from any
// other thread aborts in guarded builds, even with no concurrent access.
TEST(SpscRingDeathTest, SecondProducerThreadAborts) {
  if (!kAffinityGuardsEnabled)
    GTEST_SKIP() << "FLEXRIC_AFFINITY_GUARDS off in this build";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SpscRing<int> ring(4);
        std::thread first([&] { (void)ring.try_push(1); });
        first.join();
        (void)ring.try_push(2);  // second producer thread: must abort
      },
      "SpscRing::try_push");
}

// ---------------------------------------------------------------------------
// ShardCounterBoard seqlock
// ---------------------------------------------------------------------------

// Regression for the torn-publish finding the atomics-order pass flagged:
// the writer only ever publishes ledgers whose fields all hold the same
// value, so a racing reader observing two different fields anywhere in the
// slot caught a torn image (independent relaxed stores would tear; the
// seqlock must not).
TEST(ShardStats, BoardReadNeverTearsAcrossFields) {
  ShardCounterBoard board(1);
  constexpr std::uint64_t kRounds = 20000;
  std::atomic<bool> stop{false};
  std::uint64_t tears = 0, reads = 0;
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const ShardLedger v = board.read(0);
      if (v != uniform_ledger(v.msgs_rx)) tears++;
      reads++;
    }
  });
  for (std::uint64_t i = 1; i <= kRounds; ++i)
    board.publish(0, uniform_ledger(i));
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(tears, 0u) << "seqlock tore across " << reads << " reads";
  EXPECT_EQ(board.read(0), uniform_ledger(kRounds));
}

// A member the counters() walk forgot, or a walk line naming the wrong
// member, would not survive the slot: fill every word of a ledger with a
// distinct value (bytes, not the walk), publish, and read it back.
TEST(ShardStats, PublishThenReadReturnsEveryFieldUnchanged) {
  ShardCounterBoard board(1);
  std::array<std::uint64_t, sizeof(ShardLedger) / sizeof(std::uint64_t)> w{};
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = 101 + i;
  const auto v = std::bit_cast<ShardLedger>(w);
  board.publish(0, v);
  EXPECT_EQ(board.read(0), v) << counters_text(board.read(0));
}

// ---------------------------------------------------------------------------
// ShardPool
// ---------------------------------------------------------------------------

TEST(ShardPool, DomainNamesAreUniquePerShard) {
  ShardPool pool(4, ShardPool::Mode::manual);
  std::set<std::string> names;
  for (std::uint32_t i = 0; i < 4; ++i) names.insert(pool.domain(i));
  EXPECT_EQ(names.size(), 4u);
  EXPECT_EQ(std::string(pool.domain(0)), "shard0");
  EXPECT_EQ(std::string(pool.domain(3)), "shard3");
}

TEST(ShardPool, ManualPumpRunsPostsInFixedShardOrder) {
  ShardPool pool(3, ShardPool::Mode::manual);
  std::vector<int> order;
  // Post in scrambled shard order; the pump must run shard 0 first anyway.
  ASSERT_TRUE(pool.post(2, [&] { order.push_back(2); }).is_ok());
  ASSERT_TRUE(pool.post(0, [&] { order.push_back(0); }).is_ok());
  ASSERT_TRUE(pool.post(1, [&] { order.push_back(1); }).is_ok());
  pool.pump();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}))
      << "deterministic interleave must not depend on post order";
}

TEST(ShardPool, ThreadedPostReachesEveryShardThread) {
  // Threaded smoke: the injector ring + eventfd wake path. Each shard
  // appends to its own (shard-affine) log; the owner reads after stop().
  ShardPool pool(2, ShardPool::Mode::threaded);
  std::vector<int> logs[2];
  pool.start();
  ASSERT_TRUE(pool.running());
  for (int i = 0; i < 10; ++i) {
    while (!pool.post(0, [&, i] { logs[0].push_back(i); }).is_ok()) {}
    while (!pool.post(1, [&, i] { logs[1].push_back(i); }).is_ok()) {}
  }
  pool.stop();
  ASSERT_EQ(logs[0].size(), 10u);
  ASSERT_EQ(logs[1].size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(logs[0][i], i) << "injector must preserve FIFO order";
    EXPECT_EQ(logs[1][i], i);
  }
  EXPECT_GE(pool.thread_cpu(0), 0);
}

// ---------------------------------------------------------------------------
// ShardedE2Server: delivery and isolation at 1/2/4 shards
// ---------------------------------------------------------------------------

class ShardedDelivery : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ShardedDelivery, EveryShardServesOnlyItsOwnAgentsInOrder) {
  const std::uint32_t shards = GetParam();
  World w(shards);
  // Two agents per shard, subscribed, each emitting 50 indications.
  std::vector<World::Node*> nodes;
  for (std::uint32_t s = 0; s < shards; ++s)
    for (int k = 0; k < 2; ++k) {
      auto& n = w.add_agent(s);
      ASSERT_TRUE(w.converge(n)) << "agent on shard " << s;
      nodes.push_back(&n);
    }
  for (auto* n : nodes) w.subscribe(*n);
  for (int i = 0; i < 50; ++i) {
    for (auto* n : nodes) n->fn->emit(n->ctrl);
    w.advance(kMilli);
  }
  w.advance(100 * kMilli);

  for (auto* n : nodes) {
    EXPECT_EQ(n->indications, 50) << "agent nb_id=" << n->nb_id;
    EXPECT_TRUE(std::is_sorted(n->sns.begin(), n->sns.end()));
  }
  // Isolation: each shard's server saw exactly its own 2 agents.
  for (std::uint32_t s = 0; s < shards; ++s) {
    EXPECT_EQ(w.ric->shard_server(s).ran_db().num_agents(), 2u);
    EXPECT_EQ(w.ric->shard_server(s).stats().misrouted, 0u);
  }
  // The merged directory shows all of them under global ids.
  EXPECT_EQ(w.ric->directory().num_agents(), 2u * shards);
  for (auto* n : nodes)
    EXPECT_NE(w.ric->directory().agent(n->gid), nullptr);
  w.expect_reconciles();
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardedDelivery,
                         ::testing::Values(1u, 2u, 4u),
                         [](const auto& param_info) {
                           return "shards_" +
                                  std::to_string(param_info.param);
                         });

// ---------------------------------------------------------------------------
// Cross-shard RAN-DB merge: CU + DU on different shards form one entity
// ---------------------------------------------------------------------------

TEST(ShardedRanDb, CuAndDuOnDifferentShardsFormOneEntity) {
  const std::uint32_t shards = 4;
  // The type byte feeds the partitioner hash, so hunt for an nb_id whose CU
  // and DU land on different shards — the disaggregation-blind design makes
  // the cross-shard merge the common case, not a corner.
  std::uint32_t nb = 0;
  for (std::uint32_t cand = 1; cand < 1000; ++cand) {
    if (server::shard_of({1, cand, e2ap::NodeType::cu}, shards) !=
        server::shard_of({1, cand, e2ap::NodeType::du}, shards)) {
      nb = cand;
      break;
    }
  }
  ASSERT_NE(nb, 0u);
  const std::uint32_t cu_shard =
      server::shard_of({1, nb, e2ap::NodeType::cu}, shards);
  const std::uint32_t du_shard =
      server::shard_of({1, nb, e2ap::NodeType::du}, shards);

  World w(shards);
  std::vector<std::string> formed;
  w.ric->set_on_ran_formed([&](const server::RanEntity& e) {
    formed.push_back(std::to_string(e.plmn) + "/" + std::to_string(e.nb_id));
  });
  auto& cu = w.add_agent(cu_shard, nb, e2ap::NodeType::cu);
  ASSERT_TRUE(w.converge(cu));
  EXPECT_TRUE(formed.empty()) << "half a base station is not an entity";
  auto& du = w.add_agent(du_shard, nb, e2ap::NodeType::du);
  ASSERT_TRUE(w.converge(du));

  ASSERT_EQ(formed.size(), 1u) << "CU+DU across shards must form exactly once";
  EXPECT_EQ(formed[0], "1/" + std::to_string(nb));
  const server::RanEntity* e = w.ric->directory().entity(1, nb);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->complete());
  ASSERT_TRUE(e->cu.has_value());
  ASSERT_TRUE(e->du.has_value());
  EXPECT_EQ(server::shard_of_global(*e->cu), cu_shard);
  EXPECT_EQ(server::shard_of_global(*e->du), du_shard);
  EXPECT_NE(server::shard_of_global(*e->cu), server::shard_of_global(*e->du));
}

// ---------------------------------------------------------------------------
// Cross-shard xApp fan-out
// ---------------------------------------------------------------------------

TEST(ShardedFanout, IndicationsFromEveryShardLandOnHomeWithGlobalIds) {
  const std::uint32_t shards = 2;
  World w(shards);
  std::vector<server::ShardedE2Server::FanoutIndication> got;
  w.ric->subscribe_fanout(200, Buffer{0x01},
                         {{1, e2ap::ActionType::report, {}}},
                         [&](const auto& fi) { got.push_back(fi); });
  auto& a = w.add_agent(0);
  auto& b = w.add_agent(1);
  ASSERT_TRUE(w.converge(a));
  ASSERT_TRUE(w.converge(b));
  w.advance(50 * kMilli);  // fan-out subscriptions reach the agents

  for (int i = 0; i < 20; ++i) {
    a.fn->emit(a.ctrl);
    b.fn->emit(b.ctrl);
    w.advance(kMilli);
  }
  w.advance(100 * kMilli);

  ASSERT_EQ(got.size(), 40u);
  int from_a = 0, from_b = 0;
  for (const auto& fi : got) {
    if (fi.agent == a.gid) from_a++;
    if (fi.agent == b.gid) from_b++;
    EXPECT_EQ(server::shard_of_global(fi.agent), fi.shard);
  }
  EXPECT_EQ(from_a, 20);
  EXPECT_EQ(from_b, 20);
}

// ---------------------------------------------------------------------------
// Misroute gate
// ---------------------------------------------------------------------------

TEST(ShardedMisroute, WrongShardDialIsRejectedAndCounted) {
  const std::uint32_t shards = 2;
  World w(shards);
  // An agent whose node id belongs to shard 0, dialing shard 1's server.
  auto& n = w.add_agent(/*shard=*/0, /*nb_id=*/0, e2ap::NodeType::gnb, {},
                        /*seed=*/1, /*dial_shard=*/1);
  w.advance(2 * kSecond);

  EXPECT_FALSE(w.established(n))
      << "a misrouted agent must never be served by the wrong universe";
  EXPECT_GE(w.ric->shard_server(1).stats().misrouted, 1u);
  EXPECT_EQ(w.ric->shard_server(1).ran_db().num_agents(), 0u);
  EXPECT_EQ(w.ric->shard_server(0).ran_db().num_agents(), 0u);
  EXPECT_EQ(w.ric->directory().num_agents(), 0u)
      << "a rejected agent must not leak into the merged directory";
}

// ---------------------------------------------------------------------------
// Northbound query path (request ring in, reply ring out)
// ---------------------------------------------------------------------------

TEST(ShardedQuery, JobRunsOnShardAndReplyLandsOnHome) {
  World w(2);
  auto& n = w.add_agent(1);
  ASSERT_TRUE(w.converge(n));

  std::vector<std::string> replies;
  ASSERT_TRUE(w.ric
                  ->query(
                      1,
                      [](server::E2Server& srv) {
                        return std::to_string(srv.ran_db().num_agents());
                      },
                      [&](Result<std::string> r) {
                        ASSERT_TRUE(r.is_ok());
                        replies.push_back(std::move(*r));
                      })
                  .is_ok());
  EXPECT_TRUE(replies.empty()) << "the reply must wait for pump_home";
  w.settle();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0], "1");
}

// ---------------------------------------------------------------------------
// Global ledger: merge-on-query equals ground truth, and reconciles
// ---------------------------------------------------------------------------

TEST(ShardedLedger, BoardSumMatchesPerShardGroundTruth) {
  const std::uint32_t shards = 4;
  server::ShardedConfig cfg;
  cfg.server.overload.enabled = true;
  cfg.server.overload.control_queue = 64;
  cfg.server.overload.data_queue = 128;
  cfg.server.overload.dispatch_batch = 16;
  cfg.server.overload.data_rate = 500.0;  // force real shedding
  cfg.server.overload.data_burst = 50.0;
  World w(shards, cfg);
  std::vector<World::Node*> nodes;
  for (std::uint32_t s = 0; s < shards; ++s) {
    auto& n = w.add_agent(s);
    ASSERT_TRUE(w.converge(n));
    nodes.push_back(&n);
  }
  for (auto* n : nodes) w.subscribe(*n);
  // Over-admission burst on every shard.
  for (int ms = 0; ms < 100; ++ms) {
    for (auto* n : nodes)
      for (int k = 0; k < 8; ++k) n->fn->emit(n->ctrl);
    w.advance(kMilli);
  }
  w.advance(500 * kMilli);  // drain queues AND fire every publish timer

  // Merge-on-query: each board slot equals reading its shard directly, and
  // the global ledger is their sum.
  ShardLedger direct;
  for (std::uint32_t s = 0; s < shards; ++s) {
    const ShardLedger one = w.ric->shard_server(s).ledger();
    EXPECT_EQ(w.ric->shard_ledger(s), one) << "shard " << s;
    add_counters(direct, one);
  }
  EXPECT_EQ(w.ric->global_ledger(), direct) << counters_text(direct);
  EXPECT_GT(direct.rate_shed, 0u) << "the burst was supposed to overload";
  w.expect_reconciles();
}

// ---------------------------------------------------------------------------
// Directory resync after event-ring overflow
// ---------------------------------------------------------------------------

TEST(ShardedResync, EventRingOverflowTriggersSnapshotRecovery) {
  server::ShardedConfig cfg;
  cfg.event_ring = 2;  // tiny: connect churn overflows it immediately
  World w(2, cfg);
  // Connect 5 agents on shard 0 without pumping home between setups, so
  // upserts pile into the 2-slot ring and spill.
  std::vector<World::Node*> nodes;
  for (int k = 0; k < 5; ++k) nodes.push_back(&w.add_agent(0));
  for (auto* n : nodes) ASSERT_TRUE(w.converge(*n));
  w.advance(200 * kMilli);  // publish ticks carry the loss; resync runs

  EXPECT_GE(w.ric->directory_resyncs(), 1u)
      << "lost directory events must trigger a snapshot resync";
  EXPECT_EQ(w.ric->directory().num_agents(), 5u)
      << "the merged view must converge to the truth despite the overflow";
}

// ---------------------------------------------------------------------------
// Determinism: the same seeded multi-shard scenario is byte-identical
// ---------------------------------------------------------------------------

std::string run_shard_scenario(std::uint64_t seed, std::uint32_t shards) {
  World w(shards);
  std::vector<World::Node*> nodes;
  for (std::uint32_t s = 0; s < shards; ++s) {
    auto& n = w.add_agent(s, 0, e2ap::NodeType::gnb, {},
                          seed * 1000003 + s);
    EXPECT_TRUE(w.converge(n));
    nodes.push_back(&n);
  }
  for (auto* n : nodes) w.subscribe(*n);
  Rng chaos(seed ^ 0x5AD5);
  for (int ev = 0; ev < 8; ++ev) {
    w.advance(50 * kMilli +
              static_cast<Nanos>(chaos.bounded(100)) * kMilli);
    auto* n = nodes[chaos.bounded(static_cast<std::uint32_t>(nodes.size()))];
    for (int k = 0; k < 16; ++k) n->fn->emit(n->ctrl);
    if (chaos.bounded(3) == 0 && n->link) n->link->kill();
  }
  w.advance(2 * kSecond);
  return w.trace();
}

class ShardDeterminism
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint32_t>> {
};

TEST_P(ShardDeterminism, DoubleRunIsByteIdentical) {
  const auto [seed, shards] = GetParam();
  std::string first = run_shard_scenario(seed, shards);
  if (HasFailure()) return;
  std::string second = run_shard_scenario(seed, shards);
  EXPECT_EQ(first, second)
      << "multi-shard scheduling diverged for seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    SeedsTimesShards, ShardDeterminism,
    ::testing::Combine(::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{3}),
                       ::testing::Values(1u, 2u, 4u)),
    [](const auto& param_info) {
      return "seed_" + std::to_string(std::get<0>(param_info.param)) +
             "_shards_" + std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace flexric
