// One deterministic world for every soak (DESIGN.md §13, §15).
//
// A world is a set of agents and one RIC, all driven by ONE test thread
// against ONE shared VirtualClock. The RIC is the world's parameter: a plain
// E2Server on one reactor (kPlain), or a ShardedE2Server over a manual
// ShardPool at N shards. Scripts (chaos, storm, supervise) talk to
// server(i) and run unchanged over both. Both keep one interleave contract:
//
//   clock step (1 ms) -> every server reactor, 8 rounds (shard 0 first)
//                     -> [sharded] RAN-side reactor, home rings, watchdog
//
// so a seeded scenario replays byte-identically whatever it runs on.
// Threaded mode keeps the exact same code paths (the rings and affinity
// domains don't care who pumps); the world just removes the scheduler.
//
// Agents live on their server's reactor: LocalTransport::make_pair puts
// both endpoints on one reactor, so the agent is as shard-affine as the
// server it dials — exactly the deployment shape, in miniature.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "agent/agent.hpp"
#include "common/clock.hpp"
#include "server/sharded_server.hpp"
#include "server/supervisor.hpp"
#include "transport/faulty.hpp"
#include "transport/resilience.hpp"
#include "transport/shard_pool.hpp"

namespace flexric::test {

/// Deterministic shard-fault knob (DESIGN.md §15): one planned failure of
/// one shard, injected by the world at a quiescent quantum boundary. Seeded
/// soaks derive a plan of these from the seed, so a chaos run replays
/// byte-identically.
///
///   * wedge  — the shard loop stops turning (a handler wedged, or the loop
///     starved); its established links backpressure (tx_credit 0), exactly
///     as TCP would against a stuck reader, so mid-wedge emissions buffer
///     agent-side or shed with a counted reason — never vanish.
///   * crash — process death: every link to the shard resets immediately
///     (FaultyTransport::kill) and the loop never turns again.
struct ShardFault {
  enum class Kind { wedge, crash };
  Kind kind = Kind::wedge;
  std::uint32_t shard = 0;
};

/// The world's server parameter: kPlain is one E2Server, N >= 1 is a
/// ShardedE2Server at N shards.
inline constexpr std::uint32_t kPlain = 0;

inline std::string server_name(std::uint32_t shards) {
  return shards == kPlain ? "plain" : "shards_" + std::to_string(shards);
}

/// Soak seeds: the comma-separated list in `env_var` (ci.sh sweeps 1..64),
/// else 1..12.
inline std::vector<std::uint64_t> soak_seeds(const char* env_var) {
  std::vector<std::uint64_t> seeds;
  if (const char* env = std::getenv(env_var)) {
    std::stringstream ss(env);
    std::string tok;
    while (std::getline(ss, tok, ','))
      if (!tok.empty()) seeds.push_back(std::stoull(tok));
  }
  if (seeds.empty())
    for (std::uint64_t s = 1; s <= 12; ++s) seeds.push_back(s);
  return seeds;
}

/// One soak instance: (server, seed). Named "<server>_seed_<n>", so
/// `--gtest_filter='*shards_4_*'` selects one server's instances.
using SoakParam = std::tuple<std::uint32_t, std::uint64_t>;

inline std::string soak_name(
    const ::testing::TestParamInfo<SoakParam>& param_info) {
  return server_name(std::get<0>(param_info.param)) + "_seed_" +
         std::to_string(std::get<1>(param_info.param));
}

/// Run a scenario twice on fresh worlds: the traces must match byte for
/// byte (the determinism proof every soak ends with).
template <typename Run>
void expect_replays(Run&& run) {
  const std::string first = run();
  if (::testing::Test::HasFailure()) return;  // don't double-report
  EXPECT_EQ(first, run()) << "the double run is not byte-identical";
}

/// Smallest nb_id >= `from` that the partitioner places on `shard`.
inline std::uint32_t nb_id_on_shard(
    std::uint32_t shard, std::uint32_t num_shards, std::uint32_t from = 1,
    e2ap::NodeType type = e2ap::NodeType::gnb, std::uint32_t plmn = 1) {
  for (std::uint32_t nb = from;; ++nb) {
    e2ap::GlobalNodeId node{plmn, nb, type};
    if (server::shard_of(node, num_shards) == shard) return nb;
  }
}

/// A ledger whose every counter reads `x` (seqlock tests: a torn read
/// shows as two different fields).
inline ShardLedger uniform_ledger(std::uint64_t x) {
  ShardLedger v;
  counters([x](std::string_view, std::uint64_t& f) { f = x; }, v);
  return v;
}

/// Minimal RAN function: admits every subscription, counts and sequences
/// what it emits (the `emitted` side of the indication ledger).
class StubFn final : public agent::RanFunction {
 public:
  explicit StubFn(std::uint16_t id) {
    desc_.id = id;
    desc_.revision = 1;
    desc_.name = "STUB";
  }
  [[nodiscard]] const e2ap::RanFunctionItem& descriptor() const override {
    return desc_;
  }
  Result<agent::SubscriptionOutcome> on_subscription(
      const e2ap::SubscriptionRequest& req, agent::ControllerId) override {
    subs++;
    last_sub = req;
    agent::SubscriptionOutcome out;
    for (const auto& a : req.actions) out.admitted.push_back(a.id);
    return out;
  }
  Status on_subscription_delete(const e2ap::SubscriptionDeleteRequest&,
                                agent::ControllerId) override {
    return Status::ok();
  }
  Result<Buffer> on_control(const e2ap::ControlRequest& req,
                            agent::ControllerId) override {
    return req.message;
  }
  void emit(agent::ControllerId origin) {
    e2ap::Indication ind;
    ind.request = last_sub.request;
    ind.ran_function_id = desc_.id;
    ind.action_id = 1;
    ind.sn = emitted;
    ind.message = {0xAB};
    emitted++;
    // A synchronous failure (dead link mid-crash: Errc::io) is a counted
    // outcome -- the producer was told, so the ledger charges it here.
    // Backpressure (Errc::capacity) is absorbed into the agent's pending
    // buffer by send_indication itself and is NOT a refusal.
    if (!services_->send_indication(origin, ind).is_ok()) refused++;
  }

  int subs = 0;  ///< subscription requests seen (replays included)
  std::uint32_t emitted = 0;
  std::uint32_t refused = 0;  ///< sends rejected synchronously (link dead)
  e2ap::SubscriptionRequest last_sub;

 private:
  e2ap::RanFunctionItem desc_;
};

/// Lifecycle log of one server (the plain server, or one shard's); entries
/// are server-local AgentIds, so traces prefix them with the server index.
struct EventLog final : server::IApp {
  const char* name() const override { return "event-log"; }
  void on_agent_connected(const server::AgentInfo& info) override {
    log.push_back("connect:" + std::to_string(info.id));
  }
  void on_agent_disconnected(server::AgentId id) override {
    log.push_back("disconnect:" + std::to_string(id));
  }
  void on_agent_quarantined(server::AgentId id) override {
    log.push_back("quarantine:" + std::to_string(id));
  }
  void on_agent_reconnected(const server::AgentInfo& info) override {
    log.push_back("reconnect:" + std::to_string(info.id));
  }
  std::vector<std::string> log;
};

struct World {
  /// `shards` is kPlain or a shard count. `supervised` (sharded only)
  /// switches the world into the §15 failure-injection shape: agents live
  /// on a separate RAN-side reactor (so their timers keep running while a
  /// shard is wedged or torn down), dials are refused at downed shards,
  /// and every advance() quantum ends with a watchdog poll. Agents speak
  /// FLAT, so the servers do too, whatever else `cfg` says.
  explicit World(std::uint32_t shards, server::ShardedConfig cfg = {},
                 bool supervised = false)
      : supervised_(supervised),
        wedged_(std::max(shards, 1u), 0) {
    cfg.server.e2ap_format = WireFormat::flat;
    if (shards == kPlain) {
      reactor_ = std::make_unique<Reactor>();
      reactor_->set_time_source(&clock);
      plain_ = std::make_unique<server::E2Server>(*reactor_, cfg.server);
      events.push_back(std::make_shared<EventLog>());
      plain_->add_iapp(events[0]);
      return;
    }
    pool = std::make_unique<ShardPool>(shards, ShardPool::Mode::manual,
                                       &clock);
    ric = std::make_unique<server::ShardedE2Server>(*pool, std::move(cfg));
    for (std::uint32_t i = 0; i < shards; ++i)
      events.push_back(std::make_shared<EventLog>());
    // Installed via factory so a rebuilt shard re-gets the SAME log object:
    // its lifecycle history spans incarnations.
    ric->add_iapp_factory([this](std::uint32_t i) { return events[i]; });
    if (!supervised_) return;
    ran_ = std::make_unique<Reactor>("reactor");
    ran_->set_time_source(&clock);
    ric->supervisor().set_on_transition(
        [this](std::uint32_t s, server::ShardHealth from,
               server::ShardHealth to) {
          using server::ShardHealth;
          if (to == ShardHealth::quarantined) detect_at = clock.now();
          // The rebuild replaced the wedged loop with a live one: resume
          // pumping it (the fault is over by construction).
          if (to == ShardHealth::recovering) wedged_[s] = 0;
          std::ostringstream e;
          e << "t=" << clock.now() / kMilli << "ms s" << s << " "
            << server::shard_health_name(from) << "->"
            << server::shard_health_name(to);
          transitions.push_back(e.str());
          if (on_transition) on_transition(s, from, to);
        });
  }

  /// Agents cancel their timers on destruction; tear them down while the
  /// reactors (declared below them, hence destroyed before them) are alive.
  ~World() { nodes.clear(); }

  struct Node {
    std::unique_ptr<agent::E2Agent> agent;
    std::shared_ptr<StubFn> fn;
    std::shared_ptr<FaultyTransport> link;  ///< most recent dial's link
    std::uint32_t shard = 0;      ///< owning server (where the agent lives)
    std::uint32_t dialed = 0;     ///< server actually dialed (misroute tests)
    std::uint32_t nb_id = 0;
    e2ap::NodeType type = e2ap::NodeType::gnb;
    agent::ControllerId ctrl = 0;
    server::AgentId id = 0;   ///< server-local id
    server::AgentId gid = 0;  ///< global id (shard in the top byte)
    int indications = 0;
    std::vector<std::uint32_t> sns;
    int sub_responses = 0;
    int sub_failures = 0;
    int dials = 0;         ///< dial attempts, refused ones included
    FaultProfile profile;  ///< applied to every new link
    std::uint64_t seed = 1;
    std::vector<std::string> conn_events;  ///< agent-side state changes
  };

  [[nodiscard]] std::uint32_t num_servers() const {
    return pool ? pool->size() : 1;
  }
  /// The plain server, or shard `i`'s (manual mode: the test thread owns
  /// every shard domain, so direct shard access is legitimate).
  server::E2Server& server(std::uint32_t i = 0) {
    return ric ? ric->shard_server(i) : *plain_;
  }

  /// One pump round of the whole world in fixed order: every non-wedged
  /// server reactor (shard 0 first), the RAN-side reactor, the home rings,
  /// then the watchdog. A wedged shard is simply never pumped — the loop
  /// "stops turning", which is exactly what its heartbeat goes silent over.
  void pump_world(int rounds = 8) {
    for (std::uint32_t i = 0; pool && i < pool->size(); ++i)
      if (!wedged_[i]) pool->pump_shard(i, rounds);
    for (Reactor* r : {reactor_.get(), ran_.get()})
      for (int k = 0; r != nullptr && k < rounds; ++k)
        if (r->run_once(0) == 0) break;
    if (!ric) return;
    ric->pump_home();
    if (supervised_) ric->supervisor().poll(clock.now());
  }

  /// One deterministic scheduling quantum: step the shared clock, pump the
  /// world in fixed order. THE interleave contract.
  void advance(Nanos dt, Nanos step = kMilli) {
    while (dt > 0) {
      Nanos d = dt < step ? dt : step;
      clock.advance(d);
      dt -= d;
      pump_world(8);
    }
  }
  /// Settle without moving time (drain in-flight deliveries).
  void settle(int iters = 10) {
    for (int i = 0; i < iters; ++i) pump_world(8);
  }

  // -- §15 fault injection (supervised worlds) ------------------------------

  /// A handler on `shard` wedges (or its loop is starved): the loop stops
  /// turning and, like TCP against a stuck reader, every established link
  /// to the shard backpressures. Settle first so nothing is in flight —
  /// faults land only at quiescent quantum boundaries, keeping the global
  /// ledger exact (nothing is dropped uncounted inside a doomed reactor's
  /// task queue).
  void wedge_shard(std::uint32_t shard) {
    settle();
    wedge_shard_raw(shard);
  }

  /// Process death: every link to the shard resets now, the loop never
  /// turns again. Same quiescence discipline as wedge_shard.
  void crash_shard(std::uint32_t shard) {
    settle();
    wedged_[shard] = 1;
    for (auto& n : nodes)
      if (n->dialed == shard && n->link) n->link->kill();
  }

  void inject(const ShardFault& f) {
    if (f.kind == ShardFault::Kind::crash) crash_shard(f.shard);
    else wedge_shard(f.shard);
  }

  /// Wedge WITHOUT the quiescence settle: condemns whatever is in flight
  /// (fan-out parked in the shard's ring, frames in its ingest queue) so
  /// the rebuild must shed it with exact accounting. The ledger stays
  /// exact — supervisor_shed is precisely how; this is the path that
  /// proves it.
  void wedge_shard_raw(std::uint32_t shard) {
    wedged_[shard] = 1;
    for (auto& n : nodes)
      if (n->dialed == shard && n->link) n->link->set_tx_credit(0);
  }

  /// The fault cleared on its own (handler un-wedged) — resume pumping.
  /// Rebuild-driven un-wedging happens automatically via the transition
  /// hook; this is for degraded-then-recovered scenarios without a restart.
  void unwedge_shard(std::uint32_t shard) { wedged_[shard] = 0; }

  /// Arm cross-shard fan-out with a counting handler — the delivery path
  /// supervision tests measure (it re-arms itself through a rebuild, unlike
  /// a direct shard-server subscription, which dies with the incarnation).
  /// Call before agents connect. Records MTTR's second half: the first
  /// delivery after a quarantine detection.
  void enable_fanout() {
    ric->subscribe_fanout(
        200, Buffer{0x01}, {{1, e2ap::ActionType::report, {}}},
        [this](const server::ShardedE2Server::FanoutIndication& fi) {
          fanout_delivered++;
          fanout_sns.push_back({fi.agent, fi.ind.sn});
          if (detect_at != 0 && first_redelivery_at == 0 &&
              clock.now() > detect_at)
            first_redelivery_at = clock.now();
        });
  }

  /// Add an agent homed on server `shard` (dialing `dial_shard`'s server —
  /// a different value exercises the misroute gate, and the setup will
  /// never complete). nb_id 0 = pick one the partitioner maps to `shard`.
  /// The agent dials at once; converge() waits for its E2 Setup.
  Node& add_agent(std::uint32_t shard = 0, std::uint32_t nb_id = 0,
                  e2ap::NodeType type = e2ap::NodeType::gnb,
                  agent::OverloadConfig aov = {}, std::uint64_t seed = 1,
                  std::int32_t dial_shard = -1) {
    auto n = std::make_unique<Node>();
    Node* np = n.get();
    n->shard = shard;
    n->dialed = dial_shard < 0 ? shard
                               : static_cast<std::uint32_t>(dial_shard);
    n->nb_id = nb_id != 0 ? nb_id
                          : nb_id_on_shard(shard, num_servers(), next_nb_,
                                           type);
    next_nb_ = n->nb_id + 1;
    n->type = type;
    n->seed = seed;
    n->profile = link_profile;
    n->fn = std::make_shared<StubFn>(200);
    agent::E2Agent::Config acfg{{1, n->nb_id, type}, WireFormat::flat, aov};
    // Supervised worlds home the agent on the RAN-side reactor: its timers
    // (heartbeat, reconnect backoff, pending flush) must keep running while
    // the shard it dialed is wedged or mid-rebuild. The transport pair still
    // lives on the *dialed* shard's reactor, so a wedged shard blackholes
    // traffic exactly like a stuck server process behind a live socket.
    n->agent = std::make_unique<agent::E2Agent>(
        supervised_ ? *ran_ : reactor(shard), acfg);
    EXPECT_TRUE(n->agent->register_function(n->fn).is_ok());
    n->agent->set_on_conn_event([np](agent::ControllerId,
                                     agent::ConnState st) {
      np->conn_events.push_back(agent::conn_state_name(st));
    });
    ResilienceConfig rc = agent_rc;  // template; per-node seed below
    rc.seed = seed + n->nb_id * 7919;
    auto cid = n->agent->add_controller(
        [this, np]() -> Result<std::shared_ptr<MsgTransport>> {
          if (supervised_ &&
              (wedged_[np->dialed] || !ric->accepting(np->dialed)))
            return Error{Errc::io, "dial refused: shard down"};
          np->dials++;
          if (refuse_dials) return Error{Errc::io, "dial refused (test)"};
          Reactor& r = reactor(supervised_ ? np->dialed : np->shard);
          auto [a_side, s_side] = LocalTransport::make_pair(r);
          FaultProfile p = np->profile;
          p.seed = np->seed + static_cast<std::uint64_t>(np->dials) * 7919;
          auto faulty = std::make_shared<FaultyTransport>(r, a_side, p);
          np->link = faulty;
          server(np->dialed).attach(s_side);
          return std::static_pointer_cast<MsgTransport>(faulty);
        },
        rc);
    EXPECT_TRUE(cid.is_ok());
    n->ctrl = *cid;
    nodes.push_back(std::move(n));
    return *nodes.back();
  }

  [[nodiscard]] bool established(const Node& n) const {
    return n.agent->state(n.ctrl) == agent::ConnState::established;
  }

  /// Drive until `n` is established (correctly-routed agents only).
  bool converge(Node& n, Nanos budget = 10 * kSecond) {
    for (Nanos t = 0; t < budget; t += 10 * kMilli) {
      if (established(n)) break;
      advance(10 * kMilli);
    }
    if (!established(n)) return false;
    settle();
    refresh_ids(n);
    EXPECT_NE(n.id, 0u);
    return true;
  }

  /// (Re-)discover a node's server-side id by its own GlobalNodeId — robust
  /// no matter how many agents converged in the meantime. A LIVE server
  /// allocates a fresh id per attach, so a churned-and-re-homed agent's id
  /// drifts; only a rebuilt shard's allocator starts over deterministically.
  /// Call after churn, before comparing gids against the directory.
  void refresh_ids(Node& n) {
    const server::RanDb& db = server(n.shard).ran_db();
    for (server::AgentId id : db.agents()) {
      const server::AgentInfo* info = db.agent(id);
      if (info != nullptr && info->node == node_id(n)) {
        n.id = id;
        n.gid = server::global_agent_id(n.shard, id);
      }
    }
  }

  static e2ap::GlobalNodeId node_id(const Node& n) {
    return {1, n.nb_id, n.type};
  }

  /// Subscribe to a node's RAN function on its server; deliveries land in
  /// node.indications / node.sns, answers in sub_responses / sub_failures.
  /// `wait` advances 10 ms and requires the request to reach the agent (a
  /// lossy link may eat it: chaos scripts pass false).
  void subscribe(Node& n, bool wait = true) {
    server::SubCallbacks cbs;
    cbs.on_response = [&n](const e2ap::SubscriptionResponse&) {
      n.sub_responses++;
    };
    cbs.on_failure = [&n](const e2ap::SubscriptionFailure&) {
      n.sub_failures++;
    };
    cbs.on_indication = [&n](const e2ap::Indication& ind) {
      n.indications++;
      n.sns.push_back(ind.sn);
    };
    auto h = server(n.shard).subscribe(n.id, 200, Buffer{0x01},
                                       {{1, e2ap::ActionType::report, {}}},
                                       std::move(cbs));
    ASSERT_TRUE(h.is_ok());
    if (!wait) return;
    advance(10 * kMilli);
    ASSERT_EQ(n.fn->last_sub.actions.size(), 1u)
        << "subscription never reached the agent";
  }

  /// Fire one control transaction at `n`; latency (virtual ns) is recorded
  /// on ack, failures are counted.
  void send_ctrl(Node& n) {
    const Nanos t0 = clock.now();
    server::CtrlCallbacks cbs;
    cbs.on_ack = [this, t0](const e2ap::ControlAck&) {
      ctrl_latencies.push_back(clock.now() - t0);
    };
    cbs.on_failure = [this](const e2ap::ControlFailure&) { ctrl_failures++; };
    EXPECT_TRUE(server(n.shard)
                    .send_control(n.id, 200, Buffer{0x01}, Buffer{0x02},
                                  std::move(cbs))
                    .is_ok());
  }

  [[nodiscard]] Nanos ctrl_p99() const {
    if (ctrl_latencies.empty()) return 0;
    std::vector<Nanos> s = ctrl_latencies;
    std::sort(s.begin(), s.end());
    return s[(s.size() - 1) * 99 / 100];
  }

  /// Convergence (DESIGN.md §13): every server holds each node homed on it
  /// exactly once by GlobalNodeId and nothing else, with one connection per
  /// agent (a phantom or a stale detached twin fails here); a sharded RIC's
  /// merged directory agrees with its shards. Refreshes every node's ids.
  void expect_converged() {
    for (const auto& n : nodes) refresh_ids(*n);
    std::size_t total = 0;
    for (std::uint32_t s = 0; s < num_servers(); ++s) {
      const server::RanDb& db = server(s).ran_db();
      std::size_t homed = 0;
      for (const auto& n : nodes) {
        if (n->shard != s || n->dialed != s) continue;
        ++homed;
        int hits = 0;
        for (server::AgentId id : db.agents()) {
          const server::AgentInfo* info = db.agent(id);
          if (info != nullptr && info->node == node_id(*n)) hits++;
        }
        EXPECT_EQ(hits, 1) << "server " << s << " holds node nb="
                           << n->nb_id << " " << hits << " times";
      }
      EXPECT_EQ(db.num_agents(), homed)
          << "server " << s << " holds agents no node accounts for";
      EXPECT_EQ(server(s).num_connections(), db.num_agents())
          << "server " << s;
      total += homed;
    }
    if (!ric) return;
    EXPECT_EQ(ric->directory().num_agents(), total);
    for (const auto& n : nodes) {
      if (n->shard != n->dialed) continue;
      EXPECT_NE(ric->directory().agent(n->gid), nullptr)
          << "merged directory is missing node nb=" << n->nb_id;
    }
  }

  /// Exact accounting across the world (DESIGN.md §11 ⊗ §13 ⊗ §15): each
  /// live server's ledger and ingest queue close, and every indication ever
  /// emitted was delivered (to a node's subscription or the fan-out) or was
  /// shed with a counted reason — including sends synchronously refused by
  /// a dead link and the sheds supervision itself caused. Call at a settle
  /// point. Unsupervised worlds must have flushed every agent buffer by
  /// then; supervised worlds count what a re-homing agent still buffers,
  /// and read global_ledger(), which spans live AND retired incarnations
  /// and must hold nothing queued.
  void expect_reconciles() {
    IndicationFlow flow;
    flow.delivered = fanout_delivered;
    if (ric) flow.supervisor_shed = ric->supervisor_shed();
    for (const auto& n : nodes) {
      if (n->shard != n->dialed) continue;  // misrouted: never subscribed
      flow.emitted += n->fn->emitted;
      flow.delivered += static_cast<std::uint64_t>(n->indications);
      flow.agent_shed += n->agent->stats().indications_shed + n->fn->refused;
      const auto* q = n->agent->pending_indications(n->ctrl);
      const std::size_t pending = q != nullptr ? q->size() : 0;
      if (supervised_) flow.buffered += pending;
      else EXPECT_EQ(pending, 0u) << "node nb=" << n->nb_id << " never "
                                  << "flushed its indication buffer";
    }
    ShardLedger total;
    for (std::uint32_t i = 0; i < num_servers(); ++i) {
      const ShardLedger l = server(i).ledger();
      const Balance b = reconcile(l);
      EXPECT_EQ(b.in, b.out) << "server " << i << " ledger does not "
                             << "reconcile: " << counters_text(l);
      EXPECT_TRUE(server(i).ingest_queue().reconciles()) << "server " << i;
      add_counters(total, l);
    }
    if (supervised_) {
      total = ric->global_ledger();
      EXPECT_EQ(total.queued, 0u) << "not quiescent: frames still queued";
      EXPECT_TRUE(reconcile(total).closes())
          << "global server ledger does not reconcile: "
          << counters_text(total);
    }
    const Balance b = reconcile(flow, total);
    EXPECT_EQ(b.in, b.out) << "an indication vanished without a shed counter "
                           << "(buffered=" << flow.buffered
                           << " supervisor_shed=" << flow.supervisor_shed
                           << " " << counters_text(total) << ")";
  }

  /// Trace for double-run determinism: every node, then every server's
  /// stats and event log in fixed order, then the home-side state.
  [[nodiscard]] std::string trace() {
    std::ostringstream out;
    for (const auto& n : nodes) {
      out << "n" << n->nb_id << "{dials=" << n->dials << " "
          << counters_text(n->agent->stats()) << " ind=" << n->indications
          << " resp=" << n->sub_responses << " conn=";
      for (const auto& e : n->conn_events) out << e << ";";
      out << "} ";
    }
    for (std::uint32_t i = 0; i < num_servers(); ++i) {
      out << "s" << i << "{" << counters_text(server(i).stats()) << " ev=";
      for (const auto& e : events[i]->log) out << e << ";";
      out << "} ";
    }
    out << "ctrl_p99=" << ctrl_p99() << " fail=" << ctrl_failures;
    if (!ric) return out.str();
    out << " dir=" << ric->directory().num_agents()
        << " resyncs=" << ric->directory_resyncs();
    if (supervised_) {
      out << " sup{" << counters_text(ric->supervisor().stats())
          << " shed=" << ric->supervisor_shed()
          << " qfail=" << ric->queries_failed()
          << " fan=" << fanout_delivered << " tr=";
      for (const auto& t : transitions) out << t << ";";
      out << "} sns=";
      for (const auto& [gid, sn] : fanout_sns)
        out << gid << ":" << sn << ";";
    }
    return out.str();
  }

  /// Resilience template applied to every new agent (rc.seed is derived per
  /// node). Defaults to storm posture — heartbeating but flap-proof; chaos
  /// soaks swap in a twitchier profile before adding agents.
  ResilienceConfig agent_rc = [] {
    ResilienceConfig rc;
    rc.heartbeat_period = 200 * kMilli;
    rc.heartbeat_miss_threshold = 100;  // storms must not flap the link
    rc.backoff_base = 50 * kMilli;
    return rc;
  }();

  /// Link template: a new node's profile starts as a copy.
  FaultProfile link_profile;
  /// While set, every dial is refused (and still counted in Node::dials).
  bool refuse_dials = false;

  VirtualClock clock;
  std::unique_ptr<ShardPool> pool;                ///< sharded worlds only
  std::unique_ptr<server::ShardedE2Server> ric;   ///< sharded worlds only
  std::vector<std::shared_ptr<EventLog>> events;  ///< one per server
  std::vector<std::unique_ptr<Node>> nodes;
  std::vector<Nanos> ctrl_latencies;
  int ctrl_failures = 0;

  // -- supervision state (populated when supervised) --
  /// Chained after the world's own transition bookkeeping.
  server::ShardSupervisor::TransitionHook on_transition;
  std::vector<std::string> transitions;  ///< "t=<ms> s<i> from->to"
  std::uint64_t fanout_delivered = 0;
  std::vector<std::pair<server::AgentId, std::uint32_t>> fanout_sns;
  Nanos detect_at = 0;            ///< newest ->quarantined edge (virtual)
  Nanos first_redelivery_at = 0;  ///< first fan-out delivery after it

 private:
  Reactor& reactor(std::uint32_t i) {
    return pool ? pool->reactor(i) : *reactor_;
  }

  bool supervised_ = false;
  std::vector<std::uint8_t> wedged_;
  std::unique_ptr<Reactor> reactor_;  ///< the plain server's
  std::unique_ptr<server::E2Server> plain_;
  std::unique_ptr<Reactor> ran_;  ///< supervised agents' home
  std::uint32_t next_nb_ = 1;
};

}  // namespace flexric::test
