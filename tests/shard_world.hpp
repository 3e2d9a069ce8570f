// Deterministic multi-shard harness (DESIGN.md §13).
//
// The whole N-shard system — every shard reactor, every agent, the home
// thread's ring drains — is driven by ONE test thread against ONE shared
// VirtualClock, in a fixed interleaving order:
//
//   clock step -> ShardPool::pump() (shard 0 first, fixed rounds)
//              -> ShardedE2Server::pump_home() (rings in shard order)
//
// so a seeded chaos or storm scenario replays byte-identically no matter
// how many shards it spans. Threaded mode keeps the exact same code paths
// (the rings and affinity domains don't care who pumps); the harness just
// removes the scheduler from the picture.
//
// Agents live on their shard's reactor: LocalTransport::make_pair puts both
// endpoints on one reactor, so the agent is as shard-affine as the server
// it dials — exactly the deployment shape, in miniature.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
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
/// one shard, injected by the harness at a virtual instant. Seeded soaks
/// derive a plan of these from the seed, so a chaos run replays
/// byte-identically.
///
///   * wedge  — the shard loop stops turning (a handler wedged); its
///     established links backpressure (tx_credit 0), exactly as TCP would
///     against a stuck reader, so mid-wedge emissions buffer agent-side or
///     shed with a counted reason — never vanish.
///   * stop_pump — the loop is starved by the scheduler; observationally
///     identical to wedge from outside the shard (same backpressure), kept
///     as a distinct kind so fault plans read like the failure they model.
///   * crash — process death: every link to the shard resets immediately
///     (FaultyTransport::kill) and the loop never turns again.
struct ShardFault {
  enum class Kind { wedge, stop_pump, crash };
  Kind kind = Kind::wedge;
  std::uint32_t shard = 0;
  Nanos at = 0;           ///< virtual time of injection
  std::uint32_t nth = 0;  ///< crash-on-nth-event: emissions seen first
};

/// Shard count for one soak iteration: derived from the seed so the
/// default 12-seed set sweeps 1/2/4 shards, overridable to a fixed count
/// with FLEXRIC_SHARD_COUNT (ci.sh --shard pins 4).
inline std::uint32_t soak_shards(std::uint64_t seed) {
  if (const char* env = std::getenv("FLEXRIC_SHARD_COUNT")) {
    const int n = std::atoi(env);
    if (n >= 1 && n <= 16) return static_cast<std::uint32_t>(n);
  }
  return 1u << (seed % 3);  // 1, 2, 4
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

/// Minimal RAN function for the storm and shard harnesses: admits every
/// subscription, counts and sequences what it emits (the `emitted` side of
/// the indication ledger).
class ShardStubFn final : public agent::RanFunction {
 public:
  explicit ShardStubFn(std::uint16_t id) {
    desc_.id = id;
    desc_.revision = 1;
    desc_.name = "SHARD-STUB";
  }
  [[nodiscard]] const e2ap::RanFunctionItem& descriptor() const override {
    return desc_;
  }
  Result<agent::SubscriptionOutcome> on_subscription(
      const e2ap::SubscriptionRequest& req, agent::ControllerId) override {
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

  std::uint32_t emitted = 0;
  std::uint32_t refused = 0;  ///< sends rejected synchronously (link dead)
  e2ap::SubscriptionRequest last_sub;

 private:
  e2ap::RanFunctionItem desc_;
};

/// Lifecycle log of one server (the storm and chaos harnesses' server, or
/// one shard's); entries are server-local AgentIds, so sharded traces prefix
/// them with the shard index.
struct ShardEventLog final : server::IApp {
  const char* name() const override { return "shard-event-log"; }
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

struct ShardWorld {
  /// Harness agents speak FLAT; force the shard servers to match whatever
  /// else the test configured.
  static server::ShardedConfig flat(server::ShardedConfig cfg) {
    cfg.server.e2ap_format = WireFormat::flat;
    return cfg;
  }

  /// `supervised` switches the world into the §15 failure-injection shape:
  /// agents live on a separate RAN-side reactor (so their timers keep
  /// running while a shard is wedged or torn down), dials are refused at
  /// downed shards, and every advance() quantum ends with a watchdog poll.
  explicit ShardWorld(std::uint32_t shards, server::ShardedConfig cfg = {},
                      bool supervised = false)
      : pool(shards, ShardPool::Mode::manual, &clock),
        ric(pool, flat(std::move(cfg))),
        supervised_(supervised),
        wedged_(shards, 0) {
    for (std::uint32_t i = 0; i < shards; ++i)
      events.push_back(std::make_shared<ShardEventLog>());
    // Installed via factory so a rebuilt shard re-gets the SAME log object:
    // its lifecycle history spans incarnations.
    ric.add_iapp_factory(
        [this](std::uint32_t i) { return events[i]; });
    if (supervised_) {
      ran_ = std::make_unique<Reactor>("reactor");
      ran_->set_time_source(&clock);
      ric.supervisor().set_on_transition(
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
  }

  /// Agents cancel their timers on destruction; tear them down while the
  /// RAN-side reactor (declared below them, hence destroyed before them)
  /// is still alive.
  ~ShardWorld() { nodes.clear(); }

  struct Node {
    std::unique_ptr<agent::E2Agent> agent;
    std::shared_ptr<ShardStubFn> fn;
    std::shared_ptr<FaultyTransport> link;  ///< most recent dial's link
    std::uint32_t shard = 0;      ///< owning shard (where the agent lives)
    std::uint32_t dialed = 0;     ///< shard actually dialed (misroute tests)
    std::uint32_t nb_id = 0;
    e2ap::NodeType type = e2ap::NodeType::gnb;
    agent::ControllerId ctrl = 0;
    server::AgentId id = 0;   ///< shard-local server-side id
    server::AgentId gid = 0;  ///< global id (shard in the top byte)
    int indications = 0;
    std::vector<std::uint32_t> sns;
    int dials = 0;
    FaultProfile profile;  ///< applied to every new link
    std::uint64_t seed = 1;
  };

  /// One pump round of the whole world in fixed order: every non-wedged
  /// shard (shard 0 first), the RAN-side reactor, the home rings, then the
  /// watchdog. A wedged shard is simply never pumped — the loop "stops
  /// turning", which is exactly what its heartbeat goes silent over.
  void pump_world(int rounds = 8) {
    for (std::uint32_t i = 0; i < pool.size(); ++i)
      if (!wedged_[i]) pool.pump_shard(i, rounds);
    if (ran_)
      for (int r = 0; r < rounds; ++r)
        if (ran_->run_once(0) == 0) break;
    ric.pump_home();
    if (supervised_) ric.supervisor().poll(clock.now());
  }

  /// One deterministic scheduling quantum: step the shared clock, pump the
  /// shards in fixed order, drain the home rings. THE interleave contract.
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
  /// the harness injects faults only at quiescent quantum boundaries,
  /// keeping the global ledger exact (nothing is dropped uncounted inside
  /// a doomed reactor's task queue).
  void wedge_shard(std::uint32_t shard) {
    settle();
    wedged_[shard] = 1;
    for (auto& n : nodes)
      if (n->dialed == shard && n->link) n->link->set_tx_credit(0);
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
  /// (e.g. fan-out parked in the shard's ring) so the rebuild must shed it
  /// with exact accounting. The ledger stays exact — the supervisor_shed
  /// counter is precisely how; this is the path that proves it.
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
    ric.subscribe_fanout(
        200, Buffer{0x01}, {{1, e2ap::ActionType::report, {}}},
        [this](const server::ShardedE2Server::FanoutIndication& fi) {
          fanout_delivered++;
          fanout_sns.push_back({fi.agent, fi.ind.sn});
          if (detect_at != 0 && first_redelivery_at == 0 &&
              clock.now() > detect_at)
            first_redelivery_at = clock.now();
        });
  }

  /// Connect an agent homed on `shard` (dialing `dial_shard`'s server — a
  /// different value exercises the misroute gate, and the setup will never
  /// complete). nb_id 0 = pick one the partitioner maps to `shard`.
  Node& add_agent(std::uint32_t shard, std::uint32_t nb_id = 0,
                  e2ap::NodeType type = e2ap::NodeType::gnb,
                  agent::OverloadConfig aov = {}, std::uint64_t seed = 1,
                  std::int32_t dial_shard = -1) {
    auto n = std::make_unique<Node>();
    Node* np = n.get();
    n->shard = shard;
    n->dialed = dial_shard < 0 ? shard
                               : static_cast<std::uint32_t>(dial_shard);
    n->nb_id = nb_id != 0 ? nb_id
                          : nb_id_on_shard(shard, pool.size(), next_nb_, type);
    next_nb_ = n->nb_id + 1;
    n->type = type;
    n->seed = seed;
    n->fn = std::make_shared<ShardStubFn>(200);
    agent::E2Agent::Config acfg{{1, n->nb_id, type}, WireFormat::flat, aov};
    // Supervised worlds home the agent on the RAN-side reactor: its timers
    // (heartbeat, reconnect backoff, pending flush) must keep running while
    // the shard it dialed is wedged or mid-rebuild. The transport pair still
    // lives on the *dialed* shard's reactor, so a wedged shard blackholes
    // traffic exactly like a stuck server process behind a live socket.
    Reactor& agent_r = supervised_ ? *ran_ : pool.reactor(shard);
    n->agent = std::make_unique<agent::E2Agent>(agent_r, acfg);
    EXPECT_TRUE(n->agent->register_function(n->fn).is_ok());
    ResilienceConfig rc = agent_rc;  // template; per-node seed below
    rc.seed = seed + n->nb_id * 7919;
    auto cid = n->agent->add_controller(
        [this, np]() -> Result<std::shared_ptr<MsgTransport>> {
          if (supervised_ &&
              (wedged_[np->dialed] || !ric.accepting(np->dialed)))
            return Result<std::shared_ptr<MsgTransport>>(
                Errc::io, "dial refused: shard down");
          np->dials++;
          Reactor& r = supervised_ ? pool.reactor(np->dialed)
                                   : pool.reactor(np->shard);
          auto [a_side, s_side] = LocalTransport::make_pair(r);
          FaultProfile p = np->profile;
          p.seed = np->seed + static_cast<std::uint64_t>(np->dials) * 7919;
          auto faulty = std::make_shared<FaultyTransport>(r, a_side, p);
          np->link = faulty;
          ric.shard_server(np->dialed).attach(s_side);
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
    for (server::AgentId id :
         ric.shard_server(n.shard).ran_db().agents()) {
      const server::AgentInfo* info =
          ric.shard_server(n.shard).ran_db().agent(id);
      if (info != nullptr && info->node.plmn == 1 &&
          info->node.nb_id == n.nb_id && info->node.type == n.type) {
        n.id = id;
        n.gid = server::global_agent_id(n.shard, id);
      }
    }
  }

  /// Subscribe the harness to a node's RAN function on its shard server;
  /// deliveries land in node.indications / node.sns (manual mode: the test
  /// thread owns every shard domain, so direct shard access is legitimate).
  void subscribe(Node& n) {
    server::SubCallbacks cbs;
    cbs.on_response = [](const e2ap::SubscriptionResponse&) {};
    cbs.on_indication = [&n](const e2ap::Indication& ind) {
      n.indications++;
      n.sns.push_back(ind.sn);
    };
    auto h = ric.shard_server(n.shard).subscribe(
        n.id, 200, Buffer{0x01}, {{1, e2ap::ActionType::report, {}}},
        std::move(cbs));
    ASSERT_TRUE(h.is_ok());
    advance(10 * kMilli);
    ASSERT_EQ(n.fn->last_sub.actions.size(), 1u)
        << "subscription never reached the agent";
  }

  /// Global exact-accounting check across every shard (DESIGN.md §11 ⊗ §13):
  /// each shard's server ledger closes, and so does the indication ledger
  /// over the sum of them.
  void expect_global_reconciles() {
    IndicationFlow flow;
    for (const auto& n : nodes) {
      if (n->shard != n->dialed) continue;  // misrouted: never subscribed
      flow.emitted += n->fn->emitted;
      flow.delivered += static_cast<std::uint64_t>(n->indications);
      flow.agent_shed += n->agent->stats().indications_shed + n->fn->refused;
    }
    ShardLedger total;
    for (std::uint32_t i = 0; i < pool.size(); ++i) {
      const ShardLedger l = ric.shard_server(i).ledger();
      const Balance b = reconcile(l);
      EXPECT_EQ(b.in, b.out) << "shard " << i << " server ledger does not "
                             << "reconcile: " << counters_text(l);
      add_counters(total, l);
    }
    const Balance b = reconcile(flow, total);
    EXPECT_EQ(b.in, b.out) << "an indication vanished without a shed counter: "
                           << counters_text(total);
  }

  /// Global exact-accounting across a supervised world (§11 ⊗ §15): every
  /// indication ever emitted is delivered (cross-shard fan-out at home),
  /// still buffered agent-side, or shed with a counted reason — including
  /// sends synchronously refused by a dead link (the producer was told:
  /// Errc::io during a crash window) and the sheds supervision itself
  /// caused. global_ledger() spans live AND retired incarnations. Call at
  /// quiescence (after settle()).
  void expect_supervised_reconciles() {
    IndicationFlow flow;
    flow.delivered = fanout_delivered;
    flow.supervisor_shed = ric.supervisor_shed();
    for (const auto& n : nodes) {
      flow.emitted += n->fn->emitted;
      flow.agent_shed += n->agent->stats().indications_shed + n->fn->refused;
      if (const auto* q = n->agent->pending_indications(n->ctrl))
        flow.buffered += q->size();
    }
    const ShardLedger g = ric.global_ledger();
    EXPECT_EQ(g.queued, 0u) << "not quiescent: frames still queued";
    const Balance b = reconcile(flow, g);
    EXPECT_EQ(b.in, b.out) << "an indication vanished without a shed counter "
                           << "(buffered=" << flow.buffered
                           << " supervisor_shed=" << flow.supervisor_shed
                           << " " << counters_text(g) << ")";
  }

  /// Trace line for double-run determinism: per-shard stats + event logs in
  /// fixed shard order, then the home-side merge state.
  [[nodiscard]] std::string trace() {
    std::ostringstream out;
    for (std::uint32_t i = 0; i < pool.size(); ++i) {
      out << "s" << i << "{" << counters_text(ric.shard_server(i).stats())
          << " ev=";
      for (const auto& e : events[i]->log) out << e << ";";
      out << "} ";
    }
    out << "dir=" << ric.directory().num_agents()
        << " resyncs=" << ric.directory_resyncs();
    if (supervised_) {
      out << " sup{" << counters_text(ric.supervisor().stats())
          << " shed=" << ric.supervisor_shed()
          << " qfail=" << ric.queries_failed()
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

  VirtualClock clock;
  ShardPool pool;
  server::ShardedE2Server ric;
  std::vector<std::shared_ptr<ShardEventLog>> events;
  std::vector<std::unique_ptr<Node>> nodes;

  // -- supervision-harness state (populated when supervised) --
  /// Chained after the harness's own transition bookkeeping.
  server::ShardSupervisor::TransitionHook on_transition;
  std::vector<std::string> transitions;  ///< "t=<ms> s<i> from->to"
  std::uint64_t fanout_delivered = 0;
  std::vector<std::pair<server::AgentId, std::uint32_t>> fanout_sns;
  Nanos detect_at = 0;            ///< newest ->quarantined edge (virtual)
  Nanos first_redelivery_at = 0;  ///< first fan-out delivery after it

 private:
  bool supervised_ = false;
  std::vector<std::uint8_t> wedged_;
  std::unique_ptr<Reactor> ran_;
  std::uint32_t next_nb_ = 1;
};

}  // namespace flexric::test
