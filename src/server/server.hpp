// FlexRIC server library (paper §4.2.2).
//
// Multiplexes agent connections and dispatches E2AP messages to iApps:
//
//   * RAN management — handles connection events (E2 Setup), fills the RAN
//     DB, merges disaggregated agents, and notifies subscribed iApps.
//   * Subscription management — tracks subscriptions per (agent, request id)
//     and delivers subscription outcomes and indications to the requesting
//     iApp via callbacks.
//
// The library implements no SM itself and never requests information on its
// own — iApps trigger all SM communication (zero-overhead principle).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "codec/wire.hpp"
#include "common/overload.hpp"
#include "common/shard_stats.hpp"
#include "e2ap/codec.hpp"
#include "server/ran_db.hpp"
#include "transport/transport.hpp"

namespace flexric::server {

class E2Server;

/// Server-side overload protection (DESIGN.md §11). Disabled by default:
/// with `enabled = false` every frame decodes and dispatches inline, exactly
/// the pre-overload behavior. Enabling it routes ingest through admission
/// control (per-agent DATA rate limits with flood-quarantine escalation) and
/// a bounded two-class priority queue, so CONTROL transactions stay timely
/// while a storm sheds DATA with exact accounting.
struct OverloadConfig {
  bool enabled = false;
  /// Bounded ingest queue, per class. CONTROL drains strictly before DATA.
  std::size_t control_queue = 1024;
  std::size_t data_queue = 4096;
  /// Frames decoded+dispatched per reactor turn; the remainder re-posts, so
  /// timers and fresh CONTROL traffic interleave with a deep backlog.
  std::size_t dispatch_batch = 64;
  /// Per-agent DATA admission rate (indications/s; 0 = unlimited) and bucket
  /// depth (0 = one second's worth).
  double data_rate = 0.0;
  double data_burst = 0.0;
  /// Escalation ladder: this many rate-limited drops inside `flood_window`
  /// flood-quarantines the agent (on_agent_quarantined fires); its DATA is
  /// then dropped at the door until `flood_cooldown` passes, after which the
  /// next frame restores it (on_agent_reconnected). 0 = never escalate.
  std::uint32_t flood_threshold = 0;
  Nanos flood_window = kSecond;
  Nanos flood_cooldown = 5 * kSecond;
  /// Deadline budget for in-flight RIC control transactions: expiry fails
  /// the transaction fast with a transport cause instead of waiting forever.
  /// 0 = no deadline. Applies independently of `enabled`.
  Nanos ctrl_deadline = 0;
};

/// Callbacks delivered for one subscription. All run on the reactor thread.
struct SubCallbacks {
  std::function<void(const e2ap::SubscriptionResponse&)> on_response;
  std::function<void(const e2ap::SubscriptionFailure&)> on_failure;
  std::function<void(const e2ap::Indication&)> on_indication;
};

/// Callbacks for one control transaction.
struct CtrlCallbacks {
  std::function<void(const e2ap::ControlAck&)> on_ack;
  std::function<void(const e2ap::ControlFailure&)> on_failure;
};

/// Internal application base (paper Fig. 5): specializes a controller by
/// implementing SMs directly or exposing them northbound to xApps.
class IApp {
 public:
  virtual ~IApp() = default;
  /// Called when the iApp is added; keep the server pointer to subscribe.
  virtual void on_start(E2Server& server) { server_ = &server; }
  virtual void on_agent_connected(const AgentInfo& info) { (void)info; }
  virtual void on_agent_disconnected(AgentId id) { (void)id; }
  /// The agent's RAN function set changed (RICserviceUpdate).
  virtual void on_agent_updated(const AgentInfo& info) { (void)info; }
  /// No traffic from the agent for `quarantine_after`: probably dead, state
  /// still held. Either on_agent_reconnected or on_agent_disconnected (via
  /// expiry) follows eventually.
  virtual void on_agent_quarantined(AgentId id) { (void)id; }
  /// The agent returned with the same GlobalNodeId: same AgentId, RanDb
  /// entry refreshed, subscriptions replayed transparently. No
  /// disconnected/connected churn was delivered in between.
  virtual void on_agent_reconnected(const AgentInfo& info) { (void)info; }
  /// A complete RAN entity formed from disaggregated agents (§4.2.2).
  virtual void on_ran_formed(const RanEntity& entity) { (void)entity; }
  [[nodiscard]] virtual const char* name() const = 0;

 protected:
  E2Server* server_ = nullptr;
};

/// Handle identifying a subscription at the server.
struct SubHandle {
  AgentId agent = 0;
  e2ap::RicRequestId request;
  auto operator<=>(const SubHandle&) const = default;
  struct Hash {
    std::size_t operator()(const SubHandle& h) const noexcept {
      const std::uint64_t key = std::uint64_t{h.agent} << 32 |
                                std::uint32_t{h.request.requestor} << 16 |
                                h.request.instance;
      return std::hash<std::uint64_t>{}(key);
    }
  };
};

// @affine(reactor)
class E2Server {
 public:
  struct Config {
    std::uint32_t ric_id = 21;
    WireFormat e2ap_format = WireFormat::per;
    /// Per-agent liveness (DESIGN.md §9). No bytes from an agent for
    /// `quarantine_after` => quarantined (iApps are told, state is kept);
    /// 0 disables the liveness scan.
    Nanos quarantine_after = 0;
    /// Quarantined or detached for `expire_after` => expired through the
    /// normal disconnect path (RanDb entry, subscriptions and iApp state
    /// freed). 0 disables retention: a closed connection tears down at
    /// once, exactly the pre-resilience behavior. With retention on, an
    /// agent returning with the same GlobalNodeId is rebound to its
    /// previous AgentId and its subscriptions are replayed (iApps see one
    /// `Reconnected` event instead of teardown/re-setup).
    Nanos expire_after = 0;
    /// Overload protection; OFF by default (see OverloadConfig).
    OverloadConfig overload{};
    /// Sharded deployments (DESIGN.md §13): this server instance is shard
    /// `shard` of `num_shards`. With num_shards > 1 the server enforces the
    /// GlobalNodeId-hash partition at setup time — an agent whose node id
    /// hashes to a different shard is rejected (counted in
    /// Stats::misrouted) instead of being silently served by the wrong
    /// single-threaded universe. Defaults reproduce the unsharded server.
    std::uint32_t shard = 0;
    std::uint32_t num_shards = 1;
  };

  E2Server(Reactor& reactor, Config cfg);
  ~E2Server();
  E2Server(const E2Server&) = delete;
  E2Server& operator=(const E2Server&) = delete;

  /// Accept agents on 127.0.0.1:`port` (0 = ephemeral; see port()).
  Status listen(std::uint16_t port);
  [[nodiscard]] std::uint16_t port() const noexcept;
  /// Attach an already-connected transport (in-process agents).
  void attach(std::shared_ptr<MsgTransport> transport);

  /// Add an iApp; its on_start runs immediately, and it will receive agent
  /// connection events from then on.
  void add_iapp(std::shared_ptr<IApp> app);

  // -- subscription management (used by iApps) --
  /// Sends a RICsubscriptionRequest to `agent`. The server fills the
  /// RICrequestID (requestor = iApp cookie, instance = running counter).
  Result<SubHandle> subscribe(AgentId agent, std::uint16_t ran_function_id,
                              Buffer event_trigger,
                              std::vector<e2ap::Action> actions,
                              SubCallbacks cbs);
  /// Sends a RICsubscriptionDeleteRequest and stops delivery.
  Status unsubscribe(const SubHandle& h);

  /// Sends a RICcontrolRequest; callbacks fire on ack/failure.
  Status send_control(AgentId agent, std::uint16_t ran_function_id,
                      Buffer header, Buffer message, CtrlCallbacks cbs,
                      bool ack_requested = true);

  [[nodiscard]] const RanDb& ran_db() const noexcept { return db_; }
  [[nodiscard]] Reactor& reactor() noexcept { return reactor_; }

  /// Connection-table size, including detached (retained) agents — lets
  /// tests assert that churn leaves no stale entries behind.
  [[nodiscard]] std::size_t num_connections() const noexcept {
    return conns_.size();
  }
  [[nodiscard]] std::size_t num_subscriptions() const noexcept {
    return subs_.size();
  }
  [[nodiscard]] std::size_t num_inflight_controls() const noexcept {
    return ctrls_.size();
  }

  /// Counters beyond the §11 ledger ones of ServerLedger (DESIGN.md §11).
  struct Stats : ServerLedger {
    std::uint64_t msgs_tx = 0;
    std::uint64_t bytes_rx = 0;
    std::uint64_t bytes_tx = 0;
    std::uint64_t heartbeats_rx = 0;   ///< empty RICserviceUpdates acked
    std::uint64_t reconnects = 0;      ///< agents rebound to their old id
    std::uint64_t subs_replayed = 0;
    std::uint64_t quarantines = 0;
    std::uint64_t expiries = 0;
    std::uint64_t ctrls_failed_on_loss = 0;
    std::uint64_t flood_quarantines = 0;
    std::uint64_t flood_recoveries = 0;
    std::uint64_t ctrls_deadline_expired = 0;
    /// Setup requests from agents whose GlobalNodeId hashes to another
    /// shard (sharded deployments only; the connection is closed).
    std::uint64_t misrouted = 0;

    template <typename F, CounterGroup<Stats> S>
    friend constexpr void counters(F&& f, S& s) {
      counters(f, as_base<ServerLedger>(s));
      f("msgs_tx", s.msgs_tx);
      f("bytes_rx", s.bytes_rx);
      f("bytes_tx", s.bytes_tx);
      f("heartbeats_rx", s.heartbeats_rx);
      f("reconnects", s.reconnects);
      f("subs_replayed", s.subs_replayed);
      f("quarantines", s.quarantines);
      f("expiries", s.expiries);
      f("ctrls_failed_on_loss", s.ctrls_failed_on_loss);
      f("flood_quarantines", s.flood_quarantines);
      f("flood_recoveries", s.flood_recoveries);
      f("ctrls_deadline_expired", s.ctrls_deadline_expired);
      f("misrouted", s.misrouted);
    }
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  /// This server's §11 ledger image: its counters plus the ingest backlog.
  [[nodiscard]] ShardLedger ledger() const {
    ShardLedger l;
    static_cast<ServerLedger&>(l) = stats_;
    l.queued = ingest_.size();
    l.data_queued = ingest_.queue(overload::MsgClass::data).size();
    return l;
  }

  /// Per-class ingest queue accounting (overload mode only).
  [[nodiscard]] const overload::PriorityQueue<Buffer>& ingest_queue()
      const noexcept {
    return ingest_;
  }

 private:
  struct Conn {
    std::shared_ptr<MsgTransport> transport;
    bool established = false;
    /// Routing cell captured by the transport handlers: rebinding a
    /// returning agent to its old AgentId is `*route = old_id`, never a
    /// handler replacement (a handler must not destroy itself mid-call).
    std::shared_ptr<AgentId> route;
    Nanos last_rx = 0;
    bool quarantined = false;
    bool detached = false;   ///< transport lost, retained for re-establishment
    Nanos detached_at = 0;
    // -- overload admission state (used only when cfg_.overload.enabled) --
    overload::RateLimiter data_limiter;
    std::uint32_t flood_drops = 0;      ///< rate-shed count in current window
    Nanos flood_window_start = 0;
    bool flood_quarantined = false;
    Nanos flood_until = 0;
  };

  void on_message(AgentId id, BytesView wire);
  void on_close(AgentId id);
  /// Decode + visit one frame (the pre-overload on_message body). Shared by
  /// the inline path and the queued drain path.
  void dispatch(AgentId id, BytesView wire);
  // -- overload machinery (all on the reactor thread; DESIGN.md §11) --
  /// One rate-limited DATA drop: advance the flood window, escalate to
  /// flood-quarantine when flood_threshold is crossed.
  void note_flood_drop(AgentId id, Conn& c, Nanos t_now);
  /// Lift an elapsed flood-quarantine (called on any traffic from the agent).
  void maybe_recover_flood(AgentId id, Conn& c, Nanos t_now);
  void schedule_drain();
  void drain_ingest();
  void ctrl_deadline_expired(const SubHandle& h);
  void handle(AgentId id, const e2ap::SetupRequest& m);
  void handle(AgentId id, const e2ap::SubscriptionResponse& m);
  void handle(AgentId id, const e2ap::SubscriptionFailure& m);
  void handle(AgentId id, const e2ap::SubscriptionDeleteResponse& m);
  void handle(AgentId id, const e2ap::Indication& m);
  void handle(AgentId id, const e2ap::ControlAck& m);
  void handle(AgentId id, const e2ap::ControlFailure& m);
  void handle(AgentId id, const e2ap::ServiceUpdate& m);
  void handle(AgentId id, const e2ap::NodeConfigUpdate& m);
  Status send(AgentId id, const e2ap::Msg& m);

  // -- resilience machinery (all on the reactor thread) --
  /// Fail every in-flight control transaction of `id` with a transport
  /// cause: the request died with the link, pretending otherwise would
  /// leave iApps waiting forever.
  void fail_ctrls(AgentId id);
  /// The one agent teardown: release the transport (destroyed on the next
  /// loop turn), erase the conn, fail in-flight controls, drop the RanDb
  /// entry (telling iApps) and the subscriptions.
  void drop_agent(AgentId id);
  /// Give up on a retained or idle agent: detach and close its transport,
  /// then drop_agent().
  void expire_agent(AgentId id);
  void liveness_scan();
  void ensure_liveness_timer();
  /// Smallest detached conn id whose RanDb node id equals `node`, or 0.
  [[nodiscard]] AgentId find_detached(const e2ap::GlobalNodeId& node) const;
  void replay_subscriptions(AgentId id);

  Reactor& reactor_;
  Config cfg_;
  const e2ap::Codec& codec_;
  std::unique_ptr<TcpListener> listener_;
  /// Hashed: a whole-table walk whose result depends on order sorts first.
  std::unordered_map<AgentId, Conn> conns_;
  AgentId next_agent_id_ = 1;
  RanDb db_;
  std::vector<std::shared_ptr<IApp>> iapps_;

  struct SubEntry {
    SubCallbacks cbs;
    std::uint16_t ran_function_id = 0;
    // Kept for transparent replay when the agent re-establishes.
    Buffer event_trigger;
    std::vector<e2ap::Action> actions;
    bool replaying = false;  ///< suppress the duplicate on_response
  };
  std::unordered_map<SubHandle, SubEntry, SubHandle::Hash> subs_;
  struct CtrlEntry {
    CtrlCallbacks cbs;
    std::uint16_t ran_function_id = 0;
    /// Armed when cfg_.overload.ctrl_deadline > 0; cancelled on completion.
    Reactor::TimerId deadline_timer = 0;
  };
  void cancel_ctrl_deadline(CtrlEntry& e);
  std::map<SubHandle, CtrlEntry> ctrls_;  // in-flight control txns
  std::uint16_t next_instance_ = 1;
  Reactor::TimerId liveness_timer_ = 0;
  /// Bounded two-class ingest queue; frames wait here (as raw wire bytes)
  /// when overload protection is on, CONTROL ahead of DATA.
  overload::PriorityQueue<Buffer> ingest_;
  bool drain_scheduled_ = false;
  /// Lifetime token for posted drain tasks, TcpTransport-style: the posted
  /// lambda checks it before touching `this`.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  Stats stats_;
};

}  // namespace flexric::server
