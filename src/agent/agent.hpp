// FlexRIC agent library (paper §4.1).
//
// Embeds into a base station (or CU/DU part): manages connections to one or
// more controllers, performs the E2 Setup handshake, dispatches functional
// procedures to registered RAN functions, and maintains the
// UE-to-controller association for multi-controller deployments.
//
// The agent is passive with respect to SM semantics: all SM logic lives in
// RAN functions (src/ran/functions.hpp provides the bundled ones).
#pragma once

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "agent/ran_function.hpp"
#include "codec/wire.hpp"
#include "common/counters.hpp"
#include "common/overload.hpp"
#include "common/rng.hpp"
#include "e2ap/codec.hpp"
#include "transport/resilience.hpp"
#include "transport/transport.hpp"

namespace flexric::agent {

/// Agent-side overload protection (DESIGN.md §11): when a controller's TX
/// buffer hits its capacity cap (see TcpTransport::set_max_tx_buffer),
/// send_indication() queues into a bounded per-controller buffer instead of
/// surfacing the error, flushes it every kFlushPeriod as the link drains,
/// sheds the oldest entry when the buffer itself fills, and reports shed
/// counts alongside the next heartbeat — drops are visible at the
/// controller, never silent.
struct OverloadConfig {
  /// Per-controller indication buffer (IR messages).
  std::size_t indication_queue = 256;
};

/// Per-connection E2 setup state. `reconnecting` is entered when a resilient
/// connection (one added with a TransportFactory) loses its transport: the
/// agent re-dials with exponential backoff + decorrelated jitter and replays
/// the E2 Setup handshake on success.
enum class ConnState { setup_sent, established, failed, closed, reconnecting };

const char* conn_state_name(ConnState s) noexcept;

/// Produces a fresh transport towards one controller. Called on the reactor
/// thread for the initial dial and for every reconnect attempt.
using TransportFactory =
    std::function<Result<std::shared_ptr<MsgTransport>>()>;

// @affine(reactor)
class E2Agent final : public AgentServices {
 public:
  struct Config {
    e2ap::GlobalNodeId node_id;
    WireFormat e2ap_format = WireFormat::per;  ///< O-RAN default: ASN.1
    /// Bounded indication buffering + shed reporting (see OverloadConfig).
    OverloadConfig overload{};
  };

  E2Agent(Reactor& reactor, Config cfg);
  ~E2Agent() override;
  E2Agent(const E2Agent&) = delete;
  E2Agent& operator=(const E2Agent&) = delete;

  /// Register a RAN function before connecting (advertised in E2 Setup).
  Status register_function(std::shared_ptr<RanFunction> fn);

  /// Register a RAN function on a live agent: advertised to every connected
  /// controller via RICserviceUpdate (forward compatibility — a node can
  /// grow capabilities without reconnecting).
  Status add_function_live(std::shared_ptr<RanFunction> fn);
  /// Withdraw a RAN function; controllers are informed via RICserviceUpdate
  /// and its subscriptions are torn down locally.
  Status remove_function_live(std::uint16_t ran_function_id);

  /// Connect to an additional controller over `transport`; sends
  /// E2SetupRequest immediately. Controller 0 is the primary one. No
  /// reconnect: when the transport dies the connection is `closed` for good.
  Result<ControllerId> add_controller(std::shared_ptr<MsgTransport> transport);

  /// Resilient variant: the agent owns the dial. The factory is invoked now
  /// and after every connection loss (backoff per `rc`); the E2 Setup
  /// handshake is replayed on each new transport, and a heartbeat (empty
  /// RICserviceUpdate on stream 0) detects half-open links. If the initial
  /// dial fails the connection starts in `reconnecting` and keeps trying.
  Result<ControllerId> add_controller(TransportFactory factory,
                                      ResilienceConfig rc = {});

  /// Tear down one controller connection (cancels any reconnect/heartbeat).
  void remove_controller(ControllerId id);

  [[nodiscard]] ConnState state(ControllerId id) const;
  [[nodiscard]] std::size_t num_controllers() const noexcept {
    return conns_.size();
  }

  /// Observe connection state transitions (established, reconnecting, ...).
  /// Runs on the reactor thread.
  using ConnEventHandler = std::function<void(ControllerId, ConnState)>;
  void set_on_conn_event(ConnEventHandler h) { on_conn_event_ = std::move(h); }

  // -- UE-to-controller association (§4.1.2) --
  /// Expose `rnti` to controller `id`. No-op for the primary controller,
  /// which sees all UEs by default.
  void associate_ue(std::uint16_t rnti, ControllerId id) override;
  void dissociate_ue(std::uint16_t rnti, ControllerId id) override;
  /// Remove a UE entirely (detach).
  void remove_ue(std::uint16_t rnti);

  // -- AgentServices --
  Status send_indication(ControllerId origin,
                         const e2ap::Indication& ind) override;
  std::uint64_t start_timer(std::int64_t period_ns,
                            std::function<void()> cb) override;
  void cancel_timer(std::uint64_t token) override;
  [[nodiscard]] bool ue_visible(std::uint16_t rnti,
                                ControllerId origin) const override;

  [[nodiscard]] Reactor& reactor() noexcept { return reactor_; }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

  /// Counters for the evaluation harness.
  struct Stats {
    std::uint64_t msgs_rx = 0;
    std::uint64_t msgs_tx = 0;
    std::uint64_t bytes_rx = 0;
    std::uint64_t bytes_tx = 0;
    std::uint64_t reconnects = 0;       ///< successful re-dials
    std::uint64_t reconnect_failures = 0;  ///< factory attempts that failed
    std::uint64_t heartbeats_tx = 0;
    std::uint64_t heartbeat_misses = 0;
    std::uint64_t setup_replays = 0;    ///< E2 Setup resent after reconnect
    // -- overload accounting (DESIGN.md §11). Exact-reconciliation
    //    invariant: indications emitted by RAN functions
    //      == indications_tx + indications_shed + <still buffered>
    std::uint64_t indications_tx = 0;       ///< put on the wire (direct+flush)
    std::uint64_t indications_queued = 0;   ///< buffered under backpressure
    std::uint64_t indications_flushed = 0;  ///< drained from buffer to wire
    std::uint64_t indications_shed = 0;     ///< dropped by the bounded buffer
    std::uint64_t shed_reports_tx = 0;      ///< NodeConfigUpdate reports sent

    template <typename F, CounterGroup<Stats> S>
    friend constexpr void counters(F&& f, S& s) {
      f("msgs_rx", s.msgs_rx);
      f("msgs_tx", s.msgs_tx);
      f("bytes_rx", s.bytes_rx);
      f("bytes_tx", s.bytes_tx);
      f("reconnects", s.reconnects);
      f("reconnect_failures", s.reconnect_failures);
      f("heartbeats_tx", s.heartbeats_tx);
      f("heartbeat_misses", s.heartbeat_misses);
      f("setup_replays", s.setup_replays);
      f("indications_tx", s.indications_tx);
      f("indications_queued", s.indications_queued);
      f("indications_flushed", s.indications_flushed);
      f("indications_shed", s.indications_shed);
      f("shed_reports_tx", s.shed_reports_tx);
    }
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Per-controller indication buffer accounting (nullptr: no such conn).
  [[nodiscard]] const overload::BoundedQueue<e2ap::Indication>*
  pending_indications(ControllerId id) const {
    auto it = conns_.find(id);
    return it == conns_.end() ? nullptr : &it->second.pending;
  }

 private:
  struct Conn {
    std::shared_ptr<MsgTransport> transport;
    ConnState state = ConnState::setup_sent;
    // -- resilience (unused for bare-transport connections) --
    TransportFactory factory;
    ResilienceConfig rc;
    Rng rng{1};
    Nanos backoff_prev = 0;          ///< last retry delay (jitter input)
    Reactor::TimerId retry_timer = 0;
    Reactor::TimerId hb_timer = 0;
    Reactor::TimerId setup_timer = 0;
    bool hb_outstanding = false;     ///< probe sent, ack not yet seen
    std::uint32_t hb_missed = 0;
    bool ever_established = false;   ///< distinguishes replay from first setup
    // -- overload: bounded indication buffer (DESIGN.md §11) --
    overload::BoundedQueue<e2ap::Indication> pending;
    Reactor::TimerId flush_timer = 0;
    std::uint64_t sheds_reported = 0;  ///< shed count already told to the peer
  };

  void on_message(ControllerId id, BytesView wire);
  void handle(ControllerId id, const e2ap::SetupResponse& m);
  void handle(ControllerId id, const e2ap::SetupFailure& m);
  void handle(ControllerId id, const e2ap::SubscriptionRequest& m);
  void handle(ControllerId id, const e2ap::SubscriptionDeleteRequest& m);
  void handle(ControllerId id, const e2ap::ControlRequest& m);
  void handle(ControllerId id, const e2ap::ResetRequest& m);
  void handle(ControllerId id, const e2ap::ServiceUpdateAck& m);
  Status send(ControllerId id, const e2ap::Msg& m);
  RanFunction* find_function(std::uint16_t ran_function_id);

  // -- resilience machinery (all on the reactor thread) --
  /// Bind handlers to conn.transport and send the E2 Setup request.
  Status wire_transport(ControllerId id);
  /// Transport died: detach functions and either schedule a reconnect or go
  /// to `closed`.
  void on_transport_lost(ControllerId id);
  void schedule_reconnect(ControllerId id);
  void try_reconnect(ControllerId id);
  void start_heartbeat(ControllerId id);
  void heartbeat_tick(ControllerId id);
  // -- overload machinery (all on the reactor thread) --
  /// Retry cadence while indications are buffered.
  static constexpr Nanos kFlushPeriod = 10 * kMilli;
  void ensure_flush_timer(ControllerId id, Conn& conn);
  /// Drain buffered indications until the transport pushes back again.
  void flush_pending(ControllerId id);
  /// Tell the controller about sheds it has not heard of yet.
  void report_shed_delta(ControllerId id, Conn& conn);
  void cancel_conn_timers(Conn& conn);
  void set_state(ControllerId id, Conn& conn, ConnState s);

  Reactor& reactor_;
  Config cfg_;
  const e2ap::Codec& codec_;
  std::map<ControllerId, Conn> conns_;
  ControllerId next_conn_id_ = 0;
  std::vector<std::shared_ptr<RanFunction>> functions_;
  std::map<std::uint16_t, std::set<ControllerId>> ue_assoc_;
  std::uint8_t next_trans_id_ = 0;
  ConnEventHandler on_conn_event_;
  Stats stats_;
};

}  // namespace flexric::agent
