#include "agent/agent.hpp"

#include <algorithm>

#include "common/affinity.hpp"
#include "common/log.hpp"

namespace flexric::agent {

const char* conn_state_name(ConnState s) noexcept {
  switch (s) {
    case ConnState::setup_sent: return "setup_sent";
    case ConnState::established: return "established";
    case ConnState::failed: return "failed";
    case ConnState::closed: return "closed";
    case ConnState::reconnecting: return "reconnecting";
  }
  return "?";
}

E2Agent::E2Agent(Reactor& reactor, Config cfg)
    : reactor_(reactor), cfg_(cfg), codec_(e2ap::codec_for(cfg.e2ap_format)) {}

E2Agent::~E2Agent() {
  for (auto& [id, conn] : conns_) {
    cancel_conn_timers(conn);
    if (conn.transport) {
      conn.transport->set_on_message(nullptr);
      conn.transport->set_on_close(nullptr);
    }
  }
}

Status E2Agent::register_function(std::shared_ptr<RanFunction> fn) {
  FLEXRIC_ASSERT_AFFINITY(reactor_.affinity());
  const std::uint16_t id = fn->descriptor().id;
  if (find_function(id) != nullptr)
    return {Errc::already_exists, "RAN function id in use"};
  fn->bind(*this);
  functions_.push_back(std::move(fn));
  return Status::ok();
}

Status E2Agent::add_function_live(std::shared_ptr<RanFunction> fn) {
  FLEXRIC_ASSERT_AFFINITY(reactor_.affinity());
  e2ap::RanFunctionItem item = fn->descriptor();
  FLEXRIC_TRY(register_function(std::move(fn)));
  e2ap::ServiceUpdate update;
  update.trans_id = next_trans_id_++;
  update.added.push_back(std::move(item));
  for (auto& [id, conn] : conns_)
    if (conn.state == ConnState::established)
      (void)send(id, e2ap::Msg{update});
  return Status::ok();
}

Status E2Agent::remove_function_live(std::uint16_t ran_function_id) {
  FLEXRIC_ASSERT_AFFINITY(reactor_.affinity());
  auto it = std::find_if(functions_.begin(), functions_.end(),
                         [&](const auto& f) {
                           return f->descriptor().id == ran_function_id;
                         });
  if (it == functions_.end())
    return {Errc::not_found, "no such RAN function"};
  // Tear down whatever subscriptions the function holds.
  for (auto& [id, conn] : conns_) (*it)->on_controller_detached(id);
  functions_.erase(it);
  e2ap::ServiceUpdate update;
  update.trans_id = next_trans_id_++;
  update.removed.push_back(ran_function_id);
  for (auto& [id, conn] : conns_)
    if (conn.state == ConnState::established)
      (void)send(id, e2ap::Msg{update});
  return Status::ok();
}

RanFunction* E2Agent::find_function(std::uint16_t ran_function_id) {
  for (auto& f : functions_)
    if (f->descriptor().id == ran_function_id) return f.get();
  return nullptr;
}

Result<ControllerId> E2Agent::add_controller(
    std::shared_ptr<MsgTransport> transport) {
  FLEXRIC_ASSERT_AFFINITY(reactor_.affinity());
  ControllerId id = next_conn_id_++;
  Conn& conn = conns_[id];
  conn.pending.configure(cfg_.overload.indication_queue,
                         overload::ShedPolicy::drop_oldest);
  conn.transport = std::move(transport);
  if (Status st = wire_transport(id); !st.is_ok()) {
    conns_.erase(id);
    return Error{st.code(), st.error().message};
  }
  return id;
}

Result<ControllerId> E2Agent::add_controller(TransportFactory factory,
                                             ResilienceConfig rc) {
  FLEXRIC_ASSERT_AFFINITY(reactor_.affinity());
  if (!factory)
    return Error{Errc::malformed, "null transport factory"};
  ControllerId id = next_conn_id_++;
  Conn& conn = conns_[id];
  conn.pending.configure(cfg_.overload.indication_queue,
                         overload::ShedPolicy::drop_oldest);
  conn.factory = std::move(factory);
  conn.rc = rc;
  // Decorrelate jitter across connections sharing one config.
  conn.rng.reseed(rc.seed + 0x9E3779B97F4A7C15ull * (id + 1));

  auto t = conn.factory();
  if (t.is_ok()) {
    conn.transport = std::move(*t);
    if (wire_transport(id).is_ok()) return id;
    // Transport dead at birth: fall through to the retry path.
  } else {
    stats_.reconnect_failures++;
  }
  conn.transport.reset();
  if (!conn.rc.reconnect) {
    conns_.erase(id);
    return Error{Errc::io, "initial dial failed and reconnect disabled"};
  }
  set_state(id, conn, ConnState::reconnecting);
  schedule_reconnect(id);
  return id;
}

Status E2Agent::wire_transport(ControllerId id) {
  Conn& conn = conns_[id];
  conn.transport->set_on_message(
      [this, id](StreamId, BytesView wire) { on_message(id, wire); });
  conn.transport->set_on_close([this, id]() { on_transport_lost(id); });
  conn.hb_outstanding = false;
  conn.hb_missed = 0;

  if (conn.ever_established) stats_.setup_replays++;
  set_state(id, conn, ConnState::setup_sent);

  e2ap::SetupRequest req;
  req.trans_id = next_trans_id_++;
  req.node = cfg_.node_id;
  for (const auto& f : functions_) req.ran_functions.push_back(f->descriptor());
  FLEXRIC_TRY(send(id, e2ap::Msg{std::move(req)}));

  if (conn.factory && conn.rc.setup_timeout > 0) {
    conn.setup_timer = reactor_.add_timer(
        conn.rc.setup_timeout,
        // lint: allow(posted-lambda-lifetime) setup_timer is cancelled by cancel_conn_timers() before this agent is destroyed
        [this, id] {
          auto it = conns_.find(id);
          if (it == conns_.end()) return;
          Conn& c = it->second;
          c.setup_timer = 0;
          if (c.state != ConnState::setup_sent) return;
          LOG_WARN("agent", "controller %u: no E2 Setup response in time", id);
          // Close the half-open link; on_close drives the reconnect.
          auto t = c.transport;
          if (t)
            t->close();
          else
            on_transport_lost(id);
        },
        /*periodic=*/false);
  }
  return Status::ok();
}

void E2Agent::on_transport_lost(ControllerId id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  cancel_conn_timers(conn);
  for (auto& f : functions_) f->on_controller_detached(id);
  // Note: conn.transport is kept alive until replaced — this handler runs
  // from inside the transport's own close path.
  if (conn.factory && conn.rc.reconnect) {
    set_state(id, conn, ConnState::reconnecting);
    schedule_reconnect(id);
  } else {
    set_state(id, conn, ConnState::closed);
  }
}

void E2Agent::schedule_reconnect(ControllerId id) {
  Conn& conn = conns_[id];
  Nanos delay = next_backoff(conn.rc, conn.backoff_prev, conn.rng);
  conn.backoff_prev = delay;
  LOG_DEBUG("agent", "controller %u: retrying in %lld ms", id,
            static_cast<long long>(delay / kMilli));
  // lint: allow(posted-lambda-lifetime) retry_timer is cancelled by cancel_conn_timers() before this agent is destroyed
  conn.retry_timer = reactor_.add_timer(
      delay, [this, id] { try_reconnect(id); }, /*periodic=*/false);
}

void E2Agent::try_reconnect(ControllerId id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  conn.retry_timer = 0;
  if (conn.state != ConnState::reconnecting) return;
  auto t = conn.factory();
  bool wired = false;
  if (t.is_ok()) {
    conn.transport = std::move(*t);
    stats_.reconnects++;
    wired = wire_transport(id).is_ok();
  }
  if (wired) return;
  stats_.reconnect_failures += t.is_ok() ? 0 : 1;
  set_state(id, conn, ConnState::reconnecting);
  schedule_reconnect(id);
}

void E2Agent::start_heartbeat(ControllerId id) {
  Conn& conn = conns_[id];
  if (!conn.factory || conn.rc.heartbeat_period <= 0) return;
  if (conn.hb_timer != 0) reactor_.cancel_timer(conn.hb_timer);
  conn.hb_outstanding = false;
  conn.hb_missed = 0;
  // lint: allow(posted-lambda-lifetime) hb_timer is cancelled by cancel_conn_timers() before this agent is destroyed
  conn.hb_timer = reactor_.add_timer(
      conn.rc.heartbeat_period, [this, id] { heartbeat_tick(id); },
      /*periodic=*/true);
}

void E2Agent::heartbeat_tick(ControllerId id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  if (conn.state != ConnState::established) return;
  if (conn.hb_outstanding) {
    conn.hb_missed++;
    stats_.heartbeat_misses++;
    if (conn.hb_missed >= conn.rc.heartbeat_miss_threshold) {
      LOG_WARN("agent", "controller %u: %u heartbeats unanswered, reconnecting",
               id, conn.hb_missed);
      auto t = conn.transport;  // keep alive across the close callback
      if (t)
        t->close();
      else
        on_transport_lost(id);
      return;
    }
  }
  // Liveness probe: an empty RICserviceUpdate — protocol-conformant, acked
  // by the server without touching RanDb or iApps.
  e2ap::ServiceUpdate hb;
  hb.trans_id = next_trans_id_++;
  conn.hb_outstanding = true;
  stats_.heartbeats_tx++;
  (void)send(id, e2ap::Msg{hb});
  // Ride the heartbeat: drain whatever the link now accepts, then own up to
  // any sheds since the last report — drops are never silent.
  flush_pending(id);
  if (auto cit = conns_.find(id); cit != conns_.end())
    report_shed_delta(id, cit->second);
}

void E2Agent::cancel_conn_timers(Conn& conn) {
  if (conn.retry_timer != 0) reactor_.cancel_timer(conn.retry_timer);
  if (conn.hb_timer != 0) reactor_.cancel_timer(conn.hb_timer);
  if (conn.setup_timer != 0) reactor_.cancel_timer(conn.setup_timer);
  if (conn.flush_timer != 0) reactor_.cancel_timer(conn.flush_timer);
  conn.retry_timer = conn.hb_timer = conn.setup_timer = conn.flush_timer = 0;
  conn.hb_outstanding = false;
}

void E2Agent::set_state(ControllerId id, Conn& conn, ConnState s) {
  if (conn.state == s) return;
  conn.state = s;
  if (on_conn_event_) on_conn_event_(id, s);
}

void E2Agent::remove_controller(ControllerId id) {
  FLEXRIC_ASSERT_AFFINITY(reactor_.affinity());
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  cancel_conn_timers(it->second);
  for (auto& f : functions_) f->on_controller_detached(id);
  if (it->second.transport) {
    it->second.transport->set_on_close(nullptr);
    it->second.transport->close();
  }
  conns_.erase(it);
  for (auto& [rnti, set] : ue_assoc_) set.erase(id);
}

ConnState E2Agent::state(ControllerId id) const {
  auto it = conns_.find(id);
  return it == conns_.end() ? ConnState::closed : it->second.state;
}

void E2Agent::associate_ue(std::uint16_t rnti, ControllerId id) {
  ue_assoc_[rnti].insert(id);
}

void E2Agent::dissociate_ue(std::uint16_t rnti, ControllerId id) {
  auto it = ue_assoc_.find(rnti);
  if (it == ue_assoc_.end()) return;
  it->second.erase(id);
  if (it->second.empty()) ue_assoc_.erase(it);
}

void E2Agent::remove_ue(std::uint16_t rnti) { ue_assoc_.erase(rnti); }

bool E2Agent::ue_visible(std::uint16_t rnti, ControllerId origin) const {
  // The agent associates every UE with the first controller (§4.1.2);
  // additional controllers only see explicitly associated UEs.
  if (origin == 0) return true;
  auto it = ue_assoc_.find(rnti);
  return it != ue_assoc_.end() && it->second.count(origin) > 0;
}

// @hotpath agent-side indication send, one call per frame
Status E2Agent::send_indication(ControllerId origin,
                                const e2ap::Indication& ind) {
  FLEXRIC_ASSERT_AFFINITY(reactor_.affinity());
  auto it = conns_.find(origin);
  if (it == conns_.end()) return {Errc::io, "controller connection not open"};
  Conn& conn = it->second;
  // Buffered indications must not be overtaken: only try the wire directly
  // when the buffer is empty.
  if (conn.pending.empty()) {
    Status st = send(origin, e2ap::Msg{ind});
    if (st.is_ok()) {
      stats_.indications_tx++;
      return st;
    }
    // Only TX-buffer pressure is absorbed here; other errors (closed conn,
    // encode failure) keep their pre-overload behavior.
    if (st.code() != Errc::capacity) return st;
  }
  // Fair shedding groups by subscription, so one chatty subscription cannot
  // starve the others on the same link.
  const std::uint64_t shed_before = conn.pending.stats().shed();
  const bool admitted = conn.pending.push(ind.request.instance, ind);
  stats_.indications_shed += conn.pending.stats().shed() - shed_before;
  if (admitted) stats_.indications_queued++;
  ensure_flush_timer(origin, conn);
  // The message is accounted for (buffered or counted shed + reported on the
  // next heartbeat): from the RAN function's view the send succeeded.
  return Status::ok();
}

void E2Agent::ensure_flush_timer(ControllerId id, Conn& conn) {
  if (conn.flush_timer != 0) return;
  conn.flush_timer = reactor_.add_timer(
      kFlushPeriod,
      // lint: allow(posted-lambda-lifetime) flush_timer is cancelled by cancel_conn_timers() before this agent is destroyed
      [this, id] { flush_pending(id); }, /*periodic=*/true);
}

void E2Agent::flush_pending(ControllerId id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  while (const auto* front = conn.pending.front()) {
    Status st = send(id, e2ap::Msg{front->value});
    if (!st.is_ok()) {
      // capacity: the link is still backpressured, keep waiting. Any other
      // error (conn lost mid-flush): the buffer survives for the reconnect.
      return;
    }
    stats_.indications_tx++;
    stats_.indications_flushed++;
    (void)conn.pending.pop();
  }
  // Drained: stop ticking until backpressure next appears.
  if (conn.flush_timer != 0) {
    reactor_.cancel_timer(conn.flush_timer);
    conn.flush_timer = 0;
  }
}

void E2Agent::report_shed_delta(ControllerId id, Conn& conn) {
  const std::uint64_t total = conn.pending.stats().shed();
  if (total <= conn.sheds_reported) return;
  const std::uint64_t delta = total - conn.sheds_reported;
  e2ap::NodeConfigUpdate report;
  report.trans_id = next_trans_id_++;
  BufWriter w;
  w.u64(delta);
  report.components.emplace_back(overload::kShedReportComponent, w.take());
  if (send(id, e2ap::Msg{std::move(report)}).is_ok()) {
    conn.sheds_reported = total;
    stats_.shed_reports_tx++;
  }
  // On failure the delta stays unreported and the next heartbeat retries.
}

std::uint64_t E2Agent::start_timer(std::int64_t period_ns,
                                   std::function<void()> cb) {
  FLEXRIC_ASSERT_AFFINITY(reactor_.affinity());
  return reactor_.add_timer(period_ns, std::move(cb), /*periodic=*/true);
}

void E2Agent::cancel_timer(std::uint64_t token) {
  reactor_.cancel_timer(token);
}

Status E2Agent::send(ControllerId id, const e2ap::Msg& m) {
  auto it = conns_.find(id);
  if (it == conns_.end() || !it->second.transport ||
      !it->second.transport->is_open())
    return {Errc::io, "controller connection not open"};
  auto wire = codec_.encode(m);
  if (!wire) return wire.status();
  stats_.msgs_tx++;
  stats_.bytes_tx += wire->size();
  return it->second.transport->send(*wire);
}

void E2Agent::on_message(ControllerId id, BytesView wire) {
  stats_.msgs_rx++;
  stats_.bytes_rx += wire.size();
  if (auto cit = conns_.find(id); cit != conns_.end())
    cit->second.hb_missed = 0;  // any traffic proves the link is alive
  auto msg = codec_.decode(wire);
  if (!msg) {
    LOG_WARN("agent", "undecodable E2AP message from controller %u: %s", id,
             msg.error().to_string().c_str());
    // E2AP conformance: report the protocol error to the peer.
    e2ap::ErrorIndication err;
    err.cause = {e2ap::Cause::Group::protocol, 0 /*transfer-syntax-error*/};
    (void)send(id, e2ap::Msg{err});
    return;
  }
  std::visit(
      [this, id](auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, e2ap::SetupResponse> ||
                      std::is_same_v<T, e2ap::SetupFailure> ||
                      std::is_same_v<T, e2ap::SubscriptionRequest> ||
                      std::is_same_v<T, e2ap::SubscriptionDeleteRequest> ||
                      std::is_same_v<T, e2ap::ControlRequest> ||
                      std::is_same_v<T, e2ap::ResetRequest> ||
                      std::is_same_v<T, e2ap::ServiceUpdateAck>) {
          handle(id, m);
        } else {
          LOG_DEBUG("agent", "ignoring %s at agent",
                    e2ap::msg_type_name(e2ap::msg_type(e2ap::Msg{m})));
        }
      },
      *msg);
}

void E2Agent::handle(ControllerId id, const e2ap::SetupResponse&) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  if (conn.setup_timer != 0) {
    reactor_.cancel_timer(conn.setup_timer);
    conn.setup_timer = 0;
  }
  conn.backoff_prev = 0;
  conn.ever_established = true;
  set_state(id, conn, ConnState::established);
  start_heartbeat(id);
  // Indications buffered across the outage survive the reconnect.
  if (!conn.pending.empty()) ensure_flush_timer(id, conn);
}

void E2Agent::handle(ControllerId id, const e2ap::SetupFailure& m) {
  LOG_WARN("agent", "E2 setup failed at controller %u (cause %u/%u)", id,
           static_cast<unsigned>(m.cause.group), m.cause.value);
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  // An explicit rejection is not a link fault: retrying would loop forever.
  cancel_conn_timers(conn);
  set_state(id, conn, ConnState::failed);
}

void E2Agent::handle(ControllerId id, const e2ap::ServiceUpdateAck&) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  it->second.hb_outstanding = false;
  it->second.hb_missed = 0;
}

void E2Agent::handle(ControllerId id, const e2ap::SubscriptionRequest& m) {
  RanFunction* fn = find_function(m.ran_function_id);
  if (fn == nullptr) {
    e2ap::SubscriptionFailure fail;
    fail.request = m.request;
    fail.ran_function_id = m.ran_function_id;
    fail.cause = {e2ap::Cause::Group::ric, 0 /*ran-function-id-invalid*/};
    (void)send(id, e2ap::Msg{fail});
    return;
  }
  auto outcome = fn->on_subscription(m, id);
  if (!outcome || outcome->admitted.empty()) {
    e2ap::SubscriptionFailure fail;
    fail.request = m.request;
    fail.ran_function_id = m.ran_function_id;
    fail.cause = {e2ap::Cause::Group::ric, 1 /*action-not-supported*/};
    (void)send(id, e2ap::Msg{fail});
    return;
  }
  e2ap::SubscriptionResponse resp;
  resp.request = m.request;
  resp.ran_function_id = m.ran_function_id;
  resp.admitted = outcome->admitted;
  resp.not_admitted = outcome->not_admitted;
  (void)send(id, e2ap::Msg{resp});
}

void E2Agent::handle(ControllerId id,
                     const e2ap::SubscriptionDeleteRequest& m) {
  RanFunction* fn = find_function(m.ran_function_id);
  if (fn == nullptr || !fn->on_subscription_delete(m, id).is_ok()) {
    e2ap::SubscriptionDeleteFailure fail;
    fail.request = m.request;
    fail.ran_function_id = m.ran_function_id;
    fail.cause = {e2ap::Cause::Group::ric, 2 /*request-id-unknown*/};
    (void)send(id, e2ap::Msg{fail});
    return;
  }
  e2ap::SubscriptionDeleteResponse resp;
  resp.request = m.request;
  resp.ran_function_id = m.ran_function_id;
  (void)send(id, e2ap::Msg{resp});
}

void E2Agent::handle(ControllerId id, const e2ap::ControlRequest& m) {
  RanFunction* fn = find_function(m.ran_function_id);
  if (fn == nullptr) {
    e2ap::ControlFailure fail;
    fail.request = m.request;
    fail.ran_function_id = m.ran_function_id;
    fail.cause = {e2ap::Cause::Group::ric, 0};
    (void)send(id, e2ap::Msg{fail});
    return;
  }
  auto outcome = fn->on_control(m, id);
  if (!outcome) {
    e2ap::ControlFailure fail;
    fail.request = m.request;
    fail.ran_function_id = m.ran_function_id;
    fail.cause = {e2ap::Cause::Group::ric, 3 /*control-failed*/};
    (void)send(id, e2ap::Msg{fail});
    return;
  }
  if (m.ack_requested) {
    e2ap::ControlAck ack;
    ack.request = m.request;
    ack.ran_function_id = m.ran_function_id;
    ack.outcome = std::move(*outcome);
    (void)send(id, e2ap::Msg{ack});
  }
}

void E2Agent::handle(ControllerId id, const e2ap::ResetRequest& m) {
  for (auto& f : functions_) f->on_controller_detached(id);
  e2ap::ResetResponse resp;
  resp.trans_id = m.trans_id;
  (void)send(id, e2ap::Msg{resp});
}

}  // namespace flexric::agent
