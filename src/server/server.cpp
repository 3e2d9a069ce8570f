#include "server/server.hpp"

#include <algorithm>

#include "common/affinity.hpp"
#include "common/log.hpp"
#include "server/sharding.hpp"

namespace flexric::server {

E2Server::E2Server(Reactor& reactor, Config cfg)
    : reactor_(reactor),
      cfg_(cfg),
      codec_(e2ap::codec_for(cfg.e2ap_format)),
      ingest_(overload::PriorityQueue<Buffer>::Config{
          cfg.overload.control_queue, cfg.overload.data_queue,
          overload::ShedPolicy::fair_per_agent}) {}

E2Server::~E2Server() {
  *alive_ = false;  // posted drain tasks must not touch a dead server
  if (liveness_timer_ != 0) reactor_.cancel_timer(liveness_timer_);
  for (auto& [h, e] : ctrls_) cancel_ctrl_deadline(e);
  for (auto& [id, conn] : conns_)
    if (conn.transport) {
      conn.transport->set_on_message(nullptr);
      conn.transport->set_on_close(nullptr);
    }
}

Status E2Server::listen(std::uint16_t port) {
  FLEXRIC_ASSERT_AFFINITY(reactor_.affinity());
  listener_ = std::make_unique<TcpListener>(
      reactor_, [this](std::unique_ptr<TcpTransport> t) {
        attach(std::shared_ptr<MsgTransport>(std::move(t)));
      });
  return listener_->listen(port);
}

std::uint16_t E2Server::port() const noexcept {
  return listener_ ? listener_->port() : 0;
}

void E2Server::attach(std::shared_ptr<MsgTransport> transport) {
  FLEXRIC_ASSERT_AFFINITY(reactor_.affinity());
  AgentId id = next_agent_id_++;
  // The handlers route through a shared cell, not a captured id: when a
  // returning agent is rebound to its old AgentId the cell is rewritten
  // in place, while the handlers (possibly mid-execution) stay untouched.
  auto route = std::make_shared<AgentId>(id);
  transport->set_on_message(
      [this, route](StreamId, BytesView wire) { on_message(*route, wire); });
  transport->set_on_close([this, route]() { on_close(*route); });
  Conn& c = conns_[id];
  c.transport = std::move(transport);
  c.route = std::move(route);
  c.last_rx = reactor_.now();
  c.data_limiter = overload::RateLimiter(cfg_.overload.data_rate,
                                         cfg_.overload.data_burst);
  ensure_liveness_timer();
}

void E2Server::add_iapp(std::shared_ptr<IApp> app) {
  FLEXRIC_ASSERT_AFFINITY(reactor_.affinity());
  app->on_start(*this);
  // Replay already-connected agents so late-added iApps see the full RAN.
  for (AgentId id : db_.agents())
    if (const AgentInfo* info = db_.agent(id)) app->on_agent_connected(*info);
  iapps_.push_back(std::move(app));
}

Result<SubHandle> E2Server::subscribe(AgentId agent,
                                      std::uint16_t ran_function_id,
                                      Buffer event_trigger,
                                      std::vector<e2ap::Action> actions,
                                      SubCallbacks cbs) {
  FLEXRIC_ASSERT_AFFINITY(reactor_.affinity());
  auto it = conns_.find(agent);
  if (it == conns_.end()) return Error{Errc::not_found, "unknown agent"};
  e2ap::SubscriptionRequest req;
  req.request.requestor = cfg_.ric_id & 0xFFFF;
  req.request.instance = next_instance_++;
  req.ran_function_id = ran_function_id;
  SubHandle h{agent, req.request};
  SubEntry entry;
  entry.cbs = std::move(cbs);
  entry.ran_function_id = ran_function_id;
  entry.event_trigger = event_trigger;  // retained for replay on reconnect
  entry.actions = actions;
  req.event_trigger = std::move(event_trigger);
  req.actions = std::move(actions);
  subs_[h] = std::move(entry);
  Status st = send(agent, e2ap::Msg{std::move(req)});
  if (!st.is_ok()) {
    subs_.erase(h);
    return st.error();
  }
  return h;
}

Status E2Server::unsubscribe(const SubHandle& h) {
  FLEXRIC_ASSERT_AFFINITY(reactor_.affinity());
  auto it = subs_.find(h);
  if (it == subs_.end()) return {Errc::not_found, "unknown subscription"};
  e2ap::SubscriptionDeleteRequest req;
  req.request = h.request;
  req.ran_function_id = it->second.ran_function_id;
  // Drop the callbacks now: no further messages are delivered to the iApp
  // after it asked for deletion.
  subs_.erase(it);
  return send(h.agent, e2ap::Msg{std::move(req)});
}

Status E2Server::send_control(AgentId agent, std::uint16_t ran_function_id,
                              Buffer header, Buffer message,
                              CtrlCallbacks cbs, bool ack_requested) {
  FLEXRIC_ASSERT_AFFINITY(reactor_.affinity());
  auto it = conns_.find(agent);
  if (it == conns_.end()) return {Errc::not_found, "unknown agent"};
  e2ap::ControlRequest req;
  req.request.requestor = cfg_.ric_id & 0xFFFF;
  req.request.instance = next_instance_++;
  req.ran_function_id = ran_function_id;
  req.header = std::move(header);
  req.message = std::move(message);
  req.ack_requested = ack_requested;
  if (ack_requested) {
    SubHandle h{agent, req.request};
    CtrlEntry entry{std::move(cbs), ran_function_id};
    if (cfg_.overload.ctrl_deadline > 0)
      entry.deadline_timer = reactor_.add_timer(
          cfg_.overload.ctrl_deadline,
          // lint: allow(posted-lambda-lifetime) deadline timers are cancelled on txn completion and in ~E2Server
          [this, h] { ctrl_deadline_expired(h); }, /*periodic=*/false);
    ctrls_[h] = std::move(entry);
  }
  return send(agent, e2ap::Msg{std::move(req)});
}

Status E2Server::send(AgentId id, const e2ap::Msg& m) {
  auto it = conns_.find(id);
  if (it == conns_.end() || !it->second.transport ||
      !it->second.transport->is_open())
    return {Errc::io, "agent connection not open"};
  auto wire = codec_.encode(m);
  if (!wire) return wire.status();
  stats_.msgs_tx++;
  stats_.bytes_tx += wire->size();
  return it->second.transport->send(*wire);
}

void E2Server::on_close(AgentId id) {
  auto it = conns_.find(id);
  const bool retain = cfg_.expire_after > 0 &&
                      it != conns_.end() && it->second.established &&
                      db_.agent(id) != nullptr;
  if (!retain) {
    drop_agent(id);
    return;
  }
  Conn& c = it->second;
  // In-flight control transactions die with the link either way: an answer
  // can never arrive for a request the agent may not have seen.
  fail_ctrls(id);
  // This runs from inside the transport's own close path; destroying it
  // here would be use-after-free. Park the reference until the next loop
  // turn instead.
  if (c.transport) reactor_.post([t = std::move(c.transport)] {});
  c.route.reset();
  c.established = false;
  c.quarantined = false;
  c.detached = true;
  c.detached_at = reactor_.now();
  if (const AgentInfo* old = db_.agent(id)) {
    AgentInfo info = *old;
    info.connected = false;
    db_.add_agent(info);
  }
  LOG_INFO("server", "agent %u detached, retained for %lld ms", id,
           static_cast<long long>(cfg_.expire_after / kMilli));
  // iApps are deliberately not told "disconnected": the agent is
  // momentarily unreachable; reconnection or expiry resolves it.
  ensure_liveness_timer();
}

void E2Server::drop_agent(AgentId id) {
  auto it = conns_.find(id);
  if (it != conns_.end()) {
    // May run inside the transport's own close path (on_close): destroying
    // it here would be use-after-free, so it dies on the next loop turn.
    if (it->second.transport)
      reactor_.post([t = std::move(it->second.transport)] {});
    conns_.erase(it);
  }
  fail_ctrls(id);
  if (db_.agent(id) != nullptr) {
    db_.remove_agent(id);
    for (auto& app : iapps_) app->on_agent_disconnected(id);
  }
  // Drop dangling subscriptions of this agent.
  std::erase_if(subs_, [id](const auto& kv) { return kv.first.agent == id; });
}

void E2Server::fail_ctrls(AgentId id) {
  for (auto it = ctrls_.begin(); it != ctrls_.end();) {
    if (it->first.agent != id) {
      ++it;
      continue;
    }
    e2ap::ControlFailure fail;
    fail.request = it->first.request;
    fail.ran_function_id = it->second.ran_function_id;
    fail.cause = {e2ap::Cause::Group::transport, 0 /*unspecified*/};
    cancel_ctrl_deadline(it->second);
    CtrlCallbacks cbs = std::move(it->second.cbs);
    it = ctrls_.erase(it);
    stats_.ctrls_failed_on_loss++;
    if (cbs.on_failure) cbs.on_failure(fail);
  }
}

void E2Server::cancel_ctrl_deadline(CtrlEntry& e) {
  if (e.deadline_timer != 0) {
    reactor_.cancel_timer(e.deadline_timer);
    e.deadline_timer = 0;
  }
}

void E2Server::ctrl_deadline_expired(const SubHandle& h) {
  auto it = ctrls_.find(h);
  if (it == ctrls_.end()) return;
  it->second.deadline_timer = 0;  // the firing timer is already gone
  e2ap::ControlFailure fail;
  fail.request = h.request;
  fail.ran_function_id = it->second.ran_function_id;
  // Deadline budget exhausted: fail fast with a transport cause — from the
  // iApp's perspective the outcome equals a lost link, and it must not keep
  // waiting on an answer that may never come (DESIGN.md §11).
  fail.cause = {e2ap::Cause::Group::transport, 0 /*unspecified*/};
  CtrlCallbacks cbs = std::move(it->second.cbs);
  ctrls_.erase(it);
  stats_.ctrls_deadline_expired++;
  LOG_WARN("server", "control txn (agent %u, instance %u) missed its deadline",
           h.agent, h.request.instance);
  if (cbs.on_failure) cbs.on_failure(fail);
}

void E2Server::expire_agent(AgentId id) {
  stats_.expiries++;
  LOG_INFO("server", "agent %u expired", id);
  auto it = conns_.find(id);
  if (it != conns_.end() && it->second.transport) {
    // Detach first: our own close must not re-enter on_close.
    it->second.transport->set_on_message(nullptr);
    it->second.transport->set_on_close(nullptr);
    it->second.transport->close();
  }
  drop_agent(id);
}

void E2Server::liveness_scan() {
  const Nanos t_now = reactor_.now();
  // In id order, so iApps hear of quarantines and expiries in the same
  // order whatever the hash table's layout.
  std::vector<AgentId> ids;
  ids.reserve(conns_.size());
  for (const auto& kv : conns_) ids.push_back(kv.first);
  std::sort(ids.begin(), ids.end());
  std::vector<AgentId> to_expire;
  for (AgentId id : ids) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    Conn& c = it->second;
    if (c.detached) {
      if (cfg_.expire_after > 0 && t_now - c.detached_at >= cfg_.expire_after)
        to_expire.push_back(id);
      continue;
    }
    if (!c.established || cfg_.quarantine_after <= 0) continue;
    const Nanos idle = t_now - c.last_rx;
    if (!c.quarantined && idle >= cfg_.quarantine_after) {
      c.quarantined = true;
      stats_.quarantines++;
      LOG_WARN("server", "agent %u quarantined (idle %lld ms)", id,
               static_cast<long long>(idle / kMilli));
      for (auto& app : iapps_) app->on_agent_quarantined(id);
    }
    if (c.quarantined && cfg_.expire_after > 0 && idle >= cfg_.expire_after)
      to_expire.push_back(id);
  }
  for (AgentId id : to_expire) expire_agent(id);
}

void E2Server::ensure_liveness_timer() {
  if (liveness_timer_ != 0) return;
  Nanos period = cfg_.quarantine_after > 0 ? cfg_.quarantine_after / 2
                                           : cfg_.expire_after / 2;
  if (period <= 0) return;
  if (period < kMilli) period = kMilli;
  liveness_timer_ =
      // lint: allow(posted-lambda-lifetime) liveness_timer_ is cancelled in ~E2Server before `this` goes away
      reactor_.add_timer(period, [this] { liveness_scan(); }, /*periodic=*/true);
}

AgentId E2Server::find_detached(const e2ap::GlobalNodeId& node) const {
  AgentId found = 0;
  for (const auto& [cid, c] : conns_) {
    if (!c.detached || (found != 0 && found < cid)) continue;
    const AgentInfo* info = db_.agent(cid);
    if (info != nullptr && info->node == node) found = cid;
  }
  return found;
}

void E2Server::replay_subscriptions(AgentId id) {
  // In handle order: the replayed requests go out as they first did.
  std::vector<std::pair<SubHandle, SubEntry*>> mine;
  for (auto& [h, entry] : subs_)
    if (h.agent == id) mine.emplace_back(h, &entry);
  std::sort(mine.begin(), mine.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [h, e] : mine) {
    SubEntry& entry = *e;
    e2ap::SubscriptionRequest req;
    req.request = h.request;  // same RICrequestID: the iApp handle stays valid
    req.ran_function_id = entry.ran_function_id;
    req.event_trigger = entry.event_trigger;
    req.actions = entry.actions;
    entry.replaying = true;
    stats_.subs_replayed++;
    (void)send(id, e2ap::Msg{std::move(req)});
  }
}

void E2Server::on_message(AgentId id, BytesView wire) {
  stats_.msgs_rx++;
  stats_.bytes_rx += wire.size();
  auto cit = conns_.find(id);
  if (cit != conns_.end()) {
    cit->second.last_rx = reactor_.now();
    cit->second.quarantined = false;  // any traffic lifts the quarantine
  }
  const OverloadConfig& ov = cfg_.overload;
  if (!ov.enabled || cit == conns_.end()) {
    stats_.dispatched++;
    dispatch(id, wire);
    return;
  }

  // Admission control (DESIGN.md §11). Classify without a full decode —
  // both codecs lead with the message-type tag — so a frame that will be
  // shed never costs decode cycles. Unclassifiable frames ride the CONTROL
  // lane: the drain path's decode reports the protocol error as before.
  Conn& c = cit->second;
  const Nanos t_now = reactor_.now();
  maybe_recover_flood(id, c, t_now);
  auto type = codec_.peek_type(wire);
  const bool is_data = type.is_ok() && *type == e2ap::MsgType::indication;
  if (is_data) {
    if (c.flood_quarantined) {  // DATA is dropped at the door until cooldown
      stats_.flood_shed++;
      return;
    }
    if (!c.data_limiter.admit(t_now)) {
      stats_.rate_shed++;
      note_flood_drop(id, c, t_now);
      return;
    }
  }
  // Delta accounting, not the push() result: under drop_oldest / fair the
  // newcomer is admitted by evicting an already-queued frame, and that
  // eviction must land in queue_shed too or msgs_rx stops reconciling. A
  // push only ever evicts from its own class, so a DATA push's delta is
  // all indications.
  const std::uint64_t shed_before = ingest_.shed();
  (void)ingest_.push(is_data ? overload::MsgClass::data
                             : overload::MsgClass::control,
                     id, Buffer(wire.begin(), wire.end()));
  const std::uint64_t shed = ingest_.shed() - shed_before;
  stats_.queue_shed += shed;
  if (is_data) stats_.data_queue_shed += shed;
  schedule_drain();
}

void E2Server::maybe_recover_flood(AgentId id, Conn& c, Nanos t_now) {
  if (!c.flood_quarantined || t_now < c.flood_until) return;
  c.flood_quarantined = false;
  c.flood_drops = 0;
  // Fresh bucket: the agent earned a clean slate, not a debt.
  c.data_limiter = overload::RateLimiter(cfg_.overload.data_rate,
                                         cfg_.overload.data_burst);
  stats_.flood_recoveries++;
  LOG_INFO("server", "agent %u recovered from flood-quarantine", id);
  if (const AgentInfo* info = db_.agent(id))
    for (auto& app : iapps_) app->on_agent_reconnected(*info);
}

void E2Server::note_flood_drop(AgentId id, Conn& c, Nanos t_now) {
  const OverloadConfig& ov = cfg_.overload;
  if (ov.flood_threshold == 0) return;
  if (t_now - c.flood_window_start >= ov.flood_window) {
    c.flood_window_start = t_now;
    c.flood_drops = 0;
  }
  if (++c.flood_drops < ov.flood_threshold) return;
  // Escalate: throttling is not containing this peer. Quarantine its DATA
  // entirely for the cooldown; CONTROL still passes so the agent can keep
  // its session (heartbeats, subscription answers) alive.
  c.flood_quarantined = true;
  c.flood_until = t_now + ov.flood_cooldown;
  c.flood_drops = 0;
  stats_.flood_quarantines++;
  LOG_WARN("server", "agent %u flood-quarantined for %lld ms", id,
           static_cast<long long>(ov.flood_cooldown / kMilli));
  for (auto& app : iapps_) app->on_agent_quarantined(id);
}

void E2Server::schedule_drain() {
  if (drain_scheduled_ || ingest_.empty()) return;
  drain_scheduled_ = true;
  reactor_.post([this, alive = alive_] {
    if (!*alive) return;
    drain_scheduled_ = false;
    drain_ingest();
  });
}

void E2Server::drain_ingest() {
  std::size_t budget = cfg_.overload.dispatch_batch;
  if (budget == 0) budget = 1;
  while (budget-- > 0) {
    auto item = ingest_.pop();  // CONTROL strictly before DATA
    if (!item) return;
    stats_.dispatched++;
    dispatch(item->origin, BytesView(item->value));
  }
  schedule_drain();  // backlog remains: yield the loop, then continue
}

// @hotpath every decoded frame funnels through here
void E2Server::dispatch(AgentId id, BytesView wire) {
  auto msg = codec_.decode(wire);
  if (!msg) {
    LOG_WARN("server", "undecodable E2AP message from agent %u: %s", id,
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
        if constexpr (std::is_same_v<T, e2ap::SetupRequest> ||
                      std::is_same_v<T, e2ap::SubscriptionResponse> ||
                      std::is_same_v<T, e2ap::SubscriptionFailure> ||
                      std::is_same_v<T, e2ap::SubscriptionDeleteResponse> ||
                      std::is_same_v<T, e2ap::Indication> ||
                      std::is_same_v<T, e2ap::ControlAck> ||
                      std::is_same_v<T, e2ap::ControlFailure> ||
                      std::is_same_v<T, e2ap::ServiceUpdate> ||
                      std::is_same_v<T, e2ap::NodeConfigUpdate>) {
          handle(id, m);
        } else {
          LOG_DEBUG("server", "ignoring %s at server",
                    e2ap::msg_type_name(e2ap::msg_type(e2ap::Msg{m})));
        }
      },
      *msg);
}

// @coldpath one-shot handshake, not on the indication path
void E2Server::handle(AgentId id, const e2ap::SetupRequest& m) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;

  if (cfg_.num_shards > 1 &&
      shard_of(m.node, cfg_.num_shards) != cfg_.shard) {
    // Sharded deployment, wrong door: this node id hashes to another
    // shard's reactor. Serving it here would break the shard-isolation
    // invariant (its state would live in the wrong single-threaded
    // universe), so reject loudly. Teardown is deferred one turn — the
    // transport's own handler is on the stack right now.
    stats_.misrouted++;
    LOG_WARN("server", "node %u/%u misrouted to shard %u (owner %u)",
             m.node.plmn, m.node.nb_id, cfg_.shard,
             shard_of(m.node, cfg_.num_shards));
    auto alive = alive_;
    reactor_.post([this, alive, id] {
      if (*alive) expire_agent(id);
    });
    return;
  }

  bool reconnected = false;
  if (AgentId old_id = find_detached(m.node); old_id != 0 && old_id != id) {
    // The node came back: splice the fresh transport into its old identity
    // so subscriptions, handles and the RanDb entry survive. Rewriting the
    // route cell redirects the (currently executing) transport handlers.
    Conn fresh = std::move(it->second);
    conns_.erase(it);
    *fresh.route = old_id;
    Conn& old_conn = conns_[old_id];
    old_conn.transport = std::move(fresh.transport);
    old_conn.route = std::move(fresh.route);
    old_conn.detached = false;
    old_conn.quarantined = false;
    old_conn.last_rx = reactor_.now();
    id = old_id;
    it = conns_.find(id);
    reconnected = true;
    stats_.reconnects++;
    LOG_INFO("server", "agent %u re-established", id);
  }
  it->second.established = true;

  AgentInfo info;
  info.id = id;
  info.node = m.node;
  info.functions = m.ran_functions;
  info.connected = true;
  bool formed = db_.add_agent(info);

  e2ap::SetupResponse resp;
  resp.trans_id = m.trans_id;
  resp.ric_id = cfg_.ric_id;
  for (const auto& f : m.ran_functions) resp.accepted.push_back(f.id);
  (void)send(id, e2ap::Msg{std::move(resp)});

  if (reconnected) {
    for (auto& app : iapps_) app->on_agent_reconnected(info);
    replay_subscriptions(id);
    return;  // the entity never dissolved: no on_ran_formed churn
  }
  for (auto& app : iapps_) app->on_agent_connected(info);
  if (formed) {
    const RanEntity* e = db_.entity(m.node.plmn, m.node.nb_id);
    if (e != nullptr)
      for (auto& app : iapps_) app->on_ran_formed(*e);
  }
}

// @coldpath subscription lifecycle, not on the indication path
void E2Server::handle(AgentId id, const e2ap::SubscriptionResponse& m) {
  auto it = subs_.find(SubHandle{id, m.request});
  if (it == subs_.end()) return;
  if (it->second.replaying) {
    // Transparent re-establishment: the iApp already saw on_response at the
    // original subscribe; surfacing it again would look like a new grant.
    it->second.replaying = false;
    return;
  }
  if (it->second.cbs.on_response) it->second.cbs.on_response(m);
}

// @coldpath subscription lifecycle, not on the indication path
void E2Server::handle(AgentId id, const e2ap::SubscriptionFailure& m) {
  SubHandle h{id, m.request};
  auto it = subs_.find(h);
  if (it != subs_.end()) {
    // A replay rejection is a real failure — the iApp must learn its
    // subscription did not survive the reconnect.
    if (it->second.cbs.on_failure) it->second.cbs.on_failure(m);
    subs_.erase(h);
  }
}

// @coldpath subscription lifecycle, not on the indication path
void E2Server::handle(AgentId, const e2ap::SubscriptionDeleteResponse&) {
  // Callbacks were already dropped in unsubscribe(); nothing to do.
}

// @hotpath one call per telemetry indication frame
void E2Server::handle(AgentId id, const e2ap::Indication& m) {
  stats_.indications_rx++;
  // The subscription management selects the iApp for which the message is
  // destined and forwards it through the provided callback (§4.2.2).
  auto it = subs_.find(SubHandle{id, m.request});
  if (it == subs_.end()) {
    stats_.orphan_indications++;
    LOG_DEBUG("server", "indication for unknown subscription (agent %u)", id);
    return;
  }
  if (it->second.cbs.on_indication) it->second.cbs.on_indication(m);
}

// @coldpath control-plane response, not on the indication path
void E2Server::handle(AgentId id, const e2ap::ControlAck& m) {
  SubHandle h{id, m.request};
  auto it = ctrls_.find(h);
  if (it == ctrls_.end()) return;
  cancel_ctrl_deadline(it->second);
  auto cbs = std::move(it->second.cbs);
  ctrls_.erase(it);
  if (cbs.on_ack) cbs.on_ack(m);
}

// @coldpath control-plane response, not on the indication path
void E2Server::handle(AgentId id, const e2ap::ControlFailure& m) {
  SubHandle h{id, m.request};
  auto it = ctrls_.find(h);
  if (it == ctrls_.end()) return;
  cancel_ctrl_deadline(it->second);
  auto cbs = std::move(it->second.cbs);
  ctrls_.erase(it);
  if (cbs.on_failure) cbs.on_failure(m);
}

// @coldpath service management, not on the indication path
void E2Server::handle(AgentId id, const e2ap::ServiceUpdate& m) {
  if (m.added.empty() && m.modified.empty() && m.removed.empty()) {
    // Agent heartbeat probe: ack it without touching the RAN DB or waking
    // iApps — liveness traffic must not look like capability churn.
    stats_.heartbeats_rx++;
    e2ap::ServiceUpdateAck ack;
    ack.trans_id = m.trans_id;
    (void)send(id, e2ap::Msg{std::move(ack)});
    return;
  }
  // Update the RAN DB and acknowledge everything (no policy at the server).
  if (const AgentInfo* old = db_.agent(id)) {
    AgentInfo info = *old;
    for (const auto& f : m.added) info.functions.push_back(f);
    for (const auto& f : m.modified)
      for (auto& existing : info.functions)
        if (existing.id == f.id) existing = f;
    for (std::uint16_t rem : m.removed)
      std::erase_if(info.functions,
                    [rem](const auto& f) { return f.id == rem; });
    db_.add_agent(info);
    for (auto& app : iapps_) app->on_agent_updated(info);
  }
  e2ap::ServiceUpdateAck ack;
  ack.trans_id = m.trans_id;
  for (const auto& f : m.added) ack.accepted.push_back(f.id);
  for (const auto& f : m.modified) ack.accepted.push_back(f.id);
  (void)send(id, e2ap::Msg{std::move(ack)});
}

// @coldpath config management, not on the indication path
void E2Server::handle(AgentId id, const e2ap::NodeConfigUpdate& m) {
  e2ap::NodeConfigUpdateAck ack;
  ack.trans_id = m.trans_id;
  for (const auto& [name, blob] : m.components) {
    if (name == overload::kShedReportComponent) {
      // Agent-side shed report (one LE u64 delta): the peer had to drop
      // indications under backpressure and says so — zero silent drops.
      BufReader r{BytesView(blob)};
      if (auto delta = r.u64(); delta.is_ok()) {
        stats_.agent_reported_sheds += *delta;
        LOG_DEBUG("server", "agent %u reported %llu shed indications", id,
                  static_cast<unsigned long long>(*delta));
      }
    }
    ack.accepted_components.push_back(name);
  }
  (void)send(id, e2ap::Msg{std::move(ack)});
}

}  // namespace flexric::server
