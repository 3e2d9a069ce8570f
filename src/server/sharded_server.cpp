#include "server/sharded_server.hpp"

#include "common/log.hpp"
#include "server/supervisor.hpp"

namespace flexric::server {

// ---------------------------------------------------------------------------
// Relay: the per-shard half of every cross-shard path
// ---------------------------------------------------------------------------

// One Relay runs inside each shard's E2Server as an ordinary iApp, entirely
// on that shard's reactor thread; its only outputs are ring pushes and
// counter-board publishes (each one also the shard's heartbeat). Everything
// it owns is shard-affine.
// @affine(shard)
class ShardedE2Server::Relay final : public IApp {
 public:
  Relay(std::uint32_t shard, Cell& cell, ShardCounterBoard& board)
      : shard_(shard),
        cell_(cell),
        board_(board),
        epoch_(board.epoch_of(shard)) {}

  ~Relay() override { *alive_ = false; }

  [[nodiscard]] const char* name() const override { return "shard-relay"; }

  void on_start(E2Server& server) override {
    IApp::on_start(server);
    server.reactor().add_timer(
        ShardSupervisor::kHeartbeatPeriod,
        [this, alive = std::weak_ptr<bool>(alive_)] {
          auto a = alive.lock();
          if (!a || !*a) return;
          publish();
        },
        /*periodic=*/true);
  }

  void on_agent_connected(const AgentInfo& info) override {
    push_upsert(info);
    maybe_subscribe_fanout(info);
  }
  void on_agent_updated(const AgentInfo& info) override { push_upsert(info); }
  void on_agent_reconnected(const AgentInfo& info) override {
    // Re-establishment keeps the AgentId and replays subscriptions
    // transparently (server.cpp), so the fan-out subscription survives; the
    // directory only needs the refreshed info.
    push_upsert(info);
  }
  void on_agent_disconnected(AgentId id) override {
    DirEvent ev;
    ev.kind = DirEvent::Kind::remove;
    ev.id = id;
    if (!push_event(std::move(ev))) note_event_lost();
  }

  /// Arm cross-shard fan-out (home thread, before agents connect — or
  /// during a rebuild, before the replacement server starts).
  void set_fanout(std::uint16_t fn_id, Buffer trigger,
                  std::vector<e2ap::Action> actions) {
    fanout_fn_ = fn_id;
    fanout_trigger_ = std::move(trigger);
    fanout_actions_ = std::move(actions);
    fanout_armed_ = true;
  }

  /// Home lost directory events (ring overflow): ship a full snapshot.
  /// Retried from the publish timer until the ring accepts it.
  void request_resync() {
    pending_resync_ = true;
    try_resync();
  }

  void note_reply_shed() { own_.reply_shed++; }

  /// One untorn ledger image of this shard right now. Shard-thread normally;
  /// the home thread may call it during a manual-mode rebuild harvest (the
  /// corpse loop is provably not running — one thread owns every domain).
  [[nodiscard]] ShardLedger collect() const {
    ShardLedger v = server_->ledger();
    add_counters(v, own_);
    return v;
  }

  /// Copy the shard's ledger into its cache-aligned board slot, stamped
  /// with this loop's time: the beat the watchdog reads (DESIGN.md §15).
  /// Runs on the shard thread (timer); the board is the cross-thread-
  /// readable face. The epoch stamp keeps a retired incarnation off the
  /// replacement's slot.
  void publish() {
    board_.publish(shard_, collect(), epoch_, server_->reactor().now());
    if (pending_resync_) try_resync();
  }

 private:
  /// Every directory event funnels through here so the ring's producer end
  /// has exactly one call site (the SPSC contract is structural, and the
  /// atomics-order pass counts sites).
  [[nodiscard]] bool push_event(DirEvent&& ev) {
    // @producer(shard-dir-events)
    return cell_.events->try_push(std::move(ev)).is_ok();
  }

  void push_upsert(const AgentInfo& info) {
    DirEvent ev;
    ev.kind = DirEvent::Kind::upsert;
    ev.info = info;
    if (!push_event(std::move(ev))) note_event_lost();
  }

  void note_event_lost() {
    own_.dir_events_lost++;
    // Board update rides the next publish tick; home reacts by requesting
    // a snapshot resync, so a lossy spell degrades to a bounded staleness
    // window, never to silent divergence.
  }

  void try_resync() {
    DirEvent ev;
    ev.kind = DirEvent::Kind::snapshot;
    ev.agents = server_->ran_db().snapshot();
    if (push_event(std::move(ev))) pending_resync_ = false;
  }

  void maybe_subscribe_fanout(const AgentInfo& info) {
    if (!fanout_armed_) return;
    bool offers = false;
    for (const auto& f : info.functions)
      if (f.id == fanout_fn_) offers = true;
    if (!offers) return;
    SubCallbacks cbs;
    const AgentId local = info.id;
    cbs.on_response = [](const e2ap::SubscriptionResponse&) {};
    cbs.on_failure = [](const e2ap::SubscriptionFailure&) {};
    cbs.on_indication = [this, local](const e2ap::Indication& ind) {
      FanoutIndication fi;
      fi.shard = shard_;
      fi.agent = global_agent_id(shard_, local);
      fi.ind = ind;
      // @producer(shard-fanout)
      if (!cell_.fanout->try_push(std::move(fi)).is_ok()) own_.fanout_shed++;
    };
    (void)server_->subscribe(local, fanout_fn_, fanout_trigger_,
                             fanout_actions_, std::move(cbs));
  }

  std::uint32_t shard_;
  Cell& cell_;
  ShardCounterBoard& board_;
  std::uint64_t epoch_;
  bool fanout_armed_ = false;
  std::uint16_t fanout_fn_ = 0;
  Buffer fanout_trigger_;
  std::vector<e2ap::Action> fanout_actions_;
  /// The ring overflows only the relay sees (fanout_shed, reply_shed,
  /// dir_events_lost); collect() adds them to the server's ledger.
  ShardLedger own_;
  bool pending_resync_ = false;
  // Guards the periodic publish timer: the shard reactor outlives its
  // servers during teardown, so the timer may fire after the Relay is gone.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

// ---------------------------------------------------------------------------
// ShardedE2Server
// ---------------------------------------------------------------------------

ShardedE2Server::ShardedE2Server(ShardPool& pool, ShardedConfig cfg)
    : pool_(pool),
      cfg_(std::move(cfg)),
      cells_(pool.size()),
      ports_(pool.size(), 0),
      board_(pool.size()),
      accepting_(pool.size(), 1),
      retired_ledgers_(pool.size()) {
  for (std::uint32_t i = 0; i < pool_.size(); ++i) build_cell(i);
  supervisor_ = std::make_unique<ShardSupervisor>(*this, cfg_.auto_restart);
}

ShardedE2Server::~ShardedE2Server() {
  // Cells of force-restarted threaded shards may still be visited by their
  // wedged (detached) loop thread: leak them deliberately, mirroring
  // ShardPool's retired reactors. The OS reclaims at process exit.
  for (auto& c : retired_cells_) (void)c.release();
}

void ShardedE2Server::build_cell(std::uint32_t i) {
  cells_[i] = std::make_unique<Cell>();
  Cell& cell = *cells_[i];
  cell.events = std::make_unique<SpscRing<DirEvent>>(cfg_.event_ring);
  cell.fanout = std::make_unique<SpscRing<FanoutIndication>>(kFanoutRing);
  cell.replies = std::make_unique<SpscRing<QueryReply>>(kReplyRing);
  E2Server::Config scfg = cfg_.server;
  scfg.shard = i;
  scfg.num_shards = pool_.size();
  cell.server = std::make_unique<E2Server>(pool_.reactor(i), scfg);
  cell.relay = std::make_shared<Relay>(i, cell, board_);
  if (fanout_armed_)
    cell.relay->set_fanout(fanout_fn_, fanout_trigger_, fanout_actions_);
  cell.server->add_iapp(cell.relay);
  for (const IAppFactory& f : factories_) cell.server->add_iapp(f(i));
}

Status ShardedE2Server::listen_all(std::uint16_t base_port) {
  for (std::uint32_t i = 0; i < num_shards(); ++i) {
    const std::uint16_t want =
        base_port == 0 ? 0 : static_cast<std::uint16_t>(base_port + i);
    Status st = cells_[i]->server->listen(want);
    if (!st.is_ok()) return st;
    ports_[i] = cells_[i]->server->port();
  }
  return Status::ok();
}

void ShardedE2Server::add_iapp_factory(const IAppFactory& factory) {
  factories_.push_back(factory);
  for (std::uint32_t i = 0; i < num_shards(); ++i)
    cells_[i]->server->add_iapp(factory(i));
}

void ShardedE2Server::subscribe_fanout(std::uint16_t fn_id, Buffer trigger,
                                       std::vector<e2ap::Action> actions,
                                       FanoutHandler handler) {
  FLEXRIC_ASSERT_AFFINITY(home_);
  fanout_handler_ = std::move(handler);
  // Kept home-side too, so a rebuilt shard's replacement relay re-arms.
  fanout_armed_ = true;
  fanout_fn_ = fn_id;
  fanout_trigger_ = trigger;
  fanout_actions_ = actions;
  // Pre-start configuration: the shards' loops are not running yet (the
  // documented call order), so setting relay state directly is safe.
  for (auto& cell : cells_) cell->relay->set_fanout(fn_id, trigger, actions);
}

int ShardedE2Server::drain_events(std::uint32_t shard) {
  int handled = 0;
  DirEvent ev;
  // @consumer(shard-dir-events)
  while (cells_[shard]->events->try_pop(ev)) {
    apply_dir_event(shard, ev);
    handled++;
  }
  return handled;
}

int ShardedE2Server::drain_fanout(std::uint32_t shard, bool deliver) {
  int handled = 0;
  FanoutIndication fi;
  // @consumer(shard-fanout)
  while (cells_[shard]->fanout->try_pop(fi)) {
    if (deliver) {
      if (fanout_handler_) fanout_handler_(fi);
    } else {
      // Recovery drain: indications parked by a condemned incarnation are
      // shed with exact accounting, never delivered stale post-restart.
      supervisor_shed_++;
    }
    handled++;
  }
  return handled;
}

int ShardedE2Server::drain_replies(std::uint32_t shard, bool deliver) {
  int handled = 0;
  QueryReply qr;
  // @consumer(shard-replies)
  while (cells_[shard]->replies->try_pop(qr)) {
    auto it = pending_.find(qr.id);
    if (it != pending_.end()) {
      if (deliver) {
        QueryDone done = std::move(it->second.done);
        pending_.erase(it);
        if (done) done(Result<std::string>(std::move(qr.payload)));
      }
      // !deliver: leave the entry; containment fails it with a cause.
    }
    handled++;
  }
  return handled;
}

int ShardedE2Server::pump_home() {
  FLEXRIC_ASSERT_AFFINITY(home_);
  int handled = 0;
  // Fixed drain order — shard 0 first, directory before fan-out before
  // replies — is part of the deterministic scheduling contract (§13).
  for (std::uint32_t i = 0; i < num_shards(); ++i) handled += drain_events(i);
  for (std::uint32_t i = 0; i < num_shards(); ++i)
    handled += drain_fanout(i, /*deliver=*/true);
  for (std::uint32_t i = 0; i < num_shards(); ++i)
    handled += drain_replies(i, /*deliver=*/true);
  const std::uint64_t lost = global_ledger().dir_events_lost;
  if (lost > seen_events_lost_) request_resyncs();
  return handled;
}

void ShardedE2Server::apply_dir_event(std::uint32_t shard, DirEvent& ev) {
  switch (ev.kind) {
    case DirEvent::Kind::upsert: {
      AgentInfo g = std::move(ev.info);
      const e2ap::GlobalNodeId node = g.node;
      g.id = global_agent_id(shard, g.id);
      const bool formed = directory_.add_agent(g);
      if (formed && on_ran_formed_) {
        const RanEntity* e = directory_.entity(node.plmn, node.nb_id);
        if (e != nullptr) on_ran_formed_(*e);
      }
      break;
    }
    case DirEvent::Kind::remove:
      directory_.remove_agent(global_agent_id(shard, ev.id));
      break;
    case DirEvent::Kind::snapshot: {
      // Rebuild this shard's slice of the merged view from scratch: the
      // incremental stream was lossy (ring overflow) or the shard was
      // restarted; the snapshot is authoritative.
      resyncs_++;
      for (AgentId gid : directory_.agents())
        if (shard_of_global(gid) == shard) directory_.remove_agent(gid);
      for (AgentInfo& info : ev.agents) {
        const e2ap::GlobalNodeId node = info.node;
        info.id = global_agent_id(shard, info.id);
        const bool formed = directory_.add_agent(info);
        if (formed && on_ran_formed_) {
          const RanEntity* e = directory_.entity(node.plmn, node.nb_id);
          if (e != nullptr) on_ran_formed_(*e);
        }
      }
      break;
    }
  }
}

void ShardedE2Server::request_resyncs() {
  bool all_posted = true;
  for (std::uint32_t i = 0; i < num_shards(); ++i) {
    if (!accepting_[i]) continue;  // a quarantined shard resyncs on rebuild
    Relay* relay = cells_[i]->relay.get();
    if (!pool_.post(i, [relay] { relay->request_resync(); }).is_ok())
      all_posted = false;
  }
  // Only acknowledge the loss once every shard accepted the resync request;
  // a full injector ring just means we retry on the next pump.
  if (all_posted) seen_events_lost_ = global_ledger().dir_events_lost;
}

Status ShardedE2Server::query(std::uint32_t shard,
                              std::function<std::string(E2Server&)> job,
                              QueryDone done) {
  FLEXRIC_ASSERT_AFFINITY(home_);
  if (!accepting_[shard]) {
    queries_failed_++;
    return Status{Errc::rejected, "shard quarantined"};
  }
  const std::uint64_t id = ++next_query_id_;
  Cell* cell = cells_[shard].get();
  Status st =
      pool_.post(shard, [cell, id, job = std::move(job)] {
        QueryReply qr;
        qr.id = id;
        qr.payload = job(*cell->server);
        // @producer(shard-replies)
        if (!cell->replies->try_push(std::move(qr)).is_ok())
          cell->relay->note_reply_shed();
      });
  if (!st.is_ok()) return st;
  pending_.emplace(id, PendingQuery{shard, std::move(done)});
  return Status::ok();
}

void ShardedE2Server::fail_pending_queries(std::uint32_t shard) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.shard != shard) {
      ++it;
      continue;
    }
    QueryDone done = std::move(it->second.done);
    it = pending_.erase(it);
    queries_failed_++;
    // Transport-style cause: to the caller this is indistinguishable from
    // the connection to that shard being reset under the query.
    if (done)
      done(Result<std::string>(Errc::io,
                               "shard quarantined: connection reset"));
  }
}

void ShardedE2Server::contain_shard(std::uint32_t shard) {
  FLEXRIC_ASSERT_AFFINITY(home_);
  accepting_[shard] = 0;
  fail_pending_queries(shard);
}

void ShardedE2Server::rebuild_shard(std::uint32_t shard) {
  FLEXRIC_ASSERT_AFFINITY(home_);
  accepting_[shard] = 0;
  fail_pending_queries(shard);
  // Parked directory events are authoritative lifecycle facts: deliver
  // them before the slice is wiped. Parked fan-out indications belong to a
  // condemned incarnation: shed with exact accounting (supervisor_shed).
  // Parked replies answer queries containment already failed: drop.
  drain_events(shard);
  drain_fanout(shard, /*deliver=*/false);
  drain_replies(shard, /*deliver=*/false);
  // Harvest the corpse's ledger into the retired total so the global
  // ledger stays monotone across the restart. Manual mode reads the server
  // directly — exact, the loop is provably not running (one thread owns
  // every domain; the home_ guard above is that proof). Threaded mode
  // settles for the last published image, at most one publish period
  // stale.
  const bool manual = pool_.mode() == ShardPool::Mode::manual;
  ShardLedger harvest;
  if (manual && cells_[shard]->relay) {
    harvest = cells_[shard]->relay->collect();
  } else {
    harvest = board_.read(shard);
  }
  // Frames admitted but still queued die with the ingest queue: that loss
  // is supervision's doing. The retired ledger counts them as stranded, so
  // the server equation still closes; their DATA share also lands in
  // supervisor_shed, keeping
  //   Σemitted == Σdelivered + Σagent_shed + Σserver_shed + Σsupervisor_shed
  // exact across the recovery. The CONTROL share was never an indication.
  supervisor_shed_ += harvest.data_queued;
  harvest.stranded += harvest.queued;
  harvest.queued = 0;
  harvest.data_queued = 0;
  add_counters(retired_ledgers_[shard], harvest);
  // Retire the slot's writer incarnation before the teardown: a leaked
  // corpse loop that un-wedges later publishes into the void. Then zero the
  // slot: its ledger now lives in the retired total, and the replacement
  // must beat before the watchdog trusts it.
  board_.bump_epoch(shard);
  board_.reset(shard);
  if (manual) {
    // Destroy the dead cell while its reactor still lives (the server
    // unregisters from it); its drained rings go with it.
    cells_[shard]->server.reset();
    cells_[shard].reset();
  } else {
    // A wedged loop thread may still be inside the cell: retire it whole
    // (leaked at destruction).
    retired_cells_.push_back(std::move(cells_[shard]));
  }
  pool_.restart_shard(shard);
  // Either way the replacement gets a fresh cell and fresh rings.
  build_cell(shard);
  if (ports_[shard] != 0) {
    // Re-listen on the same shard port so re-homing agents dial the same
    // address. If the OS still holds it, fall back to an ephemeral port
    // rather than staying dark.
    Status st = cells_[shard]->server->listen(ports_[shard]);
    if (!st.is_ok()) {
      LOG_WARN("sharded", "shard %u: re-listen on port %u failed (%s)", shard,
               ports_[shard], st.to_string().c_str());
      (void)cells_[shard]->server->listen(0);
    }
    ports_[shard] = cells_[shard]->server->port();
  }
  // Wipe the stale slice of the merged directory now; the authoritative
  // snapshot resync from the replacement confirms (and repopulates as
  // agents re-home through the PR-3 reconnect machinery).
  for (AgentId gid : directory_.agents())
    if (shard_of_global(gid) == shard) directory_.remove_agent(gid);
  Relay* relay = cells_[shard]->relay.get();
  (void)pool_.post(shard, [relay] { relay->request_resync(); });
  accepting_[shard] = 1;
}

}  // namespace flexric::server
