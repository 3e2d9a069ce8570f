// Sharded RIC: N E2Servers, one per shard reactor (DESIGN.md §13).
//
// Breaks the single-reactor ceiling of §4.4 without giving up its safety
// story: each shard is still a single-threaded universe (one Reactor, one
// E2Server, its agents' connections), and agents are partitioned onto
// shards by GlobalNodeId hash (server/sharding.hpp). Nothing is shared
// between shards on the hot path; every cross-shard flow goes through a
// bounded SPSC ring:
//
//   shard -> home   directory events (agent lifecycle; feeds the merged
//                   RAN-DB, where a CU on shard A and a DU on shard B
//                   assemble into one RanEntity — merge-on-query)
//   shard -> home   xApp fan-out indications (subscribe_fanout)
//   shard -> home   northbound query replies (query())
//   home  -> shard  posted jobs (ShardPool's SPSC injector + eventfd wake)
//
// Stats are merge-on-query too: each shard publishes its overload ledger
// into its cache-aligned ShardCounterBoard slot from its own thread (a
// periodic timer), and global_ledger() sums the slots, so the §11
// reconciliation (reconcile() in common/shard_stats.hpp) survives sharding.
// That publish is also the shard's heartbeat, which the ShardSupervisor
// watchdog reads (DESIGN.md §15).
//
// Ownership vocabulary: per-shard state is @affine(shard) — the runtime
// guard is the shard reactor's named DomainAffinity ("shard0", ...), the
// static proof is tools/analyze's domain-ownership pass, and the rings are
// the sanctioned conduits for both.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/shard_stats.hpp"
#include "common/spsc_ring.hpp"
#include "server/server.hpp"
#include "server/sharding.hpp"
#include "transport/shard_pool.hpp"

namespace flexric::server {

class ShardSupervisor;

struct ShardedConfig {
  /// Per-shard E2Server template; `shard`/`num_shards` are filled in per
  /// instance (enabling the misroute gate at every shard's door).
  E2Server::Config server;
  std::size_t event_ring = 1024;  ///< directory events, per shard
  /// Rebuild a quarantined shard inside the watchdog poll that quarantines
  /// it (DESIGN.md §15). false = contain only; the operator (or a test)
  /// calls ShardSupervisor::restart itself.
  bool auto_restart = true;
};

class ShardedE2Server {
 public:
  /// One cross-shard fan-out delivery: `agent` is the *global* agent id
  /// (shard index in the top byte, see server/sharding.hpp).
  struct FanoutIndication {
    std::uint32_t shard = 0;
    AgentId agent = 0;
    e2ap::Indication ind;
  };
  using FanoutHandler = std::function<void(const FanoutIndication&)>;
  using IAppFactory = std::function<std::shared_ptr<IApp>(std::uint32_t)>;

  /// The pool provides the reactors (and, in threaded mode, the threads).
  /// Construct, configure (add_iapp_factory / subscribe_fanout /
  /// listen_all), then ShardPool::start() for threaded operation.
  ShardedE2Server(ShardPool& pool, ShardedConfig cfg);
  ~ShardedE2Server();
  ShardedE2Server(const ShardedE2Server&) = delete;
  ShardedE2Server& operator=(const ShardedE2Server&) = delete;

  [[nodiscard]] std::uint32_t num_shards() const noexcept {
    return pool_.size();
  }
  [[nodiscard]] std::uint32_t shard_for(
      const e2ap::GlobalNodeId& node) const noexcept {
    return shard_of(node, num_shards());
  }

  /// Direct access to one shard's server. @cross_domain — legitimate only
  /// from that shard's thread (a posted job), from the deterministic manual
  /// harness (one thread owns every domain), or after ShardPool::stop()
  /// joined the loops.
  [[nodiscard]] E2Server& shard_server(std::uint32_t shard) noexcept {
    return *cells_[shard]->server;
  }
  [[nodiscard]] Reactor& shard_reactor(std::uint32_t shard) noexcept {
    return pool_.reactor(shard);
  }

  /// Listen on every shard (port 0 = ephemeral per shard). An agent dials
  /// port(shard_for(node)) — dialing any other shard trips the misroute
  /// gate. Call before ShardPool::start().
  Status listen_all(std::uint16_t base_port = 0);
  [[nodiscard]] std::uint16_t port(std::uint32_t shard) const noexcept {
    return ports_[shard];
  }

  /// Instantiate `factory(shard)` on every shard as a per-shard iApp (the
  /// sharded equivalent of E2Server::add_iapp). Call before agents connect.
  void add_iapp_factory(const IAppFactory& factory);

  /// Cross-shard xApp fan-out: every current and future agent advertising
  /// `fn_id` (on any shard) is subscribed with the given trigger/actions;
  /// indications cross shard->home through the fan-out ring and land in
  /// `handler` on the home thread (during pump_home). Ring overflow is shed
  /// with exact accounting (ledger fanout_shed), never silently. Call
  /// before agents connect.
  void subscribe_fanout(std::uint16_t fn_id, Buffer trigger,
                        std::vector<e2ap::Action> actions,
                        FanoutHandler handler);

  /// Drain every shard->home ring in fixed shard order: apply directory
  /// events to the merged RAN-DB, deliver fan-out indications, run query
  /// replies. Home-thread only. The fixed order is what the deterministic
  /// harness replays byte-identically. Returns items processed.
  int pump_home();

  /// Merged RAN view (global agent ids). Assembled exclusively from ring
  /// events — merge-on-query, never by reaching into shard state.
  [[nodiscard]] const RanDb& directory() const noexcept { return directory_; }

  /// Fires (on the home thread) when agents across any shards complete a
  /// RAN entity — e.g. a CU on shard A plus a DU on shard B.
  void set_on_ran_formed(std::function<void(const RanEntity&)> cb) {
    on_ran_formed_ = std::move(cb);
  }

  /// Merge-on-query global ledger: field-wise sum of the per-shard board
  /// slots plus every retired incarnation's harvested ledger (a restarted
  /// shard starts its slot from zero; the corpse's counts live on in the
  /// retired total, so Σ stays monotone across recovery). Exact once the
  /// shards' publish timers have fired after quiescence.
  [[nodiscard]] ShardLedger global_ledger() const noexcept {
    ShardLedger total = board_.sum();
    for (const ShardLedger& r : retired_ledgers_) add_counters(total, r);
    return total;
  }
  [[nodiscard]] ShardLedger shard_ledger(std::uint32_t shard) const noexcept {
    ShardLedger v = board_.read(shard);
    add_counters(v, retired_ledgers_[shard]);
    return v;
  }
  /// Harvested ledger of `shard`'s dead incarnations alone (home thread).
  [[nodiscard]] const ShardLedger& retired_ledger(
      std::uint32_t shard) const noexcept {
    return retired_ledgers_[shard];
  }
  [[nodiscard]] const ShardCounterBoard& board() const noexcept {
    return board_;
  }

  /// Run `job` on `shard`'s loop with its E2Server; `done` runs back on the
  /// home thread (next pump_home) with the result, or with a transport-style
  /// error if the shard is quarantined while the query is in flight. The
  /// northbound REST/telemetry query path: request over the injector ring,
  /// reply over the reply ring, no shared state. Errc::capacity when the
  /// injector ring is full; Errc::rejected immediately when the shard is
  /// already quarantined (fail fast, don't enqueue into a dead loop).
  using QueryDone = std::function<void(Result<std::string>)>;
  Status query(std::uint32_t shard, std::function<std::string(E2Server&)> job,
               QueryDone done);

  /// Run an arbitrary job on a shard's loop (fire-and-forget).
  /// Errc::rejected when the shard is quarantined.
  Status post_to_shard(std::uint32_t shard, std::function<void()> job) {
    if (!accepting_[shard])
      return Status{Errc::rejected, "shard quarantined"};
    return pool_.post(shard, std::move(job));
  }

  /// Directory resyncs performed after event-ring overflow (home thread).
  [[nodiscard]] std::uint64_t directory_resyncs() const noexcept {
    return resyncs_;
  }

  // -- supervision & recovery (DESIGN.md §15) -------------------------------

  /// The watchdog that owns the healthy/degraded/quarantined/recovering
  /// classification. Poll it from the home loop (ShardSupervisor::poll).
  [[nodiscard]] ShardSupervisor& supervisor() noexcept { return *supervisor_; }
  [[nodiscard]] const ShardSupervisor& supervisor() const noexcept {
    return *supervisor_;
  }

  /// Is `shard` accepting new agents and queries? False from containment
  /// until its rebuild completes — the sharded equivalent of the listener
  /// socket being down while a process restarts.
  [[nodiscard]] bool accepting(std::uint32_t shard) const noexcept {
    return accepting_[shard] != 0;
  }

  /// Containment half of quarantine (home thread; normally driven by the
  /// supervisor): stop accepting agents/queries for `shard` and fail every
  /// in-flight cross-shard query against it with a transport-style cause.
  void contain_shard(std::uint32_t shard);

  /// Stateful restart (home thread; normally driven by the supervisor):
  /// deliver the shard's parked directory events, shed its parked fan-out
  /// indications with exact accounting (supervisor_shed), harvest its
  /// ledger into the retired total, tear the server + reactor down, spin a
  /// replacement under the same domain name (re-listening on the same
  /// port) with fresh shard->home rings, re-instantiate the iApp factories
  /// and fan-out subscription, and wipe + resync this shard's slice of the
  /// merged directory. Agents re-home
  /// through their own PR-3 reconnect machinery once accepting() is true
  /// again.
  void rebuild_shard(std::uint32_t shard);

  /// Indications destroyed by supervision itself (fan-out parked in a
  /// dead shard's ring, DATA frames stranded in a dead ingest queue): the
  /// fourth shed term of the global invariant
  ///   Σemitted == Σdelivered + Σagent_shed + Σserver_shed + Σsupervisor_shed
  [[nodiscard]] std::uint64_t supervisor_shed() const noexcept {
    return supervisor_shed_;
  }
  /// In-flight cross-shard queries failed by containment plus queries
  /// refused while quarantined.
  [[nodiscard]] std::uint64_t queries_failed() const noexcept {
    return queries_failed_;
  }

 private:
  struct DirEvent {
    enum class Kind { upsert, remove, snapshot };
    Kind kind = Kind::upsert;
    AgentInfo info;                  ///< upsert
    AgentId id = 0;                  ///< remove (shard-local id)
    std::vector<AgentInfo> agents;   ///< snapshot (shard-local ids)
  };

  class Relay;  // per-shard @affine(shard) bridge iApp (defined in .cpp)

  /// One northbound query reply crossing shard -> home: the id keys the
  /// home-side pending registry, so containment can fail a query whose
  /// shard died before replying.
  struct QueryReply {
    std::uint64_t id = 0;
    std::string payload;
  };

  /// Everything owned by one shard plus its shard->home conduits. The
  /// server/relay cells are @affine(shard); the rings are the conduits.
  struct Cell {
    std::unique_ptr<E2Server> server;
    std::shared_ptr<Relay> relay;
    std::unique_ptr<SpscRing<DirEvent>> events;
    std::unique_ptr<SpscRing<FanoutIndication>> fanout;
    std::unique_ptr<SpscRing<QueryReply>> replies;
  };

  struct PendingQuery {
    std::uint32_t shard = 0;
    QueryDone done;
  };

  /// Per-shard ring capacities: fan-out indications and query replies.
  static constexpr std::size_t kFanoutRing = 4096;
  static constexpr std::size_t kReplyRing = 1024;

  void build_cell(std::uint32_t shard);
  void apply_dir_event(std::uint32_t shard, DirEvent& ev);
  void request_resyncs();
  void fail_pending_queries(std::uint32_t shard);
  int drain_events(std::uint32_t shard);
  int drain_fanout(std::uint32_t shard, bool deliver);
  int drain_replies(std::uint32_t shard, bool deliver);

  ShardPool& pool_;
  ShardedConfig cfg_;
  std::vector<std::unique_ptr<Cell>> cells_;
  /// Cells of force-restarted shards in threaded mode: their loop thread
  /// may still be wedged inside them, so they are parked here and leaked
  /// at destruction (mirror of ShardPool's retired universes). Manual-mode
  /// rebuilds destroy the dead cell instead.
  std::vector<std::unique_ptr<Cell>> retired_cells_;
  std::vector<std::uint16_t> ports_;
  ShardCounterBoard board_;

  // -- home-thread state (owned by whoever calls pump_home) --
  DomainAffinity home_{"reactor"};
  RanDb directory_;
  std::function<void(const RanEntity&)> on_ran_formed_;
  FanoutHandler fanout_handler_;
  std::uint64_t seen_events_lost_ = 0;
  std::uint64_t resyncs_ = 0;
  // Supervision state (home thread).
  std::unique_ptr<ShardSupervisor> supervisor_;
  std::vector<std::uint8_t> accepting_;
  std::vector<ShardLedger> retired_ledgers_;
  std::map<std::uint64_t, PendingQuery> pending_;  ///< ordered: deterministic
  std::uint64_t next_query_id_ = 0;
  std::uint64_t supervisor_shed_ = 0;
  std::uint64_t queries_failed_ = 0;
  // Fan-out subscription args kept home-side so a rebuilt shard re-arms.
  bool fanout_armed_ = false;
  std::uint16_t fanout_fn_ = 0;
  Buffer fanout_trigger_;
  std::vector<e2ap::Action> fanout_actions_;
  std::vector<IAppFactory> factories_;
};

}  // namespace flexric::server
