// Shard-supervision bench (DESIGN.md §15): measure MTTR for a watchdog-
// driven shard recovery — detection (fault injection -> quarantine) and
// restoration (quarantine -> first indication redelivered through the
// rebuilt shard) — across 12 seeds and 1/2/4 shards, for both fault
// shapes (wedge: loop stops turning; crash: links reset too).
//
// Everything runs on the supervised World harness from the test tree:
// one thread pumps every shard loop off a shared VirtualClock, so every
// number below is bit-deterministic and the seeded BENCH_supervise.json can
// be diffed numerically across commits (ci.sh --supervise does). Detection
// is bounded by the watchdog's kQuarantineAfter plus the interval at which
// the owner polls it — World::advance polls every 1 ms quantum; there is no
// watchdog timer of its own. Restoration adds the agent's reconnect backoff
// plus subscription replay.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "tests/world.hpp"

namespace flexric::bench {
namespace {

using test::ShardFault;
using test::World;

ResilienceConfig fast_rc() {
  ResilienceConfig rc;
  rc.backoff_base = 20 * kMilli;
  rc.backoff_cap = 200 * kMilli;
  rc.heartbeat_period = 20 * kMilli;
  rc.heartbeat_miss_threshold = 3;
  rc.setup_timeout = 200 * kMilli;
  return rc;
}

struct RecoveryRun {
  Nanos detect = 0;   ///< fault injection -> quarantine transition
  Nanos restore = 0;  ///< quarantine -> first redelivered indication (MTTR)
};

RecoveryRun run_one(std::uint32_t shards, std::uint64_t seed, bool crash) {
  World w(shards, {}, /*supervised=*/true);
  w.agent_rc = fast_rc();
  w.enable_fanout();
  std::vector<World::Node*> agents;
  for (std::uint32_t s = 0; s < shards; ++s) {
    agents.push_back(&w.add_agent(s, 0, e2ap::NodeType::gnb, {}, seed));
    FLEXRIC_ASSERT(w.converge(*agents.back()), "bench: agent never converged");
  }
  w.advance(100 * kMilli);  // fan-out subscriptions land everywhere

  const std::uint32_t victim = static_cast<std::uint32_t>(seed) % shards;
  ShardFault f;
  f.kind = crash ? ShardFault::Kind::crash : ShardFault::Kind::wedge;
  f.shard = victim;
  w.inject(f);  // settles first: injection at a quiescent quantum boundary
  const Nanos fault_at = w.clock.now();

  // Keep the victim's RAN function emitting through the outage so the first
  // post-recovery delivery is observable the moment the path heals.
  for (Nanos t = 0; w.first_redelivery_at == 0 && t < 10 * kSecond;
       t += 20 * kMilli) {
    agents[victim]->fn->emit(agents[victim]->ctrl);
    w.advance(20 * kMilli);
  }
  FLEXRIC_ASSERT(w.first_redelivery_at != 0, "bench: recovery never healed");
  FLEXRIC_ASSERT(w.ric->supervisor().stats().quarantines == 1,
                 "bench: expected exactly one quarantine");
  FLEXRIC_ASSERT(w.ric->supervisor().stats().restarts == 1,
                 "bench: expected exactly one restart");

  RecoveryRun r;
  r.detect = w.detect_at - fault_at;
  r.restore = w.first_redelivery_at - w.detect_at;
  return r;
}

double ms(Nanos n) { return static_cast<double>(n) / 1e6; }

struct Series {
  double detect_p50 = 0, detect_max = 0;
  double mttr_p50 = 0, mttr_max = 0;
};

Series summarize(std::vector<RecoveryRun>& runs) {
  std::vector<double> d, m;
  for (const RecoveryRun& r : runs) {
    d.push_back(ms(r.detect));
    m.push_back(ms(r.restore));
  }
  std::sort(d.begin(), d.end());
  std::sort(m.begin(), m.end());
  Series s;
  s.detect_p50 = d[(d.size() - 1) / 2];
  s.detect_max = d.back();
  s.mttr_p50 = m[(m.size() - 1) / 2];
  s.mttr_max = m.back();
  return s;
}

}  // namespace
}  // namespace flexric::bench

int main(int argc, char** argv) {
  using namespace flexric;
  using namespace flexric::bench;

  banner("Shard supervision: detection latency and MTTR",
         "DESIGN.md §15 / EXPERIMENTS.md (kill-a-shard recipe); companion "
         "to tests/test_supervision.cpp");
  note("virtual-clock replay, 12 seeds per cell: every number is "
       "deterministic");
  note("detect = fault -> quarantine; mttr = quarantine -> first "
       "redelivered indication");

  JsonWriter json("supervise_mttr");
  Table table({"cell (shards x fault)", "detect p50 ms", "detect max ms",
               "mttr p50 ms", "mttr max ms"});
  for (std::uint32_t shards : {1u, 2u, 4u}) {
    for (bool crash : {false, true}) {
      std::vector<RecoveryRun> runs;
      for (std::uint64_t seed = 1; seed <= 12; ++seed)
        runs.push_back(run_one(shards, seed, crash));
      Series s = summarize(runs);
      const std::string label =
          std::to_string(shards) + (crash ? " x crash" : " x wedge");
      table.row(label,
                {fmt("%.1f", s.detect_p50), fmt("%.1f", s.detect_max),
                 fmt("%.1f", s.mttr_p50), fmt("%.1f", s.mttr_max)});
      const std::string p = "s" + std::to_string(shards) +
                            (crash ? ".crash." : ".wedge.");
      json.add(p + "detect_p50", s.detect_p50, "ms");
      json.add(p + "detect_max", s.detect_max, "ms");
      json.add(p + "mttr_p50", s.mttr_p50, "ms");
      json.add(p + "mttr_max", s.mttr_max, "ms");
    }
  }
  note("detection is bounded by the watchdog's quarantine age (200ms) + "
       "one heartbeat (10ms) + one 1ms poll quantum;");
  note("mttr adds reconnect backoff + E2 Setup replay + subscription "
       "re-arm on the rebuilt shard");

  return json.write(json_path_from_args(argc, argv)) ? 0 : 1;
}
