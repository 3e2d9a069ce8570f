// Telemetry store — ingest throughput and query latency.
//
// Not a paper figure: this bench sizes the telemetry subsystem against its
// acceptance targets. It drives the decoded ingest path (Ingest::mac/rlc/
// pdcp) with MAC + RLC + PDCP statistics at the paper's 1 ms export period
// (§5.3), scaling the number of reporting agents. Every tier ingests at
// least one million samples while checking after each tick that the store's
// exact memory accounting never exceeds the configured budget; throughput
// leaves out the first tick, which creates every series. One more row
// has the RIC benchmark's flat_tsdb shape (16 agents x 32 UEs, 6,144 series)
// at a 40 ms period: 2-3 samples per 100 ms rollup bucket instead of ~100,
// so rollup closes are sparse rather than dense. A separate leg runs with a
// budget deliberately too small for the working set to show eviction
// holding the bound. Windowed-query latency is then measured on the
// populated store at each resolution (raw / tier1 / tier2 / automatic).
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/clock.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "e2sm/mac_sm.hpp"
#include "e2sm/pdcp_sm.hpp"
#include "e2sm/rlc_sm.hpp"
#include "telemetry/ingest.hpp"
#include "telemetry/store.hpp"

using namespace flexric;
using namespace flexric::bench;

namespace {

constexpr int kUesPerAgent = 4;
constexpr std::uint8_t kDrbId = 1;
constexpr std::uint64_t kTargetSamples = 1'000'000;

// Core KPI set: 6 MAC metrics per UE, 4 RLC + 2 PDCP per bearer (one bearer
// per UE here), so each report tick yields 12 samples per UE per agent.
constexpr std::uint64_t kSeriesPerUe = 12;

struct AgentLoad {
  e2sm::mac::IndicationMsg mac;
  e2sm::rlc::IndicationMsg rlc;
  e2sm::pdcp::IndicationMsg pdcp;
};

AgentLoad make_load(int ues) {
  AgentLoad load;
  for (int u = 0; u < ues; ++u) {
    auto rnti = static_cast<std::uint16_t>(100 + u);
    e2sm::mac::UeStats ue;
    ue.rnti = rnti;
    load.mac.ues.push_back(ue);
    e2sm::rlc::BearerStats rb;
    rb.rnti = rnti;
    rb.drb_id = kDrbId;
    load.rlc.bearers.push_back(rb);
    e2sm::pdcp::BearerStats pb;
    pb.rnti = rnti;
    pb.drb_id = kDrbId;
    load.pdcp.bearers.push_back(pb);
  }
  return load;
}

// Refresh the per-period counters the way a live DU would between exports.
void churn(Rng& rng, AgentLoad& load) {
  for (auto& ue : load.mac.ues) {
    ue.cqi = static_cast<std::uint8_t>(1 + rng.bounded(15));
    ue.mcs_dl = static_cast<std::uint8_t>(rng.bounded(29));
    ue.prbs_dl = static_cast<std::uint32_t>(rng.bounded(106));
    ue.bytes_dl = 1000 + rng.bounded(150'000);
    ue.bytes_ul = rng.bounded(50'000);
    ue.bsr = static_cast<std::uint32_t>(rng.bounded(100'000));
  }
  for (auto& b : load.rlc.bearers) {
    b.tx_bytes = 1000 + rng.bounded(150'000);
    b.buffer_bytes = static_cast<std::uint32_t>(rng.bounded(60'000));
    b.sojourn_avg_ms = rng.uniform(0.1, 4.0);
    b.sojourn_max_ms = b.sojourn_avg_ms + rng.uniform(0.0, 8.0);
  }
  for (auto& b : load.pdcp.bearers) {
    b.tx_sdu_bytes = 1000 + rng.bounded(150'000);
    b.rx_sdu_bytes = rng.bounded(50'000);
  }
}

struct IngestResult {
  std::uint64_t samples = 0;
  double samples_per_sec = 0.0;
  std::size_t max_memory = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dropped = 0;
  bool under_budget = true;
  Nanos last_t = 0;
};

IngestResult run_ingest(int agents, telemetry::TelemetryStore& store,
                        std::uint64_t target_samples, int ues = kUesPerAgent,
                        Nanos period = kMilli) {
  telemetry::Ingest ingest(store);
  Rng rng(42);
  std::vector<AgentLoad> loads(static_cast<std::size_t>(agents), make_load(ues));

  std::uint64_t ticks = target_samples / (kSeriesPerUe * static_cast<std::uint64_t>(ues) *
                                          static_cast<std::uint64_t>(agents)) +
                        1;
  IngestResult res;
  Nanos wall0 = mono_now();
  std::uint64_t samples0 = 0;
  for (std::uint64_t tick = 0; tick < ticks; ++tick) {
    if (tick == 1) {  // tick 0 created every series: time the steady state
      wall0 = mono_now();
      samples0 = ingest.samples_in();
    }
    Nanos t = static_cast<Nanos>(tick) * period;
    for (int a = 0; a < agents; ++a) {
      auto& load = loads[static_cast<std::size_t>(a)];
      churn(rng, load);
      ingest.mac(static_cast<telemetry::AgentId>(a), t, load.mac);
      ingest.rlc(static_cast<telemetry::AgentId>(a), t, load.rlc);
      ingest.pdcp(static_cast<telemetry::AgentId>(a), t, load.pdcp);
    }
    std::size_t mem = store.memory_bytes();
    if (mem > res.max_memory) res.max_memory = mem;
    if (mem > store.memory_budget()) res.under_budget = false;
    res.last_t = t;
  }
  Nanos wall = mono_now() - wall0;
  res.samples = ingest.samples_in();
  res.samples_per_sec =
      wall > 0 ? static_cast<double>(res.samples - samples0) /
                     (static_cast<double>(wall) / static_cast<double>(kSecond))
               : 0.0;
  res.evictions = store.evictions();
  res.dropped = store.dropped_samples();
  return res;
}

/// Budget that holds `series` full series plus a little slack, derived from
/// the store's own accounting so the bench tracks layout changes.
std::size_t budget_for(std::size_t series) {
  telemetry::TelemetryStore probe{{}};
  return probe.memory_bytes() + (series + 2) * probe.per_series_cost();
}

struct QueryStats {
  double mean_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

template <typename Fn>
QueryStats measure_query(int iters, Fn&& fn) {
  Histogram h;
  h.reserve(static_cast<std::size_t>(iters));
  for (int i = 0; i < iters; ++i) {
    Nanos t0 = mono_now();
    fn();
    h.record(static_cast<double>(mono_now() - t0) / static_cast<double>(kMicro));
  }
  return {h.mean(), h.quantile(0.95), h.quantile(0.99)};
}

}  // namespace

int main(int argc, char** argv) {
  banner("Telemetry store: ingest throughput and query latency",
         "1 ms MAC+RLC+PDCP statistics export (paper §5.3) into the "
         "bounded-memory KPI history");

  JsonWriter json("bench_telemetry");
  bool pass = true;

  // -- ingest throughput, scaled agent counts -------------------------------
  const int kAgentTiers[] = {1, 4, 16};
  const int kLargestTier = 16;
  Table ingest_table({"agents x UEs, period", "samples", "Msamples/s", "mem MB",
                      "budget MB", "evicted"});
  // The largest tier's store outlives the loop: the query-latency phase runs
  // against its populated series.
  telemetry::StoreConfig big_cfg;
  big_cfg.memory_budget =
      budget_for(static_cast<std::size_t>(kLargestTier) * kUesPerAgent * 12);
  telemetry::TelemetryStore store_big{big_cfg};
  Nanos query_last_t = 0;
  double worst_throughput = -1.0;
  for (int agents : kAgentTiers) {
    std::size_t series = static_cast<std::size_t>(agents) * kUesPerAgent * kSeriesPerUe;
    telemetry::StoreConfig cfg;
    cfg.memory_budget = budget_for(series);
    telemetry::TelemetryStore tier_store{cfg};
    telemetry::TelemetryStore& store =
        agents == kLargestTier ? store_big : tier_store;
    IngestResult r = run_ingest(agents, store, kTargetSamples);
    if (agents == kLargestTier) query_last_t = r.last_t;
    pass = pass && r.under_budget && r.dropped == 0;
    if (worst_throughput < 0 || r.samples_per_sec < worst_throughput)
      worst_throughput = r.samples_per_sec;
    ingest_table.row(
        std::to_string(agents) + " x 4 UEs, 1 ms",
        {std::to_string(r.samples), fmt("%.2f", r.samples_per_sec / 1e6),
         fmt("%.2f", static_cast<double>(r.max_memory) / 1e6),
         fmt("%.2f", static_cast<double>(store.memory_budget()) / 1e6),
         std::to_string(r.evictions)});
    std::string prefix = "ingest_" + std::to_string(agents) + "_agents_";
    json.add(prefix + "samples", static_cast<double>(r.samples), "samples");
    json.add(prefix + "throughput", r.samples_per_sec, "samples/s");
    json.add(prefix + "max_memory", static_cast<double>(r.max_memory), "bytes");
    json.add(prefix + "budget", static_cast<double>(store.memory_budget()),
             "bytes");
  }
  // -- flat_tsdb shape: 16 agents x 32 UEs reporting every 40 ms ------------
  {
    constexpr int kAgents = 16, kUes = 32;
    const std::size_t series = kAgents * kUes * kSeriesPerUe;  // 6,144
    telemetry::StoreConfig cfg;
    cfg.memory_budget = budget_for(series);
    telemetry::TelemetryStore store{cfg};
    IngestResult r = run_ingest(kAgents, store, kTargetSamples, kUes, 40 * kMilli);
    pass = pass && r.under_budget && r.dropped == 0 && store.num_series() == series;
    if (r.samples_per_sec < worst_throughput) worst_throughput = r.samples_per_sec;
    ingest_table.row("16 x 32 UEs, 40 ms",
                     {std::to_string(r.samples), fmt("%.2f", r.samples_per_sec / 1e6),
                      fmt("%.2f", static_cast<double>(r.max_memory) / 1e6),
                      fmt("%.2f", static_cast<double>(store.memory_budget()) / 1e6),
                      std::to_string(r.evictions)});
    json.add("ingest_16x32_40ms_samples", static_cast<double>(r.samples), "samples");
    json.add("ingest_16x32_40ms_throughput", r.samples_per_sec, "samples/s");
    json.add("ingest_16x32_40ms_max_memory", static_cast<double>(r.max_memory), "bytes");
  }
  note(pass ? "memory stayed under budget across every 1e6-sample ingest"
            : "FAIL: memory budget exceeded or samples dropped");
  if (worst_throughput < 1e5) {
    pass = false;
    note("FAIL: ingest throughput below the 1e5 samples/s acceptance floor");
  }

  // -- bounded memory under pressure: budget for half the working set -------
  {
    int agents = 8;
    std::size_t series = static_cast<std::size_t>(agents) * kUesPerAgent * kSeriesPerUe;
    telemetry::StoreConfig cfg;
    cfg.memory_budget = budget_for(series / 2);
    telemetry::TelemetryStore store{cfg};
    IngestResult r = run_ingest(agents, store, kTargetSamples / 10);
    pass = pass && r.under_budget && r.evictions > 0;
    std::printf(
        "\n  tight budget (half the series): mem %.2f MB <= budget %.2f MB, "
        "%llu evictions, %.2f Msamples/s\n",
        static_cast<double>(r.max_memory) / 1e6,
        static_cast<double>(store.memory_budget()) / 1e6,
        static_cast<unsigned long long>(r.evictions), r.samples_per_sec / 1e6);
    json.add("tight_budget_max_memory", static_cast<double>(r.max_memory),
             "bytes");
    json.add("tight_budget_budget", static_cast<double>(store.memory_budget()),
             "bytes");
    json.add("tight_budget_evictions", static_cast<double>(r.evictions),
             "evictions");
    json.add("tight_budget_throughput", r.samples_per_sec, "samples/s");
  }

  // -- query latency on the populated 16-agent store ------------------------
  {
    const telemetry::TelemetryStore& qs = store_big;
    telemetry::SeriesKey key{0, telemetry::make_entity(100),
                             telemetry::Metric::mac_bytes_dl};
    Nanos end = query_last_t + kMilli;
    struct Leg {
      const char* label;
      const char* json_name;
      telemetry::QuerySource source;
      Nanos window;
    };
    const Leg legs[] = {
        {"aggregate raw (100 ms window)", "query_raw", telemetry::QuerySource::raw,
         100 * kMilli},
        {"aggregate tier1 (10 s window)", "query_tier1",
         telemetry::QuerySource::tier1, 10 * kSecond},
        {"aggregate tier2 (full range)", "query_tier2",
         telemetry::QuerySource::tier2, end},
        {"aggregate auto (full range)", "query_auto",
         telemetry::QuerySource::automatic, end},
    };
    std::printf("\n");
    Table query_table({"query (2000 iters)", "mean us", "p95 us", "p99 us"});
    double sink = 0.0;
    for (const Leg& leg : legs) {
      Nanos t0 = end - leg.window;
      if (t0 < 0) t0 = 0;
      QueryStats st = measure_query(2000, [&] {
        auto r = qs.window_aggregate(key, t0, end, leg.source);
        if (r.is_ok()) sink += r->mean;
      });
      query_table.row(leg.label, {fmt("%.2f", st.mean_us), fmt("%.2f", st.p95_us),
                                  fmt("%.2f", st.p99_us)});
      json.add(std::string(leg.json_name) + "_mean", st.mean_us, "us");
      json.add(std::string(leg.json_name) + "_p95", st.p95_us, "us");
    }
    QueryStats st = measure_query(2000, [&] {
      auto r = qs.latest(key, 32);
      if (r.is_ok()) sink += static_cast<double>(r->size());
    });
    query_table.row("latest 32 raw samples",
                    {fmt("%.2f", st.mean_us), fmt("%.2f", st.p95_us),
                     fmt("%.2f", st.p99_us)});
    json.add("query_latest32_mean", st.mean_us, "us");
    json.add("query_latest32_p95", st.p95_us, "us");
    if (sink < 0) std::printf("%f", sink);  // keep queries observable
  }

  note(pass ? "PASS: all telemetry acceptance targets met"
            : "FAIL: one or more acceptance targets missed");
  if (!json.write(json_path_from_args(argc, argv))) return 1;
  return pass ? 0 : 1;
}
