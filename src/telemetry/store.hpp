// Telemetry time-series store: bounded-memory RAN KPI history.
//
// The paper's statistics iApp (§5.3) "saves incoming messages to an
// in-memory data structure" — but keeping only the latest sample per UE
// answers no question about the past, and keeping every sample is unbounded.
// This store is the middle ground the server library's RAN database (§4.2.2)
// needs at production scale: per-(agent, entity, metric) ring-buffer series
// with eager multi-resolution downsampling (series.hpp) under one global
// memory budget. A hash row per (agent, entity) holds that entity's series,
// so record_entity() writes a report's metrics with one lookup.
//
// Memory model: memory_bytes() is sizeof(store) plus, per series, the
// kSeriesOverhead bound on its bookkeeping and the bytes() it actually
// allocated, kept as a running total that a write adjusts when a run arena
// grows. Admission does not depend on it: a new series is admitted when
// (series + 1) * per_series_cost() fits the budget, where per_series_cost()
// is the most one series can ever cost (SeriesLayout::bytes_per_series() +
// kSeriesOverhead). So a series that grows is never evicted from a write,
// and memory_bytes() never exceeds the budget. When creating a series would
// exceed the budget the store either evicts the least-recently-written
// series (evict_on_budget, the default — stale UEs/bearers age out) or
// rejects the sample with Errc::capacity. Samples for existing series are
// never dropped.
//
// Series memory: each series' list node, raw ring and slot rings come from
// the store's Slab (slab.hpp), which packs every block of one size densely
// on 2 MiB huge-page chunks and reuses an evicted series' blocks. The run
// arenas and the row table stay on the default heap. memory_bytes() counts
// what the series hold, not the slab's chunk slack.
//
// All methods run on the reactor thread (single-threaded by the SDK's
// contract); queries return copies, so the caller owns the result.
#pragma once

#include <cstdint>
#include <list>
#include <memory_resource>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/affinity.hpp"
#include "common/result.hpp"
#include "telemetry/series.hpp"
#include "telemetry/slab.hpp"

namespace flexric::telemetry {

using AgentId = std::uint32_t;  ///< matches server::AgentId

/// Metric identity. The names (metric_name) are the stable northbound
/// vocabulary used by the REST /series and /query endpoints.
enum class Metric : std::uint16_t {
  // MAC per-UE
  mac_cqi = 0,
  mac_mcs_dl,
  mac_mcs_ul,
  mac_prbs_dl,
  mac_prbs_ul,
  mac_bytes_dl,
  mac_bytes_ul,
  mac_bsr,
  mac_phr_db,
  mac_harq_retx,
  // RLC per-bearer
  rlc_tx_bytes,
  rlc_rx_bytes,
  rlc_buffer_bytes,
  rlc_buffer_pkts,
  rlc_sojourn_avg_ms,
  rlc_sojourn_max_ms,
  rlc_retx_pdus,
  rlc_dropped_sdus,
  // PDCP per-bearer
  pdcp_tx_sdu_bytes,
  pdcp_rx_sdu_bytes,
  pdcp_tx_pdus,
  pdcp_rx_pdus,
  pdcp_discarded_sdus,
  // Overload accounting (DESIGN.md §11): shed/quarantine counters recorded
  // per agent so the controller's own degradation is queryable northbound.
  ov_ingest_shed,        ///< server-side sheds (rate + flood + queue)
  ov_agent_shed,         ///< agent-reported indication sheds
  ov_flood_quarantines,  ///< flood-quarantine escalations
};

[[nodiscard]] const char* metric_name(Metric m) noexcept;
[[nodiscard]] Result<Metric> metric_from_name(std::string_view name);

/// Entity id: a UE (rnti, drb = 0) or a bearer (rnti, drb).
[[nodiscard]] constexpr std::uint32_t make_entity(std::uint16_t rnti,
                                                  std::uint8_t drb = 0) {
  return (static_cast<std::uint32_t>(rnti) << 8) | drb;
}
[[nodiscard]] constexpr std::uint16_t entity_rnti(std::uint32_t e) {
  return static_cast<std::uint16_t>(e >> 8);
}
[[nodiscard]] constexpr std::uint8_t entity_drb(std::uint32_t e) {
  return static_cast<std::uint8_t>(e & 0xFF);
}

struct SeriesKey {
  AgentId agent = 0;
  std::uint32_t entity = 0;
  Metric metric = Metric::mac_cqi;
  auto operator<=>(const SeriesKey&) const = default;
};

/// One metric's value within an entity's report (record_entity).
struct MetricSample {
  Metric metric = Metric::mac_cqi;
  double v = 0.0;
};

struct StoreConfig {
  std::size_t memory_budget = 32u << 20;  ///< bytes, all series combined
  SeriesLayout layout;
  bool evict_on_budget = true;  ///< false: reject new series when full
};

struct SeriesInfo {
  SeriesKey key;
  std::uint64_t total_samples = 0;
  std::size_t raw_count = 0;
  std::size_t tier1_count = 0;
  std::size_t tier2_count = 0;
  Nanos oldest_raw_t = 0;
  Nanos last_t = 0;
};

/// Which resolution a windowed query reads from.
enum class QuerySource : std::uint8_t { automatic, raw, tier1, tier2 };

struct WindowAggregate {
  QuerySource source = QuerySource::raw;  ///< resolution actually used
  Nanos t0 = 0, t1 = 0;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  /// Exact (nearest-rank) when computed from raw; sketch-derived (within
  /// QuantileSketch::kRelativeError) when computed from rollups.
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
};

// @affine(reactor)
class TelemetryStore {
 public:
  explicit TelemetryStore(StoreConfig cfg);

  /// Ingest an entity's samples at time t, in order. Errc::capacity when a
  /// new series cannot be admitted under the budget (and eviction is off or
  /// cannot help); the other samples still land.
  Status record_entity(AgentId agent, std::uint32_t entity, Nanos t,
                       std::span<const MetricSample> samples);
  Status record(const SeriesKey& key, Nanos t, double v) {
    const MetricSample s{key.metric, v};
    return record_entity(key.agent, key.entity, t, {&s, 1});
  }

  // -- queries (Errc::not_found for unknown series) --
  [[nodiscard]] Result<std::vector<RawSample>> raw_range(const SeriesKey& key,
                                                         Nanos t0,
                                                         Nanos t1) const;
  [[nodiscard]] Result<std::vector<RawSample>> latest(const SeriesKey& key,
                                                      std::size_t n) const;
  [[nodiscard]] Result<std::vector<Rollup>> rollups(const SeriesKey& key,
                                                    int tier, Nanos t0,
                                                    Nanos t1) const;
  [[nodiscard]] Result<WindowAggregate> window_aggregate(
      const SeriesKey& key, Nanos t0, Nanos t1,
      QuerySource source = QuerySource::automatic) const;
  [[nodiscard]] std::vector<SeriesInfo> list_series() const;
  [[nodiscard]] const TimeSeries* find(const SeriesKey& key) const;

  // -- accounting --
  [[nodiscard]] std::size_t num_series() const noexcept {
    return lru_.size();
  }
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return sizeof(*this) + lru_.size() * kSeriesOverhead + series_bytes_;
  }
  [[nodiscard]] std::size_t memory_budget() const noexcept {
    return cfg_.memory_budget;
  }
  [[nodiscard]] std::size_t per_series_cost() const noexcept {
    return per_series_cost_;
  }
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }
  [[nodiscard]] std::uint64_t dropped_samples() const noexcept {
    return dropped_;
  }
  [[nodiscard]] std::uint64_t total_samples() const noexcept {
    return total_samples_;
  }
  /// Where the series live (slab.hpp); memory_bytes() does not count its
  /// unused chunk bytes.
  [[nodiscard]] const Slab& series_memory() const noexcept { return slab_; }

  /// Flight recorder: bounded JSON snapshot of every series (info + the
  /// newest `max_raw_per_series` raw samples) for post-mortems.
  [[nodiscard]] std::string dump_json(std::size_t max_raw_per_series = 16)
      const;

  /// Per-series bookkeeping outside the TimeSeries: a one-series row's hash
  /// node, bucket pointer and slot, plus the series' list links and row key.
  static constexpr std::size_t kSeriesOverhead = 96;

 private:
  using RowKey = std::uint64_t;  ///< RowKey{agent} << 32 | entity

  struct Series {
    TimeSeries ts;
    RowKey row;
    Series(const SeriesLayout& l, RowKey r, std::pmr::memory_resource* mem)
        : ts(l, mem), row(r) {}
  };
  struct Slot {
    Metric metric;
    std::pmr::list<Series>::iterator series;
  };
  struct Row {
    std::vector<Slot> slots;  ///< creation order
    [[nodiscard]] const Slot* find(Metric m) const noexcept {
      for (const Slot& s : slots)
        if (s.metric == m) return &s;
      return nullptr;
    }
  };

  static_assert(4 * sizeof(void*) + sizeof(std::pair<const RowKey, Row>) +
                    sizeof(Slot) + sizeof(Series) - sizeof(TimeSeries) <=
                kSeriesOverhead);

  bool evict_one();
  /// First-contact slow path of record_entity(): eviction loop + row and
  /// series allocation. Re-points `row` (evictions may free it); nullptr
  /// when the budget rejects the new series.
  const Slot* ensure_series(RowKey key, Metric m, Row*& row);

  StoreConfig cfg_;
  /// No Reactor reference here, so the stamp lazily binds to the first
  /// calling thread (check_or_bind); mutable because const queries check it.
  mutable ReactorAffinity affinity_;
  std::size_t per_series_cost_ = 0;
  std::size_t series_bytes_ = 0;  ///< sum of every series' bytes()
  std::unordered_map<RowKey, Row> rows_;
  Slab slab_;  ///< list nodes, raw rings and slot rings; outlives lru_
  /// Every series, least recently written first.
  std::pmr::list<Series> lru_{&slab_};
  std::uint64_t evictions_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t total_samples_ = 0;
};

}  // namespace flexric::telemetry
