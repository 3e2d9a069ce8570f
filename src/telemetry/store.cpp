#include "telemetry/store.hpp"

#include <algorithm>
#include <cstdio>

namespace flexric::telemetry {

namespace {

struct MetricName {
  Metric metric;
  const char* name;
};

constexpr MetricName kMetricNames[] = {
    {Metric::mac_cqi, "mac_cqi"},
    {Metric::mac_mcs_dl, "mac_mcs_dl"},
    {Metric::mac_mcs_ul, "mac_mcs_ul"},
    {Metric::mac_prbs_dl, "mac_prbs_dl"},
    {Metric::mac_prbs_ul, "mac_prbs_ul"},
    {Metric::mac_bytes_dl, "mac_bytes_dl"},
    {Metric::mac_bytes_ul, "mac_bytes_ul"},
    {Metric::mac_bsr, "mac_bsr"},
    {Metric::mac_phr_db, "mac_phr_db"},
    {Metric::mac_harq_retx, "mac_harq_retx"},
    {Metric::rlc_tx_bytes, "rlc_tx_bytes"},
    {Metric::rlc_rx_bytes, "rlc_rx_bytes"},
    {Metric::rlc_buffer_bytes, "rlc_buffer_bytes"},
    {Metric::rlc_buffer_pkts, "rlc_buffer_pkts"},
    {Metric::rlc_sojourn_avg_ms, "rlc_sojourn_avg_ms"},
    {Metric::rlc_sojourn_max_ms, "rlc_sojourn_max_ms"},
    {Metric::rlc_retx_pdus, "rlc_retx_pdus"},
    {Metric::rlc_dropped_sdus, "rlc_dropped_sdus"},
    {Metric::pdcp_tx_sdu_bytes, "pdcp_tx_sdu_bytes"},
    {Metric::pdcp_rx_sdu_bytes, "pdcp_rx_sdu_bytes"},
    {Metric::pdcp_tx_pdus, "pdcp_tx_pdus"},
    {Metric::pdcp_rx_pdus, "pdcp_rx_pdus"},
    {Metric::pdcp_discarded_sdus, "pdcp_discarded_sdus"},
    {Metric::ov_ingest_shed, "ov_ingest_shed"},
    {Metric::ov_agent_shed, "ov_agent_shed"},
    {Metric::ov_flood_quarantines, "ov_flood_quarantines"},
};

/// Exact nearest-rank quantile over the (sorted) raw values of a window.
double exact_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1));
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

void append_f64(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_i64(std::string& out, long long v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", v);
  out += buf;
}

void append_u64(std::string& out, unsigned long long v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", v);
  out += buf;
}

}  // namespace

const char* metric_name(Metric m) noexcept {
  for (const auto& e : kMetricNames)
    if (e.metric == m) return e.name;
  return "unknown";
}

Result<Metric> metric_from_name(std::string_view name) {
  for (const auto& e : kMetricNames)
    if (name == e.name) return e.metric;
  return Errc::not_found;
}

TelemetryStore::TelemetryStore(StoreConfig cfg) : cfg_(cfg) {
  per_series_cost_ = cfg_.layout.bytes_per_series() + kSeriesOverhead;
}

bool TelemetryStore::evict_one() {
  if (lru_.empty()) return false;
  auto row = rows_.find(lru_.front().row);
  std::erase_if(row->second.slots,
                [&](const Slot& s) { return s.series == lru_.begin(); });
  if (row->second.slots.empty()) rows_.erase(row);
  series_bytes_ -= lru_.front().ts.bytes();
  lru_.pop_front();
  evictions_++;
  return true;
}

// Allocation lives here, not in record_entity(): a series is created once
// per key (then evicted at most once per budget breach), while
// record_entity() runs per report — keeping the two in separate functions
// lets the hotpath-alloc pass verify the per-sample path allocation-free
// instead of carrying baseline debt for the first-contact case.
// @coldpath first contact per series key, not per sample
const TelemetryStore::Slot* TelemetryStore::ensure_series(RowKey key,
                                                          Metric m,
                                                          Row*& row) {
  while (sizeof(*this) + (lru_.size() + 1) * per_series_cost_ >
         cfg_.memory_budget) {
    if (!cfg_.evict_on_budget || !evict_one()) {
      dropped_++;
      if (lru_.empty()) row = nullptr;  // evicted everything, row included
      return nullptr;
    }
  }
  series_bytes_ += lru_.emplace_back(cfg_.layout, key, &slab_).ts.bytes();
  row = &rows_[key];
  return &row->slots.emplace_back(Slot{m, std::prev(lru_.end())});
}

// @hotpath one call per entity per report: one row lookup for its metrics
Status TelemetryStore::record_entity(AgentId agent, std::uint32_t entity,
                                     Nanos t,
                                     std::span<const MetricSample> samples) {
  FLEXRIC_ASSERT_AFFINITY(affinity_);
  const RowKey key = RowKey{agent} << 32 | entity;
  auto it = rows_.find(key);
  Row* row = it != rows_.end() ? &it->second : nullptr;
  Status st = Status::ok();
  for (const MetricSample& sample : samples) {
    const Slot* slot = row != nullptr ? row->find(sample.metric) : nullptr;
    if (slot == nullptr) slot = ensure_series(key, sample.metric, row);
    if (slot == nullptr) {
      st = Errc::capacity;
      continue;
    }
    lru_.splice(lru_.end(), lru_, slot->series);  // now the newest write
    TimeSeries& ts = slot->series->ts;
    const std::size_t before = ts.bytes();
    ts.push(t, sample.v);
    series_bytes_ += ts.bytes() - before;  // non-zero when an arena grew
    total_samples_++;
  }
  return st;
}

const TimeSeries* TelemetryStore::find(const SeriesKey& key) const {
  auto it = rows_.find(RowKey{key.agent} << 32 | key.entity);
  const Slot* s = it == rows_.end() ? nullptr : it->second.find(key.metric);
  return s == nullptr ? nullptr : &s->series->ts;
}

Result<std::vector<RawSample>> TelemetryStore::raw_range(const SeriesKey& key,
                                                         Nanos t0,
                                                         Nanos t1) const {
  FLEXRIC_ASSERT_AFFINITY(affinity_);
  const TimeSeries* s = find(key);
  if (s == nullptr) return Errc::not_found;
  return s->raw_range(t0, t1);
}

Result<std::vector<RawSample>> TelemetryStore::latest(const SeriesKey& key,
                                                      std::size_t n) const {
  FLEXRIC_ASSERT_AFFINITY(affinity_);
  const TimeSeries* s = find(key);
  if (s == nullptr) return Errc::not_found;
  return s->latest(n);
}

Result<std::vector<Rollup>> TelemetryStore::rollups(const SeriesKey& key,
                                                    int tier, Nanos t0,
                                                    Nanos t1) const {
  FLEXRIC_ASSERT_AFFINITY(affinity_);
  const TimeSeries* s = find(key);
  if (s == nullptr) return Errc::not_found;
  if (tier != 1 && tier != 2) return Errc::unsupported;
  return s->rollup_range(tier, t0, t1);
}

Result<WindowAggregate> TelemetryStore::window_aggregate(
    const SeriesKey& key, Nanos t0, Nanos t1, QuerySource source) const {
  FLEXRIC_ASSERT_AFFINITY(affinity_);
  const TimeSeries* s = find(key);
  if (s == nullptr) return Errc::not_found;

  QuerySource pick = source;
  if (pick == QuerySource::automatic) {
    // Finest resolution that still reaches back to the window start; when
    // even tier2 does not reach that far, use the coarsest data we have.
    bool raw_covers = s->raw_count() > 0 && s->oldest_raw_t() <= t0;
    bool t1_covers = s->rollup_count(1) > 0 && s->oldest_rollup_t(1) <= t0;
    if (raw_covers)
      pick = QuerySource::raw;
    else if (t1_covers)
      pick = QuerySource::tier1;
    else if (s->rollup_count(2) > 0)
      pick = QuerySource::tier2;
    else if (s->rollup_count(1) > 0)
      pick = QuerySource::tier1;
    else
      pick = QuerySource::raw;
  }

  WindowAggregate agg;
  agg.source = pick;
  agg.t0 = t0;
  agg.t1 = t1;

  if (pick == QuerySource::raw) {
    std::vector<RawSample> samples = s->raw_range(t0, t1);
    if (samples.empty()) return agg;
    std::vector<double> values;
    values.reserve(samples.size());
    agg.min = samples.front().v;
    agg.max = samples.front().v;
    for (const RawSample& r : samples) {
      agg.count++;
      agg.sum += r.v;
      if (r.v < agg.min) agg.min = r.v;
      if (r.v > agg.max) agg.max = r.v;
      values.push_back(r.v);
    }
    std::sort(values.begin(), values.end());
    agg.mean = agg.sum / static_cast<double>(agg.count);
    agg.p50 = exact_quantile(values, 0.50);
    agg.p95 = exact_quantile(values, 0.95);
    agg.p99 = exact_quantile(values, 0.99);
    return agg;
  }

  int tier = pick == QuerySource::tier1 ? 1 : 2;
  Nanos width =
      tier == 1 ? s->layout().tier1_width : s->layout().tier2_width;
  // Include the bucket that straddles t0: its start may be before t0.
  std::vector<Rollup> buckets =
      s->rollup_range(tier, bucket_start(t0, width), t1);
  Rollup merged;
  for (const Rollup& b : buckets) merged.merge(b);
  if (merged.count == 0) return agg;
  agg.count = merged.count;
  agg.sum = merged.sum;
  agg.min = merged.min;
  agg.max = merged.max;
  agg.mean = merged.mean();
  agg.p50 = merged.sketch.quantile(0.50);
  agg.p95 = merged.sketch.quantile(0.95);
  agg.p99 = merged.sketch.quantile(0.99);
  return agg;
}

std::vector<SeriesInfo> TelemetryStore::list_series() const {
  std::vector<SeriesInfo> out;
  out.reserve(lru_.size());
  for (const auto& [key, row] : rows_)
    for (const Slot& slot : row.slots) {
      const TimeSeries& s = slot.series->ts;
      out.push_back({{static_cast<AgentId>(key >> 32),
                      static_cast<std::uint32_t>(key), slot.metric},
                     s.total_samples(), s.raw_count(), s.rollup_count(1),
                     s.rollup_count(2), s.oldest_raw_t(), s.last_t()});
    }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.key < b.key; });
  return out;
}

std::string TelemetryStore::dump_json(std::size_t max_raw_per_series) const {
  std::string out;
  out.reserve(256 + lru_.size() * (128 + max_raw_per_series * 32));
  out += "{\"budget_bytes\":";
  append_u64(out, memory_budget());
  out += ",\"memory_bytes\":";
  append_u64(out, memory_bytes());
  out += ",\"num_series\":";
  append_u64(out, num_series());
  out += ",\"total_samples\":";
  append_u64(out, total_samples_);
  out += ",\"evictions\":";
  append_u64(out, evictions_);
  out += ",\"dropped_samples\":";
  append_u64(out, dropped_);
  out += ",\"series\":[";
  bool first = true;
  for (const SeriesInfo& info : list_series()) {
    const SeriesKey& key = info.key;
    if (!first) out += ',';
    first = false;
    out += "{\"agent\":";
    append_u64(out, key.agent);
    out += ",\"rnti\":";
    append_u64(out, entity_rnti(key.entity));
    out += ",\"drb\":";
    append_u64(out, entity_drb(key.entity));
    out += ",\"metric\":\"";
    out += metric_name(key.metric);
    out += "\",\"total_samples\":";
    append_u64(out, info.total_samples);
    out += ",\"tier1_rollups\":";
    append_u64(out, info.tier1_count);
    out += ",\"tier2_rollups\":";
    append_u64(out, info.tier2_count);
    out += ",\"last_t\":";
    append_i64(out, info.last_t);
    out += ",\"raw\":[";
    std::vector<RawSample> tail = find(key)->latest(max_raw_per_series);
    for (std::size_t i = 0; i < tail.size(); ++i) {
      if (i != 0) out += ',';
      out += '[';
      append_i64(out, tail[i].t);
      out += ',';
      append_f64(out, tail[i].v);
      out += ']';
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace flexric::telemetry
