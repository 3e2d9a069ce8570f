// Telemetry subsystem tests: quantile sketch error bounds, rollup-vs-naive
// recomputation properties, store budget/eviction, windowed queries, the
// ingestion adapter (decoded + raw wire modes), Monitor integration, and the
// northbound REST endpoints.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "agent/agent.hpp"
#include "common/rng.hpp"
#include "ctrl/json.hpp"
#include "ctrl/monitor.hpp"
#include "ctrl/rest.hpp"
#include "ctrl/telemetry_rest.hpp"
#include "e2sm/serde.hpp"
#include "helpers.hpp"
#include "ran/functions.hpp"
#include "telemetry/ingest.hpp"
#include "telemetry/store.hpp"

namespace flexric::telemetry {
namespace {

using test::pump;
using test::pump_until;

constexpr WireFormat kFmt = WireFormat::flat;

// ---------------------------------------------------------------------------
// QuantileSketch
// ---------------------------------------------------------------------------

TEST(Sketch, EmptyQuantileIsZero) {
  QuantileSketch s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.quantile(0.5), 0.0);
}

TEST(Sketch, BucketRoundTripWithinRelativeError) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.uniform(0.01, 1e6);
    if (v < QuantileSketch::kMinValue) continue;
    double rep = QuantileSketch::bucket_value(QuantileSketch::bucket_of(v));
    EXPECT_LE(std::abs(rep - v), v * QuantileSketch::kRelativeError + 1e-12)
        << "v=" << v;
  }
}

TEST(Sketch, SingleValueQuantiles) {
  QuantileSketch s;
  s.record(42.0);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_NEAR(s.quantile(q), 42.0, 42.0 * QuantileSketch::kRelativeError);
  }
}

TEST(Sketch, QuantileWithinErrorOfExact) {
  Rng rng(13);
  QuantileSketch s;
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) {
    double v = rng.uniform(1.0, 10000.0);
    values.push_back(v);
    s.record(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.01, 0.25, 0.5, 0.75, 0.95, 0.99}) {
    double exact =
        values[static_cast<std::size_t>(q * (values.size() - 1))];
    EXPECT_NEAR(s.quantile(q), exact,
                exact * QuantileSketch::kRelativeError + 1e-9)
        << "q=" << q;
  }
}

TEST(Sketch, MergeEqualsRecordingEverything) {
  Rng rng(29);
  QuantileSketch a, b, all;
  for (int i = 0; i < 2000; ++i) {
    double v = rng.uniform(0.5, 500.0);
    all.record(v);
    (i % 2 == 0 ? a : b).record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(a.quantile(q), all.quantile(q)) << "q=" << q;
  }
}

TEST(Sketch, OutOfRangeValuesClampToEdgeBuckets) {
  QuantileSketch s;
  s.record(1e-9);   // underflow bucket -> reported as 0
  s.record(-5.0);   // negatives -> underflow bucket
  EXPECT_EQ(s.quantile(0.5), 0.0);
  QuantileSketch t;
  t.record(1e30);   // overflow bucket -> clamped to kMaxValue
  EXPECT_DOUBLE_EQ(t.quantile(0.5), QuantileSketch::kMaxValue);
}

TEST(Sketch, SaturatedBucketStillAnswers) {
  QuantileSketch s;
  for (int i = 0; i < 70000; ++i) s.record(8.0);  // u16 saturates at 65535
  EXPECT_EQ(s.count(), 70000u);
  EXPECT_NEAR(s.quantile(0.999), 8.0, 8.0 * QuantileSketch::kRelativeError);
}

TEST(Sketch, ClearResets) {
  QuantileSketch s;
  s.record(3.0);
  s.clear();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.quantile(0.5), 0.0);
}

// ---------------------------------------------------------------------------
// TimeSeries: rollups exactly match naive recomputation
// ---------------------------------------------------------------------------

struct NaiveBucket {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<double> values;
};

NaiveBucket naive_window(const std::vector<RawSample>& log, Nanos t0,
                         Nanos t1) {
  NaiveBucket b;
  for (const auto& s : log) {
    if (s.t < t0 || s.t >= t1) continue;
    if (b.count == 0) {
      b.min = s.v;
      b.max = s.v;
    }
    b.count++;
    b.sum += s.v;
    b.min = std::min(b.min, s.v);
    b.max = std::max(b.max, s.v);
    b.values.push_back(s.v);
  }
  std::sort(b.values.begin(), b.values.end());
  return b;
}

double naive_quantile(const NaiveBucket& b, double q) {
  if (b.values.empty()) return 0.0;
  return b.values[static_cast<std::size_t>(q * (b.values.size() - 1))];
}

// Feeds `samples` to a fresh series and returns the log a naive
// recomputation needs. A late sample is folded into the open tier1 bucket
// (series.hpp), so the log files it at that bucket's start.
std::vector<RawSample> push_all(TimeSeries& series,
                                const std::vector<RawSample>& samples) {
  std::vector<RawSample> log;
  Nanos newest = samples.empty() ? 0 : samples.front().t;
  for (const RawSample& s : samples) {
    series.push(s.t, s.v);
    newest = std::max(newest, s.t);
    log.push_back(
        {std::max(s.t, bucket_start(newest, series.layout().tier1_width)),
         s.v});
  }
  return log;
}

// The central property: every retained rollup (both tiers, closed and open)
// carries exactly the count/sum/min/max a naive recomputation over the full
// sample log produces, and its sketch quantiles are within the documented
// relative error of the exact quantiles. Integer-valued samples make the
// floating-point sums associativity-proof, so equality is exact.
void expect_rollups_match_naive(const char* input,
                                const std::vector<RawSample>& samples) {
  SCOPED_TRACE(input);
  SeriesLayout layout;
  layout.tier1_capacity = 1024;  // retain every tier1 bucket of the inputs
  TimeSeries series(layout);
  std::vector<RawSample> log = push_all(series, samples);
  Nanos t = 0;
  for (const RawSample& s : log) t = std::max(t, s.t);
  // Tier 2 holds closed tier1 buckets only: the open one is not in it yet.
  const Nanos open1 = bucket_start(t, layout.tier1_width);

  for (int tier : {1, 2}) {
    Nanos width = tier == 1 ? layout.tier1_width : layout.tier2_width;
    std::vector<Rollup> rollups =
        series.rollup_range(tier, 0, t + kSecond);
    ASSERT_FALSE(rollups.empty()) << "tier " << tier;
    for (const Rollup& r : rollups) {
      Nanos end = r.t_start + width;
      NaiveBucket n = naive_window(log, r.t_start,
                                   tier == 1 ? end : std::min(end, open1));
      ASSERT_EQ(r.count, n.count) << "tier " << tier << " t=" << r.t_start;
      EXPECT_EQ(r.sum, n.sum) << "tier " << tier << " t=" << r.t_start;
      EXPECT_EQ(r.min, n.min);
      EXPECT_EQ(r.max, n.max);
      EXPECT_EQ(r.sketch.count(), n.count);
      QuantileSketch recorded;
      for (double v : n.values) recorded.record(v);
      EXPECT_EQ(r.sketch, recorded)
          << "every sketch bucket, tier " << tier << " t=" << r.t_start;
      for (double q : {0.5, 0.95, 0.99}) {
        // The overflow bucket reports kMaxValue (sketch.hpp).
        double exact =
            std::min(naive_quantile(n, q), QuantileSketch::kMaxValue);
        EXPECT_NEAR(r.sketch.quantile(q), exact,
                    exact * QuantileSketch::kRelativeError + 1e-9)
            << "tier " << tier << " q=" << q;
      }
    }
  }
}

// 1 ms cadence: ~100 samples per tier1 bucket.
std::vector<RawSample> dense_input(Rng& rng) {
  std::vector<RawSample> dense;
  for (int i = 1; i <= 5000; ++i)
    dense.push_back({i * kMilli, static_cast<double>(1 + rng.bounded(1000))});
  return dense;
}

// 40 ms cadence: 2-3 samples per tier1 bucket, so each close merges and
// clears only a few sketch buckets.
std::vector<RawSample> sparse_input(Rng& rng) {
  std::vector<RawSample> sparse;
  for (int i = 1; i <= 2000; ++i)
    sparse.push_back(
        {i * 40 * kMilli, static_cast<double>(1 + rng.bounded(1000))});
  return sparse;
}

// Mixed: 100 ms bursts of 400 samples spread over 40 octaves, low-rate
// stretches with empty tier1 buckets, and late samples. The second half,
// after a gap no rollup spans, is scaled by 2^20: it reaches the top sketch
// buckets while every sum stays exact.
std::vector<RawSample> mixed_input(Rng& rng) {
  std::vector<RawSample> mixed;
  Nanos t = 0;
  for (int round = 0; round < 12; ++round) {
    const double scale = round < 6 ? 1.0 : std::exp2(20.0);
    if (round == 6) t += 2 * kSecond;
    auto wide = [&] {
      return scale * std::floor(std::exp2(rng.uniform(0.0, 40.0)));
    };
    for (int i = 0; i < 400; ++i) {
      t += 250 * kMicro;
      mixed.push_back({t, wide()});
    }
    for (int i = 0; i < 10; ++i) {
      t += static_cast<Nanos>(40 + rng.bounded(700)) * kMilli;
      mixed.push_back({t, scale * static_cast<double>(rng.bounded(100))});
      if (rng.bounded(4) == 0)  // late: up to 150 ms behind the newest
        mixed.push_back({t - static_cast<Nanos>(rng.bounded(150)) * kMilli,
                         wide()});
    }
  }
  return mixed;
}

// The three inputs above, drawn in this order from one generator.
struct OracleInputs {
  std::vector<RawSample> dense, sparse, mixed;
};
OracleInputs oracle_inputs() {
  Rng rng(47);
  OracleInputs in;
  in.dense = dense_input(rng);
  in.sparse = sparse_input(rng);
  in.mixed = mixed_input(rng);
  return in;
}

// 70,000 samples of 8.0 in one 100 ms bucket: one u16 sketch bucket
// saturates at 65535 while the rollup counts all of them. The last sample
// closes the bucket into a tier1 slot and the open tier2 bucket.
std::vector<RawSample> saturated_input() {
  std::vector<RawSample> in;
  for (int i = 0; i < 70000; ++i) in.push_back({i * kMicro, 8.0});
  in.push_back({100 * kMilli, 8.0});
  return in;
}

TEST(TimeSeries, RollupsMatchNaiveRecomputation) {
  const OracleInputs in = oracle_inputs();
  expect_rollups_match_naive("1 ms", in.dense);
  expect_rollups_match_naive("40 ms", in.sparse);

  const std::vector<RawSample>& mixed = in.mixed;
  std::size_t widest = 0;  // distinct sketch buckets in one tier1 bucket
  std::size_t top = 0;
  for (std::size_t i = 0; i < mixed.size();) {
    Nanos b = bucket_start(mixed[i].t, 100 * kMilli);
    std::vector<std::size_t> seen;
    for (; i < mixed.size() && bucket_start(mixed[i].t, 100 * kMilli) == b;
         ++i)
      seen.push_back(QuantileSketch::bucket_of(mixed[i].v));
    std::sort(seen.begin(), seen.end());
    top = std::max(top, seen.back());
    widest = std::max<std::size_t>(
        widest, std::unique(seen.begin(), seen.end()) - seen.begin());
  }
  ASSERT_GT(widest, 100u);
  ASSERT_EQ(top, QuantileSketch::kBuckets - 1);  // the overflow bucket
  expect_rollups_match_naive("mixed", mixed);

  expect_rollups_match_naive("saturated", saturated_input());
}

TEST(TimeSeries, CascadeKeepsTrueCountOfSaturatedBucket) {
  TimeSeries series{SeriesLayout{}};
  push_all(series, saturated_input());
  std::vector<Rollup> t1 = series.rollup_range(1, 0, 100 * kMilli);
  ASSERT_EQ(t1.size(), 1u);
  EXPECT_EQ(t1[0].count, 70000u);
  EXPECT_EQ(t1[0].sketch.count(), 70000u);
  std::vector<Rollup> open2 = series.rollup_range(2, 0, kSecond);
  ASSERT_EQ(open2.size(), 1u);
  EXPECT_EQ(open2[0].count, 70000u);
  EXPECT_EQ(open2[0].sketch.count(), 70000u);
  // And once tier 2 closes too.
  series.push(2 * kSecond, 8.0);
  series.push(3 * kSecond, 8.0);
  std::vector<Rollup> t2 = series.rollup_range(2, 0, kSecond);
  ASSERT_EQ(t2.size(), 1u);
  EXPECT_EQ(t2[0].count, 70001u);
  EXPECT_EQ(t2[0].sketch.count(), 70001u);
}

// Memory: bytes() is what a series has allocated, bounded by the layout's
// bytes_per_series() at every step, and far below it in steady state.
TEST(TimeSeries, BytesNeverExceedLayoutBound) {
  const std::vector<RawSample> mixed = oracle_inputs().mixed;
  SeriesLayout layout;
  TimeSeries series(layout);
  std::size_t peak = 0;
  for (const RawSample& s : mixed) {
    series.push(s.t, s.v);
    ASSERT_LE(series.bytes(), layout.bytes_per_series());
    peak = std::max(peak, series.bytes());
  }
  // Closes grew the run arenas past a fresh series.
  EXPECT_GT(peak, TimeSeries{layout}.bytes());
}

TEST(TimeSeries, ConstantSeriesStaysCompactThroughWraps) {
  SeriesLayout layout;
  TimeSeries series(layout);
  // 10 full wraps of tier 2 (128 x 1 s), and so of tier 1, at 40 ms.
  const Nanos end = 10 * static_cast<Nanos>(layout.tier2_capacity) * kSecond;
  for (Nanos t = 0; t < end; t += 40 * kMilli) {
    series.push(t, 5.0);
    ASSERT_LE(series.bytes(), layout.bytes_per_series() / 5) << "t=" << t;
  }
  EXPECT_EQ(series.rollup_count(1), layout.tier1_capacity);
  EXPECT_EQ(series.rollup_count(2), layout.tier2_capacity);
}

TEST(TimeSeries, RawRingWrapsButRollupsRetainHistory) {
  SeriesLayout layout;
  layout.raw_capacity = 64;
  TimeSeries series(layout);
  for (int i = 0; i < 1000; ++i)
    series.push((i + 1) * kMilli, static_cast<double>(i));
  EXPECT_EQ(series.total_samples(), 1000u);
  EXPECT_EQ(series.raw_count(), 64u);
  // Raw retains only the tail...
  EXPECT_EQ(series.oldest_raw_t(), (1000 - 64 + 1) * kMilli);
  // ...but tier1 still covers the overwritten window.
  std::uint64_t rolled = 0;
  for (const Rollup& r : series.rollup_range(1, 0, 2 * kSecond))
    rolled += r.count;
  EXPECT_EQ(rolled, 1000u);
}

TEST(TimeSeries, CascadeDegradesTier1IntoTier2) {
  SeriesLayout layout;
  layout.tier1_capacity = 8;  // tier1 wraps quickly
  TimeSeries series(layout);
  // 30 s of samples at 10 ms: 3000 samples, 300 tier1 buckets, 30 tier2.
  for (int i = 0; i < 3000; ++i)
    series.push((i + 1) * 10 * kMilli, 1.0);
  EXPECT_EQ(series.rollup_count(1), 8u);
  EXPECT_EQ(series.rollup_count(2), 29u);  // 30th is the open bucket
  // Tier2 accounts for everything except the still-open tier1 bucket
  // (samples cascade on tier1 close, and the last sample opened a fresh
  // 100 ms bucket).
  std::uint64_t total = 0;
  for (const Rollup& r : series.rollup_range(2, 0, 31 * kSecond))
    total += r.count;
  EXPECT_EQ(total, 2999u);
  // One far-future sample closes the open buckets; now all 3000 earlier
  // samples are accounted for at tier2 resolution (the flush sample itself
  // sits in the new open tier1 bucket).
  series.push(40 * kSecond, 1.0);
  total = 0;
  for (const Rollup& r : series.rollup_range(2, 0, 41 * kSecond))
    total += r.count;
  EXPECT_EQ(total, 3000u);
}

TEST(TimeSeries, LatestReturnsNewestInOrder) {
  TimeSeries series{SeriesLayout{}};
  for (int i = 1; i <= 20; ++i)
    series.push(i * kMilli, static_cast<double>(i));
  auto tail = series.latest(3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].v, 18.0);
  EXPECT_EQ(tail[2].v, 20.0);
  EXPECT_EQ(series.latest(100).size(), 20u);
}

// ---------------------------------------------------------------------------
// TelemetryStore: budget, eviction, queries
// ---------------------------------------------------------------------------

StoreConfig small_store(std::size_t n_series) {
  StoreConfig cfg;
  cfg.layout.raw_capacity = 32;
  cfg.layout.tier1_capacity = 8;
  cfg.layout.tier2_capacity = 8;
  cfg.memory_budget = sizeof(TelemetryStore) +
                      n_series * (cfg.layout.bytes_per_series() + 96);
  return cfg;
}

SeriesKey key_of(AgentId agent, std::uint16_t rnti, Metric m) {
  return SeriesKey{agent, make_entity(rnti), m};
}

TEST(Store, MemoryNeverExceedsBudget) {
  TelemetryStore store(small_store(4));
  for (std::uint16_t rnti = 0; rnti < 50; ++rnti) {
    for (int i = 0; i < 10; ++i) {
      static_cast<void>(
          store.record(key_of(1, rnti, Metric::mac_cqi), i * kMilli, 1.0));
      ASSERT_LE(store.memory_bytes(), store.memory_budget());
    }
  }
  EXPECT_LE(store.num_series(), 4u);
  EXPECT_GT(store.evictions(), 0u);
  EXPECT_EQ(store.dropped_samples(), 0u);  // eviction admits every sample
}

TEST(Store, MemoryBytesIsExactSumOfSeries) {
  TelemetryStore store(small_store(6));
  Rng rng(5);
  Nanos t = 0;
  for (int i = 0; i < 20000; ++i) {
    t += static_cast<Nanos>(rng.bounded(30'000)) * kMicro;
    const double v = std::exp2(rng.uniform(-10.0, 60.0));
    const auto rnti = static_cast<std::uint16_t>(rng.bounded(10));
    static_cast<void>(store.record(key_of(1, rnti, Metric::mac_cqi), t, v));
  }
  ASSERT_GT(store.evictions(), 0u);
  std::size_t expected = sizeof(TelemetryStore);
  for (const SeriesInfo& info : store.list_series())
    expected +=
        store.find(info.key)->bytes() + TelemetryStore::kSeriesOverhead;
  EXPECT_EQ(store.memory_bytes(), expected);
  EXPECT_LE(store.memory_bytes(), store.memory_budget());
}

TEST(Store, EvictsLeastRecentlyWritten) {
  TelemetryStore store(small_store(2));
  auto a = key_of(1, 100, Metric::mac_cqi);
  auto b = key_of(1, 101, Metric::mac_cqi);
  auto c = key_of(1, 102, Metric::mac_cqi);
  ASSERT_TRUE(store.record(a, kMilli, 1.0).is_ok());
  ASSERT_TRUE(store.record(b, 2 * kMilli, 1.0).is_ok());
  ASSERT_TRUE(store.record(c, 3 * kMilli, 1.0).is_ok());  // evicts a
  EXPECT_EQ(store.find(a), nullptr);
  EXPECT_NE(store.find(b), nullptr);
  EXPECT_NE(store.find(c), nullptr);
  EXPECT_EQ(store.evictions(), 1u);
}

TEST(Store, RejectsWhenEvictionDisabled) {
  StoreConfig cfg = small_store(2);
  cfg.evict_on_budget = false;
  TelemetryStore store(cfg);
  ASSERT_TRUE(store.record(key_of(1, 1, Metric::mac_cqi), 0, 1.0).is_ok());
  ASSERT_TRUE(store.record(key_of(1, 2, Metric::mac_cqi), 0, 1.0).is_ok());
  Status st = store.record(key_of(1, 3, Metric::mac_cqi), 0, 1.0);
  EXPECT_EQ(st.code(), Errc::capacity);
  EXPECT_EQ(store.num_series(), 2u);
  EXPECT_EQ(store.dropped_samples(), 1u);
  EXPECT_EQ(store.evictions(), 0u);
  // Existing series still accept samples.
  EXPECT_TRUE(store.record(key_of(1, 1, Metric::mac_cqi), kMilli, 2.0).is_ok());
}

TEST(Store, UnknownSeriesIsNotFound) {
  TelemetryStore store(StoreConfig{});
  auto k = key_of(9, 9, Metric::rlc_tx_bytes);
  EXPECT_FALSE(store.raw_range(k, 0, kSecond).is_ok());
  EXPECT_FALSE(store.latest(k, 5).is_ok());
  EXPECT_FALSE(store.rollups(k, 1, 0, kSecond).is_ok());
  EXPECT_FALSE(store.window_aggregate(k, 0, kSecond).is_ok());
  EXPECT_EQ(store.raw_range(k, 0, kSecond).error().code, Errc::not_found);
}

TEST(Store, InvalidTierIsUnsupported) {
  TelemetryStore store(StoreConfig{});
  auto k = key_of(1, 1, Metric::mac_cqi);
  ASSERT_TRUE(store.record(k, kMilli, 1.0).is_ok());
  EXPECT_EQ(store.rollups(k, 3, 0, kSecond).error().code, Errc::unsupported);
}

TEST(Store, RawWindowAggregateIsExact) {
  TelemetryStore store(StoreConfig{});
  auto k = key_of(1, 7, Metric::rlc_sojourn_avg_ms);
  for (int i = 1; i <= 100; ++i)
    ASSERT_TRUE(store.record(k, i * kMilli, static_cast<double>(i)).is_ok());
  auto agg = store.window_aggregate(k, 0, kSecond, QuerySource::raw);
  ASSERT_TRUE(agg.is_ok());
  EXPECT_EQ(agg->source, QuerySource::raw);
  EXPECT_EQ(agg->count, 100u);
  EXPECT_EQ(agg->sum, 5050.0);
  EXPECT_EQ(agg->min, 1.0);
  EXPECT_EQ(agg->max, 100.0);
  EXPECT_DOUBLE_EQ(agg->mean, 50.5);
  EXPECT_EQ(agg->p50, 50.0);
  EXPECT_EQ(agg->p95, 95.0);
  EXPECT_EQ(agg->p99, 99.0);
}

TEST(Store, AutomaticSourcePicksResolutionByWindowAge) {
  StoreConfig cfg;
  cfg.layout.raw_capacity = 512;     // raw: last ~512 ms
  cfg.layout.tier1_capacity = 128;   // tier1: last ~12.8 s
  cfg.layout.tier2_capacity = 128;   // tier2: last ~128 s
  TelemetryStore store(cfg);
  auto k = key_of(1, 1, Metric::mac_bytes_dl);
  Nanos t = 0;
  for (int i = 0; i < 100000; ++i) {  // 100 s at 1 ms
    t += kMilli;
    ASSERT_TRUE(store.record(k, t, 1.0).is_ok());
  }
  // Recent window: raw still covers it.
  auto recent = store.window_aggregate(k, t - 100 * kMilli, t);
  ASSERT_TRUE(recent.is_ok());
  EXPECT_EQ(recent->source, QuerySource::raw);
  EXPECT_EQ(recent->count, 100u);
  // Mid-age window: raw wrapped, tier1 covers it.
  auto mid = store.window_aggregate(k, t - 10 * kSecond, t - 9 * kSecond);
  ASSERT_TRUE(mid.is_ok());
  EXPECT_EQ(mid->source, QuerySource::tier1);
  EXPECT_GT(mid->count, 0u);
  // Ancient window: only tier2 reaches back.
  auto old = store.window_aggregate(k, 0, kSecond);
  ASSERT_TRUE(old.is_ok());
  EXPECT_EQ(old->source, QuerySource::tier2);
  EXPECT_GT(old->count, 0u);
}

TEST(Store, ListSeriesReportsRetention) {
  TelemetryStore store(StoreConfig{});
  ASSERT_TRUE(
      store.record(key_of(1, 5, Metric::mac_cqi), kMilli, 10.0).is_ok());
  ASSERT_TRUE(
      store.record(key_of(2, 6, Metric::rlc_tx_bytes), kMilli, 20.0).is_ok());
  auto infos = store.list_series();
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_EQ(infos[0].key.agent, 1u);
  EXPECT_EQ(infos[0].total_samples, 1u);
  EXPECT_EQ(entity_rnti(infos[1].key.entity), 6);
}

// record_entity() must be indistinguishable from a loop of record(): same
// series, same eviction victims (the LRU order is per series, not per row),
// same bytes out.
TEST(Store, BatchedWriteMatchesRecordLoop) {
  TelemetryStore batched(small_store(5));
  TelemetryStore looped(small_store(5));
  auto write = [&](AgentId agent, std::uint16_t rnti, Nanos t,
                   std::vector<MetricSample> samples) {
    ASSERT_TRUE(batched.record_entity(agent, make_entity(rnti), t, samples)
                    .is_ok());
    for (const MetricSample& s : samples)
      ASSERT_TRUE(looped.record(key_of(agent, rnti, s.metric), t, s.v)
                      .is_ok());
  };
  auto expect_same = [&] {
    EXPECT_EQ(batched.dump_json(), looped.dump_json());
    auto a = batched.list_series();
    auto b = looped.list_series();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].key, b[i].key);
      EXPECT_EQ(a[i].total_samples, b[i].total_samples);
      EXPECT_EQ(a[i].raw_count, b[i].raw_count);
      EXPECT_EQ(a[i].tier1_count, b[i].tier1_count);
      EXPECT_EQ(a[i].tier2_count, b[i].tier2_count);
      EXPECT_EQ(a[i].oldest_raw_t, b[i].oldest_raw_t);
      EXPECT_EQ(a[i].last_t, b[i].last_t);
    }
  };
  // A three-series row whose middle series goes stale...
  write(1, 10, kMilli,
        {{Metric::mac_cqi, 1}, {Metric::mac_bsr, 2}, {Metric::mac_bytes_dl, 3}});
  write(2, 20, 2 * kMilli, {{Metric::mac_cqi, 4}});
  write(1, 10, 3 * kMilli, {{Metric::mac_cqi, 5}, {Metric::mac_bytes_dl, 6}});
  write(2, 20, 4 * kMilli, {{Metric::mac_bsr, 7}});
  // ...is the victim when a sixth series needs room.
  write(3, 30, 5 * kMilli, {{Metric::rlc_tx_bytes, 8}});
  for (const TelemetryStore* s : {&batched, &looped}) {
    EXPECT_EQ(s->find(key_of(1, 10, Metric::mac_bsr)), nullptr);
    EXPECT_NE(s->find(key_of(1, 10, Metric::mac_cqi)), nullptr);
    EXPECT_NE(s->find(key_of(1, 10, Metric::mac_bytes_dl)), nullptr);
    EXPECT_EQ(s->evictions(), 1u);
  }
  expect_same();

  // Random reports over more entities than fit: rows lose series mid-batch
  // and are freed when their last series goes.
  Rng rng(5);
  const Metric kMetrics[] = {Metric::mac_cqi, Metric::mac_bsr,
                             Metric::mac_prbs_dl, Metric::mac_bytes_ul};
  for (int i = 0; i < 400; ++i) {
    std::vector<MetricSample> samples;
    for (Metric m : kMetrics)
      if (rng.bounded(2) == 0)
        samples.push_back({m, static_cast<double>(rng.bounded(100))});
    write(1 + static_cast<AgentId>(rng.bounded(3)),
          static_cast<std::uint16_t>(rng.bounded(4)), (6 + i) * kMilli,
          samples);
  }
  EXPECT_EQ(batched.evictions(), looped.evictions());
  EXPECT_GT(batched.evictions(), 100u);
  EXPECT_EQ(batched.num_series(), 5u);
  expect_same();
}

TEST(Store, MetricNamesRoundTrip) {
  for (auto m : {Metric::mac_cqi, Metric::rlc_sojourn_max_ms,
                 Metric::pdcp_discarded_sdus}) {
    auto back = metric_from_name(metric_name(m));
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(*back, m);
  }
  EXPECT_FALSE(metric_from_name("bogus_metric").is_ok());
}

TEST(Store, DumpJsonIsValidAndBounded) {
  TelemetryStore store(StoreConfig{});
  auto k = key_of(3, 77, Metric::mac_prbs_dl);
  for (int i = 1; i <= 200; ++i)
    ASSERT_TRUE(store.record(k, i * kMilli, static_cast<double>(i)).is_ok());
  std::string dump = store.dump_json(/*max_raw_per_series=*/8);
  auto parsed = ctrl::Json::parse(dump);
  ASSERT_TRUE(parsed.is_ok()) << dump.substr(0, 200);
  const ctrl::Json& j = *parsed;
  EXPECT_EQ(j["num_series"].as_number(), 1.0);
  EXPECT_EQ(j["total_samples"].as_number(), 200.0);
  ASSERT_EQ(j["series"].as_array().size(), 1u);
  const ctrl::Json& s = j["series"].as_array()[0];
  EXPECT_EQ(s["metric"].as_string(), "mac_prbs_dl");
  EXPECT_EQ(s["raw"].as_array().size(), 8u);  // bounded tail
  // Newest sample last.
  EXPECT_EQ(s["raw"].as_array()[7].as_array()[1].as_number(), 200.0);
}

// ---------------------------------------------------------------------------
// Slab: the store's series memory
// ---------------------------------------------------------------------------

/// A default-layout store with room for exactly `n_series`.
StoreConfig store_for(std::size_t n_series) {
  StoreConfig cfg;
  cfg.memory_budget = sizeof(TelemetryStore) +
                      n_series * (cfg.layout.bytes_per_series() +
                                  TelemetryStore::kSeriesOverhead);
  return cfg;
}

Status record_new_series(TelemetryStore& store, std::uint32_t i) {
  return store.record(SeriesKey{1, i, Metric::mac_cqi},
                      static_cast<Nanos>(i) * kMilli, 1.0);
}

// New series churn through ten times what the store holds. Every admission
// past the first fill evicts a series and reuses its blocks, so the slab
// stops growing then, and it never reserves more than the budget plus one
// 2 MiB chunk per block size.
TEST(Slab, ChurnReusesEvictedBlocks) {
  constexpr std::uint32_t kCapacity = 512;
  TelemetryStore store(store_for(kCapacity));
  const Slab& slab = store.series_memory();
  std::size_t after_fill = 0;
  for (std::uint32_t i = 0; i < 10 * kCapacity; ++i) {
    ASSERT_TRUE(record_new_series(store, i).is_ok());
    if (i + 1 == kCapacity) after_fill = slab.reserved_bytes();
    if (i >= kCapacity) {
      ASSERT_EQ(slab.reserved_bytes(), after_fill) << i;
    }
  }
  EXPECT_EQ(store.num_series(), kCapacity);
  EXPECT_EQ(store.evictions(), 9u * kCapacity);
  EXPECT_EQ(slab.block_sizes(), 3u);  // list node, raw ring, slot ring
  EXPECT_GT(after_fill, 3 * Slab::kHugePage);  // the fill reached 2 MiB chunks
  EXPECT_LE(slab.reserved_bytes(),
            store.memory_budget() + slab.block_sizes() * Slab::kHugePage);
}

// A store of a handful of series stays small: chunks start at 64 KiB and
// only grow geometrically.
TEST(Slab, SmallStoreReservesLittle) {
  TelemetryStore store(StoreConfig{});
  for (std::uint32_t i = 0; i < 10; ++i)
    ASSERT_TRUE(record_new_series(store, i).is_ok());
  const Slab& slab = store.series_memory();
  EXPECT_EQ(store.num_series(), 10u);
  EXPECT_EQ(slab.block_sizes(), 3u);
  EXPECT_LT(slab.reserved_bytes(), slab.block_sizes() * Slab::kHugePage / 4);
}

#if defined(__SANITIZE_ADDRESS__)
// The slab poisons what it does not hand out, so a pointer kept past its
// series' eviction still faults under ASan: a new series takes fresh bump
// blocks first, leaving the evicted ones poisoned on their free lists.
TEST(SlabDeathTest, UseAfterEvictFaults) {
  TelemetryStore store(store_for(2));
  ASSERT_TRUE(record_new_series(store, 0).is_ok());
  const TimeSeries* stale = store.find(SeriesKey{1, 0, Metric::mac_cqi});
  ASSERT_NE(stale, nullptr);
  ASSERT_TRUE(record_new_series(store, 1).is_ok());
  ASSERT_TRUE(record_new_series(store, 2).is_ok());  // evicts series 0
  ASSERT_EQ(store.evictions(), 1u);
  EXPECT_DEATH(
      {
        volatile std::uint64_t n = stale->total_samples();
        static_cast<void>(n);
      },
      "use-after-poison");
}
#endif

// ---------------------------------------------------------------------------
// Ingest adapter
// ---------------------------------------------------------------------------

e2sm::mac::IndicationMsg two_ue_mac() {
  e2sm::mac::IndicationMsg msg;
  e2sm::mac::UeStats ue;
  ue.rnti = 100;
  ue.cqi = 12;
  ue.bytes_dl = 1500;
  ue.bsr = 9000;
  msg.ues.push_back(ue);
  ue.rnti = 101;
  ue.cqi = 7;
  msg.ues.push_back(ue);
  return msg;
}

TEST(Ingest, DecodedMacPopulatesCoreSeries) {
  TelemetryStore store(StoreConfig{});
  Ingest ingest(store);
  ingest.mac(1, kMilli, two_ue_mac());
  // 6 core MAC metrics x 2 UEs.
  EXPECT_EQ(store.num_series(), 12u);
  auto latest = store.latest(key_of(1, 100, Metric::mac_cqi), 1);
  ASSERT_TRUE(latest.is_ok());
  ASSERT_EQ(latest->size(), 1u);
  EXPECT_EQ((*latest)[0].v, 12.0);
  EXPECT_EQ((*latest)[0].t, kMilli);
  EXPECT_EQ(ingest.samples_in(), 12u);
}

TEST(Ingest, ExtendedMetricsRecordFullSet) {
  TelemetryStore store(StoreConfig{});
  Ingest ingest(store, IngestConfig{.extended_metrics = true});
  ingest.mac(1, kMilli, two_ue_mac());
  EXPECT_EQ(store.num_series(), 20u);  // 10 MAC metrics x 2 UEs
}

TEST(Ingest, RlcAndPdcpKeyByBearer) {
  TelemetryStore store(StoreConfig{});
  Ingest ingest(store);
  e2sm::rlc::IndicationMsg rlc;
  e2sm::rlc::BearerStats b;
  b.rnti = 50;
  b.drb_id = 2;
  b.sojourn_avg_ms = 1.5;
  rlc.bearers.push_back(b);
  ingest.rlc(4, kMilli, rlc);
  auto latest = store.latest(
      SeriesKey{4, make_entity(50, 2), Metric::rlc_sojourn_avg_ms}, 1);
  ASSERT_TRUE(latest.is_ok());
  EXPECT_EQ((*latest)[0].v, 1.5);

  e2sm::pdcp::IndicationMsg pdcp;
  e2sm::pdcp::BearerStats p;
  p.rnti = 50;
  p.drb_id = 2;
  p.tx_sdu_bytes = 4096;
  pdcp.bearers.push_back(p);
  ingest.pdcp(4, 2 * kMilli, pdcp);
  auto tx = store.latest(
      SeriesKey{4, make_entity(50, 2), Metric::pdcp_tx_sdu_bytes}, 1);
  ASSERT_TRUE(tx.is_ok());
  EXPECT_EQ((*tx)[0].v, 4096.0);
}

TEST(Ingest, WireModeDecodesHeaderTimestampAndDispatches) {
  for (WireFormat fmt :
       {WireFormat::per, WireFormat::flat, WireFormat::proto}) {
    TelemetryStore store(StoreConfig{});
    Ingest ingest(store);
    e2sm::mac::IndicationHdr hdr;
    hdr.tstamp_ns = 5 * kMilli;
    hdr.cell_id = 1;
    Buffer hdr_b = e2sm::sm_encode(hdr, fmt);
    Buffer msg_b = e2sm::sm_encode(two_ue_mac(), fmt);
    Status st = ingest.wire(2, e2sm::mac::Sm::kId, hdr_b, msg_b, fmt);
    ASSERT_TRUE(st.is_ok()) << "fmt=" << static_cast<int>(fmt);
    auto latest = store.latest(key_of(2, 100, Metric::mac_cqi), 1);
    ASSERT_TRUE(latest.is_ok());
    EXPECT_EQ((*latest)[0].t, 5 * kMilli);  // header time, not arrival time
    EXPECT_EQ((*latest)[0].v, 12.0);
  }
}

TEST(Ingest, WireModeRejectsGarbageAndUnknownFn) {
  TelemetryStore store(StoreConfig{});
  Ingest ingest(store);
  Buffer junk{0xFF, 0x01, 0x02};
  EXPECT_FALSE(
      ingest.wire(1, e2sm::mac::Sm::kId, junk, junk, WireFormat::flat)
          .is_ok());
  EXPECT_GT(ingest.decode_errors(), 0u);

  e2sm::mac::IndicationHdr hdr;
  Buffer hdr_b = e2sm::sm_encode(hdr, kFmt);
  Status st = ingest.wire(1, /*fn_id=*/999, hdr_b, hdr_b, kFmt);
  EXPECT_EQ(st.code(), Errc::unsupported);
  EXPECT_EQ(store.num_series(), 0u);
}

// ---------------------------------------------------------------------------
// Monitor integration (both modes)
// ---------------------------------------------------------------------------

ran::CellConfig nr_cell() {
  ran::CellConfig cfg;
  cfg.rat = ran::Rat::nr;
  cfg.num_prbs = 106;
  cfg.default_mcs = 20;
  return cfg;
}

struct MonitorWorld {
  Reactor reactor;
  ran::BaseStation bs{nr_cell()};
  agent::E2Agent agent{reactor, {{1, 10, e2ap::NodeType::gnb}, kFmt}};
  ran::BsFunctionBundle bundle{bs, agent, kFmt};
  server::E2Server server{reactor, {21, kFmt}};
  Nanos now = 0;

  void connect() {
    auto [a_side, s_side] = LocalTransport::make_pair(reactor);
    server.attach(s_side);
    (void)agent.add_controller(a_side);
    test::pump_until(reactor,
                     [this] { return server.ran_db().num_agents() == 1; });
  }
  void run_ttis(int n) {
    for (int t = 0; t < n; ++t) {
      now += kMilli;
      bs.tick(now);
      bundle.on_tti(now);
      reactor.run_once(0);
    }
  }
};

TEST(MonitorTelemetry, DecodedModeFeedsStore) {
  MonitorWorld w;
  TelemetryStore store(StoreConfig{});
  Ingest ingest(store);
  ctrl::MonitorIApp::Config cfg{kFmt, 1};
  cfg.telemetry = &ingest;
  auto monitor = std::make_shared<ctrl::MonitorIApp>(cfg);
  w.server.add_iapp(monitor);
  w.connect();
  (void)w.bs.attach_ue({100, 1, 0, 15, 20});
  w.run_ttis(20);
  pump(w.reactor, 5);

  EXPECT_GT(store.num_series(), 0u);
  EXPECT_GT(store.total_samples(), 0u);
  // MAC series exist for the attached UE and carry header timestamps.
  bool found_mac = false;
  for (const auto& info : store.list_series()) {
    if (info.key.metric == Metric::mac_cqi &&
        entity_rnti(info.key.entity) == 100) {
      found_mac = true;
      EXPECT_GT(info.last_t, 0);
      EXPECT_GT(info.total_samples, 5u);
    }
  }
  EXPECT_TRUE(found_mac);
}

TEST(MonitorTelemetry, ZeroCopyModeFeedsStoreFromRawBytes) {
  MonitorWorld w;
  TelemetryStore store(StoreConfig{});
  Ingest ingest(store);
  ctrl::MonitorIApp::Config cfg{kFmt, 1};
  cfg.decode_payloads = false;  // FLAT zero-copy mode
  cfg.telemetry = &ingest;
  auto monitor = std::make_shared<ctrl::MonitorIApp>(cfg);
  w.server.add_iapp(monitor);
  w.connect();
  (void)w.bs.attach_ue({100, 1, 0, 15, 20});
  w.run_ttis(20);
  pump(w.reactor, 5);

  // The monitor kept only raw buffers, yet telemetry is populated.
  ASSERT_EQ(monitor->db().size(), 1u);
  EXPECT_TRUE(monitor->db().begin()->second.mac.empty());
  EXPECT_FALSE(monitor->db().begin()->second.raw.empty());
  EXPECT_GT(store.num_series(), 0u);
  EXPECT_GT(store.total_samples(), 0u);
  EXPECT_EQ(ingest.decode_errors(), 0u);
}

// ---------------------------------------------------------------------------
// Northbound REST
// ---------------------------------------------------------------------------

TEST(TelemetryRestApi, SeriesQueryAndDumpEndpoints) {
  Reactor reactor;
  TelemetryStore store(StoreConfig{});
  for (int i = 1; i <= 100; ++i)
    ASSERT_TRUE(store
                    .record(key_of(1, 42, Metric::mac_cqi), i * kMilli,
                            static_cast<double>(i))
                    .is_ok());
  ctrl::HttpServer http(reactor);
  ctrl::TelemetryRest rest(http, store);
  ASSERT_TRUE(http.listen(0).is_ok());
  std::uint16_t port = http.port();

  std::atomic<bool> done{false};
  ctrl::HttpResponse series_resp, agg_resp, raw_resp, bad_resp, dump_resp;
  std::thread client([&] {
    auto r1 = ctrl::HttpClient::request("127.0.0.1", port, "GET", "/series");
    if (r1) series_resp = *r1;
    auto r2 = ctrl::HttpClient::request(
        "127.0.0.1", port, "POST", "/query",
        R"({"agent":1,"rnti":42,"metric":"mac_cqi",)"
        R"("t0_ns":0,"t1_ns":1000000000,"kind":"aggregate"})");
    if (r2) agg_resp = *r2;
    auto r3 = ctrl::HttpClient::request(
        "127.0.0.1", port, "POST", "/query",
        R"({"agent":1,"rnti":42,"metric":"mac_cqi",)"
        R"("t0_ns":0,"t1_ns":1000000000,"kind":"raw"})");
    if (r3) raw_resp = *r3;
    auto r4 = ctrl::HttpClient::request(
        "127.0.0.1", port, "POST", "/query", R"({"metric":"nope"})");
    if (r4) bad_resp = *r4;
    auto r5 = ctrl::HttpClient::request("127.0.0.1", port, "GET", "/dump");
    if (r5) dump_resp = *r5;
    done = true;
  });
  pump_until(reactor, [&] { return done.load(); }, 20000);
  client.join();

  ASSERT_EQ(series_resp.code, 200);
  auto series = ctrl::Json::parse(series_resp.body);
  ASSERT_TRUE(series.is_ok());
  EXPECT_EQ((*series)["num_series"].as_number(), 1.0);
  ASSERT_EQ((*series)["series"].as_array().size(), 1u);
  EXPECT_EQ((*series)["series"].as_array()[0]["metric"].as_string(),
            "mac_cqi");

  ASSERT_EQ(agg_resp.code, 200);
  auto agg = ctrl::Json::parse(agg_resp.body);
  ASSERT_TRUE(agg.is_ok());
  EXPECT_EQ((*agg)["count"].as_number(), 100.0);
  EXPECT_EQ((*agg)["sum"].as_number(), 5050.0);
  EXPECT_EQ((*agg)["min"].as_number(), 1.0);
  EXPECT_EQ((*agg)["max"].as_number(), 100.0);

  ASSERT_EQ(raw_resp.code, 200);
  auto raw = ctrl::Json::parse(raw_resp.body);
  ASSERT_TRUE(raw.is_ok());
  EXPECT_EQ((*raw)["samples"].as_array().size(), 100u);

  EXPECT_EQ(bad_resp.code, 400);

  ASSERT_EQ(dump_resp.code, 200);
  auto dump = ctrl::Json::parse(dump_resp.body);
  ASSERT_TRUE(dump.is_ok());
  EXPECT_EQ((*dump)["num_series"].as_number(), 1.0);
}

TEST(TelemetryRestApi, QueryUnknownSeriesIs404) {
  Reactor reactor;
  TelemetryStore store(StoreConfig{});
  ctrl::HttpServer http(reactor);
  ctrl::TelemetryRest rest(http, store);
  ASSERT_TRUE(http.listen(0).is_ok());
  std::atomic<bool> done{false};
  int code = 0;
  std::thread client([&] {
    auto r = ctrl::HttpClient::request(
        "127.0.0.1", http.port(), "POST", "/query",
        R"({"agent":5,"rnti":5,"metric":"mac_cqi","t0_ns":0,"t1_ns":1})");
    if (r) code = r->code;
    done = true;
  });
  pump_until(reactor, [&] { return done.load(); }, 20000);
  client.join();
  EXPECT_EQ(code, 404);
}

// Error paths of the northbound API: every malformed request must come back
// as a clean JSON error with the right status code — never a hang, a crash,
// or a silent 200.
TEST(TelemetryRestApi, ErrorPathsReturnJsonErrors) {
  Reactor reactor;
  TelemetryStore store(StoreConfig{});
  for (int i = 1; i <= 10; ++i)
    ASSERT_TRUE(store
                    .record(key_of(1, 42, Metric::mac_cqi), i * kMilli,
                            static_cast<double>(i))
                    .is_ok());
  ctrl::HttpServer http(reactor);
  ctrl::TelemetryRest rest(http, store);
  ASSERT_TRUE(http.listen(0).is_ok());
  std::uint16_t port = http.port();

  constexpr const char* kSeriesQ =
      R"({"agent":1,"rnti":42,"metric":"mac_cqi","t0_ns":0,"t1_ns":1000000000)";
  std::atomic<bool> done{false};
  ctrl::HttpResponse bad_json, bad_kind, bad_source, bad_route, wrong_method,
      latest;
  std::thread client([&] {
    auto r1 = ctrl::HttpClient::request("127.0.0.1", port, "POST", "/query",
                                        "{not json");
    if (r1) bad_json = *r1;
    auto r2 = ctrl::HttpClient::request(
        "127.0.0.1", port, "POST", "/query",
        std::string(kSeriesQ) + R"(,"kind":"bogus"})");
    if (r2) bad_kind = *r2;
    auto r3 = ctrl::HttpClient::request(
        "127.0.0.1", port, "POST", "/query",
        std::string(kSeriesQ) + R"(,"kind":"aggregate","source":"bogus"})");
    if (r3) bad_source = *r3;
    auto r4 = ctrl::HttpClient::request("127.0.0.1", port, "GET", "/nope");
    if (r4) bad_route = *r4;
    auto r5 = ctrl::HttpClient::request("127.0.0.1", port, "GET", "/query");
    if (r5) wrong_method = *r5;
    auto r6 = ctrl::HttpClient::request(
        "127.0.0.1", port, "POST", "/query",
        std::string(kSeriesQ) + R"(,"kind":"latest","n":5})");
    if (r6) latest = *r6;
    done = true;
  });
  pump_until(reactor, [&] { return done.load(); }, 20000);
  client.join();

  // Each error body is itself parseable JSON carrying an "error" field.
  for (const auto* resp : {&bad_json, &bad_kind, &bad_source, &bad_route}) {
    auto body = ctrl::Json::parse(resp->body);
    ASSERT_TRUE(body.is_ok()) << resp->body;
    EXPECT_FALSE((*body)["error"].as_string().empty());
  }
  EXPECT_EQ(bad_json.code, 400);
  EXPECT_EQ(bad_kind.code, 400);
  EXPECT_EQ(bad_source.code, 400);
  EXPECT_EQ(bad_route.code, 404);
  EXPECT_EQ(wrong_method.code, 404);  // routes match on (method, path)

  // The "latest" kind round-trips with the documented shape.
  ASSERT_EQ(latest.code, 200);
  auto lj = ctrl::Json::parse(latest.body);
  ASSERT_TRUE(lj.is_ok());
  EXPECT_EQ((*lj)["metric"].as_string(), "mac_cqi");
  ASSERT_EQ((*lj)["samples"].as_array().size(), 5u);
  // The newest 5 samples in chronological order: values 6..10.
  EXPECT_EQ((*lj)["samples"].as_array()[0].as_array()[1].as_number(), 6.0);
  EXPECT_EQ((*lj)["samples"].as_array()[4].as_array()[1].as_number(), 10.0);
}

}  // namespace
}  // namespace flexric::telemetry
