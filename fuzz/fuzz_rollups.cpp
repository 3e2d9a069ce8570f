// Differential driver for the telemetry rollups: compact closed rollups
// against a naive recomputation.
//
// A TimeSeries keeps closed rollups as runs of non-zero sketch buckets in a
// FIFO arena per tier (telemetry/series.hpp). This driver feeds seeded
// random series through random small layouts, so the slot rings wrap and
// the arenas grow many times per case, at cadences from 1 us to 2 s, with
// late samples and values across every sketch octave (underflow and
// overflow buckets included). After every push it checks:
//   - every rollup rollup_range() returns, both tiers, open and closed,
//     has the count/min/max of its window of the sample log, a sum within
//     rounding, and a sketch equal bucket for bucket to one recorded from
//     that window's values;
//   - bytes() <= layout.bytes_per_series().
// One iteration is one push; --iters sets the total.
#include <algorithm>
#include <cmath>
#include <vector>

#include "fuzz_common.hpp"
#include "telemetry/series.hpp"

namespace {

using namespace flexric;
using namespace flexric::telemetry;

Nanos log_uniform(Rng& rng, Nanos lo, Nanos hi) {
  double l = std::log2(static_cast<double>(lo));
  double h = std::log2(static_cast<double>(hi));
  return static_cast<Nanos>(std::exp2(rng.uniform(l, h)));
}

SeriesLayout random_layout(Rng& rng) {
  SeriesLayout l;
  l.raw_capacity = rng.bounded(9);
  l.tier1_capacity = rng.bounded(7);
  l.tier2_capacity = rng.bounded(7);
  l.tier1_width = log_uniform(rng, 10 * kMicro, kSecond);
  l.tier2_width = l.tier1_width * static_cast<Nanos>(1 + rng.bounded(12));
  return l;
}

double random_value(Rng& rng) {
  switch (rng.bounded(8)) {
    case 0: return 0.0;
    case 1: return -std::exp2(rng.uniform(-10.0, 20.0));
    case 2: return std::exp2(static_cast<double>(rng.bounded(70)) - 10.0);
    default: return std::exp2(rng.uniform(-10.0, 60.0));  // every octave
  }
}

struct Checker {
  const SeriesLayout& layout;
  /// Samples as the rollups file them: a late one lands in the open tier1
  /// bucket, at that bucket's start. bucket_start(t, tier1) never decreases.
  const std::vector<RawSample>& log;
  std::size_t iter;
  std::size_t* dense_rollups;

  /// Log entries whose tier1 bucket starts in [b0, b1).
  std::pair<std::size_t, std::size_t> window(Nanos b0, Nanos b1) const {
    auto before = [&](Nanos b) {
      return [&, b](const RawSample& f) {
        return bucket_start(f.t, layout.tier1_width) < b;
      };
    };
    auto lo = std::partition_point(log.begin(), log.end(), before(b0));
    auto hi = std::partition_point(lo, log.end(), before(b1));
    return {static_cast<std::size_t>(lo - log.begin()),
            static_cast<std::size_t>(hi - log.begin())};
  }

  void check(const TimeSeries& series) const {
    const Nanos open1 = bucket_start(log.back().t, layout.tier1_width);
    for (int tier : {1, 2}) {
      const Nanos width = tier == 1 ? layout.tier1_width : layout.tier2_width;
      for (const Rollup& r : series.rollup_range(tier, INT64_MIN, INT64_MAX)) {
        // Tier 2 holds closed tier1 buckets only.
        const Nanos end = tier == 1 ? r.t_start + width
                                    : std::min(r.t_start + width, open1);
        auto [lo, hi] = window(r.t_start, end);
        if (hi - lo != r.count || hi == lo)
          fuzz::fail("rollup count != window", iter);
        QuantileSketch recorded;
        double sum = 0.0, mag = 0.0;
        double mn = log[lo].v, mx = log[lo].v;
        for (std::size_t i = lo; i < hi; ++i) {
          const double v = log[i].v;
          recorded.record(v);
          sum += v;
          mag += std::abs(v);
          mn = std::min(mn, v);
          mx = std::max(mx, v);
        }
        if (r.min != mn || r.max != mx)
          fuzz::fail("rollup min/max != window", iter);
        if (std::abs(r.sum - sum) > 1e-9 * mag)
          fuzz::fail("rollup sum != window", iter);
        if (!(r.sketch == recorded))
          fuzz::fail("rollup sketch != sketch of window", iter);
        std::size_t nonzero = 0;
        for (std::size_t b = 0; b < QuantileSketch::kBuckets; ++b)
          nonzero += recorded.bucket_count(b) != 0;
        if (nonzero > TimeSeries::kMaxRuns) ++*dense_rollups;
      }
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  auto cfg = fuzz::parse_args(argc, argv);
  Rng rng(cfg.seed);
  std::size_t cases = 0, late = 0, dense_rollups = 0, peak_closed = 0;
  for (std::size_t iter = 0; iter < cfg.iters; ++cases) {
    const SeriesLayout layout = random_layout(rng);
    TimeSeries series(layout);
    std::vector<RawSample> log;
    // Cadence relative to tier1 width decides how wide a rollup gets. A
    // burst case packs hundreds of wide values into each tier1 bucket, so
    // rollups pass kMaxRuns buckets and take the dense form.
    const bool burst = rng.chance(0.2);
    const Nanos per_bucket = static_cast<Nanos>(300 + rng.bounded(700));
    const Nanos cadence =
        burst ? std::max<Nanos>(1, layout.tier1_width / per_bucket)
              : log_uniform(rng, kMicro, 2 * kSecond);
    const double spread = burst ? 1.0 : rng.uniform(0.0, 1.0);
    // Half the bursts cycle through 126-131 adjacent buckets, so rollups
    // land on both sides of the kMaxRuns threshold.
    const std::size_t pool =
        burst && rng.chance(0.5) ? 126 + rng.bounded(6) : 0;
    const std::size_t first = rng.bounded(QuantileSketch::kBuckets - 131);
    const std::size_t len = 1 + rng.bounded(burst ? 1500 : 400);
    Nanos t = static_cast<Nanos>(rng.bounded(kSecond));
    Nanos newest = t;
    for (std::size_t k = 0; k < len && iter < cfg.iters; ++k, ++iter) {
      Nanos at = t;
      if (k > 0 && rng.chance(0.1)) {  // late, up to 3 cadences behind
        at = newest - static_cast<Nanos>(
                          rng.bounded(static_cast<std::uint64_t>(3 * cadence)));
        late++;
      } else {
        t += static_cast<Nanos>(
            rng.bounded(static_cast<std::uint64_t>(2 * cadence) + 1));
        if (rng.chance(0.01)) t += 50 * layout.tier2_width;  // long gap
        at = t;
        newest = t;
      }
      const double v =
          pool != 0 ? QuantileSketch::bucket_value(first + k % pool)
          : rng.chance(spread) ? random_value(rng)
                               : 8.0;
      series.push(at, v);
      log.push_back(
          {std::max(at, bucket_start(newest, layout.tier1_width)), v});
      if (series.bytes() > layout.bytes_per_series())
        fuzz::fail("series bytes over bytes_per_series()", iter);
      Checker{layout, log, iter, &dense_rollups}.check(series);
      peak_closed = std::max(
          peak_closed, series.rollup_count(1) + series.rollup_count(2));
    }
  }
  std::printf(
      "fuzz_rollups: %zu pushes ok over %zu cases (seed 0x%llx)\n"
      "  late samples: %zu, dense-form rollup checks: %zu, most closed "
      "rollups held: %zu\n",
      cfg.iters, cases, static_cast<unsigned long long>(cfg.seed), late,
      dense_rollups, peak_closed);
  return 0;
}
