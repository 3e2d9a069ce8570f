// One KPI time series: a raw ring buffer plus multi-resolution rollup rings.
//
// Layout (the "columnar ring-buffer" of the telemetry store):
//
//   raw    fixed-capacity ring of (timestamp, value) samples — the 1 ms
//          indication stream. Wrapping overwrites the oldest sample.
//   tier1  ring of 100 ms rollups (count/sum/min/max + quantile sketch).
//   tier2  ring of 1 s rollups, cascaded from tier1.
//
// Downsampling is *eager*: every append folds the sample into the open
// tier1 bucket; when a sample crosses a bucket boundary the bucket closes
// into the tier1 ring and merges into the open tier2 bucket. So by the time
// the raw ring wraps, the overwritten window already lives in tier1, and by
// the time tier1 wraps it lives in tier2 — old data degrades in resolution
// instead of vanishing. Every ring is sized at construction and never
// reallocates, which is what makes store-level memory accounting exact. A
// bitmap of the open tier1 bucket's non-zero sketch buckets makes closing it
// O(samples in it), not O(258 sketch buckets): 2-3 at a 40 ms report period.
//
// Timestamps are expected non-decreasing (the indication stream is ordered
// per agent). A late sample still lands in the raw ring and is folded into
// the currently open rollup bucket rather than reopening a closed one.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/clock.hpp"
#include "telemetry/sketch.hpp"

namespace flexric::telemetry {

/// Floor division for bucket alignment (timestamps may legally be 0).
[[nodiscard]] constexpr Nanos bucket_start(Nanos t, Nanos width) noexcept {
  Nanos q = t / width;
  if (t % width != 0 && t < 0) q--;
  return q * width;
}

struct RawSample {
  Nanos t = 0;
  double v = 0.0;
};

/// One downsampled bucket: [t_start, t_start + tier width).
struct Rollup {
  Nanos t_start = 0;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  QuantileSketch sketch;

  /// Returns the sketch bucket the value landed in.
  std::size_t add(double v) noexcept {
    count++;
    sum += v;
    if (v < min) min = v;
    if (v > max) max = v;
    return sketch.record(v);
  }
  void merge(const Rollup& o) noexcept {
    if (o.count == 0) return;
    count += o.count;
    sum += o.sum;
    if (o.min < min) min = o.min;
    if (o.max > max) max = o.max;
    sketch.merge(o.sketch);
  }
  /// Sparse dst.merge(*this), then clear all but t_start (see the sketch).
  void move_into(Rollup& dst,
                 const QuantileSketch::BucketMask& nonzero) noexcept {
    dst.count += count;
    dst.sum += sum;
    if (min < dst.min) dst.min = min;
    if (max > dst.max) dst.max = max;
    sketch.move_into(dst.sketch, nonzero);
    count = 0;
    sum = 0.0;
    min = std::numeric_limits<double>::infinity();
    max = -std::numeric_limits<double>::infinity();
  }
  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Ring capacities and rollup widths, shared by every series in a store.
struct SeriesLayout {
  std::size_t raw_capacity = 512;
  std::size_t tier1_capacity = 128;
  std::size_t tier2_capacity = 128;
  Nanos tier1_width = 100 * kMilli;
  Nanos tier2_width = kSecond;

  /// Exact bytes one series costs under this layout (ring payloads plus the
  /// fixed TimeSeries object); the store multiplies this for its budget.
  [[nodiscard]] std::size_t bytes_per_series() const noexcept;
};

class TimeSeries {
 public:
  explicit TimeSeries(const SeriesLayout& layout);

  /// Record one sample. Named push (not append): the raw ring and rollup
  /// buckets are preallocated by the constructor — this never allocates,
  /// which the hotpath-alloc pass can see from the name alone.
  void push(Nanos t, double v);

  [[nodiscard]] std::uint64_t total_samples() const noexcept {
    return total_samples_;
  }
  [[nodiscard]] std::size_t raw_count() const noexcept { return raw_size_; }
  /// Timestamp of the oldest sample still in the raw ring (0 when empty).
  [[nodiscard]] Nanos oldest_raw_t() const noexcept;
  [[nodiscard]] Nanos last_t() const noexcept { return last_t_; }

  /// Raw samples with t in [t0, t1), oldest first.
  [[nodiscard]] std::vector<RawSample> raw_range(Nanos t0, Nanos t1) const;
  /// The newest n raw samples, oldest first.
  [[nodiscard]] std::vector<RawSample> latest(std::size_t n) const;

  /// Closed rollups of tier 1 or 2 whose bucket start lies in [t0, t1),
  /// oldest first, followed by the open bucket if it also intersects.
  [[nodiscard]] std::vector<Rollup> rollup_range(int tier, Nanos t0,
                                                 Nanos t1) const;
  [[nodiscard]] std::size_t rollup_count(int tier) const noexcept;
  /// Bucket start of the oldest retained rollup of `tier`; 0 when none.
  [[nodiscard]] Nanos oldest_rollup_t(int tier) const noexcept;

  [[nodiscard]] const SeriesLayout& layout() const noexcept { return layout_; }

 private:
  struct RollupRing {
    std::vector<Rollup> slots;
    std::size_t head = 0;  ///< index of the oldest entry
    std::size_t size = 0;
    void push(const Rollup& r);
  };

  void close_tier1();
  void close_tier2();

  // Everything push() touches first, so a sample costs few cache lines.
  SeriesLayout layout_;

  std::vector<RawSample> raw_;
  std::size_t raw_head_ = 0;
  std::size_t raw_size_ = 0;
  std::uint64_t total_samples_ = 0;
  Nanos last_t_ = 0;
  bool open1_active_ = false;
  bool open2_active_ = false;
  QuantileSketch::BucketMask open1_nonzero_{};  ///< open1_'s sketch buckets
  Rollup open1_{};

  RollupRing tier1_;
  RollupRing tier2_;
  Rollup open2_{};
};

}  // namespace flexric::telemetry
