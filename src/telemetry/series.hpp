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
// instead of vanishing.
//
// Only the two open buckets hold a dense 258-bucket sketch. A closed rollup
// is a 48 B slot (its header plus where its sketch sits) and its sketch's
// non-zero buckets, kept as sorted (bucket, count) words in its tier's run
// arena; one with more than kMaxRuns non-zero buckets keeps the dense counts
// instead, so no rollup takes more than kDenseWords words. The arena is a
// FIFO ring beside the slot ring: a close appends at the tail, a ring wrap
// frees from the head. It starts empty and grows geometrically, in one
// @coldpath function, up to capacity * kDenseWords words, so bytes() is
// what the series has allocated and never exceeds bytes_per_series(). A
// bitmap of each open bucket's non-zero sketch buckets makes a close
// O(non-zero buckets), not O(258): 1-3 at a 40 ms report period.
// rollup_range() expands the stored runs back into dense Rollups.
//
// Timestamps are expected non-decreasing (the indication stream is ordered
// per agent). A late sample still lands in the raw ring and is folded into
// the currently open rollup bucket rather than reopening a closed one.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <memory_resource>
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
    clear_header();
  }
  /// Sparse clear of all but t_start; `nonzero` as for move_into().
  void clear(const QuantileSketch::BucketMask& nonzero) noexcept {
    sketch.clear(nonzero);
    clear_header();
  }
  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

 private:
  void clear_header() noexcept {
    count = 0;
    sum = 0.0;
    min = std::numeric_limits<double>::infinity();
    max = -std::numeric_limits<double>::infinity();
  }
};

/// A closed rollup's ring slot: the Rollup header and the arena words that
/// hold its sketch (series.hpp header comment).
struct RollupSlot {
  Nanos t_start = 0;
  std::uint64_t count = 0;  ///< also the sketch's true count
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::uint32_t at = 0;     ///< first arena word; the run may wrap
  std::uint16_t words = 0;  ///< run words, or kDenseWords for dense counts
};
static_assert(sizeof(RollupSlot) == 48);

/// Ring capacities and rollup widths, shared by every series in a store.
struct SeriesLayout {
  std::size_t raw_capacity = 512;
  std::size_t tier1_capacity = 128;
  std::size_t tier2_capacity = 128;
  Nanos tier1_width = 100 * kMilli;
  Nanos tier2_width = kSecond;

  /// The most one series can cost under this layout: its object, raw ring
  /// and slots, and full run arenas. The store admits series against it.
  [[nodiscard]] std::size_t bytes_per_series() const noexcept;
};

class TimeSeries {
 public:
  /// Sketch buckets a closed rollup keeps as (bucket << 16 | count) runs;
  /// past that it keeps all the counts, two per word.
  static constexpr std::size_t kMaxRuns = 128;
  static constexpr std::size_t kDenseWords = QuantileSketch::kBuckets / 2;
  static_assert(QuantileSketch::kBuckets % 2 == 0 && kMaxRuns < kDenseWords);

  /// The raw ring and both slot rings come from `mem` (a store passes its
  /// Slab); the run arenas always come from the default heap.
  explicit TimeSeries(
      const SeriesLayout& layout,
      std::pmr::memory_resource* mem = std::pmr::new_delete_resource());

  /// Record one sample. Allocates only when a close outgrows its tier's run
  /// arena (grow_arena(), @coldpath): a few times per series, never past
  /// bytes_per_series().
  void push(Nanos t, double v);

  /// Bytes this series has allocated, including the object itself.
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }

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
  /// One tier's closed rollups: a slot ring and its FIFO run arena.
  struct Tier {
    Tier(std::size_t capacity, std::pmr::memory_resource* mem)
        : slots(capacity, mem) {}
    std::pmr::vector<RollupSlot> slots;
    std::unique_ptr<std::uint32_t[]> arena;
    std::uint32_t cap = 0;   ///< slots
    std::uint32_t head = 0;  ///< index of the oldest slot
    std::uint32_t size = 0;
    std::uint32_t arena_cap = 0;   ///< words
    std::uint32_t arena_head = 0;  ///< first word of the oldest slot
    std::uint32_t arena_used = 0;
  };

  void close_tier1();
  void close_tier2();
  /// Store closed rollup `r` in `tier`, dropping the oldest when full.
  void keep(Tier& tier, const Rollup& r,
            const QuantileSketch::BucketMask& nonzero);
  void grow_arena(Tier& tier, std::uint32_t words);
  [[nodiscard]] static Rollup expand(const Tier& tier, const RollupSlot& s);

  // Everything push() touches first, so a sample costs few cache lines.
  SeriesLayout layout_;

  std::pmr::vector<RawSample> raw_;
  std::size_t raw_head_ = 0;
  std::size_t raw_size_ = 0;
  std::uint64_t total_samples_ = 0;
  Nanos last_t_ = 0;
  std::size_t bytes_ = 0;
  bool open1_active_ = false;
  bool open2_active_ = false;
  QuantileSketch::BucketMask open1_nonzero_{};  ///< open1_'s sketch buckets
  Rollup open1_{};

  Tier tier1_;
  Tier tier2_;
  QuantileSketch::BucketMask open2_nonzero_{};  ///< open2_'s sketch buckets
  Rollup open2_{};
};

}  // namespace flexric::telemetry
