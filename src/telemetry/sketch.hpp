// Fixed-size quantile sketch for KPI rollups.
//
// Every downsampled rollup (see series.hpp) carries one of these so windowed
// queries can answer "p95 sojourn over the last 10 s" long after the raw
// samples were overwritten. The design constraints are bounded memory
// (rollup rings hold thousands of sketches) and lossless *mergeability*
// (tier cascading merges sketches; a merge must not add error), which rules
// out reservoir sampling. We use a log-bucketed histogram, the scheme behind
// HdrHistogram/DDSketch: deterministic, mergeable by bucket-count addition,
// and with a documented worst-case relative error.
//
// Bucket layout: values are non-negative KPIs. Each power-of-two octave
// [2^e, 2^(e+1)) is split into kSub linear sub-buckets; a quantile query
// reports the midpoint of the selected bucket, so the relative error is at
// most 1/(2*kSub) = kRelativeError. One underflow bucket collects
// v < kMinValue (reported as 0 — absolute error ≤ kMinValue) and one
// overflow bucket collects v ≥ kMaxValue (reported as kMaxValue, clamped).
// Counts saturate at 65535 per bucket; count() stays the true total, also
// through merge() and move_into(). A rollup covers at most a few thousand
// 1 ms samples, far below saturation.
//
// This dense form is what the open rollups and every query result hold.
// Closed rollups keep only the non-zero buckets (series.hpp), read back
// through bucket_count() and rebuilt with set_bucket()/set_count().
#pragma once

#include <array>
#include <bit>
#include <cstdint>

namespace flexric::telemetry {

class QuantileSketch {
 public:
  static constexpr int kSub = 4;       ///< sub-buckets per octave
  static constexpr int kMinExp = -8;   ///< lowest octave: [2^-8, 2^-7)
  static constexpr int kMaxExp = 55;   ///< highest octave: [2^55, 2^56)
  static constexpr double kMinValue = 1.0 / 256.0;           // 2^kMinExp
  static constexpr double kMaxValue = 72057594037927936.0;   // 2^(kMaxExp+1)
  /// Worst-case relative error of quantile() for values inside
  /// [kMinValue, kMaxValue): half a sub-bucket width.
  static constexpr double kRelativeError = 1.0 / (2.0 * kSub);
  static constexpr std::size_t kBuckets =
      2 + static_cast<std::size_t>(kMaxExp - kMinExp + 1) * kSub;

  /// One bit per bucket; see move_into().
  using BucketMask = std::array<std::uint64_t, (kBuckets + 63) / 64>;
  /// Calls f(idx) for each bucket set in `mask`, in ascending order.
  template <typename F>
  static void for_each_set(const BucketMask& mask, F&& f) {
    for (std::size_t w = 0; w < mask.size(); ++w)
      for (std::uint64_t bits = mask[w]; bits != 0; bits &= bits - 1)
        f(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
  }

  /// Returns the bucket the value landed in.
  std::size_t record(double v) noexcept {
    std::size_t idx = bucket_of(v);
    bump(idx, 1);
    total_++;
    return idx;
  }
  /// Bucket-wise merge (saturating); merging adds no quantile error.
  void merge(const QuantileSketch& o) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) bump(i, o.counts_[i]);
    total_ += o.total_;
  }
  /// dst.merge(*this) then clear(), visiting only the buckets in `nonzero`,
  /// which must cover every non-zero one: O(set bits), not O(kBuckets).
  void move_into(QuantileSketch& dst, const BucketMask& nonzero) noexcept {
    for_each_set(nonzero, [&](std::size_t i) {
      dst.bump(i, counts_[i]);
      counts_[i] = 0;
    });
    dst.total_ += total_;
    total_ = 0;
  }
  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }
  /// q in [0,1], nearest-rank over buckets; midpoint of the selected
  /// bucket. Returns 0 when empty. NaN q is treated as 0.
  [[nodiscard]] double quantile(double q) const noexcept;
  void clear() noexcept {
    counts_.fill(0);
    total_ = 0;
  }
  /// clear(), visiting only the buckets in `nonzero` (as move_into()).
  void clear(const BucketMask& nonzero) noexcept {
    for_each_set(nonzero, [&](std::size_t i) { counts_[i] = 0; });
    total_ = 0;
  }

  /// Saturated count of one bucket.
  [[nodiscard]] std::uint16_t bucket_count(std::size_t idx) const noexcept {
    return counts_[idx];
  }
  /// Rebuild a stored sketch: set_bucket() each saved bucket count, then
  /// set_count() the true total.
  void set_bucket(std::size_t idx, std::uint16_t c) noexcept {
    counts_[idx] = c;
  }
  void set_count(std::uint64_t total) noexcept { total_ = total; }

  bool operator==(const QuantileSketch&) const = default;

  /// Value -> bucket index (exposed for tests).
  static std::size_t bucket_of(double v) noexcept;
  /// Bucket index -> representative (midpoint) value.
  static double bucket_value(std::size_t idx) noexcept;

 private:
  /// Saturating add to one bucket; callers keep total_.
  void bump(std::size_t idx, std::uint32_t by) noexcept {
    std::uint32_t c = counts_[idx];
    counts_[idx] = static_cast<std::uint16_t>(
        c + by > 0xFFFF ? 0xFFFF : c + by);
  }
  std::array<std::uint16_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;  ///< true count, unaffected by saturation
};

}  // namespace flexric::telemetry
