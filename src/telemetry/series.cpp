#include "telemetry/series.hpp"

#include <algorithm>
#include <bit>

#include "common/result.hpp"

namespace flexric::telemetry {

namespace {

/// What a series allocates up front: the object, raw ring and slot rings.
std::size_t fixed_bytes(const SeriesLayout& l) noexcept {
  return sizeof(TimeSeries) + l.raw_capacity * sizeof(RawSample) +
         (l.tier1_capacity + l.tier2_capacity) * sizeof(RollupSlot);
}

/// First arena size: room for a few sparse closes before the first doubling.
constexpr std::uint32_t kMinArenaWords = 16;

}  // namespace

std::size_t SeriesLayout::bytes_per_series() const noexcept {
  return fixed_bytes(*this) + (tier1_capacity + tier2_capacity) *
                                  TimeSeries::kDenseWords *
                                  sizeof(std::uint32_t);
}

TimeSeries::TimeSeries(const SeriesLayout& layout,
                       std::pmr::memory_resource* mem)
    : layout_(layout),
      raw_(layout.raw_capacity, mem),
      bytes_(fixed_bytes(layout)),
      tier1_(layout.tier1_capacity, mem),
      tier2_(layout.tier2_capacity, mem) {
  for (Tier* tier : {&tier1_, &tier2_}) {
    FLEXRIC_ASSERT(tier->slots.size() <= UINT32_MAX / kDenseWords,
                   "tier capacity overflows the run arena's word index");
    tier->cap = static_cast<std::uint32_t>(tier->slots.size());
  }
}

// @hotpath one call per sample; a close is every 100 ms of series time
void TimeSeries::push(Nanos t, double v) {
  if (!raw_.empty()) {
    if (raw_size_ < raw_.size()) {
      raw_[(raw_head_ + raw_size_) % raw_.size()] = {t, v};
      raw_size_++;
    } else {
      raw_[raw_head_] = {t, v};
      raw_head_ = (raw_head_ + 1) % raw_.size();
    }
  }
  total_samples_++;
  last_t_ = t;

  Nanos b1 = bucket_start(t, layout_.tier1_width);
  if (open1_active_ && b1 > open1_.t_start) close_tier1();
  if (!open1_active_) {  // close_tier1() left open1_ empty
    open1_.t_start = b1;
    open1_active_ = true;
  }
  std::size_t idx = open1_.add(v);
  open1_nonzero_[idx / 64] |= std::uint64_t{1} << (idx % 64);
}

void TimeSeries::close_tier1() {
  keep(tier1_, open1_, open1_nonzero_);
  Nanos b2 = bucket_start(open1_.t_start, layout_.tier2_width);
  if (open2_active_ && b2 > open2_.t_start) close_tier2();
  if (!open2_active_) {  // close_tier2() left open2_ empty
    open2_.t_start = b2;
    open2_active_ = true;
  }
  open1_.move_into(open2_, open1_nonzero_);
  for (std::size_t w = 0; w < open2_nonzero_.size(); ++w)
    open2_nonzero_[w] |= open1_nonzero_[w];
  open1_nonzero_ = {};
  open1_active_ = false;
}

void TimeSeries::close_tier2() {
  keep(tier2_, open2_, open2_nonzero_);
  open2_.clear(open2_nonzero_);
  open2_nonzero_ = {};
  open2_active_ = false;
}

void TimeSeries::keep(Tier& tier, const Rollup& r,
                      const QuantileSketch::BucketMask& nonzero) {
  if (tier.cap == 0) return;
  if (tier.size == tier.cap) {  // the oldest slot and its words go
    tier.arena_head += tier.slots[tier.head].words;
    if (tier.arena_head >= tier.arena_cap) tier.arena_head -= tier.arena_cap;
    tier.arena_used -= tier.slots[tier.head].words;
    if (++tier.head == tier.cap) tier.head = 0;
    tier.size--;
  }
  std::size_t runs = 0;
  for (std::uint64_t w : nonzero) runs += std::popcount(w);
  const auto words =
      static_cast<std::uint32_t>(runs > kMaxRuns ? kDenseWords : runs);
  if (tier.arena_used + words > tier.arena_cap) grow_arena(tier, words);

  std::uint32_t at = tier.arena_head + tier.arena_used;
  if (at >= tier.arena_cap) at -= tier.arena_cap;
  std::uint32_t slot = tier.head + tier.size;
  if (slot >= tier.cap) slot -= tier.cap;
  tier.slots[slot] = {r.t_start, r.count, r.sum, r.min, r.max, at,
                      static_cast<std::uint16_t>(words)};
  tier.size++;
  tier.arena_used += words;
  auto put = [&](std::uint32_t word) {
    tier.arena[at] = word;
    if (++at == tier.arena_cap) at = 0;
  };
  if (words == kDenseWords) {
    for (std::size_t i = 0; i < QuantileSketch::kBuckets; i += 2)
      put(r.sketch.bucket_count(i) |
          std::uint32_t{r.sketch.bucket_count(i + 1)} << 16);
  } else {
    QuantileSketch::for_each_set(nonzero, [&](std::size_t i) {
      put(static_cast<std::uint32_t>(i) << 16 | r.sketch.bucket_count(i));
    });
  }
}

// @coldpath geometric arena growth: a few times per series, capped at the
// tier's bound, which no FIFO of cap rollups can exceed
void TimeSeries::grow_arena(Tier& tier, std::uint32_t words) {
  const auto bound = static_cast<std::uint32_t>(tier.cap * kDenseWords);
  FLEXRIC_ASSERT(tier.arena_used + words <= bound, "run arena over bound");
  const std::uint32_t cap = std::min(
      bound, std::max({tier.arena_cap * 2, tier.arena_used + words,
                       kMinArenaWords}));
  auto grown = std::make_unique_for_overwrite<std::uint32_t[]>(cap);
  // Copy the live words oldest first to the start and re-point the slots.
  for (std::uint32_t i = 0, w = tier.arena_head; i < tier.arena_used; ++i) {
    grown[i] = tier.arena[w];
    if (++w == tier.arena_cap) w = 0;
  }
  for (std::uint32_t i = 0, s = tier.head, at = 0; i < tier.size; ++i) {
    tier.slots[s].at = at;
    at += tier.slots[s].words;
    if (++s == tier.cap) s = 0;
  }
  bytes_ += (cap - tier.arena_cap) * sizeof(std::uint32_t);
  tier.arena = std::move(grown);
  tier.arena_cap = cap;
  tier.arena_head = 0;
}

Rollup TimeSeries::expand(const Tier& tier, const RollupSlot& s) {
  Rollup r;
  r.t_start = s.t_start;
  r.count = s.count;
  r.sum = s.sum;
  r.min = s.min;
  r.max = s.max;
  for (std::uint32_t k = 0, w = s.at; k < s.words; ++k) {
    const std::uint32_t word = tier.arena[w];
    if (++w == tier.arena_cap) w = 0;
    if (s.words == kDenseWords) {
      r.sketch.set_bucket(2 * k, static_cast<std::uint16_t>(word));
      r.sketch.set_bucket(2 * k + 1, static_cast<std::uint16_t>(word >> 16));
    } else {
      r.sketch.set_bucket(word >> 16, static_cast<std::uint16_t>(word));
    }
  }
  r.sketch.set_count(s.count);
  return r;
}

Nanos TimeSeries::oldest_raw_t() const noexcept {
  if (raw_size_ == 0) return 0;
  return raw_[raw_head_].t;
}

std::vector<RawSample> TimeSeries::raw_range(Nanos t0, Nanos t1) const {
  std::vector<RawSample> out;
  for (std::size_t i = 0; i < raw_size_; ++i) {
    const RawSample& s = raw_[(raw_head_ + i) % raw_.size()];
    if (s.t >= t0 && s.t < t1) out.push_back(s);
  }
  return out;
}

std::vector<RawSample> TimeSeries::latest(std::size_t n) const {
  std::size_t take = n < raw_size_ ? n : raw_size_;
  std::vector<RawSample> out;
  out.reserve(take);
  for (std::size_t i = raw_size_ - take; i < raw_size_; ++i)
    out.push_back(raw_[(raw_head_ + i) % raw_.size()]);
  return out;
}

std::vector<Rollup> TimeSeries::rollup_range(int tier, Nanos t0,
                                             Nanos t1) const {
  std::vector<Rollup> out;
  const Tier& ring = tier == 1 ? tier1_ : tier2_;
  for (std::uint32_t i = 0; i < ring.size; ++i) {
    const RollupSlot& s = ring.slots[(ring.head + i) % ring.cap];
    if (s.t_start >= t0 && s.t_start < t1) out.push_back(expand(ring, s));
  }
  const Rollup& open = tier == 1 ? open1_ : open2_;
  bool open_active = tier == 1 ? open1_active_ : open2_active_;
  if (open_active && open.t_start >= t0 && open.t_start < t1)
    out.push_back(open);
  return out;
}

std::size_t TimeSeries::rollup_count(int tier) const noexcept {
  return tier == 1 ? tier1_.size : tier2_.size;
}

Nanos TimeSeries::oldest_rollup_t(int tier) const noexcept {
  const Tier& ring = tier == 1 ? tier1_ : tier2_;
  if (ring.size == 0) {
    const Rollup& open = tier == 1 ? open1_ : open2_;
    bool open_active = tier == 1 ? open1_active_ : open2_active_;
    return open_active ? open.t_start : 0;
  }
  return ring.slots[ring.head].t_start;
}

}  // namespace flexric::telemetry
