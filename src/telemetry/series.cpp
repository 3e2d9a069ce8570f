#include "telemetry/series.hpp"

namespace flexric::telemetry {

std::size_t SeriesLayout::bytes_per_series() const noexcept {
  return sizeof(TimeSeries) + raw_capacity * sizeof(RawSample) +
         (tier1_capacity + tier2_capacity) * sizeof(Rollup);
}

TimeSeries::TimeSeries(const SeriesLayout& layout) : layout_(layout) {
  raw_.resize(layout_.raw_capacity);
  tier1_.slots.resize(layout_.tier1_capacity);
  tier2_.slots.resize(layout_.tier2_capacity);
}

void TimeSeries::RollupRing::push(const Rollup& r) {
  if (slots.empty()) return;
  if (size < slots.size()) {
    slots[(head + size) % slots.size()] = r;
    size++;
  } else {
    slots[head] = r;
    head = (head + 1) % slots.size();
  }
}

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
  tier1_.push(open1_);
  Nanos b2 = bucket_start(open1_.t_start, layout_.tier2_width);
  if (open2_active_ && b2 > open2_.t_start) close_tier2();
  if (!open2_active_) {
    open2_ = Rollup{};
    open2_.t_start = b2;
    open2_active_ = true;
  }
  open1_.move_into(open2_, open1_nonzero_);
  open1_nonzero_ = {};
  open1_active_ = false;
}

void TimeSeries::close_tier2() {
  tier2_.push(open2_);
  open2_active_ = false;
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
  const RollupRing& ring = tier == 1 ? tier1_ : tier2_;
  for (std::size_t i = 0; i < ring.size; ++i) {
    const Rollup& r = ring.slots[(ring.head + i) % ring.slots.size()];
    if (r.t_start >= t0 && r.t_start < t1) out.push_back(r);
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
  const RollupRing& ring = tier == 1 ? tier1_ : tier2_;
  if (ring.size == 0) {
    const Rollup& open = tier == 1 ? open1_ : open2_;
    bool open_active = tier == 1 ? open1_active_ : open2_active_;
    return open_active ? open.t_start : 0;
  }
  return ring.slots[ring.head].t_start;
}

}  // namespace flexric::telemetry
