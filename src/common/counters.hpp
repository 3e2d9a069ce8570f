// One declaration per counter group (DESIGN.md §11). A stats struct keeps
// its counters as plain named std::uint64_t members, so the hot path stays
// `stats_.x++`, and lists them once more in a field walk shaped like
// serde(a, v), a hidden friend found by argument-dependent lookup:
//
//   template <typename F, CounterGroup<Stats> S>
//   friend constexpr void counters(F&& f, S& s) {
//     f("msgs_rx", s.msgs_rx);
//   }
//
// Everything per-field derives from the walk: the helpers below, the shard
// counter board's seqlock slot (common/shard_stats.hpp) and JSON export.
// Adding a counter is one member plus one walk line.
#pragma once

#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace flexric {

/// `S` is `T` or `const T`: one walk serves readers and writers.
template <typename S, typename T>
concept CounterGroup = std::same_as<std::remove_const_t<S>, T>;

/// `s` as its base group `B`, keeping its constness: a derived group's walk
/// starts with its base's.
template <typename B, typename S>
constexpr auto& as_base(S& s) {
  return static_cast<std::conditional_t<std::is_const_v<S>, const B, B>&>(s);
}

template <typename S>
constexpr std::size_t counter_count() {
  S s{};
  std::size_t n = 0;
  counters([&n](std::string_view, std::uint64_t) { ++n; }, s);
  return n;
}

/// dst += src, counter by counter: the merge-on-query sum.
template <typename S>
void add_counters(S& dst, const S& src) {
  std::array<std::uint64_t, counter_count<S>()> v{};
  std::size_t i = 0;
  counters([&](std::string_view, std::uint64_t x) { v[i++] = x; }, src);
  i = 0;
  counters([&](std::string_view, std::uint64_t& x) { x += v[i++]; }, dst);
}

/// "name=value name=value ..." in walk order (determinism traces).
template <typename S>
std::string counters_text(const S& s) {
  std::string out;
  counters(
      [&](std::string_view k, std::uint64_t x) {
        out.append(out.empty() ? "" : " ").append(k).append("=");
        out.append(std::to_string(x));
      },
      s);
  return out;
}

}  // namespace flexric
