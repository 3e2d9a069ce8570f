// Deterministic fuzzer for the E2SM layer: every payload type src/
// passes to sm_encode/sm_decode, plus the four FlexRAN PROTO messages.
// Iteration i generates a value of type i mod kNumTypes with Gen and, in
// PER, FLAT and PROTO, asserts decode(encode(v)) == v (so the formats agree
// on the IR) and that every strict prefix fails to decode (8 spread over an
// input past 4 KiB). One enum in 32 is forged past its enum_last(): a value
// holding one must fail to decode as malformed in every format. It then
// decodes a bit-flipped, a length-corrupted and a random frame: any Result
// but never a crash. Every decode allocates at most
// 16x the frame + 4 KiB (DESIGN.md §6); a fresh encoding may be refused only
// as over that budget, and only when the value itself holds more. One
// top-level list in 128 is long, so inputs pass the 4 KiB floor; before the
// random iterations, every type runs once with each top-level list full of
// default elements (64 Ki of them, 16,383 in PER, whose length determinant
// stops there), so every format decodes a list of its smallest elements
// past 64 KiB. The mutated decode closest to the budget and the largest
// input are printed per format.
#include <algorithm>
#include <array>
#include <cstdio>
#include <tuple>

#include "baseline/flexran/protocol.hpp"
#include "common/alloc_counter.hpp"
#include "e2sm/assoc_sm.hpp"
#include "e2sm/hw_sm.hpp"
#include "e2sm/kpm_sm.hpp"
#include "e2sm/mac_sm.hpp"
#include "e2sm/pdcp_sm.hpp"
#include "e2sm/rlc_sm.hpp"
#include "e2sm/rrc_sm.hpp"
#include "e2sm/slice_sm.hpp"
#include "e2sm/tc_sm.hpp"
#include "fuzz_common.hpp"

namespace flexric::fuzz {
namespace {

namespace sm = e2sm;
namespace fr = baseline::flexran;
using Types = std::tuple<
    sm::EventTrigger,
    sm::mac::ActionDef, sm::mac::IndicationHdr, sm::mac::IndicationMsg,
    sm::rlc::ActionDef, sm::rlc::IndicationHdr, sm::rlc::IndicationMsg,
    sm::pdcp::ActionDef, sm::pdcp::IndicationHdr, sm::pdcp::IndicationMsg,
    sm::kpm::ActionDef, sm::kpm::IndicationHdr, sm::kpm::IndicationMsg,
    sm::rrc::ActionDef, sm::rrc::IndicationHdr, sm::rrc::IndicationMsg,
    sm::slice::CtrlMsg, sm::slice::CtrlOutcome, sm::slice::IndicationHdr,
    sm::slice::IndicationMsg,
    sm::tc::PolicyDef, sm::tc::CtrlMsg, sm::tc::CtrlOutcome,
    sm::tc::IndicationHdr, sm::tc::IndicationMsg,
    sm::hw::Ping, sm::hw::Pong, sm::hw::IndicationHdr,
    sm::assoc::CtrlMsg, sm::assoc::CtrlOutcome,
    fr::Hello, fr::StatsRequest, fr::StatsReport, fr::Echo>;
constexpr std::size_t kNumTypes = std::tuple_size_v<Types>;

constexpr std::array kFormats = {WireFormat::per, WireFormat::flat,
                                 WireFormat::proto};

constexpr std::size_t alloc_budget(std::size_t input) {
  return 16 * input + 4096;
}

constexpr double kLongChance = 1.0 / 128;
constexpr double kForgeChance = 1.0 / 32;
constexpr std::size_t kAllPrefixes = 4096;    ///< inputs with every prefix
constexpr std::size_t kSampledPrefixes = 8;   ///< prefixes of longer ones

/// Top-level list length of the smallest-element pass, per format.
constexpr std::size_t floor_count(WireFormat f) {
  return f == WireFormat::per ? 16383 : 64 * 1024;
}

/// The heap bytes `v` holds: what copying it allocates.
template <typename T>
std::size_t footprint(const T& v) {
  alloc_counter::arm();
  const T copy = v;
  const std::size_t bytes = alloc_counter::disarm();
  static_cast<void>(copy);
  return bytes;
}

/// The mutated decode of one format that came closest to its budget.
struct Worst {
  std::size_t bytes = 0;
  std::size_t input = 1;
  void offer(std::size_t b, std::size_t in) {
    if (b * alloc_budget(input) > bytes * alloc_budget(in)) *this = {b, in};
  }
};

struct State {
  explicit State(std::uint64_t seed) : rng(seed) {}
  Rng rng;
  std::size_t iter = 0;
  Tally flip, length, random;
  std::array<Worst, kFormats.size()> worst;
  std::array<std::size_t, kFormats.size()> largest{};
  std::size_t refused = 0;  ///< fresh encodings over the decode budget
  std::size_t forged = 0;   ///< encodings of forged enums, all rejected
};

/// Decode an attacked frame: any Result is fine, but no more allocation
/// than the budget.
template <typename T>
void attack(State& s, std::size_t fi, const Buffer& wire, Tally& tally) {
  alloc_counter::arm();
  auto d = e2sm::sm_decode<T>(wire, kFormats[fi]);
  const std::size_t bytes = alloc_counter::disarm();
  if (bytes > alloc_budget(wire.size()))
    fail("mutated decode allocated more than 16x its input + 4 KiB", s.iter);
  s.worst[fi].offer(bytes, std::max<std::size_t>(wire.size(), 1));
  tally.count(d.is_ok());
}

template <typename T>
void check(State& s, std::size_t fi, const T& v, bool forged) {
  const WireFormat f = kFormats[fi];
  const Buffer wire = e2sm::sm_encode(v, f);
  s.largest[fi] = std::max(s.largest[fi], wire.size());
  alloc_counter::arm();
  auto rt = e2sm::sm_decode<T>(wire, f);
  const std::size_t bytes = alloc_counter::disarm();
  if (bytes > alloc_budget(wire.size()))
    fail("decode allocated more than 16x its input + 4 KiB", s.iter);
  if (forged) {
    if (rt || rt.error().code != Errc::malformed)
      fail("a forged enum decoded", s.iter);
    s.forged++;
  } else if (!rt) {
    if (rt.error().message != e2sm::kOverBudget ||
        footprint(v) <= e2sm::PerDec::decode_budget(wire.size()))
      fail("decode of a freshly encoded payload failed", s.iter);
    s.refused++;
  } else if (!(*rt == v)) {
    fail("decode(encode(v)) != v", s.iter);
  }
  const std::size_t step =
      wire.size() <= kAllPrefixes ? 1 : wire.size() / kSampledPrefixes;
  for (std::size_t n = 0; n < wire.size(); n += step)
    if (e2sm::sm_decode<T>(BytesView(wire).first(n), f))
      fail("decode succeeded on a strict prefix", s.iter);
  attack<T>(s, fi, bit_flip(wire, s.rng), s.flip);
  attack<T>(s, fi, corrupt_length_field(wire, s.rng), s.length);
  attack<T>(s, fi, random_wire(s.rng, 2 * wire.size() + 16), s.random);
}

template <typename T>
void run(State& s) {
  T v{};
  Gen g(s.rng, kLongChance, 0, kForgeChance);
  g.field(v);
  for (std::size_t fi = 0; fi < kFormats.size(); ++fi)
    check(s, fi, v, g.forged() > 0);
}

template <typename T>
void run_floor(State& s) {
  for (std::size_t fi = 0; fi < kFormats.size(); ++fi)
    check(s, fi, gen<T>(s.rng, 0.0, floor_count(kFormats[fi])), false);
}

template <typename... T>
void run_type(State& s, std::size_t i, std::tuple<T...>*) {
  static constexpr void (*kRun[])(State&) = {&run<T>...};
  kRun[i](s);
}

template <typename... T>
void run_floors(State& s, std::tuple<T...>*) {
  (run_floor<T>(s), ...);
}

}  // namespace
}  // namespace flexric::fuzz

int main(int argc, char** argv) {
  using namespace flexric::fuzz;
  const auto cfg = parse_args(argc, argv);
  State s(cfg.seed);
  run_floors(s, static_cast<Types*>(nullptr));
  for (; s.iter < cfg.iters; ++s.iter)
    run_type(s, s.iter % kNumTypes, static_cast<Types*>(nullptr));
  std::printf(
      "fuzz_sm: %zu iterations ok over %zu of %zu types (seed 0x%llx), "
      "after a smallest-element pass over all of them\n"
      "  decoded/rejected: bit-flip %zu/%zu, length-corrupt %zu/%zu, "
      "random %zu/%zu; fresh encodings refused as over budget: %zu; "
      "forged enums rejected: %zu\n",
      cfg.iters, std::min(cfg.iters, kNumTypes), kNumTypes,
      static_cast<unsigned long long>(cfg.seed), s.flip.ok, s.flip.err,
      s.length.ok, s.length.err, s.random.ok, s.random.err, s.refused,
      s.forged);
  for (std::size_t fi = 0; fi < kFormats.size(); ++fi) {
    const Worst& w = s.worst[fi];
    std::printf("  %s worst mutated decode: %zu B allocated for %zu B (%.1fx, "
                "%.0f%% of 16x + 4 KiB); largest input %zu B\n",
                wire_format_name(kFormats[fi]).data(), w.bytes, w.input,
                static_cast<double>(w.bytes) / static_cast<double>(w.input),
                100.0 * static_cast<double>(w.bytes) /
                    static_cast<double>(alloc_budget(w.input)),
                s.largest[fi]);
  }
  return 0;
}
