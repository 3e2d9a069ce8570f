// Deterministic fuzzer for the E2SM layer: every payload type src/
// passes to sm_encode/sm_decode, plus the four FlexRAN PROTO messages.
// Iteration i generates a value of type i mod kNumTypes with gen<T> and, in
// PER, FLAT and PROTO, asserts decode(encode(v)) == v (so the formats agree
// on the IR) and that every strict prefix fails to decode. It then decodes
// a bit-flipped, a length-corrupted and a random frame: any Result but never
// a crash, and at most 16x the frame + 4 KiB allocated (DESIGN.md §6). The
// mutated decode closest to that bound is printed per format.
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
void run(State& s) {
  const T v = gen<T>(s.rng);
  for (std::size_t fi = 0; fi < kFormats.size(); ++fi) {
    const WireFormat f = kFormats[fi];
    const Buffer wire = e2sm::sm_encode(v, f);
    auto rt = e2sm::sm_decode<T>(wire, f);
    if (!rt) fail("decode of a freshly encoded payload failed", s.iter);
    if (!(*rt == v)) fail("decode(encode(v)) != v", s.iter);
    for (std::size_t n = 0; n < wire.size(); ++n)
      if (e2sm::sm_decode<T>(BytesView(wire).first(n), f))
        fail("decode succeeded on a strict prefix", s.iter);
    attack<T>(s, fi, bit_flip(wire, s.rng), s.flip);
    attack<T>(s, fi, corrupt_length_field(wire, s.rng), s.length);
    attack<T>(s, fi, random_wire(s.rng, 2 * wire.size() + 16), s.random);
  }
}

template <typename... T>
void run_type(State& s, std::size_t i, std::tuple<T...>*) {
  static constexpr void (*kRun[])(State&) = {&run<T>...};
  kRun[i](s);
}

}  // namespace
}  // namespace flexric::fuzz

int main(int argc, char** argv) {
  using namespace flexric::fuzz;
  const auto cfg = parse_args(argc, argv);
  State s(cfg.seed);
  for (; s.iter < cfg.iters; ++s.iter)
    run_type(s, s.iter % kNumTypes, static_cast<Types*>(nullptr));
  std::printf(
      "fuzz_sm: %zu iterations ok over %zu of %zu types (seed 0x%llx)\n"
      "  decoded/rejected: bit-flip %zu/%zu, length-corrupt %zu/%zu, "
      "random %zu/%zu\n",
      cfg.iters, std::min(cfg.iters, kNumTypes), kNumTypes,
      static_cast<unsigned long long>(cfg.seed), s.flip.ok, s.flip.err,
      s.length.ok, s.length.err, s.random.ok, s.random.err);
  for (std::size_t fi = 0; fi < kFormats.size(); ++fi) {
    const Worst& w = s.worst[fi];
    std::printf("  %s worst mutated decode: %zu B allocated for %zu B (%.1fx, "
                "%.0f%% of 16x + 4 KiB)\n",
                wire_format_name(kFormats[fi]).data(), w.bytes, w.input,
                static_cast<double>(w.bytes) / static_cast<double>(w.input),
                100.0 * static_cast<double>(w.bytes) /
                    static_cast<double>(alloc_budget(w.input)));
  }
  return 0;
}
