// Differential fuzz harness: the PER and FLAT codecs must agree.
//
// The paper's core claim for the E2AP IR (§4.3) is that the encoding is
// interchangeable without loss of information. This driver checks exactly
// that, per random message m:
//   per.decode(per.encode(m))   == m
//   flat.decode(flat.encode(m)) == m
//   per-decoded IR == flat-decoded IR   (cross-codec semantic equality)
// plus a cross-feed sanity leg: handing one codec's frames to the other must
// produce a Result (usually an error), never a crash.
#include "e2ap/codec.hpp"
#include "fuzz_common.hpp"

int main(int argc, char** argv) {
  using namespace flexric;
  using namespace flexric::fuzz;
  auto cfg = parse_args(argc, argv);
  const e2ap::Codec& per = e2ap::per_codec();
  const e2ap::Codec& flat = e2ap::flat_codec();

  Rng rng(cfg.seed);
  Tally cross;
  std::size_t per_bytes = 0, flat_bytes = 0;
  for (std::size_t i = 0; i < cfg.iters; ++i) {
    e2ap::Msg msg = gen<e2ap::Msg>(rng);

    auto per_wire = per.encode(msg);
    if (!per_wire) fail("PER encode failed", i);
    auto flat_wire = flat.encode(msg);
    if (!flat_wire) fail("FLAT encode failed", i);

    auto per_dec = per.decode(*per_wire);
    if (!per_dec) fail("PER decode of own frame failed", i);
    if (!(*per_dec == msg)) fail("PER round-trip mismatch", i);

    auto flat_dec = flat.decode(*flat_wire);
    if (!flat_dec) fail("FLAT decode of own frame failed", i);
    if (!(*flat_dec == msg)) fail("FLAT round-trip mismatch", i);

    if (!(*per_dec == *flat_dec))
      fail("cross-codec disagreement: PER and FLAT decoded different IR", i);

    // Cross-feed: one codec's bytes through the other decoder. A valid PER
    // frame is arbitrary garbage from FLAT's point of view (and vice versa);
    // any outcome but a clean Result is a bug.
    cross.count(flat.decode(*per_wire).is_ok());
    cross.count(per.decode(*flat_wire).is_ok());

    per_bytes += per_wire->size();
    flat_bytes += flat_wire->size();
  }
  std::printf(
      "fuzz_differential: %zu iterations ok (seed 0x%llx)\n"
      "  avg wire size: PER %.1f B, FLAT %.1f B\n"
      "  cross-feed: %zu decoded / %zu rejected\n",
      cfg.iters, static_cast<unsigned long long>(cfg.seed),
      static_cast<double>(per_bytes) / static_cast<double>(cfg.iters),
      static_cast<double>(flat_bytes) / static_cast<double>(cfg.iters),
      cross.ok, cross.err);
  return 0;
}
