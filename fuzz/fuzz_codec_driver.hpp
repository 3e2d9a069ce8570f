// Shared attack loop for the per-codec fuzz drivers.
//
// Per iteration: generate a message with gen<e2ap::Msg>, encode it, then
//   1. assert the clean round-trip (decode(encode(m)) == m),
//   2. decode a strict prefix        -> MUST return an error Result,
//   3. decode a bit-flipped frame    -> error or success, never a crash,
//   4. decode a length-corrupted frame -> error or success, never a crash,
//   5. decode fully random bytes     -> error or success, never a crash.
// Whenever an adversarial decode "succeeds", the decoded IR is re-encoded to
// exercise the encoder against adversarially derived values. All asserts are
// plain process exits; memory/UB violations are caught by the sanitizer
// build (FLEXRIC_SANITIZE=address;undefined).
#pragma once

#include "e2ap/codec.hpp"
#include "fuzz_common.hpp"

namespace flexric::fuzz {

inline int run_codec_fuzz(const e2ap::Codec& codec, const DriverConfig& cfg,
                          const char* label) {
  Rng rng(cfg.seed);
  Tally flip, length, random;
  for (std::size_t i = 0; i < cfg.iters; ++i) {
    e2ap::Msg msg = gen<e2ap::Msg>(rng);
    auto wire = codec.encode(msg);
    if (!wire) fail("encode of a valid IR message failed", i);

    auto rt = codec.decode(*wire);
    if (!rt) fail("decode of a freshly encoded frame failed", i);
    if (!(*rt == msg)) fail("decode(encode(m)) != m", i);

    // Strict prefixes: both codecs consume their whole encoding, so success
    // here means the decoder read fields it never received.
    auto trunc = codec.decode(truncate(*wire, rng));
    if (trunc.is_ok()) fail("decode succeeded on a strict prefix", i);

    auto reencode_if_ok = [&](const Result<e2ap::Msg>& d) {
      if (!d) return;
      auto re = codec.encode(*d);
      if (!re) fail("re-encode of adversarially decoded IR failed", i);
    };

    auto flipped = codec.decode(bit_flip(*wire, rng));
    flip.count(flipped.is_ok());
    reencode_if_ok(flipped);

    auto corrupted = codec.decode(corrupt_length_field(*wire, rng));
    length.count(corrupted.is_ok());
    reencode_if_ok(corrupted);

    auto garbage = codec.decode(random_wire(rng, 96));
    random.count(garbage.is_ok());
    reencode_if_ok(garbage);
  }
  std::printf(
      "%s: %zu iterations ok (seed 0x%llx)\n"
      "  bit-flip: %zu decoded / %zu rejected\n"
      "  length-corrupt: %zu decoded / %zu rejected\n"
      "  random: %zu decoded / %zu rejected\n",
      label, cfg.iters, static_cast<unsigned long long>(cfg.seed), flip.ok,
      flip.err, length.ok, length.err, random.ok, random.err);
  return 0;
}

}  // namespace flexric::fuzz
