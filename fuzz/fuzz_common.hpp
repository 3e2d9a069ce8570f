// Deterministic, structure-aware fuzzing harness for the wire codecs.
//
// No libFuzzer dependency: each driver is a plain executable that loops a
// seeded xoshiro PRNG (common/rng.hpp), so every run — locally and in CI —
// replays the identical input sequence. Inputs come from the messages' own
// serde() declarations: the Gen archive below walks a declaration and fills
// each field at random inside the ranges it declares, for every E2AP
// procedure and every E2SM payload alike. Each fuzzer then attacks the
// decoders with truncated, bit-flipped, length-field-corrupted and fully
// random inputs. Decoders must uphold the contract of DESIGN.md §6: a Result
// error on bad input, never a crash, abort or UB (sanitizer builds turn any
// violation into a hard failure).
#pragma once

#include <bit>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/buffer.hpp"
#include "common/rng.hpp"
#include "e2ap/messages.hpp"
#include "e2sm/serde.hpp"

namespace flexric::fuzz {

// ------------------------- generated IR ------------------------------------

/// Up to `max_len` random bytes.
inline Buffer random_bytes(Rng& rng, std::size_t max_len) {
  Buffer b(rng.bounded(max_len + 1));
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.next());
  return b;
}

/// Generating archive: fills a message from an Rng by walking its serde()
/// declaration. ranged() draws inside the declared range, so every value it
/// builds encodes; enum8() draws up to the enum's enum_last(), except that
/// with chance `forge_chance` it draws past it, a value every decoder must
/// reject (forged() counts them); other scalars draw their full width,
/// except that f64 draws finite values only (NaN != NaN would break the
/// round-trip check).
/// Lists hold up to kMaxCount random elements. A top-level list is instead
/// up to kMaxLongCount long with chance `long_chance`, or, when
/// `floor_count` is set, exactly that many default elements: the smallest
/// each encodes to, so the most elements per wire byte.
class Gen : public e2sm::Archive<Gen> {
 public:
  static constexpr std::size_t kMaxLen = 48;   ///< str and bytes
  static constexpr std::size_t kMaxCount = 5;  ///< vec elements
  static constexpr std::size_t kMaxLongCount = 1024;

  explicit Gen(Rng& rng, double long_chance = 0.0,
               std::size_t floor_count = 0, double forge_chance = 0.0)
      : rng_(rng),
        long_chance_(long_chance),
        floor_count_(floor_count),
        forge_chance_(forge_chance) {}
  void u8(std::uint8_t& v) { v = static_cast<std::uint8_t>(rng_.next()); }
  void u16(std::uint16_t& v) { v = static_cast<std::uint16_t>(rng_.next()); }
  void u32(std::uint32_t& v) { v = static_cast<std::uint32_t>(rng_.next()); }
  void u64(std::uint64_t& v) { v = rng_.next(); }
  void i64(std::int64_t& v) { v = static_cast<std::int64_t>(rng_.next()); }
  void f64(double& v) {
    do v = std::bit_cast<double>(rng_.next());
    while (!std::isfinite(v));
  }
  void boolean(bool& v) { v = rng_.chance(0.5); }
  template <typename E>
  void enum8(E& v) {
    const auto last = static_cast<std::uint64_t>(enum_last(E{}));
    if (forge_chance_ > 0.0 && rng_.chance(forge_chance_)) {
      forged_++;
      v = static_cast<E>(last + 1 + rng_.bounded(0xFF - last));
    } else {
      v = static_cast<E>(rng_.bounded(last + 1));
    }
  }
  void str(std::string& v) {
    const Buffer b = random_bytes(rng_, kMaxLen);
    v.assign(b.begin(), b.end());
  }
  void bytes(Buffer& v) { v = random_bytes(rng_, kMaxLen); }
  template <typename T>
  void ranged(T& v, std::uint64_t lo, std::uint64_t hi) {
    v = static_cast<T>(lo + rng_.bounded(hi - lo + 1));
  }
  template <typename O>
  void present(O& v) {
    if (rng_.chance(0.5)) v.emplace();
    else v.reset();
  }
  template <typename T, typename F = e2sm::FieldFn>
  void body(std::optional<T>& v, F elem = {}) {
    if (v) elem(*this, *v);
  }
  template <typename T, typename F = e2sm::FieldFn>
  void vec(std::vector<T>& v, F elem = {}) {
    if (depth_ == 0 && floor_count_ > 0) {
      v.assign(floor_count_, T{});
      return;
    }
    std::size_t n = rng_.bounded(kMaxCount + 1);
    if (depth_ == 0 && long_chance_ > 0.0 && rng_.chance(long_chance_))
      n = rng_.bounded(kMaxLongCount + 1);
    v.resize(n);
    ++depth_;
    for (auto& e : v) elem(*this, e);
    --depth_;
  }
  /// Enums drawn past their enum_last() so far.
  [[nodiscard]] std::size_t forged() const noexcept { return forged_; }

 private:
  Rng& rng_;
  double long_chance_;
  std::size_t floor_count_;
  double forge_chance_;
  std::size_t forged_ = 0;
  int depth_ = 0;  ///< lists being filled around the current field
};

/// A random message of any serde-declared type (Gen for the list options).
template <typename T>
T gen(Rng& rng, double long_chance = 0.0, std::size_t floor_count = 0) {
  T v{};
  Gen a(rng, long_chance, floor_count);
  a.field(v);
  return v;
}

/// A random E2AP message, uniform over all 21 procedures: the tag is drawn
/// the way the codecs declare it, and blank_msg() picks the alternative.
template <>
inline e2ap::Msg gen<e2ap::Msg>(Rng& rng, double long_chance,
                                std::size_t floor_count) {
  Gen a(rng, long_chance, floor_count);
  e2ap::MsgType t{};
  a.ranged(t, 0, e2ap::kNumMsgTypes - 1);
  e2ap::Msg m =
      e2ap::blank_msg(t, std::make_index_sequence<e2ap::kNumMsgTypes>{});
  std::visit([&a](auto& msg) { a.field(msg); }, m);
  return m;
}

// ------------------------- wire mutators -----------------------------------

/// Strict prefix of a valid frame. Both codecs consume their full encoding,
/// so decoding any strict prefix MUST fail (asserted by the drivers).
inline Buffer truncate(const Buffer& wire, Rng& rng) {
  if (wire.empty()) return wire;
  return Buffer(wire.begin(),
                wire.begin() + static_cast<long>(rng.bounded(wire.size())));
}

/// Flip 1..8 random bits. May still decode successfully (e.g. a flip inside
/// an opaque SM payload); must never crash.
inline Buffer bit_flip(const Buffer& wire, Rng& rng) {
  Buffer out = wire;
  if (out.empty()) return out;
  std::size_t flips = 1 + rng.bounded(8);
  for (std::size_t i = 0; i < flips; ++i)
    out[rng.bounded(out.size())] ^=
        static_cast<std::uint8_t>(1u << rng.bounded(8));
  return out;
}

/// Stomp 1..4 random bytes with adversarial length-shaped values (0xFF, high
/// bit set, large counts). Whatever byte happens to be a PER length
/// determinant, a FLAT size prefix / var-slot (offset,len) or a list count
/// gets inflated far beyond the actual payload.
inline Buffer corrupt_length_field(const Buffer& wire, Rng& rng) {
  Buffer out = wire;
  if (out.empty()) return out;
  static constexpr std::uint8_t kEvil[] = {0xFF, 0xFE, 0x80, 0x7F, 0x40, 0xBF};
  std::size_t stomps = 1 + rng.bounded(4);
  for (std::size_t i = 0; i < stomps; ++i)
    out[rng.bounded(out.size())] = kEvil[rng.bounded(sizeof kEvil)];
  return out;
}

/// Fully random garbage, occasionally starting with a valid-looking tag.
inline Buffer random_wire(Rng& rng, std::size_t max_len) {
  Buffer b = random_bytes(rng, max_len);
  if (!b.empty() && rng.chance(0.25))
    b[0] = static_cast<std::uint8_t>(rng.bounded(e2ap::kNumMsgTypes));
  return b;
}

// ------------------------- driver scaffolding ------------------------------

struct DriverConfig {
  std::uint64_t seed = 0xF1EC5EEDULL;
  std::size_t iters = 100000;
};

/// Parse --seed N / --iters N; exits 2 on a missing, empty, non-numeric,
/// negative or partly numeric value, so CTest misconfiguration is loud.
inline DriverConfig parse_args(int argc, char** argv) {
  DriverConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto next_u64 = [&](const char* flag) -> std::uint64_t {
      const char* v = i + 1 < argc ? argv[++i] : "";
      char* end = nullptr;
      errno = 0;
      const std::uint64_t n = std::strtoull(v, &end, 0);
      // Alone, strtoull would skip blanks, wrap a '-' and stop at junk.
      if (!std::isdigit(static_cast<unsigned char>(*v)) || *end != '\0' ||
          errno == ERANGE) {
        std::fprintf(stderr, "bad value '%s' for %s\n", v, flag);
        std::exit(2);
      }
      return n;
    };
    if (std::strcmp(a, "--seed") == 0) {
      cfg.seed = next_u64("--seed");
    } else if (std::strcmp(a, "--iters") == 0) {
      cfg.iters = static_cast<std::size_t>(next_u64("--iters"));
    } else {
      std::fprintf(stderr, "usage: %s [--seed N] [--iters N]\n", argv[0]);
      std::exit(2);
    }
  }
  return cfg;
}

/// Tally of decode outcomes per attack strategy; printed at exit so a run's
/// coverage is visible in the CTest log.
struct Tally {
  std::size_t ok = 0;
  std::size_t err = 0;
  void count(bool decoded_ok) { decoded_ok ? ++ok : ++err; }
};

/// Hard failure: print and abort the driver with a nonzero exit code.
[[noreturn]] inline void fail(const char* what, std::size_t iter) {
  std::fprintf(stderr, "FUZZ FAILURE at iteration %zu: %s\n", iter, what);
  std::exit(1);
}

}  // namespace flexric::fuzz
