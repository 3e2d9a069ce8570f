// Deterministic, structure-aware fuzzing harness for the E2AP wire codecs.
//
// No libFuzzer dependency: each driver is a plain executable that loops a
// seeded xoshiro PRNG (common/rng.hpp), so every run — locally and in CI —
// replays the identical input sequence. The harness generates random but
// constraint-respecting e2ap::Msg instances across all 21 procedures, then
// attacks the decoders with truncated, bit-flipped, length-field-corrupted
// and fully random inputs. Decoders must uphold the contract of
// DESIGN.md §6: a Result error on bad input, never a crash, abort or UB
// (sanitizer builds turn any violation into a hard failure).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/buffer.hpp"
#include "common/rng.hpp"
#include "e2ap/messages.hpp"

namespace flexric::fuzz {

// ------------------------- random IR generation ----------------------------
// Values stay inside the ranges the procedures' serde() declarations give
// (a value outside them fails encode() with Errc::out_of_range), so every
// generated Msg must round-trip through either codec.

inline Buffer rand_buf(Rng& rng, std::size_t max_len) {
  Buffer b(rng.bounded(max_len + 1));
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.next());
  return b;
}

inline std::string rand_str(Rng& rng, std::size_t max_len) {
  std::string s(rng.bounded(max_len + 1), '\0');
  for (auto& c : s) c = static_cast<char>('a' + rng.bounded(26));
  return s;
}

inline e2ap::GlobalNodeId rand_node_id(Rng& rng) {
  e2ap::GlobalNodeId id;
  id.plmn = static_cast<std::uint32_t>(rng.bounded(0xFFFFFF + 1ULL));
  id.nb_id = static_cast<std::uint32_t>(rng.bounded(0xFFFFFFF + 1ULL));
  id.type = static_cast<e2ap::NodeType>(rng.bounded(4));
  return id;
}

inline e2ap::Cause rand_cause(Rng& rng) {
  return {static_cast<e2ap::Cause::Group>(rng.bounded(4)),
          static_cast<std::uint8_t>(rng.next())};
}

inline e2ap::RicRequestId rand_req_id(Rng& rng) {
  return {static_cast<std::uint16_t>(rng.next()),
          static_cast<std::uint16_t>(rng.next())};
}

inline e2ap::RanFunctionItem rand_ran_function(Rng& rng) {
  e2ap::RanFunctionItem f;
  f.id = static_cast<std::uint16_t>(rng.bounded(4096));
  f.revision = static_cast<std::uint16_t>(rng.bounded(4096));
  f.name = rand_str(rng, 24);
  f.definition = rand_buf(rng, 48);
  return f;
}

inline e2ap::Action rand_action(Rng& rng) {
  e2ap::Action a;
  a.id = static_cast<std::uint8_t>(rng.next());
  a.type = static_cast<e2ap::ActionType>(rng.bounded(3));
  a.definition = rand_buf(rng, 48);
  return a;
}

inline std::vector<std::uint16_t> rand_fn_id_list(Rng& rng) {
  std::vector<std::uint16_t> v(rng.bounded(6));
  for (auto& x : v) x = static_cast<std::uint16_t>(rng.bounded(4096));
  return v;
}

inline std::vector<std::pair<std::uint16_t, e2ap::Cause>> rand_fn_cause_list(
    Rng& rng) {
  std::vector<std::pair<std::uint16_t, e2ap::Cause>> v(rng.bounded(6));
  for (auto& [id, c] : v) {
    id = static_cast<std::uint16_t>(rng.bounded(4096));
    c = rand_cause(rng);
  }
  return v;
}

/// A random, constraint-respecting IR message; uniform over all 21 types.
inline e2ap::Msg random_msg(Rng& rng) {
  using namespace e2ap;
  auto trans = [&rng] { return static_cast<std::uint8_t>(rng.next()); };
  switch (static_cast<MsgType>(rng.bounded(kNumMsgTypes))) {
    case MsgType::setup_request: {
      SetupRequest m;
      m.trans_id = trans();
      m.node = rand_node_id(rng);
      m.ran_functions.resize(rng.bounded(4));
      for (auto& f : m.ran_functions) f = rand_ran_function(rng);
      return m;
    }
    case MsgType::setup_response: {
      SetupResponse m;
      m.trans_id = trans();
      m.ric_id = static_cast<std::uint32_t>(rng.bounded(0xFFFFF + 1ULL));
      m.accepted = rand_fn_id_list(rng);
      m.rejected = rand_fn_cause_list(rng);
      return m;
    }
    case MsgType::setup_failure: {
      SetupFailure m;
      m.trans_id = trans();
      m.cause = rand_cause(rng);
      return m;
    }
    case MsgType::reset_request: {
      ResetRequest m;
      m.trans_id = trans();
      m.cause = rand_cause(rng);
      return m;
    }
    case MsgType::reset_response: {
      ResetResponse m;
      m.trans_id = trans();
      return m;
    }
    case MsgType::error_indication: {
      ErrorIndication m;
      if (rng.chance(0.5)) m.request = rand_req_id(rng);
      if (rng.chance(0.5))
        m.ran_function_id = static_cast<std::uint16_t>(rng.bounded(4096));
      m.cause = rand_cause(rng);
      return m;
    }
    case MsgType::service_update: {
      ServiceUpdate m;
      m.trans_id = trans();
      m.added.resize(rng.bounded(3));
      for (auto& f : m.added) f = rand_ran_function(rng);
      m.modified.resize(rng.bounded(3));
      for (auto& f : m.modified) f = rand_ran_function(rng);
      m.removed = rand_fn_id_list(rng);
      return m;
    }
    case MsgType::service_update_ack: {
      ServiceUpdateAck m;
      m.trans_id = trans();
      m.accepted = rand_fn_id_list(rng);
      m.rejected = rand_fn_cause_list(rng);
      return m;
    }
    case MsgType::service_update_failure: {
      ServiceUpdateFailure m;
      m.trans_id = trans();
      m.cause = rand_cause(rng);
      return m;
    }
    case MsgType::node_config_update: {
      NodeConfigUpdate m;
      m.trans_id = trans();
      m.components.resize(rng.bounded(4));
      for (auto& [name, cfg] : m.components) {
        name = rand_str(rng, 16);
        cfg = rand_buf(rng, 32);
      }
      return m;
    }
    case MsgType::node_config_update_ack: {
      NodeConfigUpdateAck m;
      m.trans_id = trans();
      m.accepted_components.resize(rng.bounded(4));
      for (auto& name : m.accepted_components) name = rand_str(rng, 16);
      return m;
    }
    case MsgType::subscription_request: {
      SubscriptionRequest m;
      m.request = rand_req_id(rng);
      m.ran_function_id = static_cast<std::uint16_t>(rng.bounded(4096));
      m.event_trigger = rand_buf(rng, 48);
      m.actions.resize(rng.bounded(4));
      for (auto& a : m.actions) a = rand_action(rng);
      return m;
    }
    case MsgType::subscription_response: {
      SubscriptionResponse m;
      m.request = rand_req_id(rng);
      m.ran_function_id = static_cast<std::uint16_t>(rng.bounded(4096));
      m.admitted.resize(rng.bounded(5));
      for (auto& id : m.admitted) id = static_cast<std::uint8_t>(rng.next());
      m.not_admitted.resize(rng.bounded(5));
      for (auto& [id, c] : m.not_admitted) {
        id = static_cast<std::uint8_t>(rng.next());
        c = rand_cause(rng);
      }
      return m;
    }
    case MsgType::subscription_failure: {
      SubscriptionFailure m;
      m.request = rand_req_id(rng);
      m.ran_function_id = static_cast<std::uint16_t>(rng.bounded(4096));
      m.cause = rand_cause(rng);
      return m;
    }
    case MsgType::subscription_delete_request: {
      SubscriptionDeleteRequest m;
      m.request = rand_req_id(rng);
      m.ran_function_id = static_cast<std::uint16_t>(rng.bounded(4096));
      return m;
    }
    case MsgType::subscription_delete_response: {
      SubscriptionDeleteResponse m;
      m.request = rand_req_id(rng);
      m.ran_function_id = static_cast<std::uint16_t>(rng.bounded(4096));
      return m;
    }
    case MsgType::subscription_delete_failure: {
      SubscriptionDeleteFailure m;
      m.request = rand_req_id(rng);
      m.ran_function_id = static_cast<std::uint16_t>(rng.bounded(4096));
      m.cause = rand_cause(rng);
      return m;
    }
    case MsgType::indication: {
      Indication m;
      m.request = rand_req_id(rng);
      m.ran_function_id = static_cast<std::uint16_t>(rng.bounded(4096));
      m.action_id = static_cast<std::uint8_t>(rng.next());
      m.sn = static_cast<std::uint32_t>(rng.next());
      m.type = static_cast<ActionType>(rng.bounded(3));
      m.header = rand_buf(rng, 64);
      m.message = rand_buf(rng, 64);
      if (rng.chance(0.5)) m.call_process_id = rand_buf(rng, 16);
      return m;
    }
    case MsgType::control_request: {
      ControlRequest m;
      m.request = rand_req_id(rng);
      m.ran_function_id = static_cast<std::uint16_t>(rng.bounded(4096));
      m.header = rand_buf(rng, 48);
      m.message = rand_buf(rng, 48);
      m.ack_requested = rng.chance(0.5);
      if (rng.chance(0.5)) m.call_process_id = rand_buf(rng, 16);
      return m;
    }
    case MsgType::control_ack: {
      ControlAck m;
      m.request = rand_req_id(rng);
      m.ran_function_id = static_cast<std::uint16_t>(rng.bounded(4096));
      m.outcome = rand_buf(rng, 48);
      return m;
    }
    case MsgType::control_failure: {
      ControlFailure m;
      m.request = rand_req_id(rng);
      m.ran_function_id = static_cast<std::uint16_t>(rng.bounded(4096));
      m.cause = rand_cause(rng);
      m.outcome = rand_buf(rng, 48);
      return m;
    }
  }
  return e2ap::ResetResponse{};  // unreachable: bounded(kNumMsgTypes)
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
  Buffer b = rand_buf(rng, max_len);
  if (!b.empty() && rng.chance(0.25))
    b[0] = static_cast<std::uint8_t>(rng.bounded(e2ap::kNumMsgTypes));
  return b;
}

// ------------------------- driver scaffolding ------------------------------

struct DriverConfig {
  std::uint64_t seed = 0xF1EC5EEDULL;
  std::size_t iters = 100000;
};

/// Parse --seed N / --iters N; exits on malformed arguments so CTest
/// misconfiguration is loud.
inline DriverConfig parse_args(int argc, char** argv) {
  DriverConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto next_u64 = [&](const char* flag) -> std::uint64_t {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return std::strtoull(argv[++i], nullptr, 0);
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
