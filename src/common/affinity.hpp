// Runtime half of the affinity-domain contract (static half: tools/analyze).
//
// The SDK is event-driven by construction: "handlers run on the loop thread
// and the SDK holds no locks" (paper §4.4, DESIGN.md §10). That claim is an
// invariant the compiler never checks. DomainAffinity turns it into a
// machine-checked property: the Reactor stamps its owning thread on every
// entry to run()/run_once(), and the public entry points of the affine
// classes (E2Agent, E2Server, TelemetryStore, Broker, TcpTransport — all
// annotated `@affine(reactor)`) assert they are being called from that
// thread via FLEXRIC_ASSERT_AFFINITY.
//
// Domains are named so a binary that runs several loops (a sharded RIC, one
// reactor per shard) can tell WHICH single-threaded universe an object
// belongs to: each stamp carries its domain string ("reactor" by default)
// and a violation diagnostic names the domain that rejected the caller. The
// static analyzer mirrors the same vocabulary — `@affine(<domain>)` on a
// class makes its fields off-limits to code attributed to other domains.
//
// Cost model: with FLEXRIC_AFFINITY_GUARDS defined (default for Debug builds
// and every FLEXRIC_SANITIZE preset, see the top-level CMakeLists) a check is
// one relaxed atomic load plus a thread-id compare; without it the macro
// compiles to ((void)0) and the stamp writes are elided, so release builds
// pay nothing. The domain string is a pointer to a string literal — storing
// it costs one word and no allocation.
//
// This header is the one sanctioned use of thread primitives outside
// src/transport/: detecting a cross-thread call requires asking which thread
// we are on. flexric-analyze's thread-primitives rule carries an explicit
// carve-out for this file (kThreadOkFiles).
#pragma once

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>

namespace flexric {

/// Owning-thread stamp for a single-threaded (domain-affine) object.
///
/// Two binding styles:
///  * Explicit — Reactor calls bind_to_current_thread() on every entry to
///    run()/run_once(), so ownership follows whoever pumps the loop and
///    handing the loop to a worker thread re-binds cleanly.
///  * Lazy — classes without a Reactor (TelemetryStore) let check_or_bind()
///    adopt the first calling thread as owner.
///
/// An unbound stamp accepts every thread: single-threaded setup code runs
/// before the loop starts, and the thread that starts the loop inherits
/// ownership at that point.
class DomainAffinity {
 public:
  /// `domain` must be a string with static storage duration (a literal);
  /// the stamp keeps the pointer, not a copy.
  explicit DomainAffinity(const char* domain = "reactor") noexcept
      : domain_(domain) {}

  [[nodiscard]] const char* domain() const noexcept { return domain_; }

  void bind_to_current_thread() noexcept {
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  }

  /// Forget the owner (teardown/test escape hatch); the next check_or_bind()
  /// or bind_to_current_thread() re-binds.
  void reset() noexcept {
    owner_.store(std::thread::id{}, std::memory_order_relaxed);
  }

  [[nodiscard]] bool bound() const noexcept {
    return owner_.load(std::memory_order_relaxed) != std::thread::id{};
  }

  /// True iff unbound, or called from the owning thread.
  [[nodiscard]] bool on_owner_thread() const noexcept {
    std::thread::id o = owner_.load(std::memory_order_relaxed);
    return o == std::thread::id{} || o == std::this_thread::get_id();
  }

  /// Bind the first caller, then behave like on_owner_thread(). Returns
  /// false exactly when a *different* thread already owns the object.
  [[nodiscard]] bool check_or_bind() noexcept {
    std::thread::id expected{};
    const std::thread::id self = std::this_thread::get_id();
    if (owner_.compare_exchange_strong(expected, self,
                                       std::memory_order_relaxed))
      return true;  // we just became the owner
    return expected == self;
  }

 private:
  const char* domain_;
  std::atomic<std::thread::id> owner_{};
};

/// The historical name: every current affine class lives in the default
/// "reactor" domain, and most call sites predate named domains.
using ReactorAffinity = DomainAffinity;

/// Abort with a diagnostic on an affinity violation. Kept out of the macro so
/// the fast path stays one compare + one predictable branch.
[[noreturn]] inline void affinity_violation(const char* what,
                                            const char* domain,
                                            const char* file,
                                            int line) noexcept {
  std::fprintf(stderr,
               "FLEXRIC_ASSERT_AFFINITY failed at %s:%d: %s called from "
               "thread %zu which does not own the '%s' domain\n",
               file, line, what,
               std::hash<std::thread::id>{}(std::this_thread::get_id()),
               domain);
  std::abort();
}

#if defined(FLEXRIC_AFFINITY_GUARDS)
inline constexpr bool kAffinityGuardsEnabled = true;
/// Assert the calling thread owns `aff` (a DomainAffinity&). First use from
/// an unbound stamp adopts the caller as owner.
#define FLEXRIC_ASSERT_AFFINITY(aff)                                       \
  do {                                                                     \
    if (!(aff).check_or_bind())                                            \
      ::flexric::affinity_violation(__func__, (aff).domain(), __FILE__,    \
                                    __LINE__);                             \
  } while (0)
#else
inline constexpr bool kAffinityGuardsEnabled = false;
#define FLEXRIC_ASSERT_AFFINITY(aff) ((void)0)
#endif

}  // namespace flexric
