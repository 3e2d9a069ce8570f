// N-shard reactor pool (DESIGN.md §13; ROADMAP item 1).
//
// Modeled on ndn-dpdk's RxLoop/RxProc split: the pool owns N Reactors —
// one single-threaded universe per shard — and either runs each on its own
// thread (Mode::threaded, production and benches) or leaves all of them to
// be pumped by one harness thread in a fixed interleaving order
// (Mode::manual, the deterministic test mode: with a shared VirtualClock
// the whole N-shard system replays bit-identically).
//
// Each shard's Reactor carries a named affinity domain ("shard0",
// "shard1", ...), so a cross-shard call trips FLEXRIC_ASSERT_AFFINITY with
// the offended shard's name in the diagnostic, and the static analyzer's
// @affine(shard) vocabulary maps onto real runtime domains.
//
// The only sanctioned way into a running shard from outside is post():
// an SPSC injector ring (this pool's owner thread is the single producer)
// plus an eventfd wake. Everything else — RAN-DB merge, xApp fan-out,
// stats — flows shard->home through the rings owned by ShardedE2Server.
//
// The pool knows nothing of supervision: a shard's liveness is its ledger
// publish (ShardCounterBoard, DESIGN.md §15), which ShardedE2Server arms on
// the shard's reactor like any other timer.
#pragma once

#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/affinity.hpp"
#include "common/clock.hpp"
#include "common/spsc_ring.hpp"
#include "transport/reactor.hpp"
#include "transport/wakeup.hpp"

namespace flexric {

// The pool itself (start/stop/post/pump) is owned by the home thread that
// built it; only the per-shard Reactors it hands out are shard-affine.
// @affine(reactor)
class ShardPool {
 public:
  enum class Mode {
    manual,    ///< no threads; the owner pumps all loops in fixed order
    threaded,  ///< one thread per shard running Reactor::run()
  };

  /// Affinity domains are string literals, so the shard count is capped by
  /// the size of the static name table.
  static constexpr std::uint32_t kMaxShards = 16;
  [[nodiscard]] static const char* domain_name(std::uint32_t shard) noexcept;

  /// `clock` (optional) becomes the time source of every shard reactor —
  /// the deterministic-test configuration. Keep it alive for the pool's
  /// lifetime.
  ShardPool(std::uint32_t shards, Mode mode,
            const VirtualClock* clock = nullptr);
  ~ShardPool();
  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] Mode mode() const noexcept { return mode_; }
  [[nodiscard]] Reactor& reactor(std::uint32_t shard) noexcept {
    return *shards_[shard].reactor;
  }
  [[nodiscard]] const char* domain(std::uint32_t shard) const noexcept {
    return shards_[shard].reactor->affinity().domain();
  }

  /// Threaded mode: launch one thread per shard, each running its loop.
  /// Manual mode: no-op.
  void start();
  /// Threaded mode: stop every loop (via its own thread) and join. Safe to
  /// call twice; the destructor calls it. Manual mode: no-op.
  void stop();
  [[nodiscard]] bool running() const noexcept { return started_; }

  /// Run `fn` on `shard`'s loop thread. Owner-thread only (the injector
  /// ring is SPSC; the affinity guard enforces the single-producer end).
  /// Errc::capacity when the shard's injector ring is full — the caller
  /// must back off and retry, the call is never silently dropped.
  Status post(std::uint32_t shard, std::function<void()> fn);

  /// Manual mode: pump every shard in fixed order (shard 0 first), up to
  /// `rounds` run_once(0) calls each, until all loops go idle. Returns the
  /// number of work items handled. This fixed interleave is the scheduling
  /// order the deterministic harness replays byte-identically.
  int pump(int rounds = 8);
  /// Pump a single shard (manual mode). The supervision harness uses this
  /// to wedge one shard — stop pumping it — while the rest of the world
  /// keeps turning; pump() above is the all-shards loop over this.
  int pump_shard(std::uint32_t shard, int rounds = 8);

  /// Stateful shard restart (DESIGN.md §15): replace `shard`'s universe —
  /// reactor, injector ring, wake fd — with a fresh one under the same
  /// affinity-domain name. Owner-thread only.
  ///
  ///   * manual mode — the dead loop is destroyed in place (its queued
  ///     tasks and timers die with it; the caller accounts for anything it
  ///     drained first).
  ///   * threaded mode — a wedged loop thread cannot be joined; the old
  ///     Shard is detached and retired, and its universe is deliberately
  ///     leaked at pool destruction (the OS reclaims it at process exit —
  ///     the only safe disposal for memory a runaway thread may still
  ///     touch). A *cooperative* restart of a healthy loop (stop + join +
  ///     rebuild, no leak) happens when the loop drains its stop task.
  void restart_shard(std::uint32_t shard);
  /// Restarts performed so far (all shards).
  [[nodiscard]] std::uint64_t restarts() const noexcept { return restarts_; }

  /// CPU burned by `shard`'s loop thread (threaded mode; valid after
  /// stop()). The bench uses this for per-shard frames-per-CPU-second.
  [[nodiscard]] Nanos thread_cpu(std::uint32_t shard) const noexcept {
    return shards_[shard].cpu_ns;
  }

 private:
  struct Shard {
    std::unique_ptr<Reactor> reactor;
    std::unique_ptr<SpscRing<std::function<void()>>> injector;
    std::unique_ptr<WakeupFd> wake;
    std::thread thread;
    Nanos cpu_ns = 0;  ///< written by the shard thread after run() returns
  };

  void init_shard(std::uint32_t shard);
  void spawn_shard(std::uint32_t shard);

  std::vector<Shard> shards_;
  /// Universes of force-restarted threaded shards: a wedged, detached
  /// thread may still be inside them, so they are retired here and leaked
  /// on destruction rather than freed under its feet.
  std::vector<Shard> retired_;
  Mode mode_;
  bool started_ = false;
  const VirtualClock* clock_ = nullptr;
  std::uint64_t restarts_ = 0;
  /// Single-producer end of every injector ring: the pool owner's thread.
  DomainAffinity owner_{"reactor"};
};

}  // namespace flexric
