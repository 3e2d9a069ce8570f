#include "transport/shard_pool.hpp"

namespace flexric {

namespace {
constexpr std::size_t kInjectorCapacity = 256;

constexpr const char* kShardDomains[ShardPool::kMaxShards] = {
    "shard0",  "shard1",  "shard2",  "shard3", "shard4",  "shard5",
    "shard6",  "shard7",  "shard8",  "shard9", "shard10", "shard11",
    "shard12", "shard13", "shard14", "shard15"};
}  // namespace

const char* ShardPool::domain_name(std::uint32_t shard) noexcept {
  return shard < kMaxShards ? kShardDomains[shard] : "shard";
}

ShardPool::ShardPool(std::uint32_t shards, Mode mode,
                     const VirtualClock* clock)
    : mode_(mode), clock_(clock) {
  FLEXRIC_ASSERT(shards >= 1 && shards <= kMaxShards,
                 "shard count out of range");
  shards_.resize(shards);
  for (std::uint32_t i = 0; i < shards; ++i) init_shard(i);
}

ShardPool::~ShardPool() {
  stop();
  // Universes retired by a forced restart may still be visited by their
  // wedged (detached) thread: leak them deliberately — the OS reclaims at
  // process exit, which is the only point the runaway thread is provably
  // gone. Cooperatively-restarted shards were joined and already freed.
  for (Shard& s : retired_) {
    (void)s.wake.release();
    (void)s.injector.release();
    (void)s.reactor.release();
  }
}

void ShardPool::init_shard(std::uint32_t i) {
  Shard& s = shards_[i];
  s.reactor = std::make_unique<Reactor>(domain_name(i));
  if (clock_ != nullptr) s.reactor->set_time_source(clock_);
  s.injector =
      std::make_unique<SpscRing<std::function<void()>>>(kInjectorCapacity);
  // Drain runs on the shard's loop thread; the ring is the conduit.
  SpscRing<std::function<void()>>* ring = s.injector.get();
  s.wake = std::make_unique<WakeupFd>(*s.reactor, [ring] {
    std::function<void()> fn;
    // @consumer(shard-injector)
    while (ring->try_pop(fn)) fn();
  });
}

void ShardPool::spawn_shard(std::uint32_t i) {
  Shard& s = shards_[i];
  Reactor* r = s.reactor.get();
  Nanos* cpu_out = &s.cpu_ns;
  s.thread = std::thread([r, cpu_out] {
    const Nanos cpu0 = thread_cpu_now();
    r->run();
    *cpu_out = thread_cpu_now() - cpu0;
  });
}

void ShardPool::start() {
  if (mode_ != Mode::threaded || started_) return;
  started_ = true;
  for (std::uint32_t i = 0; i < size(); ++i) spawn_shard(i);
}

void ShardPool::stop() {
  if (!started_) return;
  for (std::uint32_t i = 0; i < size(); ++i) {
    Reactor* r = shards_[i].reactor.get();
    // The loop must stop itself: Reactor::stop() is not cross-thread safe.
    // The injector ring may be momentarily full under load — spin until the
    // stop task is accepted (the shard is draining, so this terminates).
    while (!post(i, [r] { r->stop(); }).is_ok()) std::this_thread::yield();
  }
  for (Shard& s : shards_)
    if (s.thread.joinable()) s.thread.join();
  started_ = false;
}

Status ShardPool::post(std::uint32_t shard, std::function<void()> fn) {
  FLEXRIC_ASSERT_AFFINITY(owner_);
  Shard& s = shards_[shard];
  if (mode_ == Mode::manual || !started_) {
    // Single-threaded configurations: the owner thread pumps this loop (or
    // will start it later), so a plain post is safe and keeps the manual
    // harness on one deterministic task queue per shard.
    s.reactor->post(std::move(fn));
    return Status::ok();
  }
  // @producer(shard-injector)
  Status st = s.injector->try_push(std::move(fn));
  if (st.is_ok()) s.wake->notify();
  return st;
}

int ShardPool::pump(int rounds) {
  int handled = 0;
  if (mode_ != Mode::manual) return handled;
  for (std::uint32_t i = 0; i < size(); ++i)
    handled += pump_shard(i, rounds);
  return handled;
}

int ShardPool::pump_shard(std::uint32_t shard, int rounds) {
  FLEXRIC_ASSERT_AFFINITY(owner_);
  int handled = 0;
  if (mode_ != Mode::manual) return handled;
  Shard& s = shards_[shard];
  for (int i = 0; i < rounds; ++i) {
    int n = s.reactor->run_once(0);
    handled += n;
    if (n == 0) break;
  }
  return handled;
}

void ShardPool::restart_shard(std::uint32_t shard) {
  FLEXRIC_ASSERT_AFFINITY(owner_);
  Shard& s = shards_[shard];
  if (mode_ == Mode::threaded && started_ && s.thread.joinable()) {
    // A loop the watchdog condemned cannot be joined — joining a wedged
    // thread blocks forever, and std::thread has no timed join. Detach it
    // and retire its whole universe; ~ShardPool leaks retirees
    // deliberately. (A *planned* restart of a healthy pool goes through
    // stop()/start(), which does join.)
    s.thread.detach();
    retired_.push_back(std::move(s));
    s = Shard{};
  } else {
    // Manual mode (or not yet started): destroy the dead universe in
    // place. Order matters — the wake fd unregisters from the reactor it
    // watches.
    s.wake.reset();
    s.injector.reset();
    s.reactor.reset();
  }
  init_shard(shard);
  if (mode_ == Mode::threaded && started_) spawn_shard(shard);
  restarts_++;
}

}  // namespace flexric
