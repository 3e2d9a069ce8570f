// Overload-protection primitives: token-bucket admission, bounded two-class
// priority queueing, and pluggable load shedding with exact drop accounting.
//
// The paper's cost model (§5.2) shows indication load dominating agent and
// server cost; under a monitoring storm the SDK must keep control-plane
// transactions timely while shedding monitoring traffic *visibly* — every
// message offered to an overloaded component is either delivered or counted
// as shed, never silently dropped. DESIGN.md §11 describes the full model;
// these primitives are the shared vocabulary used by E2Server ingest,
// E2Agent egress, and the storm harness.
//
// Determinism contract: nothing here reads a clock. RateLimiter takes the
// caller's `Nanos now` (reactor time, virtual in tests), queues are plain
// data structures, and fair shedding breaks ties by lowest origin id — so a
// storm replayed under VirtualClock sheds the exact same messages.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/clock.hpp"
#include "common/metrics.hpp"

namespace flexric::overload {

/// Work classes for prioritized dispatch. CONTROL covers setup, subscription
/// and RIC control transactions (and anything unclassifiable, so protocol
/// errors still surface); DATA covers RIC indications. CONTROL is always
/// dispatched first.
enum class MsgClass : std::uint8_t { control = 0, data = 1 };

/// What to do when a bounded queue is full and one more message arrives.
enum class ShedPolicy : std::uint8_t {
  drop_oldest = 0,  ///< evict the head (oldest) to admit the newcomer
  /// Evict the oldest message of the origin with the most queued messages
  /// (ties broken by lowest origin id), then admit the newcomer. One
  /// flooding origin cannot squeeze out lightly-loaded peers.
  fair_per_agent,
};

/// Component key under which an agent reports shed counts to its controller
/// (piggybacked on a NodeConfigUpdate next to the heartbeat; payload is one
/// little-endian u64 delta). Shared so server and agent agree on the wire
/// vocabulary without a codec change.
inline constexpr const char* kShedReportComponent = "flexric.overload.shed";

/// Deterministic token bucket. Admission never blocks: admit() either debits
/// a token and returns true, or returns false (the caller sheds). The caller
/// supplies `now` from its reactor so virtual-clock replays are exact.
class RateLimiter {
 public:
  /// Unlimited: admit() always returns true.
  RateLimiter() = default;

  /// `rate_per_sec` tokens accrue per second up to `burst` (a burst of 0
  /// defaults to one second's worth). rate_per_sec <= 0 means unlimited.
  RateLimiter(double rate_per_sec, double burst);

  [[nodiscard]] bool unlimited() const noexcept { return rate_ <= 0.0; }

  /// Debit one token at time `now`; false = over rate, shed this message.
  [[nodiscard]] bool admit(Nanos now);

  /// Tokens available at `now` (observability / tests).
  [[nodiscard]] double tokens(Nanos now) const;

 private:
  double rate_ = 0.0;   // tokens per second; <= 0 disables limiting
  double burst_ = 0.0;  // bucket depth
  double tokens_ = 0.0;
  Nanos last_ = 0;
  bool primed_ = false;  // first admit() fills the bucket
};

/// Exact shed accounting for one bounded queue. Invariants (checked by
/// reconciles() and asserted by the storm harness):
///   offered  == admitted + shed_newest
///   admitted == delivered + shed_oldest + <currently queued>
/// i.e. sent = delivered + shed, with nothing unaccounted.
struct ShedStats {
  Counter offered;      ///< push() attempts
  Counter admitted;     ///< accepted into the queue
  Counter delivered;    ///< handed out via pop()
  Counter shed_newest;  ///< rejected at the door (capacity 0)
  Counter shed_oldest;  ///< evicted after admission (drop_oldest / fair)

  [[nodiscard]] std::uint64_t shed() const noexcept {
    return shed_newest.value + shed_oldest.value;
  }
  [[nodiscard]] bool reconciles(std::size_t queued) const noexcept {
    return offered.value == admitted.value + shed_newest.value &&
           admitted.value == delivered.value + shed_oldest.value + queued;
  }
};

/// Bounded FIFO for one message class. Every entry carries an `Origin`
/// (agent id, subscription instance, ...) so fair_per_agent can shed from
/// the heaviest origin. Not thread-safe: lives inside reactor-affine owners.
template <typename T>
class BoundedQueue {
 public:
  using Origin = std::uint32_t;

  struct Item {
    Origin origin;
    T value;
  };

  /// Default: capacity 0, i.e. every push is shed. Owners embed a default
  /// instance and configure() it once the real capacity is known.
  BoundedQueue() = default;
  BoundedQueue(std::size_t capacity, ShedPolicy policy)
      : cap_(capacity), policy_(policy) {}

  void configure(std::size_t capacity, ShedPolicy policy) {
    cap_ = capacity;
    policy_ = policy;
  }

  /// Offer one message. Returns true if the message itself was admitted
  /// (another message may have been evicted to make room — see stats()).
  bool push(Origin origin, T value) {
    stats_.offered.add();
    if (cap_ == 0) {
      stats_.shed_newest.add();
      return false;
    }
    if (q_.size() >= cap_) make_room(origin);
    q_.push_back(Item{origin, std::move(value)});
    depth_[origin]++;
    stats_.admitted.add();
    return true;
  }

  /// Oldest queued item, or nullptr when empty. pop() removes it.
  [[nodiscard]] const Item* front() const noexcept {
    return q_.empty() ? nullptr : &q_.front();
  }

  std::optional<Item> pop() {
    if (q_.empty()) return std::nullopt;
    Item it = std::move(q_.front());
    q_.pop_front();
    note_removed(it.origin);
    stats_.delivered.add();
    return it;
  }

  [[nodiscard]] bool empty() const noexcept { return q_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return q_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }
  [[nodiscard]] const ShedStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t depth(Origin origin) const noexcept {
    auto it = depth_.find(origin);
    return it == depth_.end() ? 0 : it->second;
  }
  [[nodiscard]] bool reconciles() const noexcept {
    return stats_.reconciles(q_.size());
  }

 private:
  /// Evict per policy to admit a message from `incoming`.
  void make_room(Origin incoming) {
    switch (policy_) {
      case ShedPolicy::drop_oldest:
        evict_oldest_of([](const Item&) { return true; });
        return;
      case ShedPolicy::fair_per_agent: {
        // Heaviest origin sheds; lowest id wins ties so replays are exact.
        // When the newcomer's origin is itself the heaviest this degrades
        // to drop-oldest within that origin, which is the fair outcome.
        Origin victim = incoming;
        std::size_t worst = depth(incoming) + 1;  // +1: the arriving msg
        for (const auto& [origin, n] : depth_) {
          if (n > worst || (n == worst && origin < victim)) {
            victim = origin;
            worst = n;
          }
        }
        evict_oldest_of(
            [victim](const Item& it) { return it.origin == victim; });
        return;
      }
    }
  }

  template <typename Pred>
  void evict_oldest_of(Pred pred) {
    for (auto it = q_.begin(); it != q_.end(); ++it) {
      if (!pred(*it)) continue;
      note_removed(it->origin);
      stats_.shed_oldest.add();
      q_.erase(it);
      return;
    }
    // Defensive: predicate matched nothing (cannot happen for the policies
    // above when the queue is non-empty) — fall back to the head.
    if (!q_.empty()) {
      note_removed(q_.front().origin);
      stats_.shed_oldest.add();
      q_.pop_front();
    }
  }

  void note_removed(Origin origin) {
    auto it = depth_.find(origin);
    if (it != depth_.end() && --it->second == 0) depth_.erase(it);
  }

  std::size_t cap_ = 0;
  ShedPolicy policy_ = ShedPolicy::drop_oldest;
  std::deque<Item> q_;
  std::unordered_map<Origin, std::size_t> depth_;
  ShedStats stats_;
};

/// Two-class bounded queue: CONTROL drains strictly before DATA, each class
/// has its own capacity and both share one ShedPolicy. FIFO within a class.
template <typename T>
class PriorityQueue {
 public:
  using Origin = typename BoundedQueue<T>::Origin;

  struct Config {
    std::size_t control_capacity = 1024;
    std::size_t data_capacity = 4096;
    ShedPolicy policy = ShedPolicy::fair_per_agent;
  };

  struct Popped {
    MsgClass cls;
    Origin origin;
    T value;
  };

  explicit PriorityQueue(const Config& cfg)
      : control_(cfg.control_capacity, cfg.policy),
        data_(cfg.data_capacity, cfg.policy) {}

  bool push(MsgClass cls, Origin origin, T value) {
    return queue(cls).push(origin, std::move(value));
  }

  std::optional<Popped> pop() {
    if (auto it = control_.pop())
      return Popped{MsgClass::control, it->origin, std::move(it->value)};
    if (auto it = data_.pop())
      return Popped{MsgClass::data, it->origin, std::move(it->value)};
    return std::nullopt;
  }

  [[nodiscard]] bool empty() const noexcept {
    return control_.empty() && data_.empty();
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return control_.size() + data_.size();
  }
  [[nodiscard]] const BoundedQueue<T>& queue(MsgClass cls) const noexcept {
    return cls == MsgClass::control ? control_ : data_;
  }
  [[nodiscard]] BoundedQueue<T>& queue(MsgClass cls) noexcept {
    return cls == MsgClass::control ? control_ : data_;
  }
  [[nodiscard]] std::uint64_t shed() const noexcept {
    return control_.stats().shed() + data_.stats().shed();
  }
  [[nodiscard]] bool reconciles() const noexcept {
    return control_.reconciles() && data_.reconciles();
  }

 private:
  BoundedQueue<T> control_;
  BoundedQueue<T> data_;
};

}  // namespace flexric::overload
