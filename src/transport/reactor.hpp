// Event loop (reactor) for the SDK's event-driven architecture.
//
// The paper's server library "is designed as an event-driven/callback-driven
// system ... it invokes iApps only when there are new messages, unlike
// systems like FlexRAN that use polling" (§4.2.2). This reactor is that
// engine: epoll for fd readiness, a timer heap for periodic SM reports, and
// a task queue for deferred work (also used by the in-process transport).
// Single-threaded by design (§4.4): handlers run on the loop thread, so no
// locking is needed anywhere in the SDK.
#pragma once

#include <sys/epoll.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <span>
#include <vector>

#include "common/affinity.hpp"
#include "common/clock.hpp"
#include "common/result.hpp"

namespace flexric {

class Reactor {
 public:
  using FdCallback = std::function<void(std::uint32_t events)>;
  using TimerId = std::uint64_t;

  /// `domain` names the single-threaded universe this loop anchors (see
  /// common/affinity.hpp): "reactor" for the classic single-loop SDK,
  /// "shard<i>" when the loop is one shard of a sharded RIC. Must be a
  /// string literal (static storage duration); affinity diagnostics and the
  /// static analyzer's @affine(<domain>) vocabulary both use it.
  explicit Reactor(const char* domain = "reactor");
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Register fd for epoll events (EPOLLIN/EPOLLOUT/...). The callback runs
  /// on the loop thread with the ready event mask.
  Status add_fd(int fd, std::uint32_t events, FdCallback cb);
  /// Change the event mask of a registered fd.
  Status mod_fd(int fd, std::uint32_t events);
  /// Unregister; safe to call from within the fd's own callback. An event
  /// of this fd still pending in the current batch is dropped, even when
  /// the fd number is registered again before the batch ends.
  void del_fd(int fd);

  /// Receive scratch shared by every connection on this loop: a handler
  /// reads into it and must consume (or copy) the bytes before it returns.
  /// One per reactor, so each shard's thread has its own.
  [[nodiscard]] std::span<std::uint8_t> rx_buffer() {
    if (!rx_buf_)
      rx_buf_ = std::make_unique_for_overwrite<std::uint8_t[]>(kRxBuffer);
    return {rx_buf_.get(), kRxBuffer};
  }

  /// One-shot or periodic timer; period is in nanoseconds of reactor time
  /// (real time by default, virtual time under set_time_source).
  TimerId add_timer(Nanos period, std::function<void()> cb,
                    bool periodic = true);
  void cancel_timer(TimerId id);

  /// Drive timers from a virtual clock instead of CLOCK_MONOTONIC. Install
  /// it before creating any timer (existing deadlines are not rebased) and
  /// keep the clock alive for the reactor's lifetime; pass nullptr to revert
  /// to real time. With a virtual clock the loop never sleeps waiting for a
  /// timer — the test advances the clock and pumps run_once(0), which is what
  /// makes chaos/resilience schedules bit-deterministic.
  void set_time_source(const VirtualClock* clock) noexcept { vclock_ = clock; }

  /// Current reactor time: the virtual clock when installed, else
  /// CLOCK_MONOTONIC. All timer deadlines live on this axis.
  [[nodiscard]] Nanos now() const noexcept;

  /// Run `task` on the next loop iteration (FIFO). Used for in-process
  /// message delivery and for scheduling work from within handlers.
  void post(std::function<void()> task);

  /// Process ready events/timers/tasks once. Blocks up to timeout_ms when
  /// nothing is pending (pass 0 to poll). Returns number of items handled.
  /// Not re-entrant: a handler must not pump its own reactor.
  int run_once(int timeout_ms);
  /// Loop until stop() is called.
  void run();
  void stop() noexcept { running_ = false; }

  [[nodiscard]] bool has_pending_tasks() const noexcept {
    return !tasks_.empty();
  }

  /// Owning-thread stamp, re-bound on every entry to run()/run_once() so
  /// ownership follows whoever pumps the loop. Reactor-affine classes
  /// (`@affine(reactor)`) check it via FLEXRIC_ASSERT_AFFINITY in their
  /// public entry points; see common/affinity.hpp and DESIGN.md §10.
  [[nodiscard]] ReactorAffinity& affinity() noexcept { return affinity_; }
  [[nodiscard]] const ReactorAffinity& affinity() const noexcept {
    return affinity_;
  }

 private:
  struct Timer {
    Nanos deadline;
    Nanos period;  // 0 = one-shot
    TimerId id;
    /// Same-instant timers fire in arming order, whatever the heap's shape.
    bool operator>(const Timer& o) const noexcept {
      return deadline != o.deadline ? deadline > o.deadline : id > o.id;
    }
  };
  /// One registered fd. epoll's `data.ptr` points at it, so dispatch needs
  /// no lookup; del_fd() marks it dead and it is freed after the batch.
  struct Handler {
    FdCallback cb;
    bool live = true;
  };
  static constexpr std::size_t kRxBuffer = 64 * 1024;

  [[nodiscard]] Handler* record(int fd) const noexcept;
  void retire(int fd);
  int fire_due_timers();
  int drain_tasks();
  [[nodiscard]] int next_timeout_ms(int requested) const;

  int epfd_ = -1;
  bool running_ = false;
  const VirtualClock* vclock_ = nullptr;
  std::vector<epoll_event> ready_;  ///< sized to the registered fd count
  std::vector<std::unique_ptr<Handler>> fds_;   ///< indexed by fd number
  std::vector<std::unique_ptr<Handler>> dead_;  ///< freed after the batch
  std::size_t num_fds_ = 0;
  std::unique_ptr<std::uint8_t[]> rx_buf_;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timer_heap_;
  std::map<TimerId, std::function<void()>> timer_cbs_;  // absent = cancelled
  TimerId next_timer_id_ = 1;
  std::queue<std::function<void()>> tasks_;
  ReactorAffinity affinity_;
};

}  // namespace flexric
