#include "transport/reactor.hpp"

#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/log.hpp"

namespace flexric {

Reactor::Reactor(const char* domain) : affinity_(domain) {
  epfd_ = epoll_create1(EPOLL_CLOEXEC);
  FLEXRIC_ASSERT(epfd_ >= 0, "epoll_create1 failed");
  ready_.resize(64);
}

Nanos Reactor::now() const noexcept {
  return vclock_ != nullptr ? vclock_->now() : mono_now();
}

Reactor::~Reactor() {
  if (epfd_ >= 0) ::close(epfd_);
}

Reactor::Handler* Reactor::record(int fd) const noexcept {
  const auto slot = static_cast<std::size_t>(fd);
  return fd >= 0 && slot < fds_.size() ? fds_[slot].get() : nullptr;
}

void Reactor::retire(int fd) {
  // The record may be running right now, and the current batch may still
  // hold its pointer: kill it here, free it once the batch is done.
  if (record(fd) == nullptr) return;
  auto& h = fds_[static_cast<std::size_t>(fd)];
  h->live = false;
  dead_.push_back(std::move(h));
  --num_fds_;
}

Status Reactor::add_fd(int fd, std::uint32_t events, FdCallback cb) {
  auto h = std::make_unique<Handler>(Handler{std::move(cb)});
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = h.get();
  if (epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0)
    return {Errc::io, std::strerror(errno)};
  if (fds_.size() <= static_cast<std::size_t>(fd)) fds_.resize(fd + 1u);
  retire(fd);  // a number closed without del_fd came back
  fds_[static_cast<std::size_t>(fd)] = std::move(h);
  ++num_fds_;
  return Status::ok();
}

Status Reactor::mod_fd(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = record(fd);
  if (ev.data.ptr == nullptr) return {Errc::io, "fd not registered"};
  if (epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) != 0)
    return {Errc::io, std::strerror(errno)};
  return Status::ok();
}

void Reactor::del_fd(int fd) {
  epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
  retire(fd);
}

Reactor::TimerId Reactor::add_timer(Nanos period, std::function<void()> cb,
                                    bool periodic) {
  TimerId id = next_timer_id_++;
  timer_cbs_[id] = std::move(cb);
  timer_heap_.push(Timer{now() + period, periodic ? period : 0, id});
  return id;
}

void Reactor::cancel_timer(TimerId id) { timer_cbs_.erase(id); }

void Reactor::post(std::function<void()> task) {
  tasks_.push(std::move(task));
}

int Reactor::drain_tasks() {
  // Only drain tasks queued before this call: a task that posts another
  // task yields to I/O first (prevents starvation).
  int handled = 0;
  for (std::size_t n = tasks_.size(); n > 0 && !tasks_.empty(); --n) {
    auto task = std::move(tasks_.front());
    tasks_.pop();
    task();
    ++handled;
  }
  return handled;
}

int Reactor::fire_due_timers() {
  int handled = 0;
  Nanos t_now = now();
  while (!timer_heap_.empty() && timer_heap_.top().deadline <= t_now) {
    Timer t = timer_heap_.top();
    timer_heap_.pop();
    auto it = timer_cbs_.find(t.id);
    if (it == timer_cbs_.end()) continue;  // cancelled
    if (t.period > 0) {
      t.deadline += t.period;
      if (t.deadline <= t_now) t.deadline = t_now + t.period;  // missed ticks
      timer_heap_.push(t);
      // Copy: the callback may cancel_timer() its own id (e.g. a heartbeat
      // that decides to tear the connection down), which would otherwise
      // destroy the std::function mid-execution.
      auto cb = it->second;
      cb();
    } else {
      auto cb = std::move(it->second);
      timer_cbs_.erase(it);
      cb();
    }
    ++handled;
  }
  return handled;
}

int Reactor::next_timeout_ms(int requested) const {
  if (!tasks_.empty()) return 0;
  if (timer_heap_.empty()) return requested;
  Nanos until = timer_heap_.top().deadline - now();
  if (until <= 0) return 0;
  // Virtual time does not advance while we sleep, so blocking on a virtual
  // deadline would deadlock the loop; the driver advances the clock instead.
  if (vclock_ != nullptr) return requested;
  int ms = static_cast<int>((until + kMilli - 1) / kMilli);
  return requested < 0 ? ms : std::min(ms, requested);
}

int Reactor::run_once(int timeout_ms) {
  // The thread pumping the loop owns every reactor-affine object; re-stamp
  // on each entry so handing the loop to a worker thread re-binds cleanly.
  if constexpr (kAffinityGuardsEnabled) affinity_.bind_to_current_thread();
  int handled = drain_tasks();
  handled += fire_due_timers();

  // Size the ready buffer to the fd population so one epoll_wait can report
  // every ready handle; loop on full batches anyway (fds registered by
  // handlers mid-drain can exceed the snapshot).
  if (ready_.size() < num_fds_) ready_.resize(num_fds_);
  int timeout = handled > 0 ? 0 : next_timeout_ms(timeout_ms);
  int n;
  do {
    const int batch = static_cast<int>(ready_.size());
    n = epoll_wait(epfd_, ready_.data(), batch, timeout);
    if (n < 0) {
      if (errno != EINTR)
        LOG_ERROR("reactor", "epoll_wait: %s", std::strerror(errno));
      return handled;
    }
    for (int i = 0; i < n; ++i) {
      auto* h = static_cast<Handler*>(ready_[i].data.ptr);
      if (!h->live) continue;  // removed by an earlier handler
      h->cb(ready_[i].events);
      ++handled;
    }
    dead_.clear();
    timeout = 0;  // further rounds only drain what is already ready
  } while (n == static_cast<int>(ready_.size()));
  handled += fire_due_timers();
  handled += drain_tasks();
  return handled;
}

void Reactor::run() {
  running_ = true;
  while (running_) run_once(100);
}

}  // namespace flexric
