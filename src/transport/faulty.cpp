#include "transport/faulty.hpp"

#include "common/log.hpp"

namespace flexric {

FaultyTransport::FaultyTransport(Reactor& reactor,
                                 std::shared_ptr<MsgTransport> inner,
                                 FaultProfile profile)
    : reactor_(reactor),
      inner_(std::move(inner)),
      profile_(std::move(profile)),
      rng_(profile_.seed) {
  FLEXRIC_ASSERT(inner_ != nullptr, "FaultyTransport: null inner transport");
  inner_->set_on_message([this](StreamId stream, BytesView msg) {
    if (partitioned_) return;
    perturb(profile_.rx, stream, msg, /*tx_side=*/false);
  });
  inner_->set_on_close([this] {
    held_tx_.active = false;
    held_rx_.active = false;
    if (on_close_) {
      auto cb = std::move(on_close_);
      on_close_ = nullptr;
      cb();
    }
  });
}

FaultyTransport::~FaultyTransport() {
  *alive_ = false;
  if (heal_timer_ != 0) reactor_.cancel_timer(heal_timer_);
  if (held_tx_.flush_timer != 0) reactor_.cancel_timer(held_tx_.flush_timer);
  if (held_rx_.flush_timer != 0) reactor_.cancel_timer(held_rx_.flush_timer);
  if (inner_) {
    inner_->set_on_message(nullptr);
    inner_->set_on_close(nullptr);
  }
}

std::string FaultyTransport::peer_name() const {
  return "faulty(" + (inner_ ? inner_->peer_name() : std::string("-")) + ")";
}

Status FaultyTransport::send(BytesView msg, StreamId stream) {
  if (!is_open()) return {Errc::io, "transport closed"};
  if (tx_credit_ == 0) {
    // Backpressure injection: surface the same error a capped TcpTransport
    // TX buffer would, so overload code paths are exercised deterministically.
    return {Errc::capacity, "send buffer full (injected backpressure)"};
  }
  if (tx_credit_ > 0) tx_credit_--;
  // A partitioned link eats the message; the sender cannot tell (that is
  // the point).
  if (partitioned_) return Status::ok();
  perturb(profile_.tx, stream, msg, /*tx_side=*/true);
  return Status::ok();
}

void FaultyTransport::perturb(const FaultSpec& s, StreamId stream,
                              BytesView msg, bool tx_side) {
  // A fresh message overtakes whatever is held for reordering: deliver the
  // newcomer through the regular pipeline, then release the held one.
  if (s.trivial()) {
    emit(tx_side, stream, Buffer(msg.begin(), msg.end()));
    flush_held(tx_side);
    return;
  }
  if (s.drop > 0 && rng_.chance(s.drop)) {
    flush_held(tx_side);
    return;
  }
  Buffer copy(msg.begin(), msg.end());
  if (s.corrupt > 0 && !copy.empty() && rng_.chance(s.corrupt)) {
    copy[rng_.bounded(copy.size())] ^=
        static_cast<std::uint8_t>(1 + rng_.bounded(255));
  }
  int copies = 1;
  if (s.duplicate > 0 && rng_.chance(s.duplicate)) copies = 2;
  if (s.reorder > 0 && rng_.chance(s.reorder)) {
    Held& held = tx_side ? held_tx_ : held_rx_;
    if (!held.active) {
      held.active = true;
      held.stream = stream;
      held.msg = std::move(copy);
      // Force-release if nothing comes along to overtake it.
      held.flush_timer = reactor_.add_timer(
          kReorderFlush,
          [this, tx_side, alive = std::weak_ptr<bool>(alive_)] {
            auto a = alive.lock();
            if (a && *a) flush_held(tx_side);
          },
          /*periodic=*/false);
      return;  // held: nothing to emit yet, and nothing overtakes
    }
    // Already holding one message; fall through and deliver normally (the
    // newcomer will overtake the held message below).
  }
  for (int i = 0; i < copies; ++i) {
    Nanos delay = 0;
    if (s.delay_max > 0)
      delay = static_cast<Nanos>(
          rng_.bounded(static_cast<std::uint64_t>(s.delay_max) + 1));
    if (delay > 0)
      emit_later(tx_side, stream, Buffer(copy), delay);
    else
      emit(tx_side, stream, Buffer(copy));
  }
  flush_held(tx_side);
}

void FaultyTransport::flush_held(bool tx_side) {
  Held& held = tx_side ? held_tx_ : held_rx_;
  if (!held.active) return;
  held.active = false;
  if (held.flush_timer != 0) {
    reactor_.cancel_timer(held.flush_timer);
    held.flush_timer = 0;
  }
  emit(tx_side, held.stream, std::move(held.msg));
}

void FaultyTransport::emit(bool tx_side, StreamId stream, Buffer msg) {
  // A partition that started after the message was perturbed/delayed still
  // eats it: in-flight bytes do not survive a cut link.
  if (partitioned_) return;
  if (tx_side) {
    if (inner_ && inner_->is_open())
      static_cast<void>(inner_->send(msg, stream));
  } else {
    if (on_msg_) on_msg_(stream, msg);
  }
}

void FaultyTransport::emit_later(bool tx_side, StreamId stream, Buffer msg,
                                 Nanos delay) {
  reactor_.add_timer(
      delay,
      [this, tx_side, stream, m = std::move(msg),
       alive = std::weak_ptr<bool>(alive_)]() mutable {
        auto a = alive.lock();
        if (a && *a) emit(tx_side, stream, std::move(m));
      },
      /*periodic=*/false);
}

void FaultyTransport::partition_for(Nanos duration) {
  set_partitioned(true);
  if (heal_timer_ != 0) reactor_.cancel_timer(heal_timer_);
  heal_timer_ = reactor_.add_timer(
      duration,
      [this, alive = std::weak_ptr<bool>(alive_)] {
        auto a = alive.lock();
        if (a && *a) {
          heal_timer_ = 0;
          set_partitioned(false);
        }
      },
      /*periodic=*/false);
}

void FaultyTransport::kill() {
  held_tx_ = Held{};
  held_rx_ = Held{};
  *alive_ = false;  // orphan delayed deliveries: an abrupt close drops them
  alive_ = std::make_shared<bool>(true);
  if (inner_) inner_->close();
}

void FaultyTransport::close() {
  if (inner_) inner_->close();
}

}  // namespace flexric
