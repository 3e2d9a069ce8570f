// Fault-injecting MsgTransport decorator for deterministic chaos testing.
//
// Wraps any transport (Local or TCP) and perturbs the message flow with a
// seeded RNG: drop, delay, reorder, duplicate, corrupt-frame, timed
// partitions and abrupt close — configurable per direction.
// All perturbations are scheduled on the owning Reactor (timers + posted
// tasks), so with a VirtualClock installed the exact same seed yields the
// exact same interleaving, byte for byte. This is the engine under
// tests/test_resilience.cpp's chaos schedules.
//
// The decorator composes: an E2Agent's TransportFactory can return a
// FaultyTransport wrapping a fresh LocalTransport each reconnect, which is
// how the harness flaps links without touching agent or server code.
#pragma once

#include <memory>

#include "common/rng.hpp"
#include "transport/reactor.hpp"
#include "transport/transport.hpp"

namespace flexric {

/// Per-direction fault probabilities and latency range. All probabilities
/// are per message, evaluated independently.
struct FaultSpec {
  double drop = 0.0;       ///< message vanishes
  double duplicate = 0.0;  ///< message delivered twice
  double corrupt = 0.0;    ///< one payload byte flipped
  double reorder = 0.0;    ///< held back and released after the next message
  Nanos delay_max = 0;     ///< uniform extra latency in [0, delay_max]

  [[nodiscard]] bool trivial() const noexcept {
    return drop == 0 && duplicate == 0 && corrupt == 0 && reorder == 0 &&
           delay_max <= 0;
  }
};

/// Full fault profile: one spec per direction, whatever the stream.
struct FaultProfile {
  FaultSpec tx;  ///< faults applied to send()
  FaultSpec rx;  ///< faults applied to inbound messages
  std::uint64_t seed = 1;
};

class FaultyTransport final : public MsgTransport {
 public:
  FaultyTransport(Reactor& reactor, std::shared_ptr<MsgTransport> inner,
                  FaultProfile profile);
  ~FaultyTransport() override;

  Status send(BytesView msg, StreamId stream) override;
  void set_on_message(MsgHandler h) override { on_msg_ = std::move(h); }
  void set_on_close(CloseHandler h) override { on_close_ = std::move(h); }
  void close() override;
  [[nodiscard]] bool is_open() const noexcept override {
    return inner_ != nullptr && inner_->is_open();
  }
  [[nodiscard]] std::string peer_name() const override;

  /// Drop everything in both directions while set (link partition). The
  /// connection stays "open" from both ends — exactly a network partition,
  /// not a close.
  void set_partitioned(bool on) noexcept { partitioned_ = on; }
  [[nodiscard]] bool partitioned() const noexcept { return partitioned_; }
  /// Partition now, heal automatically after `duration` (reactor timer, so
  /// virtual-clock driven in tests).
  void partition_for(Nanos duration);

  /// Abrupt close: discard every queued/held message, then close the inner
  /// transport — models a process kill, not an orderly shutdown.
  void kill();

  /// Deterministic backpressure injection (a slow consumer): with a credit
  /// set, each send() consumes one unit and exhaustion returns
  /// Errc::capacity, exactly as TcpTransport does when its TX buffer cap is
  /// hit. Negative (the default) = unlimited. Unlike a real socket the
  /// "buffer" never drains by itself — the harness hands credit back with
  /// add_tx_credit() at the moments it wants the consumer to catch up.
  void set_tx_credit(std::int64_t msgs) noexcept { tx_credit_ = msgs; }
  void add_tx_credit(std::int64_t msgs) noexcept {
    if (tx_credit_ >= 0) tx_credit_ += msgs;
  }
  [[nodiscard]] std::int64_t tx_credit() const noexcept { return tx_credit_; }

 private:
  using Deliver = std::function<void(StreamId, BytesView)>;

  /// A message held for reordering is force-released after this long if no
  /// follow-up message arrives to overtake it.
  static constexpr Nanos kReorderFlush = 5 * kMilli;

  /// Apply `s` to one message and forward the survivors through `out`.
  void perturb(const FaultSpec& s, StreamId stream, BytesView msg,
               bool tx_side);
  void emit(bool tx_side, StreamId stream, Buffer msg);
  void emit_later(bool tx_side, StreamId stream, Buffer msg, Nanos delay);
  void flush_held(bool tx_side);

  Reactor& reactor_;
  std::shared_ptr<MsgTransport> inner_;
  FaultProfile profile_;
  Rng rng_;
  MsgHandler on_msg_;
  CloseHandler on_close_;
  bool partitioned_ = false;
  std::int64_t tx_credit_ = -1;  ///< < 0: unlimited
  Reactor::TimerId heal_timer_ = 0;

  /// At most one held (reordered) message per direction.
  struct Held {
    bool active = false;
    StreamId stream = 0;
    Buffer msg;
    Reactor::TimerId flush_timer = 0;
  };
  Held held_tx_, held_rx_;

  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace flexric
