// Shared test utilities.
#pragma once

#include <gtest/gtest.h>

#include <functional>

#include "common/clock.hpp"
#include "transport/reactor.hpp"

namespace flexric::test {

/// Pump the reactor until `pred` holds or `max_iters` iterations elapse.
/// Returns true when the predicate was satisfied.
inline bool pump_until(Reactor& reactor, const std::function<bool()>& pred,
                       int max_iters = 2000) {
  for (int i = 0; i < max_iters; ++i) {
    if (pred()) return true;
    reactor.run_once(/*timeout_ms=*/5);
  }
  return pred();
}

/// Pump a fixed number of iterations (settling async deliveries).
inline void pump(Reactor& reactor, int iters = 10) {
  for (int i = 0; i < iters; ++i) reactor.run_once(0);
}

/// Advance virtual time in small steps, pumping the reactor after each so
/// timers interleave with message deliveries the way real time would.
inline void advance(Reactor& reactor, VirtualClock& clock, Nanos dt,
                    Nanos step = kMilli) {
  while (dt > 0) {
    const Nanos d = dt < step ? dt : step;
    clock.advance(d);
    dt -= d;
    for (int i = 0; i < 8; ++i)
      if (reactor.run_once(0) == 0) break;
  }
}

}  // namespace flexric::test
