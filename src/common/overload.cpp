#include "common/overload.hpp"

namespace flexric::overload {

RateLimiter::RateLimiter(double rate_per_sec, double burst)
    : rate_(rate_per_sec),
      burst_(burst > 0.0 ? burst : rate_per_sec),
      tokens_(0.0) {}

bool RateLimiter::admit(Nanos now) {
  if (unlimited()) return true;
  if (!primed_) {
    // First sight of traffic: start with a full bucket so a well-behaved
    // sender is never shed on its opening burst.
    primed_ = true;
    last_ = now;
    tokens_ = burst_;
  } else if (now > last_) {
    tokens_ += rate_ * (static_cast<double>(now - last_) / 1e9);
    if (tokens_ > burst_) tokens_ = burst_;
    last_ = now;
  }
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

double RateLimiter::tokens(Nanos now) const {
  if (unlimited()) return 0.0;
  if (!primed_) return burst_;
  double t = tokens_;
  if (now > last_) t += rate_ * (static_cast<double>(now - last_) / 1e9);
  return t > burst_ ? burst_ : t;
}

}  // namespace flexric::overload
