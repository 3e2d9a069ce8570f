// Fixture: src/common/shard_stats.hpp is one of the three sanctioned headers
// that may use atomics outside src/transport/. Expected findings: none.
#pragma once
#include <atomic>

namespace fixture {
inline std::atomic<int> shard_stats_word{0};
}  // namespace fixture
