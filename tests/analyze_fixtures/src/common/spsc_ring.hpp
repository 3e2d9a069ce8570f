// Fixture: src/common/spsc_ring.hpp is one of the three sanctioned headers
// that may use atomics outside src/transport/. Expected findings: none.
#pragma once
#include <atomic>

namespace fixture {
inline std::atomic<int> spsc_ring_word{0};
}  // namespace fixture
