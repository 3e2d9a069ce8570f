// Fixture: src/common/affinity.hpp is one of the three sanctioned headers
// that may use atomics outside src/transport/. Expected findings: none.
#pragma once
#include <atomic>

namespace fixture {
inline std::atomic<int> affinity_word{0};
}  // namespace fixture
