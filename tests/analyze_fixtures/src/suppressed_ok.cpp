// Fixture for the suppression syntax: a `lint: allow(<rule>) <reason>` on the
// finding line or the line above silences it. Expected findings: none.
// lint: allow(include-hygiene) fixture: a legacy include outside the roots
#include "../legacy/compat.hpp"
#include <atomic>  // lint: allow(thread-primitives) fixture: directive line

namespace fixture {

void legacy_poll() {
  // lint: allow(blocking-in-handler) fixture: documents the suppression syntax
  ::usleep(100);
}

// lint: allow(thread-primitives) fixture: single word, no ordering needs
std::atomic<int> g_level{0};

}  // namespace fixture
