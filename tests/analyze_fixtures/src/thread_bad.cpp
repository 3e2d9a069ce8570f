// Known-bad fixture for thread-primitives: the reactor is single-threaded, so
// src/ outside src/transport/ and the three sanctioned headers holds no
// threading primitive. Golden findings (expected.txt): lines 7, 13, 14 (one
// per line), 15 and 16. A std::mutex named in a comment stays silent, and so
// does std::this_thread, which is not a primitive.
#include <cstdint>
#include <mutex>

namespace fixture {

std::uint64_t guarded_total(std::uint64_t add) {
  static std::uint64_t total = 0;
  static std::mutex m;
  std::lock_guard<std::mutex> lock(m);
  (void)pthread_self();
  static std::atomic<int> calls{0};
  (void)std::this_thread::get_id();
  return total += add;
}

}  // namespace fixture
