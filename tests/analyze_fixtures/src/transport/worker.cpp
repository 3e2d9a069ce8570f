// Fixture: src/transport/ owns the I/O threads, so threading primitives are
// allowed here. Expected findings: none.
#include <atomic>
#include <thread>

namespace fixture {

void run_worker(std::atomic<bool>& stop) {
  std::thread t([&stop] { stop.store(true, std::memory_order_release); });
  t.join();
}

}  // namespace fixture
