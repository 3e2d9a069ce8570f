// Hot-path allocation fixture. Golden findings (expected.txt): growth,
// owned-container construction, make_unique (also the _for_overwrite
// form), aligned_alloc, posix_memalign, mmap and a memory resource's
// allocate() inside a @hotpath span,
// plus an allocation reached through same-file call propagation. The
// @coldpath helper allocates freely and must stay silent.
#include <sys/mman.h>

#include <cstdlib>
#include <memory>
#include <memory_resource>
#include <string>
#include <vector>

namespace flexric {

struct Sample {
  int v = 0;
};

// @hotpath
inline void on_indication(std::vector<Sample>& sink, int v) {
  sink.push_back({v});
  std::string label(16, 'x');
  auto p = std::make_unique<Sample>();
  auto raw = std::make_unique_for_overwrite<int[]>(8);
  (void)label;
  (void)p;
  (void)raw;
}

// @hotpath
inline void on_chunk(std::pmr::memory_resource* mem) {
  void* a = std::aligned_alloc(64, 4096);
  void* b = nullptr;
  (void)posix_memalign(&b, 64, 4096);
  void* c = mmap(nullptr, 4096, PROT_READ, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  void* d = mem->allocate(256, 8);
  (void)a;
  (void)b;
  (void)c;
  (void)d;
}

inline void warm_helper(std::vector<int>& v) {
  v.reserve(32);  // hot by propagation: dispatch_one() calls this
}

// @hotpath
inline void dispatch_one(std::vector<int>& v) {
  warm_helper(v);
}

// @coldpath
inline void setup_tables(std::vector<int>& v) {
  v.reserve(1024);
}

}  // namespace flexric
