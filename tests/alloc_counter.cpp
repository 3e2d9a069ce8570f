#include "common/alloc_counter.hpp"

#include <cstdlib>
#include <new>

namespace {
thread_local bool t_counting = false;
thread_local std::size_t t_alloc_bytes = 0;
}  // namespace

// Out of line so the compiler does not pair the inlined free() with a
// `new` expression and warn about a mismatch.
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (t_counting) t_alloc_bytes += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

void flexric::alloc_counter::arm() noexcept {
  t_alloc_bytes = 0;
  t_counting = true;
}

std::size_t flexric::alloc_counter::disarm() noexcept {
  t_counting = false;
  return t_alloc_bytes;
}
