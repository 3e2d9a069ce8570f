#include "telemetry/slab.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstdint>
#include <new>

// Under ASan, what the slab does not hand out is poisoned, and LSan scans
// each chunk as a root: the series' run arenas are reachable only through it.
#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/lsan_interface.h>
#define LSAN_ADD_ROOT(addr, size) __lsan_register_root_region(addr, size)
#define LSAN_DROP_ROOT(addr, size) __lsan_unregister_root_region(addr, size)
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define LSAN_ADD_ROOT(addr, size) ((void)(addr), (void)(size))
#define LSAN_DROP_ROOT(addr, size) ((void)(addr), (void)(size))
#endif

namespace flexric::telemetry {

namespace {

constexpr std::size_t kPage = 4096;

/// `bytes` of fresh anonymous memory starting on an `align` boundary: map
/// `align` more than asked and unmap the ends.
void* map_chunk(std::size_t bytes, std::size_t align) {
  const std::size_t span = bytes + (align > kPage ? align : 0);
  void* p = ::mmap(nullptr, span, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  auto* lo = static_cast<std::byte*>(p);
  const std::size_t head =
      (align - reinterpret_cast<std::uintptr_t>(lo) % align) % align;
  if (head > 0) ::munmap(lo, head);
  if (span - head > bytes) ::munmap(lo + head + bytes, span - head - bytes);
  return lo + head;
}

}  // namespace

Slab::~Slab() {
  for (const Chunk& c : chunks_) {
    LSAN_DROP_ROOT(c.base, c.bytes);
    ::munmap(c.base, c.bytes);
  }
}

Slab::Size& Slab::size_of(std::size_t bytes, std::size_t align) {
  align = std::max(align, alignof(FreeBlock));
  bytes = (std::max(bytes, sizeof(FreeBlock)) + align - 1) / align * align;
  for (Size& s : sizes_)
    if (s.bytes == bytes && s.align == align) return s;
  return sizes_.emplace_back(Size{.bytes = bytes, .align = align});
}

// @coldpath a new chunk per block size: geometric up to kHugePage, so a
// few dozen over the life of a full store
void Slab::grow(Size& s) {
  std::size_t bytes = std::max(s.next_chunk, s.bytes);
  const std::size_t align =
      bytes >= kHugePage ? kHugePage : std::max(kPage, s.align);
  bytes = (bytes + align - 1) / align * align;
  chunks_.reserve(chunks_.size() + 1);  // so the push_back cannot throw
  void* base = map_chunk(bytes, align);
  // Best effort: without transparent huge pages the slab still packs.
  if (bytes >= kHugePage) (void)::madvise(base, bytes, MADV_HUGEPAGE);
  ASAN_POISON_MEMORY_REGION(base, bytes);
  LSAN_ADD_ROOT(base, bytes);
  chunks_.push_back({base, bytes});
  reserved_ += bytes;
  s.bump = static_cast<std::byte*>(base);
  s.end = s.bump + bytes;
  s.next_chunk = std::min(s.next_chunk * 2, kHugePage);
}

void* Slab::do_allocate(std::size_t bytes, std::size_t align) {
  Size& s = size_of(bytes, align);
  auto bump_left = [&s] { return static_cast<std::size_t>(s.end - s.bump); };
  if (bump_left() < s.bytes && s.free == nullptr) grow(s);
  void* p = nullptr;
  if (bump_left() >= s.bytes) {
    p = s.bump;
    s.bump += s.bytes;
    ASAN_UNPOISON_MEMORY_REGION(p, s.bytes);
  } else {
    p = s.free;
    ASAN_UNPOISON_MEMORY_REGION(p, s.bytes);
    s.free = s.free->next;
  }
  return p;
}

void Slab::do_deallocate(void* p, std::size_t bytes, std::size_t align) {
  Size& s = size_of(bytes, align);
  s.free = ::new (p) FreeBlock{s.free};
  ASAN_POISON_MEMORY_REGION(p, s.bytes);
}

}  // namespace flexric::telemetry
