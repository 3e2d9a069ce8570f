// Series memory: the telemetry store's size-segregated slab (DESIGN.md §8,
// "Series memory").
//
// A store of thousands of series allocates the same three block sizes over
// and over: the list node holding each TimeSeries, each raw ring and each
// tier's slot ring. From malloc those land wherever the heap has room, so a
// report that writes one UE's metrics touches a few scattered pages per
// series, each a TLB miss. The slab keeps one bump region and one free list
// per exact block size (no size-class rounding, so a 6 KiB slot ring costs
// 6 KiB), and so packs all series objects densely, likewise all raw rings
// and all slot rings.
//
// Chunks are mmap()ed straight from the kernel and grow geometrically per
// block size from kFirstChunk up to kHugePage, so a store of a handful of
// series stays small; from then on every chunk is one or more whole 2 MiB
// pages, 2 MiB-aligned and advised MADV_HUGEPAGE, so the hot set sits in a
// few huge TLB entries. (From the malloc heap, 2 MiB-aligned chunks left
// gaps beside them that raised RSS by a sixth.) Chunks are only released
// with the slab. A freed block goes on its size's free list; an allocation
// takes the bump region first, so a freed block waits until the current
// chunk is used up before it is handed out again.
//
// Under AddressSanitizer every byte the slab does not hand out (free blocks
// and unused chunk tails) is poisoned, so a stale pointer into an evicted
// series still faults.
//
// Not thread-safe: it belongs to one TelemetryStore, on the reactor thread.
#pragma once

#include <cstddef>
#include <memory_resource>
#include <vector>

namespace flexric::telemetry {

class Slab final : public std::pmr::memory_resource {
 public:
  static constexpr std::size_t kFirstChunk = std::size_t{64} << 10;
  static constexpr std::size_t kHugePage = std::size_t{2} << 20;

  Slab() = default;
  ~Slab() override;
  Slab(const Slab&) = delete;
  Slab& operator=(const Slab&) = delete;

  /// Chunk bytes reserved so far, over every block size.
  [[nodiscard]] std::size_t reserved_bytes() const noexcept {
    return reserved_;
  }
  /// Distinct block sizes allocated so far.
  [[nodiscard]] std::size_t block_sizes() const noexcept {
    return sizes_.size();
  }

 private:
  struct FreeBlock {
    FreeBlock* next;
  };
  /// One block size: its bump region and its free list.
  struct Size {
    std::size_t bytes = 0;  ///< block size, a multiple of align
    std::size_t align = 0;
    std::byte* bump = nullptr;
    std::byte* end = nullptr;
    FreeBlock* free = nullptr;
    std::size_t next_chunk = kFirstChunk;
  };
  struct Chunk {
    void* base;
    std::size_t bytes;
  };

  void* do_allocate(std::size_t bytes, std::size_t align) override;
  void do_deallocate(void* p, std::size_t bytes, std::size_t align) override;
  [[nodiscard]] bool do_is_equal(
      const std::pmr::memory_resource& other) const noexcept override {
    return this == &other;
  }
  Size& size_of(std::size_t bytes, std::size_t align);
  void grow(Size& s);

  std::vector<Size> sizes_;
  std::vector<Chunk> chunks_;
  std::size_t reserved_ = 0;
};

}  // namespace flexric::telemetry
