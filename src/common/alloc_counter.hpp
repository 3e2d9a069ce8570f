// Allocation counter for decoder allocation bounds (test_per, fuzz_sm).
// Its definition, tests/alloc_counter.cpp (object library
// flexric_alloc_counter), replaces the global operator new and delete:
// while armed on a thread, every operator new on that thread adds its size
// to the thread's tally. The definition stays out of src/, which perfbench
// compiles whole, so no library or benchmark binary gets this allocator.
#pragma once

#include <cstddef>

namespace flexric::alloc_counter {

/// Zero this thread's tally and start counting.
void arm() noexcept;
/// Stop counting; returns the bytes allocated on this thread since arm().
std::size_t disarm() noexcept;

}  // namespace flexric::alloc_counter
