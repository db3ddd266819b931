// Global heap-allocation counter for allocation-budget assertions.
//
// Including this header replaces the ordinary, aligned AND nothrow global
// operator new/delete families for the whole binary, counting every
// allocation in mage::common::alloc_count().  Every form allocates with
// malloc (or posix_memalign) and every delete frees with free(), so no
// form may be left to the runtime's defaults: std::get_temporary_buffer
// (std::stable_sort's scratch space) allocates through nothrow new and
// returns the memory through plain delete, and a default nothrow new under
// AddressSanitizer is ASan's own, which it then reports as an
// alloc-dealloc mismatch.  The library never includes it; it exists
// for test/bench mains (tests/hotpath_test.cpp, bench/bench_hotpath.cpp)
// that assert the spine's one-allocation-per-send budget.
//
// Include from EXACTLY ONE translation unit per binary: the operators are
// deliberately non-inline definitions (replacement functions), so a second
// inclusion in the same binary is an ODR violation the linker will reject.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace mage::common {

inline std::atomic<std::uint64_t> g_alloc_count{0};

inline std::uint64_t alloc_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

}  // namespace mage::common

namespace mage::common::detail {

// Counted allocations backing every replaced form; nullptr on exhaustion.
inline void* counted_malloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

inline void* counted_aligned_malloc(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const std::size_t alignment =
      static_cast<std::size_t>(align) < sizeof(void*)
          ? sizeof(void*)
          : static_cast<std::size_t>(align);
  void* p = nullptr;
  if (posix_memalign(&p, alignment, size == 0 ? alignment : size) != 0) {
    return nullptr;
  }
  return p;
}

}  // namespace mage::common::detail

void* operator new(std::size_t size) {
  if (void* p = mage::common::detail::counted_malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = mage::common::detail::counted_aligned_malloc(size, align)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return mage::common::detail::counted_malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return mage::common::detail::counted_malloc(size);
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return mage::common::detail::counted_aligned_malloc(size, align);
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return mage::common::detail::counted_aligned_malloc(size, align);
}

// GCC pairs `new` expressions at call sites with the free() in these
// replaced deletes and warns about a mismatch; the pairing is correct here
// because the replaced operator new above allocates with malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop
