// Global allocation counter for the zero-allocation guards.
//
// Replaces the complete operator new/delete family — plain, array,
// aligned, nothrow and aligned-nothrow new, and every delete overload —
// with malloc/aligned_alloc/free plus one relaxed atomic counter of the
// allocations. Replacing the whole family matters: a sanitizer runtime
// supplies its own versions of any form left out, and a block allocated by
// its nothrow new (std::stable_sort's temporary buffer, for one) would
// then be released by this file's free — an alloc-dealloc mismatch.
//
// The replacements are ordinary (non-inline) definitions, so include this
// header from exactly one translation unit of a test binary.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace pconn::test {

inline std::atomic<std::uint64_t> g_allocs{0};

/// Allocations made through operator new since the program started.
/// Relaxed: pool threads allocate too, but only before warm-up, which is
/// exactly what the guards verify.
inline std::uint64_t alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

inline void* counted_alloc(std::size_t size) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

inline void* counted_aligned_alloc(std::size_t size,
                                   std::align_val_t al) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto align = static_cast<std::size_t>(al);
  const std::size_t rounded = (size + align - 1) / align * align;
  return std::aligned_alloc(align, rounded == 0 ? align : rounded);
}

inline void* checked(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace pconn::test

// --- new --------------------------------------------------------------------
void* operator new(std::size_t size) {
  return pconn::test::checked(pconn::test::counted_alloc(size));
}
void* operator new[](std::size_t size) {
  return pconn::test::checked(pconn::test::counted_alloc(size));
}
void* operator new(std::size_t size, std::align_val_t al) {
  return pconn::test::checked(pconn::test::counted_aligned_alloc(size, al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return pconn::test::checked(pconn::test::counted_aligned_alloc(size, al));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return pconn::test::counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return pconn::test::counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return pconn::test::counted_aligned_alloc(size, al);
}
void* operator new[](std::size_t size, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return pconn::test::counted_aligned_alloc(size, al);
}

// --- delete -----------------------------------------------------------------
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
