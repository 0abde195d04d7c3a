// Global allocation hook, compiled into the benchmark binary only (as in
// fig16 and fig18): every operator new bumps a call and a byte counter.
// The benchmark is single-threaded, so plain counters suffice.
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace {
std::uint64_t g_calls = 0;
std::uint64_t g_bytes = 0;

void* counted(std::size_t size) {
  ++g_calls;
  g_bytes += size;
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned(std::size_t size, std::align_val_t align) {
  ++g_calls;
  g_bytes += size;
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded != 0 ? rounded : a)) return p;
  throw std::bad_alloc();
}
}  // namespace

namespace rfs::perfbench {
AllocCount alloc_count() { return {g_calls, g_bytes}; }
}  // namespace rfs::perfbench

void* operator new(std::size_t size) { return counted(size); }
void* operator new[](std::size_t size) { return counted(size); }
void* operator new(std::size_t size, std::align_val_t a) { return counted_aligned(size, a); }
void* operator new[](std::size_t size, std::align_val_t a) { return counted_aligned(size, a); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
