#include "alloc_counter.hpp"

#include <cstdlib>
#include <new>

namespace gtwbench::alloc {
namespace {
// The simulator is single-threaded and so is the benchmark.
bool g_counting = false;
Counts g_counts;

void* allocate(std::size_t n) {
  if (g_counting) {
    ++g_counts.calls;
    g_counts.bytes += n;
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* allocate_aligned(std::size_t n, std::align_val_t al) {
  if (g_counting) {
    ++g_counts.calls;
    g_counts.bytes += n;
  }
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}
}  // namespace

void set_counting(bool on) { g_counting = on; }
Counts counts() { return g_counts; }

Pause::Pause() : was_(g_counting) { g_counting = false; }
Pause::~Pause() { g_counting = was_; }

}  // namespace gtwbench::alloc

using gtwbench::alloc::allocate;
using gtwbench::alloc::allocate_aligned;

void* operator new(std::size_t n) { return allocate(n); }
void* operator new[](std::size_t n) { return allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return allocate_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return allocate_aligned(n, al);
}

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
