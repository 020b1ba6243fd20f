#include "util/alloc_counter.h"

#include <cstdlib>
#include <new>

namespace galvatron {
namespace internal {
thread_local constinit int64_t thread_alloc_count = 0;
}  // namespace internal
}  // namespace galvatron

// Replacement global allocation functions: malloc/free plus a per-thread
// counter tick. Replacing operator new is the only way to see EVERY heap
// allocation on the DP path — including the ones hiding inside std::vector
// growth, std::string, std::function and Result plumbing — which is what
// the SearchStats allocation counters and the warm-sweep allocation
// tripwire measure. The overhead is one thread-local increment per
// allocation, paid uniformly by every build, so instrumented and
// uninstrumented timings stay comparable.
//
// These definitions live in the same translation unit as the counter they
// tick: any binary that reads CurrentThreadAllocCount() pulls this object
// file from the archive and gets the replacement operators with it.

namespace {

inline void* counted_alloc(std::size_t size) {
  ++galvatron::internal::thread_alloc_count;
  return std::malloc(size != 0 ? size : 1);
}

inline void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  ++galvatron::internal::thread_alloc_count;
  void* p = nullptr;
  if (posix_memalign(&p, align >= sizeof(void*) ? align : sizeof(void*),
                     size != 0 ? size : 1) != 0) {
    return nullptr;
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#ifdef __cpp_aligned_new

void* operator new(std::size_t size, std::align_val_t align) {
  void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
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

#endif  // __cpp_aligned_new
