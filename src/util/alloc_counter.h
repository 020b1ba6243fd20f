#ifndef GALVATRON_UTIL_ALLOC_COUNTER_H_
#define GALVATRON_UTIL_ALLOC_COUNTER_H_

#include <cstdint>

namespace galvatron {

namespace internal {
/// Incremented by the replaced global operator new (all variants) in
/// alloc_counter.cc. Per-thread, so concurrent sweep workers measure their
/// own allocation traffic without any synchronization. `constinit` tells
/// readers in other translation units that no dynamic initializer exists,
/// so they access the variable directly instead of through a TLS wrapper
/// call (whose result UBSan reported as a null-pointer load).
extern thread_local constinit int64_t thread_alloc_count;
}  // namespace internal

/// Number of heap allocations this thread has performed since it started
/// (operator new / new[] calls, throwing, nothrow and aligned forms alike;
/// deallocations are not counted). Callers measure a scope by differencing:
///
///   const int64_t before = CurrentThreadAllocCount();
///   ...
///   const int64_t allocated = CurrentThreadAllocCount() - before;
///
/// The counter only ticks in binaries that link alloc_counter.cc's
/// replacement operators (anything linking galvatron_util and referencing
/// this header does); elsewhere it reads zero, and scope deltas are zero —
/// callers must treat the value as telemetry, never as a correctness input.
inline int64_t CurrentThreadAllocCount() {
  return internal::thread_alloc_count;
}

}  // namespace galvatron

#endif  // GALVATRON_UTIL_ALLOC_COUNTER_H_
