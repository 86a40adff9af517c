// Opt-in global-allocation counting.
//
// When the build defines RCAST_COUNT_ALLOCS (the default; disabled
// automatically under RCAST_SANITIZE so sanitizer interceptors keep full
// visibility), global operator new/delete are replaced with thin malloc
// wrappers that add the requested size to a thread-local counter whenever
// tracking is enabled on that thread. The counters are per-thread, so
// campaign runner workers measure their own runs independently and without
// synchronization. When the hook is compiled out, every call is a no-op and
// bytes() is always 0.
#pragma once

#include <cstdint>

namespace rcast::util {

class AllocTracker {
 public:
  /// Starts counting allocations made by the calling thread.
  static void enable();
  /// Stops counting on the calling thread (the byte total is retained).
  static void disable();
  /// Zeroes the calling thread's byte total.
  static void reset();
  /// Bytes requested through operator new on this thread while enabled.
  static std::uint64_t bytes();
  /// True if the counting hook is compiled into this binary.
  static bool compiled_in();
};

}  // namespace rcast::util
