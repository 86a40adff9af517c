// Free-list object pools and the pooled-shared_ptr factory.
//
// The per-transmission hot path used to heap-allocate every Frame, MacFrame
// and DsrPacket. `make_pooled<T>` routes those through a `Pool<T>` instead:
// one combined block per object (payload + shared_ptr control block, via
// std::allocate_shared) drawn from a free list, returned to it by the
// control block's allocator when the last reference drops. Pools live in a
// `PoolArena` owned by the Simulator — per-run, never shared across threads
// — which is what keeps the campaign runner's thread-per-job parallelism
// data-race free without any locking.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "util/assert.hpp"

namespace rcast::util {

struct PoolStats {
  std::uint64_t hits = 0;    // served from the free list (no allocation)
  std::uint64_t misses = 0;  // carved from chunk storage (amortized alloc)
};

class PoolBase {
 public:
  virtual ~PoolBase() = default;
  virtual const PoolStats& stats() const = 0;
};

/// Fixed-size-block free-list pool. Blocks are recycled raw storage for one
/// `T`; construction/destruction is the caller's business (make_pooled and
/// allocate_shared handle it). Chunks grow geometrically and are only
/// released when the pool dies, so steady state allocates nothing.
template <class T>
class Pool final : public PoolBase {
 public:
  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  void* allocate() {
    if (free_head_ != nullptr) {
      ++stats_.hits;
      void* p = free_head_;
      std::memcpy(&free_head_, p, sizeof(void*));
      return p;
    }
    ++stats_.misses;
    if (cursor_ == chunk_cap_) grow();
    return chunks_.back().get() + (cursor_++ * kBlockSize);
  }

  void deallocate(void* p) {
    std::memcpy(p, &free_head_, sizeof(void*));
    free_head_ = p;
  }

  const PoolStats& stats() const override { return stats_; }

 private:
  static constexpr std::size_t kBlockSize =
      sizeof(T) < sizeof(void*) ? sizeof(void*) : sizeof(T);
  static constexpr std::size_t kAlign =
      alignof(T) < alignof(void*) ? alignof(void*) : alignof(T);

  struct Deleter {
    void operator()(unsigned char* p) const {
      ::operator delete[](p, std::align_val_t{kAlign});
    }
  };

  void grow() {
    const std::size_t blocks = chunks_.empty() ? 64 : chunk_cap_ * 2;
    auto* raw = static_cast<unsigned char*>(
        ::operator new[](blocks * kBlockSize, std::align_val_t{kAlign}));
    chunks_.emplace_back(raw);
    chunk_cap_ = blocks;
    cursor_ = 0;
  }

  std::vector<std::unique_ptr<unsigned char[], Deleter>> chunks_;
  std::size_t chunk_cap_ = 0;  // blocks in the current (last) chunk
  std::size_t cursor_ = 0;     // next unused block in the current chunk
  void* free_head_ = nullptr;
  PoolStats stats_;
};

/// Type-indexed registry of pools. One arena per Simulator; `get<T>()` is
/// O(1) after the first call for a given T.
class PoolArena {
 public:
  PoolArena() = default;
  PoolArena(const PoolArena&) = delete;
  PoolArena& operator=(const PoolArena&) = delete;

  /// Marks the arena as visible from multiple threads at once (sharded
  /// runs). The free lists are not thread-safe, so make_pooled then falls
  /// back to std::make_shared — a pointer released on another shard's
  /// thread would otherwise corrupt the list. Set once at build time.
  void set_thread_shared(bool shared) { thread_shared_ = shared; }
  bool thread_shared() const { return thread_shared_; }

  template <class T>
  Pool<T>& get() {
    const std::size_t idx = index_of<T>();
    if (idx >= pools_.size()) pools_.resize(idx + 1);
    if (pools_[idx] == nullptr) pools_[idx] = std::make_unique<Pool<T>>();
    return *static_cast<Pool<T>*>(pools_[idx].get());
  }

  /// Aggregate hit/miss counters across every pool in the arena.
  PoolStats total_stats() const {
    PoolStats total;
    for (const auto& p : pools_) {
      if (p == nullptr) continue;
      total.hits += p->stats().hits;
      total.misses += p->stats().misses;
    }
    return total;
  }

 private:
  // The index assignment is global (a static per-T), but the pools
  // themselves are per-arena; the atomic only runs once per type.
  static std::size_t next_index() {
    static std::atomic<std::size_t> counter{0};
    return counter.fetch_add(1);
  }

  template <class T>
  static std::size_t index_of() {
    static const std::size_t idx = next_index();
    return idx;
  }

  std::vector<std::unique_ptr<PoolBase>> pools_;
  bool thread_shared_ = false;
};

/// std::allocator-compatible adapter over a PoolArena; allocate_shared
/// rebinds it to its internal node type, so the control block and the
/// payload share one pooled block.
template <class T>
struct PoolAllocator {
  using value_type = T;

  explicit PoolAllocator(PoolArena& arena) : arena_(&arena) {}

  template <class U>
  PoolAllocator(const PoolAllocator<U>& other) : arena_(other.arena_) {}

  T* allocate([[maybe_unused]] std::size_t n) {
    RCAST_DCHECK(n == 1);
    return static_cast<T*>(arena_->get<T>().allocate());
  }

  void deallocate(T* p, std::size_t) { arena_->get<T>().deallocate(p); }

  template <class U>
  bool operator==(const PoolAllocator<U>& other) const {
    return arena_ == other.arena_;
  }

  PoolArena* arena_;
};

/// Pooled replacement for std::make_shared: same call shape, but the block
/// comes from (and returns to) `arena`'s Pool. The arena must outlive every
/// pointer it produced — guaranteed when the arena belongs to the Simulator,
/// which all protocol state hangs off.
template <class T, class... Args>
std::shared_ptr<T> make_pooled(PoolArena& arena, Args&&... args) {
  if (arena.thread_shared()) {
    return std::make_shared<T>(std::forward<Args>(args)...);
  }
  return std::allocate_shared<T>(PoolAllocator<T>(arena),
                                 std::forward<Args>(args)...);
}

}  // namespace rcast::util
