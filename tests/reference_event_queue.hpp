// The pre-ladder binary-heap event queue, kept verbatim (renamed; next_seq()
// added) as the reference implementation for the randomized differential
// test in test_event_queue_differential.cpp. Its pop order — (time, seq) with FIFO
// ties, O(1) generation-checked cancellation — *defines* the contract the
// ladder queue must reproduce exactly; golden traces were recorded under
// this implementation.
//
// Test-only: nothing under src/ may include this header.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"  // kEventInlineCapacity, Handler alias basis
#include "sim/time.hpp"
#include "util/assert.hpp"
#include "util/inline_function.hpp"

namespace rcast::sim::testing {

/// Handle into ReferenceEventQueue; mirrors sim::EventId.
class ReferenceEventId {
 public:
  ReferenceEventId() = default;
  bool valid() const { return raw_ != 0; }
  bool operator==(const ReferenceEventId&) const = default;

 private:
  friend class ReferenceEventQueue;
  ReferenceEventId(std::uint32_t slot, std::uint32_t gen)
      : raw_((static_cast<std::uint64_t>(gen) << 32) |
             (static_cast<std::uint64_t>(slot) + 1)) {}
  std::uint32_t slot() const {
    return static_cast<std::uint32_t>(raw_ & 0xFFFFFFFFu) - 1;
  }
  std::uint32_t gen() const { return static_cast<std::uint32_t>(raw_ >> 32); }
  std::uint64_t raw_ = 0;
};

class ReferenceEventQueue {
 public:
  using Handler = util::InlineFunction<kEventInlineCapacity>;

  ReferenceEventId push(Time t, Handler h) {
    RCAST_REQUIRE_MSG(t >= last_popped_, "scheduling into the past");
    if (h.heap_allocated()) ++heap_fallbacks_;
    const std::uint32_t slot = acquire_slot();
    Slot& s = slots_[slot];
    s.handler = std::move(h);
    s.live = true;
    heap_.push_back(Entry{t, ++next_seq_, slot, s.gen});
    sift_up(heap_.size() - 1);
    ++live_;
    maybe_compact();
    return ReferenceEventId(slot, s.gen);
  }

  bool cancel(ReferenceEventId id) {
    if (!id.valid()) return false;
    const std::uint32_t slot = id.slot();
    if (slot >= slots_.size()) return false;
    Slot& s = slots_[slot];
    if (!s.live || s.gen != id.gen()) return false;
    release_slot(slot);
    --live_;
    return true;
  }

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  Time next_time() {
    skip_dead();
    RCAST_REQUIRE(!heap_.empty());
    return heap_.front().time;
  }

  /// Sequence number of the earliest pending event: with next_time(), the
  /// front key that EventQueue::precedes_front is checked against.
  std::uint64_t next_seq() {
    skip_dead();
    RCAST_REQUIRE(!heap_.empty());
    return heap_.front().seq;
  }

  std::pair<Time, Handler> pop() {
    skip_dead();
    RCAST_REQUIRE(!heap_.empty());
    const Entry e = heap_.front();
    remove_top();
    Slot& s = slots_[e.slot];
    RCAST_DCHECK(s.live && s.gen == e.gen);
    Handler h = std::move(s.handler);
    release_slot(e.slot);
    --live_;
    last_popped_ = e.time;
    return {e.time, std::move(h)};
  }

  std::uint64_t scheduled_count() const { return next_seq_; }
  std::uint64_t handler_heap_fallbacks() const { return heap_fallbacks_; }

 private:
  struct Entry {
    Time time;
    std::uint64_t seq;  // FIFO tie-break within equal times
    std::uint32_t slot;
    std::uint32_t gen;
  };

  struct Slot {
    Handler handler;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNilSlot;
    bool live = false;
  };

  static constexpr std::uint32_t kNilSlot = 0xFFFFFFFFu;

  static bool before(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  bool dead(const Entry& e) const {
    const Slot& s = slots_[e.slot];
    return !s.live || s.gen != e.gen;
  }

  std::uint32_t acquire_slot() {
    if (free_head_ != kNilSlot) {
      const std::uint32_t slot = free_head_;
      free_head_ = slots_[slot].next_free;
      return slot;
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  void release_slot(std::uint32_t slot) {
    Slot& s = slots_[slot];
    s.handler = Handler();
    s.live = false;
    ++s.gen;
    s.next_free = free_head_;
    free_head_ = slot;
  }

  void skip_dead() {
    while (!heap_.empty() && dead(heap_.front())) remove_top();
  }

  void remove_top() {
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
  }

  void sift_up(std::size_t i) {
    Entry e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    Entry e = heap_[i];
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], e)) break;
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = e;
  }

  void maybe_compact() {
    if (heap_.size() < 256 || heap_.size() < 4 * live_) return;
    std::size_t kept = 0;
    for (const Entry& e : heap_) {
      if (!dead(e)) heap_[kept++] = e;
    }
    heap_.resize(kept);
    if (kept > 1) {
      for (std::size_t i = kept / 2; i-- > 0;) sift_down(i);
    }
  }

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNilSlot;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t heap_fallbacks_ = 0;
  Time last_popped_ = 0;
};

}  // namespace rcast::sim::testing
