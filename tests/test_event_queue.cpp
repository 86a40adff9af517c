#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "util/rng.hpp"

namespace rcast::sim {
namespace {

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesFireInSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(100, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, PopReturnsTimestamp) {
  EventQueue q;
  q.push(77, [] {});
  EXPECT_EQ(q.pop(), 77);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(10, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  const EventId id = q.push(10, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterFireReturnsFalse) {
  EventQueue q;
  const EventId id = q.push(10, [] {});
  q.pop();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, NullEventIdIsInvalid) {
  EventId id;
  EXPECT_FALSE(id.valid());
  EventQueue q;
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelMiddleKeepsOthers) {
  EventQueue q;
  std::vector<int> order;
  q.push(1, [&] { order.push_back(1); });
  const EventId mid = q.push(2, [&] { order.push_back(2); });
  q.push(3, [&] { order.push_back(3); });
  q.cancel(mid);
  while (!q.empty()) q.pop();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId e1 = q.push(5, [] {});
  q.push(9, [] {});
  q.cancel(e1);
  EXPECT_EQ(q.next_time(), 9);
}

TEST(EventQueue, RejectsSchedulingIntoPast) {
  EventQueue q;
  q.push(100, [] {});
  q.pop();
  EXPECT_THROW(q.push(50, [] {}), ContractViolation);
  EXPECT_NO_THROW(q.push(100, [] {}));  // same time is fine
}

TEST(EventQueue, SizeTracksCancellations) {
  EventQueue q;
  const EventId a = q.push(1, [] {});
  q.push(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, ManyEventsStressOrder) {
  EventQueue q;
  std::vector<Time> times;
  // Insert in a scrambled deterministic order.
  for (int i = 0; i < 1000; ++i) {
    const Time t = (i * 7919) % 1000;
    q.push(t, [&times, t] { times.push_back(t); });
  }
  while (!q.empty()) q.pop();
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  EXPECT_EQ(times.size(), 1000u);
}

// MAC-style churn: schedule N timers, cancel every other one as scheduling
// proceeds, then drain. Survivors must fire in time order, every cancelled
// event must stay silent, and the queue must account for all of it (no
// leaked live entries, monotone scheduled_count).
TEST(EventQueue, ChurnCancelHalfInterleaved) {
  constexpr int kN = 4096;
  EventQueue q;
  std::vector<Time> fired;
  std::vector<EventId> ids;
  std::vector<bool> cancelled(kN, false);
  ids.reserve(kN);
  Rng rng(11);
  Time t = 0;
  for (int i = 0; i < kN; ++i) {
    t += static_cast<Time>(rng.uniform_u64(50));
    const Time when = t;
    ids.push_back(q.push(when, [&fired, when] { fired.push_back(when); }));
    if (i % 2 == 1) {
      EXPECT_TRUE(q.cancel(ids[static_cast<std::size_t>(i) - 1]));
      cancelled[static_cast<std::size_t>(i) - 1] = true;
    }
  }
  EXPECT_EQ(q.size(), kN / 2u);
  EXPECT_EQ(q.scheduled_count(), static_cast<std::uint64_t>(kN));
  while (!q.empty()) q.pop();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(fired.size(), kN / 2u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  // Cancelled handles are spent: a second cancel must report false.
  for (int i = 0; i < kN; ++i) EXPECT_FALSE(q.cancel(ids[i]));
}

// Randomized property test: on an arbitrary schedule/cancel/pop interleaving
// the queue must match a reference model — pending events sorted by
// (time, scheduling order), cancellation by erasure. This pins the exact
// semantics the old std::function/tombstone implementation had.
TEST(EventQueue, RandomizedMatchesReferenceModel) {
  struct ModelEvent {
    Time time;
    std::uint64_t seq;
    int tag;
  };
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    EventQueue q;
    Rng rng(seed);
    std::vector<ModelEvent> model;          // pending, unsorted
    std::vector<std::pair<int, EventId>> handles;  // tag -> live handle
    std::vector<int> popped_real;
    std::vector<int> popped_model;
    std::uint64_t next_seq = 0;
    Time now = 0;
    int next_tag = 0;
    for (int step = 0; step < 2000; ++step) {
      const std::uint64_t op = rng.uniform_u64(10);
      if (op < 6) {  // push
        const Time at = now + static_cast<Time>(rng.uniform_u64(1000));
        const int tag = next_tag++;
        handles.emplace_back(
            tag, q.push(at, [tag, &popped_real] { popped_real.push_back(tag); }));
        model.push_back(ModelEvent{at, next_seq++, tag});
      } else if (op < 8) {  // cancel a random outstanding handle
        if (handles.empty()) continue;
        const std::size_t pick = rng.uniform_u64(handles.size());
        const auto [tag, id] = handles[pick];
        const auto it =
            std::find_if(model.begin(), model.end(),
                         [tag](const ModelEvent& e) { return e.tag == tag; });
        const bool model_cancelled = it != model.end();
        EXPECT_EQ(q.cancel(id), model_cancelled);
        if (model_cancelled) model.erase(it);
        handles.erase(handles.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {  // pop
        if (model.empty()) {
          EXPECT_TRUE(q.empty());
          continue;
        }
        const auto it = std::min_element(
            model.begin(), model.end(),
            [](const ModelEvent& a, const ModelEvent& b) {
              return a.time != b.time ? a.time < b.time : a.seq < b.seq;
            });
        EXPECT_EQ(q.pop(), it->time);  // fires the handler in place
        popped_model.push_back(it->tag);
        now = it->time;
        model.erase(it);
      }
      EXPECT_EQ(q.size(), model.size());
    }
    EXPECT_EQ(popped_real, popped_model) << "seed " << seed;
  }
}

// Captures that fit in kEventInlineCapacity must not allocate; oversized
// ones fall back to the heap and are counted.
TEST(EventQueue, HeapFallbackOnlyForOversizedCaptures) {
  EventQueue q;
  int x = 0;
  auto small = [&x] { ++x; };
  static_assert(EventQueue::Handler::fits_inline<decltype(small)>());
  q.push(1, small);
  EXPECT_EQ(q.handler_heap_fallbacks(), 0u);

  std::array<std::uint64_t, 16> big{};  // 128 bytes > kEventInlineCapacity
  auto large = [big, &x] { x += static_cast<int>(big[0]); };
  static_assert(!EventQueue::Handler::fits_inline<decltype(large)>());
  q.push(2, large);
  EXPECT_EQ(q.handler_heap_fallbacks(), 1u);
  while (!q.empty()) q.pop();
  EXPECT_EQ(x, 1);
}

// A stale handle whose slot was recycled by a newer event must stay inert:
// cancelling it is a no-op and must not kill the new occupant.
TEST(EventQueue, StaleHandleCannotCancelRecycledSlot) {
  EventQueue q;
  const EventId old_id = q.push(1, [] {});
  q.pop();  // slot released, generation bumped
  bool fired = false;
  q.push(2, [&fired] { fired = true; });  // recycles the slot
  EXPECT_FALSE(q.cancel(old_id));
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, ScheduledCountMonotone) {
  EventQueue q;
  q.push(1, [] {});
  q.push(2, [] {});
  EXPECT_EQ(q.scheduled_count(), 2u);
  q.pop();
  EXPECT_EQ(q.scheduled_count(), 2u);
}

// Inspection is const: next_time()/empty()/size() must be callable through a
// const reference (the simulator exposes them on its const surface).
TEST(EventQueue, InspectionIsConst) {
  EventQueue q;
  q.push(42, [] {});
  const EventQueue& cq = q;
  EXPECT_FALSE(cq.empty());
  EXPECT_EQ(cq.size(), 1u);
  EXPECT_EQ(cq.next_time(), 42);
}

// pop_batch drains exactly one timestamp, in scheduling order, and leaves
// later events pending.
TEST(EventQueue, PopBatchDrainsOneTimestampInOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(10, [&] { order.push_back(0); });
  q.push(10, [&] { order.push_back(1); });
  q.push(10, [&] { order.push_back(2); });
  q.push(11, [&] { order.push_back(99); });
  const Time t = q.pop_batch([](EventQueue::Handler& h) { h(); });
  EXPECT_EQ(t, 10);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), 11);
}

// A handler that pushes an event at the batch's own timestamp joins the
// tail of the running batch (FIFO by scheduling order holds across the
// insertion), while later-time pushes stay pending.
TEST(EventQueue, PopBatchHandlerPushSameTimeJoinsBatch) {
  EventQueue q;
  std::vector<int> order;
  q.push(10, [&] {
    order.push_back(0);
    q.push(10, [&] { order.push_back(2); });
    q.push(20, [&] { order.push_back(3); });
  });
  q.push(10, [&] { order.push_back(1); });
  q.pop_batch([](EventQueue::Handler& h) { h(); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), 20);
}

// A handler that cancels a later same-timestamp member skips it mid-batch.
TEST(EventQueue, PopBatchHandlerCancelSkipsUnfiredMember) {
  EventQueue q;
  std::vector<int> order;
  EventId victim;
  q.push(10, [&] {
    order.push_back(0);
    EXPECT_TRUE(q.cancel(victim));
  });
  victim = q.push(10, [&] { order.push_back(1); });
  q.push(10, [&] { order.push_back(2); });
  q.pop_batch([](EventQueue::Handler& h) { h(); });
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
  EXPECT_TRUE(q.empty());
}

// Batch instrumentation: dispatch_batches counts pop_batch calls, one per
// fired timestamp whatever the batch size.
TEST(EventQueue, BatchCountersTrackDispatch) {
  EventQueue q;
  for (int i = 0; i < 3; ++i) q.push(10, [] {});
  q.push(20, [] {});
  q.pop_batch([](EventQueue::Handler& h) { h(); });  // batch of 3
  q.pop_batch([](EventQueue::Handler& h) { h(); });  // batch of 1
  EXPECT_EQ(q.dispatch_batches(), 2u);
  EXPECT_TRUE(q.empty());
}

// Queue-depth high-water marks the maximum simultaneous pending count.
TEST(EventQueue, DepthHighWaterTracksPeak) {
  EventQueue q;
  const EventId a = q.push(1, [] {});
  q.push(2, [] {});
  q.push(3, [] {});
  q.cancel(a);
  q.pop();
  q.push(4, [] {});
  EXPECT_EQ(q.depth_high_water(), 3u);
}

// --- in-place dispatch reentrancy (DESIGN.md §17) ---------------------------

// A handler cancelling *itself* via its own (now stale) EventId mid-fire is
// inert: the generation is bumped before dispatch, so the id is spent by the
// time the handler runs — same semantics the move-out dispatch had.
TEST(EventQueue, HandlerSelfCancelViaStaleIdIsInert) {
  EventQueue q;
  EventId self;
  int fires = 0;
  self = q.push(10, [&] {
    ++fires;
    EXPECT_FALSE(q.cancel(self));
  });
  q.pop();
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(q.cancel(self));
}

// Same through the batched path, combined with a mid-fire push. Reclamation
// of the firing slot is deferred until after the fire, so the push from
// inside the handler cannot land in (and the self-cancel cannot corrupt)
// the buffer the closure is executing from.
TEST(EventQueue, PopBatchSelfCancelWithMidFirePush) {
  EventQueue q;
  EventId self;
  bool pushed_fired = false;
  self = q.push(10, [&] {
    q.push(20, [&] { pushed_fired = true; });
    EXPECT_FALSE(q.cancel(self));
  });
  q.pop_batch([](EventQueue::Handler& h) { h(); });
  EXPECT_EQ(q.size(), 1u);
  q.pop_batch([](EventQueue::Handler& h) { h(); });
  EXPECT_TRUE(pushed_fired);
}

// Slot-map growth mid-fire: the executing handler lives in slot storage, so
// pushing enough events from inside it to force new slot chunks must leave
// the running closure's captures intact (chunks never relocate). The capture
// is read after the growth to catch any use-after-move/realloc.
TEST(EventQueue, SlotMapGrowthMidFireKeepsExecutingHandlerValid) {
  EventQueue q;
  constexpr int kSpawn = 2048;  // several 512-slot chunks
  std::uint64_t canary = 0x5ca1ab1e;
  std::uint64_t seen = 0;
  int spawned_fired = 0;
  q.push(10, [&q, &spawned_fired, &seen, canary] {
    for (int i = 0; i < kSpawn; ++i) {
      q.push(20, [&spawned_fired] { ++spawned_fired; });
    }
    seen = canary;  // read the capture *after* the slot map grew
  });
  q.pop_batch([](EventQueue::Handler& h) { h(); });
  EXPECT_EQ(seen, 0x5ca1ab1eu);
  EXPECT_EQ(q.size(), static_cast<std::size_t>(kSpawn));
  q.pop_batch([](EventQueue::Handler& h) { h(); });
  EXPECT_EQ(spawned_fired, kSpawn);
}

// Mid-fire growth through pop() as well (shares fire_slot with pop_batch).
TEST(EventQueue, SlotMapGrowthMidSinglePop) {
  EventQueue q;
  int fired = 0;
  q.push(10, [&] {
    for (int i = 0; i < 1024; ++i) q.push(11, [&fired] { ++fired; });
  });
  q.pop();
  while (!q.empty()) q.pop();
  EXPECT_EQ(fired, 1024);
}

// Dispatch accounting: raw-callable pushes take the emplace path (zero
// handler moves); only pre-built Handler pushes move, and firing moves none.
TEST(EventQueue, InplaceFireAndMoveCounters) {
  EventQueue q;
  q.push(1, [] {});
  q.push(2, [] {});
  EXPECT_EQ(q.handler_moves(), 0u);  // emplace path
  EventQueue::Handler prebuilt([] {});
  q.push(3, std::move(prebuilt));
  EXPECT_EQ(q.handler_moves(), 1u);  // Handler&& path
  q.pop();
  q.pop_batch([](EventQueue::Handler& h) { h(); });
  q.pop();
  EXPECT_EQ(q.handler_moves(), 1u);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace rcast::sim
