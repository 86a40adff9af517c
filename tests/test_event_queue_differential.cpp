// Randomized differential test: the ladder-queue EventQueue against the
// retained binary-heap reference (reference_event_queue.hpp) over millions
// of mixed push/cancel/pop operations. The two must produce *identical* pop
// sequences — same timestamps, same FIFO order within ties, same cancel
// outcomes — because golden traces and run-for-run `events` counters were
// recorded under the heap and must not move.
//
// Also covers the structural edges the unit tests cannot reach from the
// outside: rung spawning under bimodal horizons, top-tier reseeds, bucket
// overflow on same-timestamp floods, and the cancel-storm compaction bound.
#include <gtest/gtest.h>

#include <vector>

#include "reference_event_queue.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace rcast::sim {
namespace {

// One tagged event tracked in both queues.
struct TrackedHandle {
  int tag;
  Time time;
  EventId id;
  testing::ReferenceEventId ref_id;
};

class DiffHarness {
 public:
  explicit DiffHarness(std::uint64_t seed) : rng_(seed) {}

  void push(Time t) {
    const int tag = next_tag_++;
    auto record_q = [this, tag] { fired_q_.push_back(tag); };
    auto record_ref = [this, tag] { fired_ref_.push_back(tag); };
    const EventId id = q_.push(t, record_q);
    handles_.push_back(TrackedHandle{tag, t, id, ref_.push(t, record_ref)});
  }

  void cancel_random() {
    if (handles_.empty()) return;
    const std::size_t pick = rng_.uniform_u64(handles_.size());
    const TrackedHandle h = handles_[pick];
    const bool a = q_.cancel(h.id);
    const bool b = ref_.cancel(h.ref_id);
    ASSERT_EQ(a, b) << "cancel disagreement on tag " << h.tag;
    handles_.erase(handles_.begin() + static_cast<std::ptrdiff_t>(pick));
  }

  void pop_one() {
    ASSERT_EQ(q_.empty(), ref_.empty());
    if (q_.empty()) return;
    ASSERT_EQ(q_.next_time(), ref_.next_time());
    const Time tq = q_.pop();  // fires the handler in place
    auto [tr, hr] = ref_.pop();
    ASSERT_EQ(tq, tr);
    hr();
    ASSERT_EQ(fired_q_.back(), fired_ref_.back());
    now_ = tq;
  }

  void pop_batch() {
    ASSERT_EQ(q_.empty(), ref_.empty());
    if (q_.empty()) return;
    const Time t =
        q_.pop_batch([](EventQueue::Handler& h) { h(); });
    while (!ref_.empty() && ref_.next_time() == t) ref_.pop().second();
    now_ = t;
  }

  Time now() const { return now_; }
  Rng& rng() { return rng_; }
  EventQueue& queue() { return q_; }
  testing::ReferenceEventQueue& reference() { return ref_; }

  void check_invariants() const {
    ASSERT_EQ(q_.size(), ref_.size());
    ASSERT_EQ(q_.scheduled_count(), ref_.scheduled_count());
    ASSERT_EQ(fired_q_, fired_ref_);
  }

 private:
  Rng rng_;
  EventQueue q_;
  testing::ReferenceEventQueue ref_;
  std::vector<TrackedHandle> handles_;
  std::vector<int> fired_q_;
  std::vector<int> fired_ref_;
  Time now_ = 0;
  int next_tag_ = 0;
};

// The headline: ~1M mixed operations across seeds, a horizon mix shaped
// like a real run (MAC-timer near horizon, CBR mid horizon, route-cache
// expiry far horizon, same-timestamp beacon bursts), single pops and
// batched pops — identical behavior throughout.
TEST(EventQueueDifferential, MillionOpMixedChurn) {
  constexpr int kSeeds = 4;
  constexpr int kOpsPerSeed = 250'000;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    DiffHarness h(seed);
    Time burst_time = 0;
    for (int step = 0; step < kOpsPerSeed; ++step) {
      const std::uint64_t op = h.rng().uniform_u64(16);
      if (op < 4) {  // near horizon (channel-arrival shape)
        h.push(h.now() + static_cast<Time>(h.rng().uniform_u64(2'000)));
      } else if (op < 7) {  // mid horizon (CBR / backoff shape)
        h.push(h.now() + static_cast<Time>(h.rng().uniform_u64(1'000'000)));
      } else if (op < 9) {  // far horizon (route-cache expiry shape)
        h.push(h.now() + kSecond +
               static_cast<Time>(h.rng().uniform_u64(30 * kSecond)));
      } else if (op < 10) {  // same-timestamp burst (synced-beacon shape)
        if (burst_time <= h.now()) {
          burst_time = h.now() + 100 * kMicrosecond +
                       static_cast<Time>(h.rng().uniform_u64(kMillisecond));
        }
        for (int i = 0; i < 4; ++i) h.push(burst_time);
      } else if (op < 13) {  // timer churn
        h.cancel_random();
      } else if (op < 15) {
        h.pop_one();
      } else {
        h.pop_batch();
      }
      if ((step & 1023) == 0) h.check_invariants();
    }
    h.check_invariants();
    while (!h.queue().empty()) h.pop_one();
    h.check_invariants();
    ASSERT_TRUE(h.reference().empty());
  }
}

// Rung overflow / resize edge: a wide spray across a 60 s horizon forces a
// coarse reseed whose every drained bucket exceeds the spawn threshold, so
// rungs subdivide down to fine widths repeatedly while pops interleave.
TEST(EventQueueDifferential, DeepSpawnChainWideHorizon) {
  DiffHarness h(99);
  for (int i = 0; i < 50'000; ++i) {
    h.push(h.now() + static_cast<Time>(h.rng().uniform_u64(60 * kSecond)));
    if (i % 3 == 0) h.pop_one();
  }
  h.check_invariants();
  while (!h.queue().empty()) h.pop_batch();
  h.check_invariants();
  EXPECT_GT(h.queue().rung_spawns(), 0u);
}

// Bucket overflow on a same-timestamp flood: width-1 buckets cannot
// subdivide, so the flood must sort into the bottom once and drain as a
// single batch in scheduling order.
TEST(EventQueueDifferential, SameTimestampFloodOverflowsBucket) {
  EventQueue q;
  constexpr int kFlood = 20'000;
  std::vector<int> order;
  order.reserve(kFlood);
  const Time t = 5 * kMillisecond;
  for (int i = 0; i < kFlood; ++i) {
    q.push(t, [&order, i] { order.push_back(i); });
  }
  // A later event proves the flood does not leak past its timestamp.
  bool later_fired = false;
  q.push(t + 1, [&later_fired] { later_fired = true; });
  const Time batch_time = q.pop_batch([](EventQueue::Handler& h) { h(); });
  EXPECT_EQ(batch_time, t);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kFlood));
  for (int i = 0; i < kFlood; ++i) EXPECT_EQ(order[i], i);
  EXPECT_FALSE(later_fired);
  EXPECT_EQ(q.size(), 1u);
  q.pop_batch([](EventQueue::Handler& h) { h(); });
  EXPECT_TRUE(later_fired);
}

// Cancel-storm compaction: after cancelling ~99.8% of a large pending set,
// the next push must trigger the 4:1 sweep and shrink physical storage to
// the live set, and the survivors must still fire in exact order.
TEST(EventQueueDifferential, CancelStormCompactionBound) {
  DiffHarness h(7);
  EventQueue& q = h.queue();
  std::vector<EventId> ids;
  std::vector<Time> survivor_times;
  constexpr int kN = 50'000;
  for (int i = 0; i < kN; ++i) {
    // Spread across tiers: near, mid, and far entries all get cancelled.
    const Time t = 1 + static_cast<Time>(h.rng().uniform_u64(10 * kSecond));
    bool keep = (i % 500) == 0;
    if (keep) {
      h.push(t);
      survivor_times.push_back(t);
    } else {
      ids.push_back(q.push(t, [] {}));
    }
  }
  for (const EventId id : ids) ASSERT_TRUE(q.cancel(id));
  ASSERT_EQ(q.size(), survivor_times.size());
  // Storage still holds the tombstones...
  EXPECT_GT(q.stored_entries(), q.size());
  // ...until the next push crosses the 4:1 threshold and compacts.
  h.push(10 * kSecond + 1);
  EXPECT_LE(q.stored_entries(), 4 * q.size() + 1);
  // scheduled_count diverges from the reference by design here (the
  // tombstones were pushed into the ladder queue only), so compare the
  // queues by drain order alone.
  ASSERT_EQ(q.size(), h.reference().size());
  while (!q.empty()) h.pop_one();
  ASSERT_TRUE(h.reference().empty());
}

// The slot map recycles through the storm without invalidating the
// contract: a second cancel of every spent handle reports false on both
// implementations (spent-handle inertness at scale).
TEST(EventQueueDifferential, SpentHandlesStayInertAtScale) {
  EventQueue q;
  testing::ReferenceEventQueue ref;
  std::vector<EventId> ids;
  std::vector<testing::ReferenceEventId> ref_ids;
  Rng rng(3);
  for (int round = 0; round < 20; ++round) {
    ids.clear();
    ref_ids.clear();
    for (int i = 0; i < 1'000; ++i) {
      const Time t = static_cast<Time>(round) * kMillisecond +
                     static_cast<Time>(rng.uniform_u64(kMillisecond));
      ids.push_back(q.push(t, [] {}));
      ref_ids.push_back(ref.push(t, [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) {
      ASSERT_EQ(q.cancel(ids[i]), ref.cancel(ref_ids[i]));
    }
    while (!q.empty()) {
      ASSERT_EQ(q.pop(), ref.pop().first);
    }
    ASSERT_TRUE(ref.empty());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ASSERT_FALSE(q.cancel(ids[i]));
      ASSERT_FALSE(ref.cancel(ref_ids[i]));
    }
  }
}

}  // namespace
}  // namespace rcast::sim
