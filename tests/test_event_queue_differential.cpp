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

#include <algorithm>
#include <limits>
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

// --- Reserved blocks (the channel's fan-out streams, DESIGN.md §17) -------
//
// A block reserves n seqs at once and splits its members among a few
// streams. The reference heap pushes every member at reservation time, one
// push per member, as the channel once did. The ladder queue holds each
// stream as one entry: after a member fires, the stream claims its next
// member (runs it inline) when that key precedes the front and lies within
// the pop's bound, and re-enters at the key through push_at_seq otherwise.
// The reference pops in lockstep, once per member or plain event the ladder
// fires, so the two must fire the same tags at the same times, and at every
// claim the ladder's precedes_front must be true exactly when the claimed
// key is the reference's front.
class StreamHarness {
 public:
  explicit StreamHarness(std::uint64_t seed) : rng_(seed) {}

  void push(Time t) {
    const int tag = next_tag_++;
    const EventId id = q_.push(t, [this, tag] { fire(tag); });
    plain_.push_back(
        Plain{id, ref_.push(t, [this, tag] { ref_fired_.push_back(tag); })});
  }

  /// A tie with pending work: at the time of some stream's next member, or
  /// at the present when no stream is active.
  void push_tie() {
    Time t = now_;
    for (const Stream& st : streams_) {
      if (st.next < st.members.size()) {
        t = st.members[st.next].t;
        if (rng_.uniform_u64(2) == 0) break;
      }
    }
    push(t);
  }

  /// Reserves `times.size()` seqs; member j takes seq base + j and joins
  /// stream stream_of[j] (< 3).
  void push_block(const std::vector<Time>& times,
                  const std::vector<int>& stream_of) {
    const std::uint64_t base = q_.reserve_seqs(times.size());
    std::vector<Stream> fresh(3);
    for (std::size_t j = 0; j < times.size(); ++j) {
      const int tag = next_tag_++;
      ref_.push(times[j], [this, tag] { ref_fired_.push_back(tag); });
      fresh[static_cast<std::size_t>(stream_of[j])].members.push_back(
          Member{times[j], base + j, tag});
    }
    ASSERT_EQ(q_.scheduled_count(), ref_.scheduled_count());
    for (Stream& st : fresh) {
      if (st.members.empty()) continue;
      std::sort(st.members.begin(), st.members.end(),
                [](const Member& a, const Member& b) {
                  return a.t != b.t ? a.t < b.t : a.seq < b.seq;
                });
      pending_members_ += st.members.size();
      ++active_streams_;
      streams_.push_back(std::move(st));
      enter(streams_.size() - 1);
    }
  }

  void cancel_random() {
    if (plain_.empty()) return;
    const std::size_t pick = rng_.uniform_u64(plain_.size());
    ASSERT_EQ(q_.cancel(plain_[pick].id), ref_.cancel(plain_[pick].ref_id));
    plain_.erase(plain_.begin() + static_cast<std::ptrdiff_t>(pick));
  }

  /// Pops one event (pop) or one timestamp (pop_batch); inline claims may
  /// run further members up to `bound`.
  void pop(bool batch, Time bound) {
    ASSERT_EQ(q_.empty(), ref_.empty());
    if (q_.empty()) return;
    now_ = q_.next_time();
    ASSERT_EQ(now_, ref_.next_time());
    bound_ = bound;
    if (batch) {
      q_.pop_batch([](EventQueue::Handler& h) { h(); });
    } else {
      q_.pop();
    }
  }

  void check_invariants() const {
    ASSERT_EQ(q_.scheduled_count(), ref_.scheduled_count());
    ASSERT_EQ(q_.size() - active_streams_ + pending_members_, ref_.size());
    ASSERT_EQ(fired_q_, ref_fired_);
  }

  void drain() {
    while (!q_.empty()) pop(true, std::numeric_limits<Time>::max());
    ASSERT_TRUE(ref_.empty());
    ASSERT_EQ(pending_members_, 0u);
  }

  Time now() const { return now_; }
  Rng& rng() { return rng_; }
  std::uint64_t claims() const { return claims_; }
  std::uint64_t reentries() const { return reentries_; }

 private:
  struct Plain {
    EventId id;
    testing::ReferenceEventId ref_id;
  };
  struct Member {
    Time t;
    std::uint64_t seq;
    int tag;
  };
  struct Stream {
    std::vector<Member> members;  // sorted by (t, seq)
    std::size_t next = 0;
  };

  void enter(std::size_t s) {
    const Member& m = streams_[s].members[streams_[s].next];
    q_.push_at_seq(m.t, m.seq, [this, s] { run_stream(s); });
  }

  void run_stream(std::size_t s) {
    for (;;) {
      Stream& st = streams_[s];
      fire(st.members[st.next].tag);
      --pending_members_;
      if (++st.next == st.members.size()) {
        --active_streams_;
        st.members = {};
        return;
      }
      const Member& m = st.members[st.next];
      const bool precedes = q_.precedes_front(m.t, m.seq);
      // Lockstep: the reference's front is the next event overall.
      EXPECT_EQ(precedes, ref_.next_time() == m.t && ref_.next_seq() == m.seq)
          << "member tag " << m.tag;
      if (!precedes || m.t > bound_) {
        ++reentries_;
        enter(s);
        return;
      }
      ++claims_;
      now_ = m.t;
    }
  }

  void fire(int tag) {
    fired_q_.push_back(tag);
    auto [t, h] = ref_.pop();
    EXPECT_EQ(t, now_) << "tag " << tag;
    h();
  }

  Rng rng_;
  EventQueue q_;
  testing::ReferenceEventQueue ref_;
  std::vector<Plain> plain_;
  std::vector<Stream> streams_;
  std::vector<int> fired_q_;
  std::vector<int> ref_fired_;
  std::size_t active_streams_ = 0;
  std::size_t pending_members_ = 0;
  std::uint64_t claims_ = 0;
  std::uint64_t reentries_ = 0;
  Time now_ = 0;
  Time bound_ = 0;
  int next_tag_ = 0;
};

TEST(EventQueueDifferential, ReservedBlocksMatchReference) {
  constexpr int kSeeds = 4;
  constexpr int kOpsPerSeed = 150'000;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    StreamHarness h(seed);
    Rng& rng = h.rng();
    std::vector<Time> times;
    std::vector<int> stream_of;
    for (int step = 0; step < kOpsPerSeed; ++step) {
      const std::uint64_t op = rng.uniform_u64(16);
      if (op < 3) {  // near horizon
        h.push(h.now() + static_cast<Time>(rng.uniform_u64(2'000)));
      } else if (op < 4) {  // far horizon: rungs and the top tier
        h.push(h.now() + kSecond +
               static_cast<Time>(rng.uniform_u64(10 * kSecond)));
      } else if (op < 5) {
        h.push_tie();
      } else if (op < 7) {
        // A block: channel-shaped (start/end pairs, seq 2i and 2i + 1, the
        // ends a fixed duration after the starts) or generic (random
        // members among up to three streams). Delays come from a narrow
        // range so members tie with each other and with plain events.
        times.clear();
        stream_of.clear();
        const std::size_t n = 1 + rng.uniform_u64(40);
        const Time lo =
            h.now() + static_cast<Time>(rng.uniform_u64(
                          rng.uniform_u64(8) == 0 ? kSecond : 3'000));
        const Time spread = static_cast<Time>(rng.uniform_u64(600));
        if (rng.uniform_u64(2) == 0) {
          const Time duration = 1 + static_cast<Time>(rng.uniform_u64(500));
          for (std::size_t i = 0; i < n; ++i) {
            const Time start =
                lo + static_cast<Time>(rng.uniform_u64(
                         static_cast<std::uint64_t>(spread) + 1));
            times.push_back(start);
            stream_of.push_back(0);
            times.push_back(start + duration);
            stream_of.push_back(1);
          }
        } else {
          for (std::size_t i = 0; i < n; ++i) {
            times.push_back(lo + static_cast<Time>(rng.uniform_u64(
                                     static_cast<std::uint64_t>(spread) + 1)));
            stream_of.push_back(static_cast<int>(rng.uniform_u64(3)));
          }
        }
        h.push_block(times, stream_of);
      } else if (op < 10) {
        h.cancel_random();
      } else {
        // Bound the claims now and then, as run_until's end does.
        const Time bound =
            rng.uniform_u64(4) == 0
                ? h.now() + static_cast<Time>(rng.uniform_u64(400))
                : std::numeric_limits<Time>::max();
        h.pop(op >= 13, bound);
      }
      if ((step & 1023) == 0) h.check_invariants();
    }
    h.check_invariants();
    h.drain();
    h.check_invariants();
    // Both paths ran: members claimed inline and members re-entering.
    EXPECT_GT(h.claims(), 1000u);
    EXPECT_GT(h.reentries(), 1000u);
  }
}

}  // namespace
}  // namespace rcast::sim
