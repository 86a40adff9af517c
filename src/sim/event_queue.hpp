// Cancellable priority queue of timestamped events.
//
// Ties at the same timestamp fire in scheduling order (FIFO), which keeps
// protocol traces deterministic and intuitive.
//
// Layout: a ladder queue (Tang/Goh/Thng) over the ns integer clock instead
// of a binary heap — push and pop are O(1) amortized, independent of queue
// depth, because events are spread across time buckets and only the bucket
// about to fire is ever sorted. Three tiers, nearest first:
//
//   bottom  a sorted vector of (time, seq, slot) entries — the contents of
//           the one bucket currently being drained. Pops advance a cursor;
//           pushes landing inside its window insert in order. Not rare:
//           a frame's sensed arrivals land here, which is why the channel
//           delivers them as fan-out streams (DESIGN.md §13, §17).
//   rungs   a stack of bucket arrays, coarsest first. Each rung covers a
//           contiguous half-open time window with power-of-two bucket
//           widths (bucket index = (t - base) >> shift, no division). When
//           the bottom drains, the next non-empty bucket of the finest rung
//           refills it; an overfull bucket is subdivided into a finer rung
//           (width / kRungBuckets) instead of being sorted, so sort cost
//           stays bounded by kSpawnThreshold regardless of burst size.
//   top     an unsorted overflow vector for the far future (route-cache
//           expiry, lifetime timers). Pushes beyond the ladder horizon are
//           a plain append. When the ladder drains, the top is swept into a
//           fresh coarsest rung sized to its [min, max] span.
//
// The tiers partition time: [last_popped, bottom_limit) is the bottom,
// contiguous rung windows cover [bottom_limit, top_start), and the top owns
// [top_start, inf). Every entry routes by two or three comparisons.
//
// Determinism: entries are sorted by (time, seq) — a total order, since seq
// is unique — whenever a bucket becomes the bottom, so the pop sequence is
// identical to the old binary heap's regardless of which tier an event
// passed through. tests/test_event_queue_differential.cpp pins this against
// the retained reference heap over millions of randomized operations.
//
// Handlers are small-buffer-optimized callables (`kEventInlineCapacity`
// bytes inline, heap fallback only for oversized captures — counted, so
// the hot paths can prove they never take it) held in a generation-checked
// slot map; tier entries reference slots by index, so the slim entries
// move through buckets without touching handler storage until fire time.
// Cancellation is O(1): the slot is released and its generation bumped; the
// tier entry stays behind and is skipped (bottom) or dropped (bucket
// transfer, top sweep) once its generation no longer matches. A global
// compaction sweeps all tiers when dead entries outnumber live ones 4:1.
//
// In-place dispatch: a handler is constructed directly in its slot (push
// sites pass the raw lambda; Handler&& pushes pay one move, counted as
// handler_moves) and invoked directly from slot storage at fire time —
// never moved out first. That is safe against reentrancy because slots
// live in fixed-size chunks that never relocate: a mid-fire push may add
// a chunk but cannot move the storage the executing closure lives in. The
// firing slot's generation is bumped *before* the call (stale EventIds to
// it are inert, exactly as with the old move-out path) but its free-list
// insertion and handler destruction are deferred to after the call, so a
// mid-fire push can never recycle the buffer it is executing from.
//
// Zero steady-state allocation: buckets are intrusive singly-linked lists
// through one recycled node pool (a bucket is {head, tail, count}), so
// bucket transfer, rung subdivision and compaction are pure index relinks.
// The only vectors that grow are the node pool, the slot map, the bottom
// and the top — each a single monotone-capacity vector that reaches its
// high-water mark and stays there. Slots and nodes recycle through free
// lists and retired rungs through a rung pool; once warm, push/cancel/pop
// never touch the heap (ChannelAlloc.SteadyStateTransmitIsHeapFree pins
// this through the whole PHY stack).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "util/assert.hpp"
#include "util/inline_function.hpp"

namespace rcast::sim {

/// Inline storage of an event handler; captures beyond this spill to the
/// heap. Sized for the largest hot-path capture: the arrival-start closure
/// (a shared_ptr plus four scalars) that a sharded run posts to a remote
/// receiver's shard. Local receivers ride the channel's fan-out streams,
/// whose closures are two pointers.
inline constexpr std::size_t kEventInlineCapacity = 64;

/// Opaque handle to a scheduled event; valid until the event fires or is
/// cancelled. Default-constructed handles are null. Handles are
/// generation-checked: a handle to a fired/cancelled event whose slot was
/// recycled stays safely inert.
class EventId {
 public:
  EventId() = default;
  bool valid() const { return raw_ != 0; }
  bool operator==(const EventId&) const = default;

 private:
  friend class EventQueue;
  EventId(std::uint32_t slot, std::uint32_t gen)
      : raw_((static_cast<std::uint64_t>(gen) << 32) |
             (static_cast<std::uint64_t>(slot) + 1)) {}
  std::uint32_t slot() const {
    return static_cast<std::uint32_t>(raw_ & 0xFFFFFFFFu) - 1;
  }
  std::uint32_t gen() const { return static_cast<std::uint32_t>(raw_ >> 32); }
  std::uint64_t raw_ = 0;
};

class EventQueue {
 public:
  using Handler = util::InlineFunction<kEventInlineCapacity>;

  /// Schedules `h` at absolute time `t` (must not be in the past relative to
  /// the last popped event). Takes the handler by rvalue reference so the
  /// caller's object (e.g. a sharded outbox entry) is moved into the slot
  /// directly, with no intermediate parameter move. Each such move is
  /// counted in handler_moves(); hot sites should prefer the emplace
  /// overloads below, which construct the callable in the slot and never
  /// move it at all.
  EventId push(Time t, Handler&& h) { return push_impl(t, h); }

  /// Emplace push: constructs the callable directly in its slot. The only
  /// handler cost on this path is the one unavoidable construction; the
  /// handler is then invoked in place at fire time and destroyed in place.
  template <class F, class = std::enable_if_t<
                         !std::is_same_v<std::decay_t<F>, Handler>>>
  EventId push(Time t, F&& f) {
    return emplace_impl(t, ++next_seq_, std::forward<F>(f));
  }

  /// Reserves `n` consecutive sequence numbers, exactly those the next `n`
  /// pushes would take, and returns the first. The caller later pushes each
  /// reserved key through push_at_seq (or runs it through a claim, see
  /// Simulator::claim). scheduled_count() counts the reservation, so a
  /// reserved event is scheduled once however it ends up running.
  std::uint64_t reserve_seqs(std::uint64_t n) {
    const std::uint64_t first = next_seq_ + 1;
    next_seq_ += n;
    return first;
  }

  /// Emplace push at a reserved key: the event fires exactly where a plain
  /// push made at reservation time would have, ties included. `seq` must be
  /// reserved, not yet pushed, and no earlier than anything already fired.
  template <class F>
  EventId push_at_seq(Time t, std::uint64_t seq, F&& f) {
    RCAST_DCHECK(seq != 0 && seq <= next_seq_);
    return emplace_impl(t, seq, std::forward<F>(f));
  }

  /// True if the key (t, seq) orders before every pending event (or none is
  /// pending): an event at that key would be the next to fire. Safe to call
  /// from inside a firing handler, mid-pop_batch; like next_time() it only
  /// normalizes the front.
  bool precedes_front(Time t, std::uint64_t seq) const {
    const_cast<EventQueue*>(this)->prepare_front();
    if (bottom_pos_ == bottom_.size()) return true;
    const Entry& f = bottom_[bottom_pos_];
    return t < f.time || (t == f.time && seq < f.seq);
  }

  /// Cancels a pending event; no-op if it already fired or was cancelled.
  /// Returns true if an event was actually cancelled.
  bool cancel(EventId id) {
    if (!id.valid()) return false;
    const std::uint32_t slot = id.slot();
    if (slot >= slot_limit_) return false;
    Slot& s = slot_ref(slot);
    if (!s.live || s.gen != id.gen()) return false;
    release_slot(slot);
    --live_;
    return true;
  }

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  /// Earliest pending event time. Requires !empty(). Logically const: the
  /// lazy skip over cancelled entries normalizes the representation without
  /// changing the pending set, so peeking is a const operation (and the
  /// Simulator exposes it on a const inspection surface).
  Time next_time() const {
    const_cast<EventQueue*>(this)->prepare_front();
    RCAST_REQUIRE(bottom_pos_ < bottom_.size());
    return bottom_[bottom_pos_].time;
  }

  /// Pops the earliest event, calling `fire(handler)` with the handler still
  /// in its slot (the single fire routine shared with pop_batch). Requires
  /// !empty(). Returns the event's time.
  template <typename Fire>
  Time pop(Fire&& fire) {
    prepare_front();
    RCAST_REQUIRE(bottom_pos_ < bottom_.size());
    const Entry e = bottom_[bottom_pos_++];
    --stored_;
    last_popped_ = e.time;
    fire_slot(e, fire);
    return e.time;
  }

  /// Convenience overload: pops the earliest event and invokes its handler.
  Time pop() {
    return pop([](Handler& h) { h(); });
  }

  /// Drains every event at the earliest pending timestamp in scheduling
  /// (seq) order, calling `fire(handler)` for each — one bucket lookup per
  /// burst instead of one structure fixup per event. Requires !empty().
  /// Handlers may push events at the batch timestamp (they join the tail of
  /// the same batch, exactly as repeated pop() would order them) and may
  /// cancel not-yet-fired members (skipped via the generation check). If
  /// `fire` throws, unfired members stay pending. Returns the timestamp.
  template <typename Fire>
  Time pop_batch(Fire&& fire) {
    prepare_front();
    RCAST_REQUIRE(bottom_pos_ < bottom_.size());
    const Time t = bottom_[bottom_pos_].time;
    last_popped_ = t;
    // Re-read indices every iteration: a handler's push can grow the
    // same-time tail of the bottom or trigger a compaction that rewrites it.
    while (bottom_pos_ < bottom_.size() && bottom_[bottom_pos_].time == t) {
      const Entry e = bottom_[bottom_pos_++];
      --stored_;
      if (dead(e)) continue;  // cancelled, possibly mid-batch
      fire_slot(e, fire);
    }
    ++batches_;
    return t;
  }

  /// Total events ever scheduled (monotone; for bench instrumentation).
  std::uint64_t scheduled_count() const { return next_seq_; }

  /// Handlers whose captures were too big for inline storage (should stay 0
  /// in steady state; see PerfCounters).
  std::uint64_t handler_heap_fallbacks() const { return heap_fallbacks_; }

  /// Peak number of simultaneously pending events.
  std::size_t depth_high_water() const { return depth_high_water_; }

  /// Rungs created: top-tier reseeds plus overfull-bucket subdivisions.
  std::uint64_t rung_spawns() const { return rung_spawns_; }

  /// pop_batch dispatches (one per distinct fired timestamp).
  std::uint64_t dispatch_batches() const { return batches_; }

  /// Handler moves performed by the queue: one per Handler&& push (the
  /// emplace pushes construct in the slot and never move). Zero here means
  /// the schedule->fire path ran move-free end to end.
  std::uint64_t handler_moves() const { return handler_moves_; }

  /// Entries physically held across all tiers, live plus not-yet-reclaimed
  /// cancelled ones. Tests use it to pin the compaction bound; it is the
  /// queue's memory footprint in entries.
  std::size_t stored_entries() const { return stored_; }

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

  /// A bucket entry in the node pool: an Entry plus the intrusive link.
  struct Node {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
    std::uint32_t next;
  };

  /// An intrusive list of nodes; the only per-bucket state, so a rung's
  /// bucket array is a flat POD vector recycled whole through the pool.
  struct Bucket {
    std::uint32_t head = kNilNode;
    std::uint32_t tail = kNilNode;
    std::uint32_t count = 0;  // includes not-yet-reclaimed cancelled entries

    bool empty() const { return head == kNilNode; }
  };

  struct Rung {
    Time base = 0;  // time at the start of bucket 0
    Time end = 0;   // exclusive end of this rung's window
    int shift = 0;  // bucket width = 1 << shift nanoseconds
    std::uint32_t cur = 0;  // next bucket to drain
    std::uint32_t nbuckets = 0;
    std::vector<Bucket> buckets;  // capacity recycled via pool

    Time cur_start() const {
      return base + (static_cast<Time>(cur) << shift);
    }
    Time width() const { return Time{1} << shift; }
  };

  static constexpr std::uint32_t kNilSlot = 0xFFFFFFFFu;
  static constexpr std::uint32_t kNilNode = 0xFFFFFFFFu;
  /// Buckets per rung (1 << kRungBucketsLog2): wide enough that one
  /// subdivision step shrinks the width by 128x, so even a 30 s horizon
  /// reaches ns-resolution buckets in five spawns.
  static constexpr int kRungBucketsLog2 = 7;
  static constexpr std::uint32_t kRungBuckets = 1u << kRungBucketsLog2;
  /// A bucket bigger than this is subdivided instead of sorted, bounding
  /// the per-refill sort. Same-time floods are exempt (width 1 cannot
  /// subdivide) and simply sort once.
  static constexpr std::size_t kSpawnThreshold = 128;
  /// Pending bottom entries beyond this re-ladder into a fresh rung: after
  /// a retire or reseed overshoots, the bottom can own a wide window, and
  /// without this bound a busy period inside it degenerates into one big
  /// insertion-sorted vector (O(n) pushes and unbounded growth).
  static constexpr std::size_t kBottomSpawnThreshold = 2 * kSpawnThreshold;
  /// Spawn-depth backstop; 30 s at ns resolution needs 5 rungs, so the cap
  /// is never the binding constraint in practice.
  static constexpr std::size_t kMaxRungs = 16;

  /// Slots live in fixed-size chunks that never relocate, so a handler can
  /// execute out of its slot while mid-fire pushes grow the map. The chunk
  /// is kept small (64 slots) because every freshly-allocated chunk
  /// value-initializes all of its slots up front: tiny queues (a fresh
  /// Simulator per scenario repetition) must not pay for hundreds of slots
  /// they never use, and the chunk directory stays L1-resident at any
  /// realistic depth regardless.
  static constexpr int kSlotChunkLog2 = 6;
  static constexpr std::uint32_t kSlotChunkSize = 1u << kSlotChunkLog2;

  static bool before(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  Slot& slot_ref(std::uint32_t i) {
    return slot_chunks_[i >> kSlotChunkLog2][i & (kSlotChunkSize - 1)];
  }
  const Slot& slot_ref(std::uint32_t i) const {
    return slot_chunks_[i >> kSlotChunkLog2][i & (kSlotChunkSize - 1)];
  }

  bool dead(const Entry& e) const {
    const Slot& s = slot_ref(e.slot);
    return !s.live || s.gen != e.gen;
  }

  bool dead_node(const Node& n) const {
    const Slot& s = slot_ref(n.slot);
    return !s.live || s.gen != n.gen;
  }

  /// Invokes a live entry's handler in place. The slot is invalidated
  /// (generation bump) before the call so a stale EventId for the firing
  /// event is inert mid-fire, but it joins the free list only afterwards —
  /// a mid-fire push must never reuse the buffer the closure is executing
  /// from. The guard destroys the handler and frees the slot even if the
  /// fire callback throws.
  template <typename Fire>
  void fire_slot(const Entry& e, Fire& fire) {
    Slot& s = slot_ref(e.slot);
    RCAST_DCHECK(s.live && s.gen == e.gen);
    s.live = false;
    ++s.gen;
    --live_;
    struct Guard {
      EventQueue* q;
      Slot* s;  // chunked storage: stable across mid-fire pushes
      std::uint32_t slot;
      ~Guard() {
        s->handler = Handler();
        s->next_free = q->free_head_;
        q->free_head_ = slot;
      }
    } guard{this, &s, e.slot};
    fire(s.handler);
  }

  std::uint32_t acquire_node(const Entry& e) {
    std::uint32_t n;
    if (node_free_ != kNilNode) {
      n = node_free_;
      node_free_ = nodes_[n].next;
    } else {
      nodes_.emplace_back();
      n = static_cast<std::uint32_t>(nodes_.size() - 1);
    }
    nodes_[n] = Node{e.time, e.seq, e.slot, e.gen, kNilNode};
    return n;
  }

  void free_node(std::uint32_t n) {
    nodes_[n].next = node_free_;
    node_free_ = n;
  }

  void bucket_append(Bucket& b, std::uint32_t n) {
    nodes_[n].next = kNilNode;
    if (b.tail == kNilNode) {
      b.head = n;
    } else {
      nodes_[b.tail].next = n;
    }
    b.tail = n;
    ++b.count;
  }

  void bucket_push(Bucket& b, const Entry& e) {
    bucket_append(b, acquire_node(e));
  }

  std::uint32_t acquire_slot() {
    if (free_head_ != kNilSlot) {
      const std::uint32_t slot = free_head_;
      free_head_ = slot_ref(slot).next_free;
      return slot;
    }
    if ((slot_limit_ & (kSlotChunkSize - 1)) == 0) {
      slot_chunks_.push_back(std::make_unique<Slot[]>(kSlotChunkSize));
    }
    return slot_limit_++;
  }

  void release_slot(std::uint32_t slot) {
    Slot& s = slot_ref(slot);
    s.handler = Handler();
    s.live = false;
    ++s.gen;  // invalidates outstanding EventIds and tier entries
    s.next_free = free_head_;
    free_head_ = slot;
  }

  EventId push_impl(Time t, Handler& h) {
    RCAST_REQUIRE_MSG(t >= last_popped_, "scheduling into the past");
    if (h.heap_allocated()) ++heap_fallbacks_;
    const std::uint32_t slot = acquire_slot();
    Slot& s = slot_ref(slot);
    s.handler = std::move(h);
    ++handler_moves_;
    s.live = true;
    route(Entry{t, ++next_seq_, slot, s.gen});
    ++stored_;
    ++live_;
    if (live_ > depth_high_water_) depth_high_water_ = live_;
    maybe_compact();
    return EventId(slot, s.gen);
  }

  template <class F>
  EventId emplace_impl(Time t, std::uint64_t seq, F&& f) {
    RCAST_REQUIRE_MSG(t >= last_popped_, "scheduling into the past");
    const std::uint32_t slot = acquire_slot();
    Slot& s = slot_ref(slot);
    s.handler.emplace(std::forward<F>(f));
    if (s.handler.heap_allocated()) ++heap_fallbacks_;
    s.live = true;
    route(Entry{t, seq, slot, s.gen});
    ++stored_;
    ++live_;
    if (live_ > depth_high_water_) depth_high_water_ = live_;
    maybe_compact();
    return EventId(slot, s.gen);
  }

  void route(const Entry& e) {
    const Time t = e.time;
    if (t >= top_start_) {
      push_top(e);
      return;
    }
    if (t < bottom_limit_) {
      // Reuse the popped prefix before the vector reallocates: when at
      // least half the storage is spent cursor prefix, slide instead of
      // doubling. Capacity high-water then tracks live pending, not the
      // pass-through volume since the last full drain. Amortized O(1):
      // each slide moves <= capacity/2 entries and frees >= capacity/2
      // slots, so the next slide-or-grow is that many pushes away.
      if (bottom_.size() == bottom_.capacity() &&
          bottom_pos_ >= bottom_.capacity() / 2 && bottom_pos_ > 0) {
        bottom_.erase(bottom_.begin(),
                      bottom_.begin() +
                          static_cast<std::ptrdiff_t>(bottom_pos_));
        bottom_pos_ = 0;
      }
      // Into the window being drained: keep the bottom sorted. A plain push
      // carries the largest seq, so upper_bound lands it after every
      // already-pending same-time entry (FIFO preserved); a push_at_seq
      // lands exactly at its reserved key.
      bottom_.insert(std::upper_bound(bottom_.begin() + bottom_pos_,
                                      bottom_.end(), e, before),
                     e);
      if (bottom_.size() - bottom_pos_ > kBottomSpawnThreshold) {
        spawn_from_bottom();
      }
      return;
    }
    // Rung windows are contiguous from bottom_limit_ (finest, at the back)
    // up to top_start_ (coarsest rung 0), so the scan cannot fall off the
    // front; t >= each rung's cur_start follows from the same contiguity.
    // (No rungs implies top_start_ == bottom_limit_, already handled above.)
    RCAST_DCHECK(!rungs_.empty());
    std::size_t i = rungs_.size() - 1;
    while (i > 0 && t >= rungs_[i].end) --i;
    Rung& r = rungs_[i];
    const auto idx = static_cast<std::size_t>((t - r.base) >> r.shift);
    RCAST_DCHECK(idx >= r.cur && idx < r.nbuckets);
    bucket_push(r.buckets[idx], e);
  }

  void push_top(const Entry& e) {
    top_.push_back(e);
    top_min_ = std::min(top_min_, e.time);
    top_max_ = std::max(top_max_, e.time);
  }

  /// Establishes "bottom front exists and is live" or proves the queue
  /// drained; all tier advancement funnels through here.
  void prepare_front() {
    // Reclaim the popped prefix once it dwarfs the pending tail: during a
    // busy period inside one bottom window the vector otherwise grows by
    // every event that passes through (pops advance the cursor but only a
    // full drain clears the storage). Amortized O(1): each erase moves at
    // most a quarter of what was popped since the last one.
    if (bottom_pos_ > 512 && bottom_pos_ >= 4 * (bottom_.size() - bottom_pos_)) {
      bottom_.erase(bottom_.begin(),
                    bottom_.begin() + static_cast<std::ptrdiff_t>(bottom_pos_));
      bottom_pos_ = 0;
    }
    for (;;) {
      while (bottom_pos_ < bottom_.size()) {
        if (!dead(bottom_[bottom_pos_])) return;
        ++bottom_pos_;  // cancelled entry: reclaim lazily
        --stored_;
      }
      bottom_.clear();
      bottom_pos_ = 0;
      if (!refill_bottom()) return;  // nothing pending anywhere
    }
  }

  /// Moves the next non-empty bucket (subdividing overfull ones) into the
  /// bottom and sorts it. Returns false when every tier is empty. The
  /// refilled bottom may still be all-dead; prepare_front loops.
  bool refill_bottom() {
    for (;;) {
      if (rungs_.empty()) {
        if (top_.empty()) return false;
        reseed_from_top();
        continue;
      }
      Rung& r = rungs_.back();
      while (r.cur < r.nbuckets && r.buckets[r.cur].empty()) ++r.cur;
      if (r.cur == r.nbuckets) {
        retire_back_rung();
        continue;
      }
      Bucket& bucket = r.buckets[r.cur];
      const Time s = r.cur_start();
      if (bucket.count > kSpawnThreshold && r.shift > 0 &&
          rungs_.size() < kMaxRungs) {
        spawn_child_rung();
        continue;
      }
      for (std::uint32_t n = bucket.head; n != kNilNode;) {
        const Node& nd = nodes_[n];
        const std::uint32_t next = nd.next;
        if (dead_node(nd)) {
          --stored_;
        } else {
          bottom_.push_back(Entry{nd.time, nd.seq, nd.slot, nd.gen});
        }
        free_node(n);
        n = next;
      }
      bucket = Bucket{};
      bottom_limit_ = s + r.width();
      ++r.cur;
      std::sort(bottom_.begin(), bottom_.end(), before);
      return true;
    }
  }

  /// Subdivides the finest rung's current bucket into a new, finer rung
  /// covering exactly that bucket's window.
  void spawn_child_rung() {
    Rung child = acquire_rung();
    {
      // Scope the parent reference: rungs_.push_back below may reallocate.
      Rung& parent = rungs_.back();
      child.base = parent.cur_start();
      child.end = child.base + parent.width();
      child.shift = std::max(0, parent.shift - kRungBucketsLog2);
      child.cur = 0;
      child.nbuckets =
          static_cast<std::uint32_t>(parent.width() >> child.shift);
      ensure_buckets(child);
      Bucket& bucket = parent.buckets[parent.cur];
      // Pure relink: nodes move from the parent bucket's list into the
      // child's finer buckets, append order preserving (time, seq) FIFO.
      for (std::uint32_t n = bucket.head; n != kNilNode;) {
        Node& nd = nodes_[n];
        const std::uint32_t next = nd.next;
        if (dead_node(nd)) {
          --stored_;
          free_node(n);
        } else {
          bucket_append(
              child.buckets[static_cast<std::size_t>((nd.time - child.base) >>
                                                     child.shift)],
              n);
        }
        n = next;
      }
      bucket = Bucket{};
      ++parent.cur;
    }
    rungs_.push_back(std::move(child));
    ++rung_spawns_;
  }

  /// Moves the bottom's tail into a fresh finest rung tiled exactly against
  /// bottom_limit_ (aligned from the end, so rung windows stay contiguous
  /// whether or not other rungs exist). The front instant stays in the
  /// bottom; a same-time flood (span 0) is left alone — it cannot
  /// subdivide and batch pops drain it in one sweep.
  void spawn_from_bottom() {
    if (rungs_.size() >= kMaxRungs) return;
    const Time t_front = bottom_[bottom_pos_].time;
    const Time span = bottom_limit_ - (t_front + 1);
    if (span <= 0) return;
    const int shift =
        std::max(0, static_cast<int>(std::bit_width(
                        static_cast<std::uint64_t>(span))) -
                        kRungBucketsLog2);
    const auto nbuckets = static_cast<std::uint32_t>(span >> shift);
    if (nbuckets == 0) return;
    Rung r = acquire_rung();
    r.shift = shift;
    r.nbuckets = nbuckets;
    r.end = bottom_limit_;
    r.base = bottom_limit_ - (static_cast<Time>(nbuckets) << shift);
    r.cur = 0;
    ensure_buckets(r);
    RCAST_DCHECK(r.base > t_front);
    const auto split = std::lower_bound(
        bottom_.begin() + static_cast<std::ptrdiff_t>(bottom_pos_),
        bottom_.end(), r.base,
        [](const Entry& e, Time t) { return e.time < t; });
    for (auto it = split; it != bottom_.end(); ++it) {
      if (dead(*it)) {
        --stored_;
        continue;
      }
      // Sorted (time, seq) order in, FIFO append per bucket: refill's sort
      // sees the same total order either way.
      bucket_push(r.buckets[static_cast<std::size_t>((it->time - r.base) >>
                                                     shift)],
                  *it);
    }
    bottom_.erase(split, bottom_.end());
    bottom_limit_ = r.base;
    rungs_.push_back(std::move(r));
    ++rung_spawns_;
  }

  void retire_back_rung() {
    // The retired window is fully drained; extend the bottom's window over
    // it so late pushes into any trailing (empty) buckets route to the
    // bottom instead of a bucket the cursor already passed.
    bottom_limit_ = std::max(bottom_limit_, rungs_.back().end);
    recycle_rung(std::move(rungs_.back()));
    rungs_.pop_back();
    if (rungs_.empty()) top_start_ = bottom_limit_;
  }

  /// Sweeps the far-future tier into a fresh coarsest rung spanning
  /// [bottom_limit_, top_max_]; the top then owns times past that rung.
  void reseed_from_top() {
    Rung r = acquire_rung();
    // Base at the present, not at a stale bottom_limit_: pops may have
    // advanced far past the last ladder window, and spanning that dead time
    // would waste most of the rung's buckets. Raising bottom_limit_ to
    // match is safe — the bottom is empty here, and top entries are never
    // below last_popped_ (a pending earlier event would have popped first).
    r.base = std::max(bottom_limit_, last_popped_);
    bottom_limit_ = r.base;
    const Time span = top_max_ - r.base;  // >= 0: top times >= base
    r.shift =
        span <= 0
            ? 0
            : std::max(0, static_cast<int>(std::bit_width(
                              static_cast<std::uint64_t>(span))) -
                              kRungBucketsLog2);
    r.nbuckets = static_cast<std::uint32_t>((span >> r.shift) + 1);
    r.end = r.base + (static_cast<Time>(r.nbuckets) << r.shift);
    r.cur = 0;
    ensure_buckets(r);
    for (const Entry& e : top_) {
      if (dead(e)) {
        --stored_;
        continue;
      }
      bucket_push(r.buckets[static_cast<std::size_t>((e.time - r.base) >>
                                                     r.shift)],
                  e);
    }
    top_.clear();
    top_start_ = r.end;
    top_min_ = std::numeric_limits<Time>::max();
    top_max_ = std::numeric_limits<Time>::min();
    rungs_.push_back(std::move(r));
    ++rung_spawns_;
  }

  Rung acquire_rung() {
    if (rung_pool_.empty()) return Rung{};
    Rung r = std::move(rung_pool_.back());
    rung_pool_.pop_back();
    return r;
  }

  void recycle_rung(Rung&& r) {
    // Buckets are clear (retire implies fully drained); their capacity and
    // the bucket array itself are what the pool preserves.
    rung_pool_.push_back(std::move(r));
  }

  static void ensure_buckets(Rung& r) {
    // Recycled rungs come back with every bucket drained to its default
    // state, so a grow-only resize leaves them ready for reuse.
    if (r.buckets.size() < r.nbuckets) r.buckets.resize(r.nbuckets);
  }

  /// Cancelled entries linger in their tier until reached; rebuild all
  /// tiers when they outnumber live events 4:1 so cancel-heavy workloads
  /// stay compact.
  void maybe_compact() {
    if (stored_ < 256 || stored_ < 4 * live_) return;
    bottom_.erase(bottom_.begin(),
                  bottom_.begin() + static_cast<std::ptrdiff_t>(bottom_pos_));
    bottom_pos_ = 0;
    auto is_dead = [this](const Entry& e) { return dead(e); };
    std::erase_if(bottom_, is_dead);
    for (Rung& r : rungs_) {
      for (std::uint32_t b = r.cur; b < r.nbuckets; ++b) {
        // Rebuild the list keeping live nodes in order, freeing the dead.
        Bucket rebuilt;
        for (std::uint32_t n = r.buckets[b].head; n != kNilNode;) {
          const std::uint32_t next = nodes_[n].next;
          if (dead_node(nodes_[n])) {
            free_node(n);
          } else {
            bucket_append(rebuilt, n);
          }
          n = next;
        }
        r.buckets[b] = rebuilt;
      }
    }
    std::erase_if(top_, is_dead);
    stored_ = live_;
  }

  // --- tiers ---
  std::vector<Entry> bottom_;   // sorted from bottom_pos_ by (time, seq)
  std::size_t bottom_pos_ = 0;  // pop cursor into bottom_
  Time bottom_limit_ = 0;       // bottom owns times < this
  std::vector<Rung> rungs_;     // coarsest first; back refills the bottom
  std::vector<Entry> top_;      // unsorted far future: times >= top_start_
  Time top_start_ = 0;
  Time top_min_ = std::numeric_limits<Time>::max();
  Time top_max_ = std::numeric_limits<Time>::min();
  std::vector<Rung> rung_pool_;  // retired rungs, bucket capacity intact

  // --- node pool (bucket list storage) ---
  std::vector<Node> nodes_;
  std::uint32_t node_free_ = kNilNode;

  // --- slot map ---
  // Chunked storage: slots never relocate, so a handler can execute from its
  // slot while a mid-fire push grows the map (new chunk, old ones untouched).
  std::vector<std::unique_ptr<Slot[]>> slot_chunks_;
  std::uint32_t slot_limit_ = 0;  // slots ever allocated (chunk high-water)
  std::uint32_t free_head_ = kNilSlot;

  // --- bookkeeping ---
  std::size_t live_ = 0;    // pending (uncancelled) events
  std::size_t stored_ = 0;  // entries physically held, incl. cancelled
  std::uint64_t next_seq_ = 0;
  std::uint64_t heap_fallbacks_ = 0;
  Time last_popped_ = 0;

  // --- instrumentation ---
  std::size_t depth_high_water_ = 0;
  std::uint64_t rung_spawns_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t handler_moves_ = 0;
};

}  // namespace rcast::sim
