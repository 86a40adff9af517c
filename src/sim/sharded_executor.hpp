// Conservative-window parallel run loop (DESIGN.md §15).
//
// The world is partitioned into K spatial shards (the scenario layer pins
// every node to a home shard from its initial position). Each shard owns a
// full ladder EventQueue plus its own clock and counters; K worker threads
// drain their shards concurrently inside half-open time windows [T, W), and
// a serial barrier between windows exchanges cross-shard events, refreshes
// shared mobility state, and computes the next window.
//
// Window rule: T is the earliest pending event across all shards (windows
// fast-forward over idle gaps), and W = min(T + horizon, end + 1, earliest
// motion-segment expiry). Within a window a shard never needs another
// shard's state at a finer granularity than the window itself: every
// inter-node interaction flows through Channel::transmit, which schedules
// remote-shard arrivals as mailbox posts that the barrier delivers clamped
// to max(t, W). With horizon <= propagation delay across the carrier-sense
// range, deferring a cross-boundary arrival to W is equivalent to the
// receiver sitting at the far edge of the sense disc — error bounded by the
// physical propagation spread. Larger horizons trade bounded timing error
// for fewer barriers; `sim.horizon_ns` sweeps that knob.
//
// Determinism (the hard requirement): for a fixed K, runs are
// bit-reproducible. Worker interleaving is irrelevant because shards share
// no mutable state during a window; the barrier drains mailboxes in fixed
// (destination shard, source shard, append order) order, so sequence
// numbers — and therefore same-timestamp FIFO order — are identical run to
// run. Per-shard arrival-id streams and the deterministic merge of
// per-shard stats (scenario layer) close the loop.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/perf_counters.hpp"
#include "sim/time.hpp"

namespace rcast::sim {

class Simulator;

class ShardedExecutor {
 public:
  using Handler = EventQueue::Handler;

  /// Barrier hook, run serially between windows: given the next window's
  /// start, prepare any shared state (e.g. refresh expired motion segments)
  /// and return the hook's upper bound on the window end (>= start + 1;
  /// return `horizon_end` to impose no extra bound).
  using WindowHook = std::function<Time(Time window_start, Time horizon_end)>;

  /// `shards` >= 2 (a single shard uses the plain Simulator loop) and
  /// <= kMaxShards; `horizon` > 0 is the default window width in ns.
  ShardedExecutor(Simulator& sim, std::size_t shards, Time horizon);

  static constexpr std::size_t kMaxShards = 64;

  std::size_t shard_count() const { return shards_.size(); }
  Time horizon() const { return horizon_; }

  /// Registers a barrier hook (build phase only; order is dispatch order).
  void add_window_hook(WindowHook hook) {
    hooks_.push_back(std::move(hook));
  }

  // --- shard-scoped operations (TLS-routed from Simulator) -----------------

  Time shard_now(std::size_t k) const { return shards_[k].now; }

  EventId push(std::size_t k, Time t, Handler h) {
    Shard& s = shards_[k];
    RCAST_REQUIRE(t >= s.now);
    return s.queue.push(t, std::move(h));
  }

  bool cancel(std::size_t k, EventId id) { return shards_[k].queue.cancel(id); }

  /// Shard k's queue, for the stream calls (reserve_seqs, push_at_seq).
  EventQueue& queue(std::size_t k) { return shards_[k].queue; }

  /// Simulator::claim on shard k: bounded by the window (t < window end)
  /// instead of run_until's `end`, and by the shard's own deadline check.
  bool claim(std::size_t k, Time t, std::uint64_t seq);

  /// Cross-shard event: appended to the (src, dst) mailbox and delivered by
  /// the next barrier, clamped to no earlier than the current window's end.
  void post(std::size_t src, std::size_t dst, Time t, Handler h) {
    shards_[src].outbox[dst].push_back(Outgoing{t, std::move(h)});
  }

  // --- run loop ------------------------------------------------------------

  /// Parallel equivalent of Simulator::run_until: drains all shards up to
  /// and including `end`. Rethrows the first worker/barrier exception (e.g.
  /// WallDeadlineExceeded) after the fleet has stopped.
  void run_until(Time end, bool deadline_armed,
                 std::chrono::steady_clock::time_point wall_deadline);

  // --- inspection (serial contexts only: between runs / after build) -------

  std::uint64_t executed_events() const;
  std::size_t pending_events() const;
  bool queues_empty() const;
  /// Earliest pending event across shards; requires pending_events() > 0.
  Time next_event_time() const;
  /// Bytes allocated by worker threads during run_until (their
  /// AllocTracker totals, summed; the caller's own thread is separate).
  std::uint64_t worker_alloc_bytes() const;
  /// Sums the per-shard queue counters into `p` (depth high water is the
  /// max across shards, everything else a sum).
  void fill_perf(PerfCounters& p) const;

  /// Windows executed across all run_until calls (one barrier each).
  std::uint64_t windows_executed() const { return windows_; }

 private:
  struct Outgoing {
    Time t;
    Handler h;
  };
  struct Shard {
    EventQueue queue;
    Time now = 0;
    std::uint64_t executed = 0;
    std::vector<std::vector<Outgoing>> outbox;  // indexed by dst shard
    std::uint64_t alloc_bytes = 0;
  };

  void worker(std::size_t k);
  void barrier_wait();
  /// Serial inter-window step; called with mu_ held (all workers parked).
  void on_barrier();
  void check_wall_deadline();

  Simulator& sim_;
  Time horizon_;
  std::vector<Shard> shards_;
  std::vector<WindowHook> hooks_;

  // Window state: written only in on_barrier()/run_until() while workers
  // are parked, read by workers between barriers — no concurrent access.
  Time end_ = 0;
  Time window_end_ = 0;
  bool stop_ = true;
  bool deadline_armed_ = false;
  std::chrono::steady_clock::time_point wall_deadline_{};
  std::exception_ptr error_;
  std::uint64_t windows_ = 0;

  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t arrived_ = 0;
  std::uint64_t generation_ = 0;
};

}  // namespace rcast::sim
