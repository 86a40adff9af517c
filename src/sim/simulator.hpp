// The simulation run loop: a clock plus the event queue.
//
// All protocol modules hold a Simulator& and schedule callbacks; nothing in
// the codebase reads wall-clock time. One Simulator per scenario run; runs
// are independent, so experiment sweeps parallelize across threads with one
// Simulator each.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>

#include "sim/event_queue.hpp"
#include "sim/perf_counters.hpp"
#include "sim/time.hpp"
#include "util/pool.hpp"

namespace rcast::sim {

class ShardedExecutor;

/// Thread-local shard binding for sharded runs (DESIGN.md §15): while set,
/// the owning Simulator routes at/after/cancel/now through that shard's
/// queue and clock. The owner pointer scopes the binding to one Simulator,
/// so campaign workers running independent (unsharded) Simulators on the
/// same thread are unaffected.
struct ShardContext {
  const void* owner = nullptr;
  std::size_t shard = 0;
};
inline thread_local ShardContext g_shard_context;

/// Thrown by the run loop when a wall-clock deadline (see
/// Simulator::set_wall_deadline) expires mid-run. Campaign jobs catch this
/// and record the job as timed out instead of hanging a whole sweep.
class WallDeadlineExceeded : public std::runtime_error {
 public:
  explicit WallDeadlineExceeded(const std::string& what)
      : std::runtime_error(what) {}
};

class Simulator {
 public:
  using Handler = EventQueue::Handler;

  /// `shards` > 1 runs the simulation on a ShardedExecutor (one spatial
  /// shard per worker thread) under conservative windows of `horizon` ns;
  /// the default is the exact single-queue loop, byte-identical to every
  /// prior release. See DESIGN.md §15.
  explicit Simulator(std::size_t shards = 1, Time horizon = 0);
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const {
    if (exec_ != nullptr && g_shard_context.owner == this) {
      return shard_now(g_shard_context.shard);
    }
    return now_;
  }

  /// Schedules at an absolute simulation time (>= now). Raw callables are
  /// forwarded to the queue's emplace path (constructed directly in the
  /// slot, zero handler moves); a pre-built Handler is moved in once. The
  /// sharded branch always builds a Handler — cross-shard events travel
  /// through an outbox, so a move is inherent there.
  template <class H, class = std::enable_if_t<
                         std::is_invocable_r_v<void, std::decay_t<H>&>>>
  EventId at(Time t, H&& h) {
    if (exec_ != nullptr && g_shard_context.owner == this) {
      return shard_push(g_shard_context.shard, t, Handler(std::forward<H>(h)));
    }
    RCAST_REQUIRE(t >= now_);
    return queue_.push(t, std::forward<H>(h));
  }

  /// Schedules `delay` nanoseconds from now (delay >= 0).
  template <class H, class = std::enable_if_t<
                         std::is_invocable_r_v<void, std::decay_t<H>&>>>
  EventId after(Time delay, H&& h) {
    RCAST_REQUIRE(delay >= 0);
    if (exec_ != nullptr && g_shard_context.owner == this) {
      return shard_push(g_shard_context.shard,
                        shard_now(g_shard_context.shard) + delay,
                        Handler(std::forward<H>(h)));
    }
    return queue_.push(now_ + delay, std::forward<H>(h));
  }

  bool cancel(EventId id) {
    if (exec_ != nullptr && g_shard_context.owner == this) {
      return shard_cancel(g_shard_context.shard, id);
    }
    return queue_.cancel(id);
  }

  // --- sharded execution (DESIGN.md §15) -----------------------------------

  bool sharded() const { return exec_ != nullptr; }
  std::size_t shard_count() const;
  ShardedExecutor* executor() { return exec_.get(); }

  /// Shard this thread is currently bound to (0 when unbound or unsharded).
  std::size_t current_shard() const {
    return (exec_ != nullptr && g_shard_context.owner == this)
               ? g_shard_context.shard
               : 0;
  }

  /// Binds the calling thread to a shard: subsequent at/after/cancel/now
  /// calls on this Simulator route through that shard. The scenario layer
  /// brackets each node's construction with this so build-time events land
  /// in the node's home-shard queue; executor workers bind themselves.
  void set_shard_context(std::size_t shard) {
    g_shard_context = ShardContext{this, shard};
  }
  void clear_shard_context() { g_shard_context = ShardContext{}; }

  /// Cross-shard event (sharded runs only, from a bound thread): delivered
  /// to `dst_shard` at the next window barrier, no earlier than max(t, W).
  void post(std::size_t dst_shard, Time t, Handler h);

  /// Runs events until the queue drains or the clock passes `end`.
  /// Events scheduled exactly at `end` are executed.
  void run_until(Time end);

  /// Runs until the queue is empty.
  void run_all();

  /// Executes at most one pending event; returns false if none remain.
  bool step();

  std::uint64_t executed_events() const;
  std::size_t pending_events() const;

  /// Timestamp of the earliest pending event; requires pending_events() > 0.
  /// Part of the const inspection surface: peeking never mutates the
  /// observable queue state.
  Time next_event_time() const;

  /// Arms a wall-clock budget for the run loop: once `steady_clock::now()`
  /// passes `deadline`, run_until/run_all/step throw WallDeadlineExceeded
  /// *between* events (never mid-handler, so module state stays consistent).
  /// The check is amortized — one clock read every kDeadlineCheckInterval
  /// events — so an unarmed or healthy run pays only a predictable branch.
  void set_wall_deadline(std::chrono::steady_clock::time_point deadline) {
    wall_deadline_ = deadline;
    deadline_armed_ = true;
  }
  void clear_wall_deadline() { deadline_armed_ = false; }

  static constexpr std::uint64_t kDeadlineCheckInterval = 8192;

  /// Per-run object pools (frames, packets). Everything drawn from them must
  /// be released before the Simulator dies; protocol modules hold Simulator&
  /// and are torn down first, so this falls out of the ownership order.
  util::PoolArena& pools() { return pools_; }

  /// Snapshot of the run's simulator-level counters (wall-clock fields are
  /// filled by whoever times the run, e.g. scenario::Network::run).
  PerfCounters perf_counters() const;

 private:
  void check_wall_deadline() const;

  // Out-of-line shard plumbing (the executor's type is incomplete here).
  Time shard_now(std::size_t shard) const;
  EventId shard_push(std::size_t shard, Time t, Handler h);
  bool shard_cancel(std::size_t shard, EventId id);

  // pools_ is declared before queue_ so pending handlers (which may hold the
  // last reference to pooled frames) are destroyed before the pools are.
  util::PoolArena pools_;
  EventQueue queue_;
  std::unique_ptr<ShardedExecutor> exec_;  // null = single-queue mode
  Time now_ = 0;
  std::uint64_t executed_ = 0;
  std::chrono::steady_clock::time_point wall_deadline_{};
  bool deadline_armed_ = false;
};

/// Repeating timer bound to a Simulator. Owns its pending event; destroying
/// or stopping the timer cancels it (safe against firing after teardown).
class PeriodicTimer {
 public:
  /// `callback` runs every `period` starting at `start` (absolute time).
  PeriodicTimer(Simulator& simulator, std::function<void()> callback)
      : sim_(simulator), callback_(std::move(callback)) {}

  ~PeriodicTimer() { stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void start(Time first_fire, Time period) {
    RCAST_REQUIRE(period > 0);
    stop();
    period_ = period;
    running_ = true;
    pending_ = sim_.at(first_fire, [this] { fire(); });
  }

  void stop() {
    if (running_) {
      sim_.cancel(pending_);
      running_ = false;
    }
  }

  bool running() const { return running_; }

 private:
  void fire() {
    // Re-arm before the callback so the callback may stop() the timer.
    pending_ = sim_.after(period_, [this] { fire(); });
    callback_();
  }

  Simulator& sim_;
  std::function<void()> callback_;
  Time period_ = 0;
  EventId pending_;
  bool running_ = false;
};

/// One-shot timer whose deadline can be re-armed or cancelled; used for MAC
/// timeouts, DSR send-buffer expiry, ODPM mode timeouts, etc.
class OneShotTimer {
 public:
  OneShotTimer(Simulator& simulator, std::function<void()> callback)
      : sim_(simulator), callback_(std::move(callback)) {}

  ~OneShotTimer() { cancel(); }
  OneShotTimer(const OneShotTimer&) = delete;
  OneShotTimer& operator=(const OneShotTimer&) = delete;

  /// (Re)arms the timer to fire `delay` from now.
  void arm(Time delay) {
    cancel();
    armed_ = true;
    pending_ = sim_.after(delay, [this] {
      armed_ = false;
      callback_();
    });
  }

  void cancel() {
    if (armed_) {
      sim_.cancel(pending_);
      armed_ = false;
    }
  }

  bool armed() const { return armed_; }

 private:
  Simulator& sim_;
  std::function<void()> callback_;
  EventId pending_;
  bool armed_ = false;
};

}  // namespace rcast::sim
