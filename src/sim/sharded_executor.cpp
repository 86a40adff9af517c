#include "sim/sharded_executor.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <thread>

#include "sim/simulator.hpp"
#include "util/alloc_tracker.hpp"

namespace rcast::sim {

ShardedExecutor::ShardedExecutor(Simulator& sim, std::size_t shards,
                                 Time horizon)
    : sim_(sim), horizon_(horizon) {
  RCAST_REQUIRE(shards >= 2);
  RCAST_REQUIRE(shards <= kMaxShards);
  RCAST_REQUIRE(horizon > 0);
  shards_.resize(shards);
  for (Shard& s : shards_) s.outbox.resize(shards);
}

std::uint64_t ShardedExecutor::executed_events() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) n += s.executed;
  return n;
}

std::size_t ShardedExecutor::pending_events() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) n += s.queue.size();
  return n;
}

bool ShardedExecutor::queues_empty() const {
  for (const Shard& s : shards_) {
    if (!s.queue.empty()) return false;
  }
  return true;
}

Time ShardedExecutor::next_event_time() const {
  Time t = std::numeric_limits<Time>::max();
  for (const Shard& s : shards_) {
    if (!s.queue.empty()) t = std::min(t, s.queue.next_time());
  }
  return t;
}

std::uint64_t ShardedExecutor::worker_alloc_bytes() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) n += s.alloc_bytes;
  return n;
}

void ShardedExecutor::fill_perf(PerfCounters& p) const {
  for (const Shard& s : shards_) {
    p.events_scheduled += s.queue.scheduled_count();
    p.handler_heap_fallbacks += s.queue.handler_heap_fallbacks();
    p.queue_depth_high_water =
        std::max(p.queue_depth_high_water, s.queue.depth_high_water());
    p.queue_rung_spawns += s.queue.rung_spawns();
    p.dispatch_batches += s.queue.dispatch_batches();
    p.handler_moves += s.queue.handler_moves();
  }
}

bool ShardedExecutor::claim(std::size_t k, Time t, std::uint64_t seq) {
  Shard& s = shards_[k];
  if (t >= window_end_ ||
      (deadline_armed_ &&
       (s.executed + 1) % Simulator::kDeadlineCheckInterval == 0) ||
      !s.queue.precedes_front(t, seq)) {
    return false;
  }
  s.now = t;
  ++s.executed;
  return true;
}

void ShardedExecutor::check_wall_deadline() {
  if (!deadline_armed_ ||
      std::chrono::steady_clock::now() < wall_deadline_) {
    return;
  }
  std::ostringstream os;
  os << "wall-clock deadline exceeded after " << executed_events()
     << " events (sim time " << to_seconds(window_end_) << " s, sharded)";
  throw WallDeadlineExceeded(os.str());
}

void ShardedExecutor::on_barrier() {
  ++windows_;
  try {
    // Deliver cross-shard mail in fixed (dst, src, append) order so the
    // destination queues assign identical sequence numbers every run. Times
    // are clamped to the window that just closed: a shard may already have
    // executed up to (but not including) window_end_.
    const Time clamp = window_end_;
    for (std::size_t dst = 0; dst < shards_.size(); ++dst) {
      EventQueue& q = shards_[dst].queue;
      for (std::size_t src = 0; src < shards_.size(); ++src) {
        auto& box = shards_[src].outbox[dst];
        for (Outgoing& o : box) {
          q.push(std::max(o.t, clamp), std::move(o.h));
        }
        box.clear();
      }
    }
    if (error_ != nullptr) {
      stop_ = true;
      return;
    }
    check_wall_deadline();

    const Time t_min = next_event_time();
    if (t_min == std::numeric_limits<Time>::max() || t_min > end_) {
      stop_ = true;
      return;
    }
    // W = min(T + horizon, end + 1, hook bounds), but always > T. end + 1
    // (not end) so events scheduled exactly at `end` run, matching
    // Simulator::run_until.
    Time w = t_min + horizon_;
    if (w <= t_min) w = end_ + 1;  // horizon overflow: one open window
    w = std::min(w, end_ + 1);
    for (const WindowHook& hook : hooks_) {
      w = std::min(w, hook(t_min, w));
    }
    w = std::max(w, t_min + 1);
    for (Shard& s : shards_) s.now = std::max(s.now, t_min);
    window_end_ = w;
  } catch (...) {
    if (error_ == nullptr) error_ = std::current_exception();
    stop_ = true;
  }
}

void ShardedExecutor::barrier_wait() {
  std::unique_lock<std::mutex> lk(mu_);
  const std::uint64_t gen = generation_;
  if (++arrived_ == shards_.size()) {
    arrived_ = 0;
    ++generation_;
    on_barrier();
    cv_.notify_all();
  } else {
    cv_.wait(lk, [&] { return generation_ != gen; });
  }
}

void ShardedExecutor::worker(std::size_t k) {
  sim_.set_shard_context(k);
  util::AllocTracker::reset();
  util::AllocTracker::enable();
  Shard& s = shards_[k];
  while (!stop_) {
    try {
      EventQueue& q = s.queue;
      while (!q.empty()) {
        const Time t = q.next_time();
        if (t >= window_end_) break;
        s.now = t;  // before dispatch: batch handlers read now()
        q.pop_batch([&](Handler& h) {
          ++s.executed;
          if (deadline_armed_ &&
              (s.executed % Simulator::kDeadlineCheckInterval) == 0 &&
              std::chrono::steady_clock::now() >= wall_deadline_) {
            // Shard-local message: summing the other shards' live counters
            // here would race them.
            std::ostringstream os;
            os << "wall-clock deadline exceeded in shard " << k << " after "
               << s.executed << " shard events (sim time "
               << to_seconds(s.now) << " s)";
            throw WallDeadlineExceeded(os.str());
          }
          h();
        });
      }
    } catch (...) {
      // Record and keep going to the barrier: every worker must arrive or
      // the fleet deadlocks. The barrier sees error_ and stops everyone.
      std::lock_guard<std::mutex> lk(mu_);
      if (error_ == nullptr) error_ = std::current_exception();
    }
    barrier_wait();
  }
  util::AllocTracker::disable();
  s.alloc_bytes += util::AllocTracker::bytes();
  sim_.clear_shard_context();
}

void ShardedExecutor::run_until(
    Time end, bool deadline_armed,
    std::chrono::steady_clock::time_point wall_deadline) {
  end_ = end;
  deadline_armed_ = deadline_armed;
  wall_deadline_ = wall_deadline;
  error_ = nullptr;
  stop_ = false;
  window_end_ = 0;
  // Compute the first window serially (no workers are running yet); the
  // outboxes are empty, so this only picks T and W.
  on_barrier();
  if (!stop_) {
    std::vector<std::thread> threads;
    threads.reserve(shards_.size());
    for (std::size_t k = 0; k < shards_.size(); ++k) {
      threads.emplace_back([this, k] { worker(k); });
    }
    for (std::thread& t : threads) t.join();
  }
  // Match run_until semantics: the clock lands on `end` even if the queues
  // drained early (pending events past `end` stay queued).
  for (Shard& s : shards_) s.now = std::max(s.now, end);
  window_end_ = 0;  // between runs every claim fails
  if (error_ != nullptr) std::rethrow_exception(error_);
}

}  // namespace rcast::sim
