#include "sim/simulator.hpp"

#include <sstream>

#include "sim/sharded_executor.hpp"

namespace rcast::sim {

namespace {
/// Fallback window width when a sharded Simulator is built with horizon 0:
/// the propagation delay across the default carrier-sense range (550 m at
/// c), i.e. the tightest physically-motivated lookahead. Scenario code
/// normally passes an explicit horizon derived from its own cs_range.
constexpr Time kDefaultHorizon = 1835;  // ns
}  // namespace

Simulator::Simulator(std::size_t shards, Time horizon) {
  RCAST_REQUIRE(shards >= 1);
  if (shards > 1) {
    exec_ = std::make_unique<ShardedExecutor>(
        *this, shards, horizon > 0 ? horizon : kDefaultHorizon);
  }
}

Simulator::~Simulator() = default;

std::size_t Simulator::shard_count() const {
  return exec_ != nullptr ? exec_->shard_count() : 1;
}

Time Simulator::shard_now(std::size_t shard) const {
  return exec_->shard_now(shard);
}

EventId Simulator::shard_push(std::size_t shard, Time t, Handler h) {
  return exec_->push(shard, t, std::move(h));
}

bool Simulator::shard_cancel(std::size_t shard, EventId id) {
  return exec_->cancel(shard, id);
}

void Simulator::post(std::size_t dst_shard, Time t, Handler h) {
  RCAST_REQUIRE(exec_ != nullptr && g_shard_context.owner == this);
  exec_->post(g_shard_context.shard, dst_shard, t, std::move(h));
}

std::uint64_t Simulator::executed_events() const {
  return exec_ != nullptr ? exec_->executed_events() : executed_;
}

std::size_t Simulator::pending_events() const {
  return exec_ != nullptr ? exec_->pending_events() : queue_.size();
}

Time Simulator::next_event_time() const {
  return exec_ != nullptr ? exec_->next_event_time() : queue_.next_time();
}

PerfCounters Simulator::perf_counters() const {
  PerfCounters p;
  p.events_executed = executed_events();
  if (exec_ != nullptr) {
    exec_->fill_perf(p);
  } else {
    p.events_scheduled = queue_.scheduled_count();
    p.handler_heap_fallbacks = queue_.handler_heap_fallbacks();
    p.queue_depth_high_water = queue_.depth_high_water();
    p.queue_rung_spawns = queue_.rung_spawns();
    p.dispatch_batches = queue_.dispatch_batches();
    p.handler_moves = queue_.handler_moves();
  }
  const util::PoolStats pools = pools_.total_stats();
  p.pool_hits = pools.hits;
  p.pool_misses = pools.misses;
  return p;
}

void Simulator::check_wall_deadline() const {
  if (std::chrono::steady_clock::now() < wall_deadline_) return;
  std::ostringstream os;
  os << "wall-clock deadline exceeded after " << executed_
     << " events (sim time " << to_seconds(now_) << " s)";
  throw WallDeadlineExceeded(os.str());
}

void Simulator::run_until(Time end) {
  // Check once up front so even a run too short to reach the periodic
  // check interval honors an already-expired deadline.
  if (deadline_armed_) check_wall_deadline();
  if (exec_ != nullptr) {
    exec_->run_until(end, deadline_armed_, wall_deadline_);
    if (now_ < end) now_ = end;
    return;
  }
  // Batched dispatch: one queue-front lookup per distinct timestamp, with
  // every same-time event (including ones its handlers push) drained in
  // scheduling order. The wall-deadline check still runs between events,
  // never mid-handler; a throw leaves unfired batch members pending.
  while (!queue_.empty()) {
    const Time t = queue_.next_time();
    if (t > end) break;
    now_ = t;  // before dispatch: batch handlers read now()
    queue_.pop_batch([this](Handler& h) {
      ++executed_;
      if (deadline_armed_ && (executed_ % kDeadlineCheckInterval) == 0) {
        check_wall_deadline();
      }
      h();
    });
  }
  if (now_ < end) now_ = end;
}

void Simulator::run_all() {
  RCAST_REQUIRE_MSG(exec_ == nullptr, "run_all requires single-queue mode");
  if (deadline_armed_) check_wall_deadline();
  while (!queue_.empty()) {
    now_ = queue_.next_time();
    queue_.pop_batch([this](Handler& h) {
      ++executed_;
      if (deadline_armed_ && (executed_ % kDeadlineCheckInterval) == 0) {
        check_wall_deadline();
      }
      h();
    });
  }
}

bool Simulator::step() {
  RCAST_REQUIRE_MSG(exec_ == nullptr, "step requires single-queue mode");
  if (queue_.empty()) return false;
  // now_ must be current before the handler runs; peek the front timestamp
  // first, then fire in place (same dispatch routine as the batched loop).
  now_ = queue_.next_time();
  ++executed_;
  if (deadline_armed_) check_wall_deadline();
  queue_.pop([](Handler& h) { h(); });
  return true;
}

}  // namespace rcast::sim
