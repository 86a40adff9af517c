// Lightweight throughput/allocation counters for a simulation run.
//
// These exist to *prove* the allocation discipline of the hot paths: the
// event path never boxes a handler (handler_heap_fallbacks stays 0), and
// with the opt-in allocation hook enabled bytes_allocated counts every byte
// the run allocates, frames and packets included. bench_micro emits them as
// JSON (BENCH_hotpath.json) so the trajectory is tracked across PRs.
#pragma once

#include <cstdint>

namespace rcast::sim {

struct PerfCounters {
  std::uint64_t events_executed = 0;
  std::uint64_t events_scheduled = 0;
  /// Event handlers whose captures exceeded kEventInlineCapacity and were
  /// boxed on the heap. Zero means the event path never allocated.
  std::uint64_t handler_heap_fallbacks = 0;
  /// Peak number of simultaneously pending events (queue memory pressure;
  /// sizes the ladder tiers a sharded per-region queue would need).
  std::uint64_t queue_depth_high_water = 0;
  /// Ladder-queue rungs created: top-tier reseeds plus overfull-bucket
  /// subdivisions. Growth tracks how bimodal the workload's horizons are.
  std::uint64_t queue_rung_spawns = 0;
  /// Batched same-timestamp dispatches (distinct fired timestamps).
  std::uint64_t dispatch_batches = 0;
  /// Handlers moved into a queue slot (the Handler&& push path: cross-shard
  /// outbox drains, pre-built handlers). The emplace path constructs the
  /// callable in its slot directly, so unsharded hot-path runs keep this 0.
  std::uint64_t handler_moves = 0;
  /// Always 0: frames and packets are plain std::make_shared blocks since
  /// the object pools were deleted. Kept for perfbench, which still reads
  /// them; the result store no longer writes them.
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  /// Bytes passed through global operator new while the run's thread had
  /// util::AllocTracker enabled; 0 when the hook is compiled out or off.
  std::uint64_t bytes_allocated = 0;
  /// Spatial range queries answered by the mobility layer, and grid
  /// candidates scanned inside them (exact-filter work per query).
  std::uint64_t spatial_queries = 0;
  std::uint64_t spatial_candidates_scanned = 0;
  /// Motion-segment cache refreshes (leg/pause boundary crossings); between
  /// refreshes every position lookup is a branch-light inline interpolation.
  std::uint64_t segment_refreshes = 0;
  /// Carrier-sense cells visited by sensed_busy_until (cell-aggregated scan
  /// instead of the global in-flight list).
  std::uint64_t cs_cells_visited = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
};

}  // namespace rcast::sim
