// Scaling benchmarks for the PHY/geo hot path (google-benchmark): spatial
// range queries, carrier-sense cost as concurrent in-flight transmissions
// grow, the transmit storm at 10x the paper's density scaled to thousands of
// nodes, and a full 2k-node scenario second. Teed to RCAST_BENCH_SCALE_JSON
// (default ./BENCH_scale.json); the committed baseline/after record lives at
// the repo root under the same name.
#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <vector>

#include "bench/bench_json.hpp"
#include "mobility/mobility_manager.hpp"
#include "phy/channel.hpp"
#include "phy/phy.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/small_vec.hpp"

namespace {

using namespace rcast;

// World scaled to hold `n` nodes at `per_node_area` m^2 each, preserving the
// 5:1 aspect ratio. The paper puts 100 nodes in 1500 m x 300 m, 4500 m^2 per
// node; the default is half that density, and the 450 m^2 rows are 10x it.
geo::Rect world_for(std::size_t n, double per_node_area = 9000.0) {
  const double area = static_cast<double>(n) * per_node_area;
  const double h = std::sqrt(area / 5.0);
  return geo::Rect{5.0 * h, h};
}

// Spatial range query throughput: n static nodes at constant density, query
// the reception disc around random nodes. The hot shape behind every
// Channel::transmit sensed-set computation.
void BM_NodesWithin(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const geo::Rect world = world_for(n);
  sim::Simulator sim;
  mobility::MobilityManager mobility(sim, world, 550.0);
  Rng rng(11);
  for (std::size_t i = 0; i < n; ++i) {
    mobility.add_node(static_cast<mobility::NodeId>(i),
                      std::make_unique<mobility::StaticModel>(geo::Vec2{
                          rng.uniform(0.0, world.width),
                          rng.uniform(0.0, world.height)}));
  }
  std::uint64_t found = 0;
  util::SmallVec<mobility::NodeId, 128> out;  // reused scratch, no heap churn
  for (auto _ : state) {
    const auto id = static_cast<mobility::NodeId>(rng.uniform_u64(n));
    out.clear();
    mobility.nodes_within(mobility.position(id), 250.0, id, out);
    found += out.size();
    benchmark::DoNotOptimize(out.data());
  }
  benchmark::DoNotOptimize(found);
  state.SetItemsProcessed(state.iterations());
  state.counters["avg_neighbors"] = benchmark::Counter(
      static_cast<double>(found) / static_cast<double>(state.iterations()));
  state.counters["candidates_per_query"] = benchmark::Counter(
      static_cast<double>(mobility.perf().spatial_candidates_scanned) /
      static_cast<double>(mobility.perf().spatial_queries));
}
BENCHMARK(BM_NodesWithin)->Arg(256)->Arg(1024)->Arg(4096);

// Carrier-sense query cost as the number of concurrent in-flight
// transmissions grows. Transmitters are spread over a large world, so only a
// handful are ever within carrier-sense range of the probe point; the cost
// of finding that out is what scales (or, after the cell-aggregated rework,
// does not).
void BM_CarrierSense(benchmark::State& state) {
  const std::size_t n_flight = static_cast<std::size_t>(state.range(0));
  const geo::Rect world = world_for(n_flight);
  sim::Simulator sim;
  mobility::MobilityManager mobility(sim, world, 550.0);
  phy::Channel channel(sim, mobility, phy::ChannelConfig{});
  Rng rng(13);
  for (std::size_t i = 0; i < n_flight; ++i) {
    mobility.add_node(static_cast<mobility::NodeId>(i),
                      std::make_unique<mobility::StaticModel>(geo::Vec2{
                          rng.uniform(0.0, world.width),
                          rng.uniform(0.0, world.height)}));
  }
  // No Phy is attached, so transmit() records the in-flight entry without
  // scheduling arrivals; a long duration keeps every entry active.
  for (std::size_t i = 0; i < n_flight; ++i) {
    auto frame = std::make_shared<phy::Frame>();
    frame->tx = static_cast<phy::NodeId>(i);
    frame->rx = phy::kBroadcastId;
    frame->bits = 512;
    channel.transmit(std::move(frame), 10 * sim::kSecond);
  }
  sim::Time acc = 0;
  for (auto _ : state) {
    const geo::Vec2 probe{rng.uniform(0.0, world.width),
                          rng.uniform(0.0, world.height)};
    acc += channel.sensed_busy_until(probe);
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
  state.counters["cells_per_probe"] = benchmark::Counter(
      static_cast<double>(channel.stats().cs_cells_visited) /
      static_cast<double>(state.iterations()));
  state.counters["entries_per_probe"] = benchmark::Counter(
      static_cast<double>(channel.stats().cs_entries_scanned) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_CarrierSense)->Arg(16)->Arg(256)->Arg(4096);

// The 1000-node transmit storm from bench_micro, scaled up: 10x the paper's
// density, staggered broadcast frames, full arrival fan-out through the Phys.
void BM_TransmitStorm(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t kFrames = 200;
  const geo::Rect world = world_for(n, 450.0);  // 1000 nodes in 1500x300
  std::uint64_t events = 0;
  sim::PerfCounters last{};
  for (auto _ : state) {
    sim::Simulator sim;
    mobility::MobilityManager mobility(sim, world, 550.0);
    phy::Channel channel(sim, mobility, phy::ChannelConfig{});
    Rng rng(7);
    std::vector<std::unique_ptr<phy::Phy>> phys;
    phys.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      mobility.add_node(static_cast<phy::NodeId>(i),
                        std::make_unique<mobility::StaticModel>(geo::Vec2{
                            rng.uniform(0.0, world.width),
                            rng.uniform(0.0, world.height)}));
      phys.push_back(std::make_unique<phy::Phy>(
          sim, channel, static_cast<phy::NodeId>(i), nullptr));
    }
    for (std::size_t i = 0; i < kFrames; ++i) {
      const auto tx = static_cast<phy::NodeId>(rng.uniform_u64(n));
      const sim::Time at = static_cast<sim::Time>(i) * 50 * sim::kMicrosecond;
      sim.at(at, [&channel, tx] {
        auto frame = std::make_shared<phy::Frame>();
        frame->tx = tx;
        frame->rx = phy::kBroadcastId;
        frame->bits = 512;
        channel.transmit(std::move(frame), channel.duration_of(512));
      });
    }
    sim.run_until(kFrames * 50 * sim::kMicrosecond + sim::kSecond);
    events += sim.executed_events();
    last = sim.perf_counters();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events"] =
      benchmark::Counter(static_cast<double>(events) /
                         static_cast<double>(state.iterations()));
  state.counters["heap_fallbacks"] =
      benchmark::Counter(static_cast<double>(last.handler_heap_fallbacks));
  state.counters["queue_rung_spawns"] =
      benchmark::Counter(static_cast<double>(last.queue_rung_spawns));
  state.counters["queue_depth_high_water"] =
      benchmark::Counter(static_cast<double>(last.queue_depth_high_water));
  state.counters["dispatch_batches"] =
      benchmark::Counter(static_cast<double>(last.dispatch_batches));
  // In-place dispatch proof: an unsharded run must never move a handler out
  // of its slot.
  state.counters["handler_moves"] =
      benchmark::Counter(static_cast<double>(last.handler_moves));
}
BENCHMARK(BM_TransmitStorm)->Arg(1000)->Arg(4096)->Unit(benchmark::kMillisecond);

// End-to-end second of a 2000-node mobile scenario: the regime where the
// randomized-overhearing comparisons actually diverge, and the workload the
// north star says must run as fast as the hardware allows.
void BM_FullScenario2k(benchmark::State& state) {
  sim::PerfCounters last{};
  for (auto _ : state) {
    scenario::ScenarioConfig cfg;
    cfg.num_nodes = 2000;
    cfg.world = world_for(2000, 450.0);
    cfg.num_flows = 40;
    cfg.duration = 1 * sim::kSecond;
    cfg.pause = 0;
    cfg.scheme = scenario::Scheme::kRcast;
    scenario::RunResult r = scenario::run_scenario(cfg);
    last = r.perf;
    benchmark::DoNotOptimize(r);
  }
  state.counters["sim_events_per_sec"] =
      benchmark::Counter(last.events_per_sec);
  state.counters["heap_fallbacks"] =
      benchmark::Counter(static_cast<double>(last.handler_heap_fallbacks));
}
BENCHMARK(BM_FullScenario2k)->Unit(benchmark::kMillisecond);

// One second of a 100k-node run, the sharded-execution scale target
// (DESIGN.md §15): Arg is sim.shards (1 = the single-queue path, 4 = the
// spatial decomposition the acceptance criterion names; on CI runners 4 also
// matches the hardware thread count). Items are whole runs and the rate is
// pinned to real time (shard work happens on worker threads, so CPU time of
// the calling thread is meaningless here): items_per_second is 1/wall and
// the recorded after/baseline ratio in BENCH_scale.json is exactly the
// sharded-vs-single speedup. One iteration is ~20 s on the reference box —
// google-benchmark runs it once per Arg at smoke min_time.
void BM_ShardedScenario100k(benchmark::State& state) {
  sim::PerfCounters last{};
  double energy = 0.0;
  for (auto _ : state) {
    scenario::ScenarioConfig cfg;
    cfg.num_nodes = 100000;
    cfg.world = world_for(100000, 450.0);  // 10x paper density: 15000 x 3000
    cfg.num_flows = 200;
    cfg.duration = 1 * sim::kSecond;
    cfg.pause = 0;
    cfg.scheme = scenario::Scheme::kRcast;
    cfg.seed = 3;
    cfg.sim_shards = static_cast<std::uint64_t>(state.range(0));
    scenario::RunResult r = scenario::run_scenario(cfg);
    last = r.perf;
    energy = r.total_energy_j;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["sim_events_per_sec"] =
      benchmark::Counter(last.events_per_sec);
  state.counters["events"] =
      benchmark::Counter(static_cast<double>(last.events_executed));
  state.counters["heap_fallbacks"] =
      benchmark::Counter(static_cast<double>(last.handler_heap_fallbacks));
  state.counters["total_energy_j"] = benchmark::Counter(energy);
}
BENCHMARK(BM_ShardedScenario100k)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kSecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  return rcast::bench::run_and_tee(argc, argv, "RCAST_BENCH_SCALE_JSON",
                                   "BENCH_scale.json");
}
