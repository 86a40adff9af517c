// Micro-benchmarks (google-benchmark): hot paths of the simulator itself.
// These guard the performance that makes paper-scale sweeps feasible.
//
// Besides the console table, the run is teed to a machine-readable JSON file
// (RCAST_BENCH_JSON, default ./BENCH_hotpath.json) so throughput numbers can
// be committed and compared across PRs.
#include <benchmark/benchmark.h>

#include "bench/bench_json.hpp"
#include "geo/grid_index.hpp"
#include "mobility/mobility_manager.hpp"
#include "phy/channel.hpp"
#include "phy/phy.hpp"
#include "routing/packet.hpp"
#include "routing/route_cache.hpp"
#include "scenario/scenario.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/pool.hpp"
#include "util/rng.hpp"

namespace {

using namespace rcast;

void BM_RngNextU64(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_u64());
  }
}
BENCHMARK(BM_RngNextU64);

void BM_RngBernoulli(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.bernoulli(0.2));
  }
}
BENCHMARK(BM_RngBernoulli);

void BM_EventQueuePushPop(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  Rng rng(2);
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < batch; ++i) {
      q.push(static_cast<sim::Time>(rng.uniform_u64(1'000'000)), [] {});
    }
    while (!q.empty()) q.pop();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(64)->Arg(1024)->Arg(16384);

void BM_EventQueueCancelHeavy(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    std::vector<sim::EventId> ids;
    ids.reserve(1024);
    for (int i = 0; i < 1024; ++i) {
      ids.push_back(q.push(i, [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) q.cancel(ids[i]);
    while (!q.empty()) q.pop();
  }
}
BENCHMARK(BM_EventQueueCancelHeavy);

// Schedule/cancel/pop churn in the ratio a PSM MAC produces: every exchange
// arms a backoff and an ACK timeout and cancels most of them before firing.
void BM_EventChurn(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  Rng rng(5);
  for (auto _ : state) {
    sim::EventQueue q;
    std::vector<sim::EventId> live;
    live.reserve(static_cast<std::size_t>(batch));
    sim::Time t = 0;
    for (int i = 0; i < batch; ++i) {
      t += static_cast<sim::Time>(rng.uniform_u64(100));
      live.push_back(q.push(t, [] {}));
      if (live.size() >= 2 && rng.bernoulli(0.5)) {
        q.cancel(live[live.size() - 2]);
      }
      if (q.size() > 64) q.pop();
    }
    while (!q.empty()) q.pop();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventChurn)->Arg(1024)->Arg(16384);

// Synced-beacon shape: every PSM node arms its beacon timer at the same
// instant, so the queue sees large same-timestamp cohorts. Batched dispatch
// should drain each cohort in one bottom-tier sweep.
void BM_EventSameTimeBurst(benchmark::State& state) {
  const int burst = static_cast<int>(state.range(0));
  constexpr int kBursts = 64;
  std::uint64_t n = 0;
  for (auto _ : state) {
    sim::EventQueue q;
    for (int b = 0; b < kBursts; ++b) {
      const auto t = static_cast<sim::Time>(b + 1) * 100 * sim::kMillisecond;
      for (int i = 0; i < burst; ++i) q.push(t, [] {});
    }
    while (!q.empty()) {
      q.pop_batch([&n](sim::EventQueue::Handler& h) {
        ++n;
        h();
      });
    }
  }
  benchmark::DoNotOptimize(n);
  state.SetItemsProcessed(state.iterations() * burst * kBursts);
}
BENCHMARK(BM_EventSameTimeBurst)->Arg(50)->Arg(1000);

// Bimodal horizon: the mix a routing node actually produces — microsecond
// PHY/MAC events interleaved with route-cache expiries seconds out. The far
// cohort must sit in the top/rung tiers without taxing near-horizon pops.
void BM_EventBimodalHorizon(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  Rng rng(9);
  for (auto _ : state) {
    sim::EventQueue q;
    sim::Time now = 0;
    for (int i = 0; i < batch; ++i) {
      now += static_cast<sim::Time>(rng.uniform_u64(20 * sim::kMicrosecond));
      q.push(now + static_cast<sim::Time>(
                       rng.uniform_u64(2 * sim::kMillisecond)),
             [] {});
      if (i % 8 == 0) {  // route-cache expiry, 5-30 s out
        q.push(now + 5 * sim::kSecond +
                   static_cast<sim::Time>(rng.uniform_u64(25 * sim::kSecond)),
               [] {});
      }
      if (q.size() > 128) now = q.pop();
    }
    while (!q.empty()) q.pop();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventBimodalHorizon)->Arg(16384);

// Cancel storm at compaction scale: arm a large timer population, cancel
// ~94% of it (ACK timeouts that never fire), then drain. Exercises the
// tombstone sweep and the 4:1 storage bound.
void BM_EventCancelStorm(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  Rng rng(13);
  for (auto _ : state) {
    sim::EventQueue q;
    std::vector<sim::EventId> ids;
    ids.reserve(static_cast<std::size_t>(batch));
    sim::Time t = 0;
    for (int i = 0; i < batch; ++i) {
      t += static_cast<sim::Time>(rng.uniform_u64(50 * sim::kMicrosecond));
      ids.push_back(q.push(t, [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (i % 16 != 0) q.cancel(ids[i]);
    }
    while (!q.empty()) q.pop();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventCancelStorm)->Arg(16384);

// The DSR forward path: clone an incoming DATA packet out of the pool,
// advance its position on the source route, release the clone back (what
// every intermediate hop does). After the first iteration this is
// allocation-free: the route lives inline (SmallVec) and the shared_ptr
// block recycles through the per-simulator pool.
void BM_PacketForward(benchmark::State& state) {
  sim::Simulator sim;
  auto pkt = util::make_pooled<routing::DsrPacket>(sim.pools());
  pkt->type = routing::PacketType::kData;
  pkt->src = 0;
  pkt->dst = 5;
  pkt->route = {0, 1, 2, 3, 4, 5};
  pkt->payload_bits = 64 * 8;
  std::int64_t bits = 0;
  for (auto _ : state) {
    auto fwd = util::make_pooled<routing::DsrPacket>(sim.pools(), *pkt);
    fwd->hop_index = pkt->hop_index + 1;
    bits += fwd->size_bits();
    benchmark::DoNotOptimize(fwd);
  }
  benchmark::DoNotOptimize(bits);
  state.SetItemsProcessed(state.iterations());
  const util::PoolStats ps = sim.pools().total_stats();
  state.counters["pool_miss"] = benchmark::Counter(
      static_cast<double>(ps.misses));
}
BENCHMARK(BM_PacketForward);

// 1000 static radios in the paper's arena, a staggered storm of broadcast
// frames: stresses the channel fan-out (two scheduled arrivals per sensed
// receiver per frame). Reports simulator events/sec.
void BM_TransmitStorm(benchmark::State& state) {
  const std::size_t kNodes = 1000;
  const std::size_t kFrames = 200;
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    mobility::MobilityManager mobility(sim, geo::Rect{1500.0, 300.0}, 550.0);
    phy::Channel channel(sim, mobility, phy::ChannelConfig{});
    Rng rng(7);
    std::vector<std::unique_ptr<phy::Phy>> phys;
    phys.reserve(kNodes);
    for (std::size_t i = 0; i < kNodes; ++i) {
      mobility.add_node(static_cast<phy::NodeId>(i),
                        std::make_unique<mobility::StaticModel>(geo::Vec2{
                            rng.uniform(0.0, 1500.0), rng.uniform(0.0, 300.0)}));
      phys.push_back(std::make_unique<phy::Phy>(
          sim, channel, static_cast<phy::NodeId>(i), nullptr));
    }
    for (std::size_t i = 0; i < kFrames; ++i) {
      const auto tx = static_cast<phy::NodeId>(rng.uniform_u64(kNodes));
      const sim::Time at =
          static_cast<sim::Time>(i) * 50 * sim::kMicrosecond;
      sim.at(at, [&channel, &sim, tx] {
        auto frame = util::make_pooled<phy::Frame>(sim.pools());
        frame->tx = tx;
        frame->rx = phy::kBroadcastId;
        frame->bits = 512;
        channel.transmit(std::move(frame), channel.duration_of(512));
      });
    }
    sim.run_until(kFrames * 50 * sim::kMicrosecond + sim::kSecond);
    events += sim.executed_events();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events"] =
      benchmark::Counter(static_cast<double>(events) /
                         static_cast<double>(state.iterations()));
}
BENCHMARK(BM_TransmitStorm)->Unit(benchmark::kMillisecond);

// Carrier-busy window churn: one radio under a dense stream of overlapping
// carrier-sense-only arrivals, each extending the busy window a little
// further. The idle edge comes from the arrival_end that empties the
// arrival set, so the radio must schedule nothing of its own:
// idle_pushes_per_arrival (scheduler pushes beyond the two driver events
// this harness schedules per arrival) stays 0, and CI fails on any other
// value; events_per_arrival is 2.0.
void BM_PhyBusyChurn(benchmark::State& state) {
  const std::size_t kArrivals = 4096;
  std::uint64_t scheduled = 0;
  std::uint64_t executed = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    // Static radios: a grid refresh period longer than the run keeps the
    // mobility timer out of the counters, which then see only the PHY.
    mobility::MobilityManager mobility(sim, geo::Rect{1500.0, 300.0}, 550.0,
                                       10 * sim::kSecond);
    phy::Channel channel(sim, mobility, phy::ChannelConfig{});
    mobility.add_node(0, std::make_unique<mobility::StaticModel>(
                             geo::Vec2{10.0, 10.0}));
    mobility.add_node(1, std::make_unique<mobility::StaticModel>(
                             geo::Vec2{400.0, 10.0}));
    phy::Phy rx(sim, channel, 0, nullptr);
    auto frame = util::make_pooled<phy::Frame>(sim.pools());
    frame->tx = 1;
    frame->rx = phy::kBroadcastId;
    frame->bits = 512;
    const std::uint64_t setup_pushes = sim.perf_counters().events_scheduled;
    for (std::size_t i = 0; i < kArrivals; ++i) {
      // 20 us spacing, 50 us airtime: every arrival lands while the window
      // from the previous two is still open (extend-while-busy).
      const sim::Time start =
          static_cast<sim::Time>(i) * 20 * sim::kMicrosecond;
      const sim::Time end = start + 50 * sim::kMicrosecond;
      sim.at(start, [&rx, frame, i, end]() mutable {
        rx.arrival_start(i + 1, std::move(frame), /*in_rx_range=*/false,
                         400.0, end);
      });
      sim.at(end, [&rx, i] { rx.arrival_end(i + 1); });
    }
    sim.run_until(static_cast<sim::Time>(kArrivals + 4) * 20 *
                  sim::kMicrosecond + sim::kSecond);
    scheduled += sim.perf_counters().events_scheduled - setup_pushes;
    executed += sim.executed_events();
  }
  const double arrivals =
      static_cast<double>(state.iterations()) * static_cast<double>(kArrivals);
  state.SetItemsProcessed(static_cast<std::int64_t>(arrivals));
  state.counters["idle_pushes_per_arrival"] = benchmark::Counter(
      (static_cast<double>(scheduled) - 2.0 * arrivals) / arrivals);
  state.counters["events_per_arrival"] =
      benchmark::Counter(static_cast<double>(executed) / arrivals);
}
BENCHMARK(BM_PhyBusyChurn);

void BM_GridQuery(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  geo::GridIndex grid(geo::Rect{1500.0, 300.0}, 550.0);
  Rng rng(3);
  for (geo::ItemId i = 0; i < n; ++i) {
    grid.insert(i, {rng.uniform(0.0, 1500.0), rng.uniform(0.0, 300.0)});
  }
  std::vector<geo::ItemId> out;
  for (auto _ : state) {
    out.clear();
    grid.query({rng.uniform(0.0, 1500.0), rng.uniform(0.0, 300.0)}, 550.0,
               geo::GridIndex::npos, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_GridQuery)->Arg(100)->Arg(1000);

void BM_RouteCacheAddFind(benchmark::State& state) {
  Rng rng(4);
  for (auto _ : state) {
    routing::RouteCache cache(0, routing::RouteCacheConfig{});
    for (int i = 0; i < 64; ++i) {
      std::vector<routing::NodeId> path{0};
      const int len = 2 + static_cast<int>(rng.uniform_u64(6));
      for (int h = 0; h < len; ++h) {
        path.push_back(static_cast<routing::NodeId>(1 + rng.uniform_u64(99)));
      }
      cache.add(path, i);
    }
    for (routing::NodeId d = 1; d < 100; ++d) {
      benchmark::DoNotOptimize(cache.find(d, 100));
    }
  }
}
BENCHMARK(BM_RouteCacheAddFind);

void BM_FullScenarioSecond(benchmark::State& state) {
  // End-to-end cost of simulating one second of the paper's scenario.
  sim::PerfCounters last{};
  for (auto _ : state) {
    scenario::ScenarioConfig cfg;
    cfg.num_nodes = 50;
    cfg.num_flows = 10;
    cfg.duration = 1 * sim::kSecond;
    cfg.scheme = scenario::Scheme::kRcast;
    scenario::RunResult r = scenario::run_scenario(cfg);
    last = r.perf;
    benchmark::DoNotOptimize(r);
  }
  // Allocation discipline of the full stack, from the last run: heap
  // fallbacks must be 0, pool misses bounded by warmup, and (when the
  // RCAST_ALLOC_COUNT hook is compiled in) bytes/event near zero.
  state.counters["sim_events_per_sec"] = benchmark::Counter(last.events_per_sec);
  state.counters["heap_fallbacks"] =
      benchmark::Counter(static_cast<double>(last.handler_heap_fallbacks));
  state.counters["pool_misses"] =
      benchmark::Counter(static_cast<double>(last.pool_misses));
  state.counters["bytes_per_event"] = benchmark::Counter(
      last.events_executed > 0
          ? static_cast<double>(last.bytes_allocated) /
                static_cast<double>(last.events_executed)
          : 0.0);
}
BENCHMARK(BM_FullScenarioSecond)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return rcast::bench::run_and_tee(argc, argv, "RCAST_BENCH_JSON",
                                   "BENCH_hotpath.json");
}
