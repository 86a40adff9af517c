#include "scenario/scenario.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "mobility/random_waypoint.hpp"
#include "power/always_on.hpp"
#include "power/psm_policy.hpp"
#include "sim/sharded_executor.hpp"
#include "util/alloc_tracker.hpp"
#include "util/assert.hpp"

namespace rcast::scenario {

namespace {

// Period of the finite-battery lifetime monitor (first partition instant).
constexpr sim::Time kLifetimeCheckInterval = 1 * sim::kSecond;

std::size_t effective_shards(const ScenarioConfig& cfg) {
  std::uint64_t k = cfg.sim_shards;
  if (k == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    k = hw > 0 ? hw : 1;
  }
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(k, sim::ShardedExecutor::kMaxShards));
}

sim::Time effective_horizon(const ScenarioConfig& cfg) {
  if (cfg.sim_horizon_ns != 0) {
    return static_cast<sim::Time>(cfg.sim_horizon_ns);
  }
  // Propagation delay across the carrier-sense disc (distance / c in ns):
  // within one such window a transmission cannot have reached a radio
  // farther than cs_range, so deferring cross-shard arrivals to the window
  // end stays within the physical propagation spread.
  return std::max<sim::Time>(1,
      static_cast<sim::Time>(cfg.cs_range_m / 0.299792458));
}

}  // namespace

// --------------------------------------------------------------------------
// Node
// --------------------------------------------------------------------------

Node::Node(sim::Simulator& simulator, phy::Channel& channel,
           mobility::MobilityManager& mobility, const ScenarioConfig& cfg,
           phy::NodeId id, Rng rng, stats::TelemetryBus* bus) {
  (void)mobility;
  meter_ = std::make_unique<energy::EnergyMeter>(cfg.power, simulator.now(),
                                                 cfg.battery_joules);
  phy_ = std::make_unique<phy::Phy>(simulator, channel, id, meter_.get());
  phy_->set_telemetry(bus);

  mac::MacConfig mac_cfg = cfg.mac;
  mac_cfg.psm_enabled = uses_psm(cfg.scheme);
  Rng mac_rng = rng.fork(0xAC);
  if (cfg.sync_jitter > 0) {
    mac_cfg.beacon_offset = static_cast<sim::Time>(
        mac_rng.uniform(0.0, static_cast<double>(cfg.sync_jitter)));
  }
  mac_ = std::make_unique<mac::Mac>(simulator, *phy_, mac_cfg, mac_rng);
  mac_->set_telemetry(bus);

  // The policy and the routing agent fork `rng` in this order, each with its
  // own salt, so schemes that draw do not perturb each other's streams.
  switch (cfg.scheme) {
    case Scheme::k80211:
      policy_ = std::make_unique<power::AlwaysOnPolicy>();
      break;
    case Scheme::kPsmNone:
    case Scheme::kPsmAll:
      policy_ = std::make_unique<power::PsmPolicy>();
      break;
    case Scheme::kOdpm: {
      auto odpm = std::make_unique<power::OdpmPolicy>(cfg.odpm);
      odpm->set_telemetry(bus, id);
      policy_ = std::move(odpm);
      break;
    }
    case Scheme::kRcast:
    case Scheme::kRcastBcast: {
      core::RcastConfig rc = cfg.rcast;
      if (cfg.rcast_oracle_neighbors && !rc.neighbor_count_fn) {
        rc.neighbor_count_fn = [&channel, id] {
          return channel.neighbor_count(id);
        };
      }
      policy_ = std::make_unique<core::RcastPolicy>(rc, rng.fork(0x5C),
                                                    meter_.get());
      break;
    }
  }
  mac_->set_power_policy(policy_.get());

  switch (cfg.routing) {
    case RoutingProtocol::kDsr: {
      routing::DsrConfig dsr_cfg = cfg.dsr;
      if (!cfg.override_oh_map) dsr_cfg.oh_map = overhearing_map(cfg.scheme);
      agent_ = std::make_unique<routing::Dsr>(simulator, *mac_, dsr_cfg,
                                              rng.fork(0xD5), policy_.get());
      break;
    }
    case RoutingProtocol::kAodv:
      agent_ = std::make_unique<routing::Aodv>(simulator, *mac_, cfg.aodv,
                                               rng.fork(0xA0), policy_.get());
      break;
  }
  mac_->start();
}

routing::RoutingAgent& Node::agent() { return *agent_; }

routing::Dsr& Node::dsr() {
  auto* d = dynamic_cast<routing::Dsr*>(agent_.get());
  RCAST_REQUIRE_MSG(d != nullptr, "node runs AODV, not DSR");
  return *d;
}

routing::Aodv& Node::aodv() {
  auto* a = dynamic_cast<routing::Aodv*>(agent_.get());
  RCAST_REQUIRE_MSG(a != nullptr, "node runs DSR, not AODV");
  return *a;
}

// --------------------------------------------------------------------------
// Network
// --------------------------------------------------------------------------

Network::Network(const ScenarioConfig& cfg)
    : cfg_(cfg),
      sim_(effective_shards(cfg), effective_horizon(cfg)),
      mobility_(sim_, cfg.world, std::max(cfg.cs_range_m, 1.0)),
      channel_(sim_, mobility_,
               phy::ChannelConfig{cfg.tx_range_m, cfg.cs_range_m,
                                  cfg.bitrate_bps}),
      metrics_(cfg.num_nodes) {
  RCAST_REQUIRE(cfg.num_nodes >= 2);
  // Built-in consumers subscribe first; later subscribers (tracers, custom
  // analyzers) dispatch after them in subscription order.
  bus_.subscribe_routing(&metrics_);
  bus_.subscribe_routing(&counters_);
  bus_.subscribe_mac(&counters_);
  Rng root(cfg.seed);

  // Random-waypoint mobility. The fork order (one child stream per node
  // index) is part of the determinism contract.
  mobility::RandomWaypointConfig rwp;
  rwp.world = cfg.world;
  rwp.max_speed_mps = std::max(cfg.max_speed_mps, 0.2);
  rwp.min_speed_mps = std::min(0.1, rwp.max_speed_mps / 2.0);
  rwp.pause = cfg.pause;
  Rng mob_rng = root.fork(0x30B);
  for (std::size_t i = 0; i < cfg.num_nodes; ++i) {
    mobility_.add_node(static_cast<phy::NodeId>(i),
                       std::make_unique<mobility::RandomWaypointModel>(
                           rwp, mob_rng.fork(i)));
  }

  // Sharded runs: home-pin every node to one of K vertical strips of the
  // world from its initial position (no dynamic handoff — pending events
  // capture module pointers, so ownership must be stable for the run) and
  // give each shard its own telemetry sinks.
  if (sim_.sharded()) {
    const std::size_t shards = sim_.shard_count();
    const double strip =
        cfg.world.width / static_cast<double>(shards);
    node_shard_.resize(cfg.num_nodes);
    for (std::size_t i = 0; i < cfg.num_nodes; ++i) {
      const geo::Vec2 p = mobility_.position(static_cast<phy::NodeId>(i));
      const auto s = static_cast<std::uint32_t>(
          std::min<double>(std::floor(p.x / strip),
                           static_cast<double>(shards - 1)));
      node_shard_[i] = s;
    }
    channel_.set_shard_map(node_shard_);
    for (std::size_t k = 0; k < shards; ++k) {
      shard_stats_.push_back(std::make_unique<ShardStats>(cfg.num_nodes));
      shard_stats_.back()->bus.subscribe_routing(
          &shard_stats_.back()->metrics);
      shard_stats_.back()->bus.subscribe_routing(
          &shard_stats_.back()->counters);
      shard_stats_.back()->bus.subscribe_mac(&shard_stats_.back()->counters);
    }
  }

  // Nodes. In sharded mode each node's construction runs under its home
  // shard's context so build-time events (MAC start, beacon schedule) land
  // in the home shard's queue, and its telemetry binds to the home shard's
  // bus.
  Rng node_rng = root.fork(0x40DE);
  for (std::size_t i = 0; i < cfg.num_nodes; ++i) {
    stats::TelemetryBus* bus = &bus_;
    if (sim_.sharded()) {
      sim_.set_shard_context(node_shard_[i]);
      bus = &shard_stats_[node_shard_[i]]->bus;
    }
    nodes_.push_back(std::make_unique<Node>(sim_, channel_, mobility_, cfg,
                                            static_cast<phy::NodeId>(i),
                                            node_rng.fork(i), bus));
    nodes_.back()->agent().set_observer(bus);
    fleet_.add(&nodes_.back()->meter());
  }

  // CBR traffic. Each source is built under its node's home shard context
  // so its events land in that shard's queue.
  Rng traffic_rng = root.fork(0x7AF1C);
  const auto flows =
      traffic::make_flow_matrix(cfg.num_nodes, cfg.num_flows, cfg.rate_pps,
                                cfg.payload_bits, traffic_rng);
  sources_.reserve(flows.size());
  for (const auto& f : flows) {
    if (sim_.sharded()) sim_.set_shard_context(node_shard_[f.src]);
    sources_.push_back(std::make_unique<traffic::CbrSource>(
        sim_, nodes_[f.src]->agent(), f, traffic_rng.fork(f.flow_id)));
  }
  if (sim_.sharded()) sim_.clear_shard_context();

  // Finite-battery lifetime probe. Single-queue runs only: the periodic
  // event has no home shard, and lifetime studies are not sharded-scale.
  if (cfg.battery_joules > 0.0 && !sim_.sharded()) {
    lifetime_timer_ = std::make_unique<sim::PeriodicTimer>(
        sim_, [this] { lifetime_check(); });
    lifetime_timer_->start(kLifetimeCheckInterval, kLifetimeCheckInterval);
  }
}

void Network::lifetime_check() {
  if (partition_time_s_ > 0.0) {
    lifetime_timer_->stop();  // first partition instant already recorded
    return;
  }
  std::vector<std::size_t> alive;
  alive.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i]->meter().depleted()) alive.push_back(i);
  }
  if (alive.size() < 2) return;  // nothing left to partition
  std::vector<geo::Vec2> pos(alive.size());
  for (std::size_t k = 0; k < alive.size(); ++k) {
    pos[k] = mobility_.position(static_cast<phy::NodeId>(alive[k]));
  }
  // Connectivity of the alive nodes at tx_range (BFS over the disc graph).
  const double r2 = cfg_.tx_range_m * cfg_.tx_range_m;
  std::vector<char> seen(alive.size(), 0);
  std::vector<std::size_t> stack{0};
  seen[0] = 1;
  std::size_t reached = 1;
  while (!stack.empty()) {
    const std::size_t u = stack.back();
    stack.pop_back();
    for (std::size_t v = 0; v < alive.size(); ++v) {
      if (seen[v] || geo::distance_sq(pos[u], pos[v]) > r2) continue;
      seen[v] = 1;
      ++reached;
      stack.push_back(v);
    }
  }
  if (reached < alive.size()) {
    partition_time_s_ = sim::to_seconds(sim_.now());
  }
}

RunResult Network::run() {
  // Measure the event loop only (not build or summarize). The allocation
  // counter is thread-local, so concurrent runs on worker threads (see
  // campaign::run_campaign) each see their own bytes.
  util::AllocTracker::reset();
  util::AllocTracker::enable();
  const auto wall_start = std::chrono::steady_clock::now();
  if (cfg_.max_wall_seconds > 0.0) {
    sim_.set_wall_deadline(wall_start +
                           std::chrono::duration_cast<
                               std::chrono::steady_clock::duration>(
                               std::chrono::duration<double>(
                                   cfg_.max_wall_seconds)));
  }
  sim_.run_until(cfg_.duration);
  const auto wall_end = std::chrono::steady_clock::now();
  util::AllocTracker::disable();

  RunResult r = summarize();
  r.perf = sim_.perf_counters();
  r.perf.bytes_allocated = util::AllocTracker::bytes();
  if (sim_.sharded()) {
    // The main thread only sees barrier-side allocation in sharded runs;
    // the executor tracks each worker's thread-local total.
    r.perf.bytes_allocated += sim_.executor()->worker_alloc_bytes();
  }
  const mobility::MobilityManager::GeoPerf& geo = mobility_.perf();
  r.perf.spatial_queries = geo.spatial_queries;
  r.perf.spatial_candidates_scanned = geo.spatial_candidates_scanned;
  r.perf.segment_refreshes = geo.segment_refreshes;
  const phy::ChannelStats& ch = channel_.stats();
  r.perf.cs_cells_visited = ch.cs_cells_visited;
  r.perf.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  r.perf.events_per_sec =
      r.perf.wall_seconds > 0.0
          ? static_cast<double>(r.perf.events_executed) / r.perf.wall_seconds
          : 0.0;
  return r;
}

RunResult Network::base_summary() {
  RunResult r;
  r.scheme = cfg_.scheme;
  r.duration_s = sim::to_seconds(cfg_.duration);

  const sim::Time now = sim_.now();
  r.per_node_energy_j = fleet_.per_node_joules(now);
  const RunningStats es = fleet_.stats(now);
  r.total_energy_j = es.sum();
  r.energy_variance = es.variance();
  r.energy_mean_j = es.mean();
  r.energy_min_j = es.min();
  r.energy_max_j = es.max();

  r.originated = metrics_.originated();
  r.delivered = metrics_.delivered();
  r.pdr_percent = metrics_.pdr_percent();
  r.avg_delay_s = metrics_.avg_delay_s();
  r.delay_p50_s = metrics_.delay_quantile(0.5);
  r.delay_p90_s = metrics_.delay_quantile(0.9);
  r.avg_route_wait_s = metrics_.route_wait_stats().mean();
  r.avg_transit_s = metrics_.transit_stats().mean();
  const auto bits = metrics_.delivered_payload_bits();
  r.energy_per_bit_j = bits > 0 ? r.total_energy_j / static_cast<double>(bits)
                                : 0.0;
  r.control_tx = metrics_.control_transmissions();
  r.normalized_overhead = metrics_.normalized_overhead();
  r.role_numbers = metrics_.role_numbers();

  for (int d = 0; d < static_cast<int>(routing::DropReason::kCount); ++d) {
    r.drops[static_cast<std::size_t>(d)] =
        metrics_.drops(static_cast<routing::DropReason>(d));
  }

  r.dead_nodes = fleet_.dead_count();
  if (auto fd = fleet_.first_death()) r.first_death_s = sim::to_seconds(*fd);
  r.partition_time_s = partition_time_s_;
  r.events_executed = sim_.executed_events();
  return r;
}

RunResult Network::summarize() {
  // Sharded runs: fold the per-shard sinks into the network-level
  // collectors, in shard order (fixed merge order keeps the floating-point
  // aggregates bit-reproducible for a fixed shard count).
  if (!shard_stats_merged_) {
    shard_stats_merged_ = true;
    for (const auto& ss : shard_stats_) {
      metrics_.merge(ss->metrics);
      counters_.merge(ss->counters);
    }
  }
  RunResult r = base_summary();
  // Per-layer aggregates come from the telemetry bus: every counter below is
  // a LayerCounters event count, so summarize() no longer reaches into
  // per-node protocol internals.
  r.atim_tx = counters_.atim_tx();
  r.data_tx_attempts = counters_.data_tx_attempts();
  r.overhear_commits = counters_.overhear_commits();
  r.overhear_declines = counters_.overhear_declines();
  r.mac_sleeps = counters_.sleeps();
  r.data_tx_failed = counters_.data_tx_failed();
  r.data_salvaged = counters_.data_salvaged();
  r.rreq_tx = counters_.control_tx(routing::PacketType::kRreq);
  r.rrep_tx = counters_.control_tx(routing::PacketType::kRrep);
  r.rerr_tx = counters_.control_tx(routing::PacketType::kRerr);
  r.hello_tx = counters_.control_tx(routing::PacketType::kHello);
  return r;
}

RunResult run_scenario(const ScenarioConfig& cfg) {
  Network net(cfg);
  return net.run();
}

}  // namespace rcast::scenario
