// End-to-end scenario assembly: builds the full stack (mobility → channel →
// phy → mac → power policy → DSR → CBR traffic → metrics) for every node,
// runs the simulation, and summarizes the metrics the paper's figures use.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/rcast.hpp"
#include "energy/fleet_accountant.hpp"
#include "geo/vec2.hpp"
#include "mac/mac.hpp"
#include "mobility/mobility_manager.hpp"
#include "phy/channel.hpp"
#include "power/odpm.hpp"
#include "routing/aodv.hpp"
#include "routing/dsr.hpp"
#include "scenario/scheme.hpp"
#include "sim/simulator.hpp"
#include "stats/metrics.hpp"
#include "stats/telemetry.hpp"
#include "traffic/cbr.hpp"

namespace rcast::scenario {

struct ScenarioConfig {
  // Topology (paper §4.1 defaults).
  std::size_t num_nodes = 100;
  geo::Rect world{1500.0, 300.0};
  double tx_range_m = 250.0;
  double cs_range_m = 550.0;
  std::int64_t bitrate_bps = 2'000'000;

  // Mobility: random waypoint, v_max 20 m/s. pause >= duration => static.
  double max_speed_mps = 20.0;
  sim::Time pause = 600 * sim::kSecond;

  // Traffic: 20 CBR flows, 64-byte payloads.
  std::size_t num_flows = 20;
  double rate_pps = 1.0;
  std::int64_t payload_bits = 64 * 8;

  sim::Time duration = 1125 * sim::kSecond;
  std::uint64_t seed = 1;

  Scheme scheme = Scheme::kRcast;

  /// Network-layer protocol. DSR is the paper's substrate; AODV is the
  /// contrast protocol (hellos, no overhearing) discussed in §1.
  RoutingProtocol routing = RoutingProtocol::kDsr;

  // Subsystem knobs (oh_map is overridden per scheme unless
  // override_oh_map is set).
  mac::MacConfig mac;
  routing::DsrConfig dsr;
  routing::AodvConfig aodv;
  bool override_oh_map = false;
  core::RcastConfig rcast;
  power::OdpmConfig odpm;
  energy::PowerTable power = energy::PowerTable::wavelan2();
  double battery_joules = 0.0;  // 0 = infinite (paper)

  /// Use the true topology neighbor count for P_R = 1/N (paper semantics);
  /// false switches to the passive neighbor table (ablation).
  bool rcast_oracle_neighbors = true;

  /// Per-node beacon clock offset drawn uniformly from [0, sync_jitter].
  /// 0 models the paper's perfect-synchronization assumption;
  /// bench_ablation_sync sweeps it.
  sim::Time sync_jitter = 0;

  /// Wall-clock budget for one run; 0 = unlimited. When exceeded the run
  /// throws sim::WallDeadlineExceeded — campaign jobs record this as a
  /// per-job timeout instead of stalling the whole sweep.
  double max_wall_seconds = 0.0;

  /// Spatial shards for one run (DESIGN.md §15): 1 = the exact single-queue
  /// loop (bit-identical to every prior release), K > 1 = K worker threads
  /// advancing K vertical strips of the world under conservative windows,
  /// 0 = one shard per hardware thread. Fixed K is deterministic run-for-run
  /// but K > 1 is not event-for-event identical to K = 1 (cross-shard
  /// arrivals defer to window barriers).
  std::uint64_t sim_shards = 1;

  /// Conservative window width for sharded runs, in ns; 0 derives it from
  /// cs_range_m (propagation delay across the carrier-sense disc, the
  /// tightest physically-motivated lookahead). Larger values mean fewer
  /// barriers but coarser cross-shard timing.
  std::uint64_t sim_horizon_ns = 0;

  /// Campaign journal durability: fsync the journal every N committed jobs
  /// (1 = every commit, the strictest setting). Larger values batch fsyncs;
  /// a crash can then lose up to N-1 journal lines, which only re-runs those
  /// jobs on resume (result records are still fsynced before each journal
  /// line, and duplicates are absorbed by last-wins dedupe). Cannot affect
  /// simulated results, so it is excluded from config_digest.
  std::uint64_t journal_sync_every = 1;
};

/// Flow count when none is given: one CBR flow per five nodes, at least
/// one. Campaign manifests and rcast_sim both default to it.
inline std::size_t default_flows(std::size_t nodes) {
  return std::max<std::size_t>(1, nodes / 5);
}

/// Flat result record; everything the benches print.
struct RunResult {
  Scheme scheme = Scheme::kRcast;
  double duration_s = 0.0;

  // Energy (Figs. 5–7).
  double total_energy_j = 0.0;
  double energy_variance = 0.0;
  double energy_mean_j = 0.0;
  double energy_min_j = 0.0;
  double energy_max_j = 0.0;
  std::vector<double> per_node_energy_j;  // node-id order

  // Delivery (Figs. 7–8).
  std::uint64_t originated = 0;
  std::uint64_t delivered = 0;
  double pdr_percent = 0.0;
  double avg_delay_s = 0.0;
  double delay_p50_s = 0.0;
  double delay_p90_s = 0.0;
  double avg_route_wait_s = 0.0;  // source-side wait for a usable route
  double avg_transit_s = 0.0;     // in-flight time after first transmission
  double energy_per_bit_j = 0.0;  // total energy / delivered payload bits
  std::uint64_t control_tx = 0;
  double normalized_overhead = 0.0;

  // Role numbers (Fig. 9).
  std::vector<std::uint64_t> role_numbers;

  // MAC aggregates (diagnostics / Table 1).
  std::uint64_t atim_tx = 0;
  std::uint64_t data_tx_attempts = 0;
  std::uint64_t overhear_commits = 0;
  std::uint64_t overhear_declines = 0;
  std::uint64_t mac_sleeps = 0;
  std::uint64_t rreq_tx = 0;
  std::uint64_t rrep_tx = 0;
  std::uint64_t rerr_tx = 0;
  std::uint64_t hello_tx = 0;  // AODV only

  // Drop breakdown (indexed by routing::DropReason).
  std::array<std::uint64_t, static_cast<int>(routing::DropReason::kCount)>
      drops{};
  std::uint64_t data_tx_failed = 0;   // MAC-level link failures
  std::uint64_t data_salvaged = 0;

  // Lifetime (finite-battery runs).
  std::size_t dead_nodes = 0;
  double first_death_s = 0.0;      // 0 = none died
  double partition_time_s = 0.0;   // 0 = alive nodes never partitioned

  std::uint64_t events_executed = 0;

  /// Hot-path counters for the run (event throughput, pool behavior,
  /// wall-clock). See DESIGN.md "Performance" and bench/BENCH_hotpath.json.
  sim::PerfCounters perf;
};

/// One fully-wired simulated node.
class Node {
 public:
  /// `bus` (may be null) is attached to every emitting layer: phy, mac, and
  /// the power policy when it emits (ODPM).
  Node(sim::Simulator& simulator, phy::Channel& channel,
       mobility::MobilityManager& mobility, const ScenarioConfig& cfg,
       phy::NodeId id, Rng rng, stats::TelemetryBus* bus);

  phy::NodeId id() const { return phy_->id(); }
  energy::EnergyMeter& meter() { return *meter_; }
  mac::Mac& mac() { return *mac_; }
  mac::PowerPolicy& policy() { return *policy_; }

  /// The node's routing agent (whichever protocol is configured).
  routing::RoutingAgent& agent();
  /// Protocol-specific accessors; contract-checked against the config.
  routing::Dsr& dsr();
  routing::Aodv& aodv();

 private:
  std::unique_ptr<energy::EnergyMeter> meter_;
  std::unique_ptr<phy::Phy> phy_;
  std::unique_ptr<mac::Mac> mac_;
  std::unique_ptr<mac::PowerPolicy> policy_;
  std::unique_ptr<routing::RoutingAgent> agent_;  // DSR or AODV
};

/// A complete simulated network. Build, run(), then read the result.
class Network {
 public:
  explicit Network(const ScenarioConfig& cfg);

  /// Runs to cfg.duration and returns the summary.
  RunResult run();

  sim::Simulator& simulator() { return sim_; }
  Node& node(std::size_t i) { return *nodes_[i]; }
  std::size_t node_count() const { return nodes_.size(); }
  stats::MetricsCollector& metrics() { return metrics_; }
  phy::Channel& channel() { return channel_; }

  /// The network's telemetry bus. Subscribe any number of consumers (e.g.
  /// `telemetry().subscribe_routing(&tracer)`); subscribers must outlive the
  /// network or unsubscribe first. The built-in MetricsCollector and
  /// LayerCounters are ordinary subscribers registered at construction.
  /// Sharded runs route node telemetry through per-shard buses instead
  /// (worker threads must not share a collector), so external subscribers
  /// on this bus see events only in single-queue mode.
  stats::TelemetryBus& telemetry() { return bus_; }

  /// Home shard of each node (empty in single-queue mode).
  const std::vector<std::uint32_t>& node_shards() const {
    return node_shard_;
  }

 private:
  /// Per-shard telemetry sinks for sharded runs; merged into the
  /// network-level collectors in shard order at summarize.
  struct ShardStats {
    explicit ShardStats(std::size_t n_nodes) : metrics(n_nodes) {}
    stats::MetricsCollector metrics;
    stats::LayerCounters counters;
    stats::TelemetryBus bus;
  };

  RunResult summarize();
  /// Fields derived from metrics/fleet/simulator — common to both summary
  /// paths.
  RunResult base_summary();
  /// Finite-battery probe: records the first instant the alive nodes no
  /// longer form one connected component at tx_range.
  void lifetime_check();

  ScenarioConfig cfg_;
  sim::Simulator sim_;
  mobility::MobilityManager mobility_;
  phy::Channel channel_;
  stats::MetricsCollector metrics_;
  stats::LayerCounters counters_;
  stats::TelemetryBus bus_;  // must outlive (so precede) nodes_
  std::vector<std::uint32_t> node_shard_;  // sharded runs only
  std::vector<std::unique_ptr<ShardStats>> shard_stats_;  // precede nodes_
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<traffic::CbrSource>> sources_;
  energy::FleetAccountant fleet_;
  bool shard_stats_merged_ = false;
  // Finite-battery lifetime monitor (single-queue runs only).
  std::unique_ptr<sim::PeriodicTimer> lifetime_timer_;
  double partition_time_s_ = 0.0;
};

/// Convenience: build + run in one call.
RunResult run_scenario(const ScenarioConfig& cfg);

}  // namespace rcast::scenario
