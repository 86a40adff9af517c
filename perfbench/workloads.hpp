// The repository benchmark: three workloads, their configs, the metric
// catalog, and the runs that fill it (see perfbench/README.md).
//
// Every number comes from outside the program: the benchmark builds configs,
// times calls into the public surface (scenario::Network,
// campaign::run_campaign, the result-store export) with steady_clock, and
// counts telemetry through ordinary bus subscribers. End-to-end metrics come
// from untraced runs; per-layer metrics from a separate traced run of the
// same seed, whose wall-time gap to the untraced run is trace.overhead_pct.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/manifest.hpp"
#include "scenario/scenario.hpp"
#include "stats/telemetry.hpp"

namespace rcast::perfbench {

/// Area per node in every workload: the paper's 1500 x 300 m for 100 nodes.
inline constexpr double kAreaPerNodeM2 = 4500.0;
/// Campaign worker threads and sharded-run shard count; both stay within the
/// 4 hardware threads of the reference box.
inline constexpr std::size_t kWorkers = 4;
inline constexpr std::size_t kShards = 4;

/// A 5:1 world (the paper's strip shape) holding `nodes` at kAreaPerNodeM2.
geo::Rect world_at_density(std::size_t nodes);

/// Scenario seed `i` of an invocation with workload seed `seed`. One
/// scenario's topology and flows move a run's cost by about ±20 %, so every
/// invocation averages over several independent scenarios.
inline constexpr std::uint64_t kSeedStride = 1000;
std::uint64_t scenario_seed(std::uint64_t seed, std::size_t i);

/// Scenarios per invocation: `seconds` over the nominal wall of one
/// scenario's untraced runs on the 4-core reference box, at least 1. It
/// depends only on the arguments, so a workload seed always names the same
/// inputs.
std::size_t scenarios_for(double seconds, double nominal_s);
inline constexpr double kPaperCellScenarioS = 3.0;     // 1 run of ~2.5 s
inline constexpr double kScaleShardedScenarioS = 2.5;  // 1 run of ~2 s
inline constexpr double kCampaignGridS = 7.5;          // one 72-job grid

/// The paper's costliest cell (RCAST/DSR, 100 nodes in 1500 x 300 m, 20 CBR
/// flows x 2.0 pkt/s, 64 B, random waypoint) time-scaled by 1/12.5: 90 s
/// with a 48 s pause, where the paper runs 1125 s with a 600 s pause.
scenario::ScenarioConfig paper_cell_config(std::uint64_t seed);
/// 250 static RCAST/DSR nodes at paper density (2372 x 474 m), 20 flows x
/// 1 pkt/s, 15 s, on `shards` strips.
scenario::ScenarioConfig scale_sharded_config(std::uint64_t seed,
                                              std::size_t shards);
/// The paper's grid at reduced scale: RCAST/ODPM/802.11 x 3 rates x
/// {mobile, static} x 4 seeds, 60 nodes, 150 s, 12 flows (72 jobs). The
/// slowest jobs expand first, so the worker pool drains evenly.
campaign::Manifest campaign_grid_manifest(std::uint64_t seed);

// --- metric catalog ----------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};
/// Reported by every untraced run (--trace 0); each is nonzero.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Reported by every traced run (--trace 1); 0 where a workload does not
/// exercise the layer (see README.md).
const std::vector<MetricSpec>& per_layer_metrics();

/// The result of one benchmark invocation: every catalog metric of its mode,
/// the runs attempted and failed, and why each failure happened.
class Report {
 public:
  explicit Report(bool trace);

  /// Sets a catalog metric; throws std::out_of_range for any other name.
  void set(std::string_view name, double value);

  /// Records one run: attempted, and failed when `failures` is nonempty.
  void add_run(const std::vector<std::string>& failures);
  /// Records a failed cross-run check (fingerprint or CSV identity).
  void add_failure(std::string why);

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }
  bool correct() const { return failed_ == 0 && failures_.empty(); }

  /// One JSON line: correct, attempted, failed, metrics {name: {value, unit}}.
  std::string to_json() const;

 private:
  struct Entry {
    MetricSpec spec;
    double value = 0.0;
  };
  std::vector<Entry> metrics_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> failures_;
};

// --- runs ----------------------------------------------------------------------

/// Counts every event of the four telemetry layers; subscribe it before the
/// run. Only single-queue runs deliver to external subscribers.
struct LayerProbe final : stats::PhyEvents,
                          stats::MacEvents,
                          stats::PowerEvents,
                          routing::Observer {
  void attach(stats::TelemetryBus& bus);

  void on_phy_rx_ok(stats::NodeId, stats::NodeId, sim::Time) override {
    ++phy_rx_ok;
  }
  void on_phy_rx_lost(stats::NodeId, stats::PhyLoss loss, sim::Time) override {
    ++phy_rx_lost[static_cast<int>(loss)];
  }
  void on_atim_failed(stats::NodeId, stats::NodeId, sim::Time) override {
    ++atim_failed;
  }
  void on_data_tx_ok(stats::NodeId, stats::NodeId, sim::Time) override {
    ++data_tx_ok;
  }
  void on_queue_drop(stats::NodeId, sim::Time) override { ++queue_drops; }
  void on_am_window(stats::NodeId, sim::Time, sim::Time) override {
    ++am_windows;
  }
  void on_data_forwarded(stats::NodeId, sim::Time) override { ++forwarded; }

  std::uint64_t phy_rx_ok = 0;
  std::uint64_t phy_rx_lost[4] = {};  // indexed by stats::PhyLoss
  std::uint64_t atim_failed = 0;
  std::uint64_t data_tx_ok = 0;
  std::uint64_t queue_drops = 0;
  std::uint64_t am_windows = 0;
  std::uint64_t forwarded = 0;

  LayerProbe& operator+=(const LayerProbe& o);
};

/// An untraced run: Network construction (setup), then Network::run().
struct TimedRun {
  scenario::RunResult result;
  phy::ChannelStats channel;
  double setup_s = 0.0;
  double run_wall_s = 0.0;    // Network::run() call to return
  double cpu_s = 0.0;         // process CPU time during run(), all threads
  std::uint64_t windows = 0;  // sharded executor windows (0 single-queue)
};
/// Builds `setup_reps` networks (timing each; setup_s is their median) and
/// runs the last. A non-null `probe` is subscribed before the run.
TimedRun timed_run(const scenario::ScenarioConfig& cfg, std::size_t setup_reps,
                   LayerProbe* probe = nullptr);

/// A traced single-queue run: run_until sliced at every ATIM-window start
/// and end, with a LayerProbe on all four layers, then Network::run() to
/// finish and summarize.
struct TracedRun {
  scenario::RunResult result;
  LayerProbe probe;
  double wall_s = 0.0;            // first slice to run() return
  double atim_window_wall_s = 0.0;
  double data_phase_wall_s = 0.0;
  std::vector<double> wall_per_sim_s;  // one entry per simulated second
};
TracedRun traced_run(const scenario::ScenarioConfig& cfg);

// --- workloads -----------------------------------------------------------------

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measuring budget of one invocation
  bool trace = false;
  std::string workdir;    // scratch space for campaign files
};

struct Workload {
  const char* name;
  Report (*run)(const Options&);
};
const std::vector<Workload>& workloads();

}  // namespace rcast::perfbench
