// Tests of the benchmark itself: the traced run only observes, every output
// check fires on a doctored result, and the workload configs and metric
// catalog stay within the benchmark's guards.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <thread>

#include "campaign/json.hpp"
#include "checks.hpp"
#include "workloads.hpp"

namespace rcast::perfbench {
namespace {

using scenario::RunResult;
using scenario::ScenarioConfig;

/// A short paper cell: PSM, ATIM windows, Rcast overhearing, mobility.
ScenarioConfig short_paper_cell() {
  ScenarioConfig cfg = paper_cell_config(scenario_seed(7, 0));
  cfg.duration = 20 * sim::kSecond;
  cfg.pause = 5 * sim::kSecond;
  return cfg;
}

/// A small single-queue config of the scale_sharded shape.
ScenarioConfig small_k1() {
  ScenarioConfig cfg = scale_sharded_config(scenario_seed(7, 0), 1);
  cfg.num_nodes = 100;
  cfg.world = world_at_density(cfg.num_nodes);
  cfg.duration = 8 * sim::kSecond;
  cfg.pause = cfg.duration;
  return cfg;
}

void expect_traced_equals_untraced(const ScenarioConfig& cfg) {
  const TimedRun u = timed_run(cfg, 1);
  const TracedRun t = traced_run(cfg);
  EXPECT_EQ(u.result.events_executed, t.result.events_executed);
  EXPECT_EQ(u.result.total_energy_j, t.result.total_energy_j);
  EXPECT_EQ(u.result.per_node_energy_j, t.result.per_node_energy_j);
  EXPECT_EQ(u.result.delivered, t.result.delivered);
  EXPECT_EQ(fingerprint(u.result), fingerprint(t.result));
  EXPECT_EQ(check_same_fingerprint(u.result, t.result, "traced"), "");
  // The probe saw the run, and the slices cover the whole run.
  EXPECT_GT(t.probe.phy_rx_ok, 0u);
  EXPECT_EQ(t.wall_per_sim_s.size(),
            static_cast<std::size_t>(cfg.duration / sim::kSecond));
  EXPECT_GT(t.atim_window_wall_s + t.data_phase_wall_s, 0.0);
}

TEST(PerfbenchObserverOnly, TracedPaperCellReproducesUntracedRun) {
  expect_traced_equals_untraced(short_paper_cell());
}

TEST(PerfbenchObserverOnly, TracedSmallK1ReproducesUntracedRun) {
  expect_traced_equals_untraced(small_k1());
}

TEST(PerfbenchObserverOnly, TracedRunRejectsShardedConfigs) {
  ScenarioConfig cfg = small_k1();
  cfg.sim_shards = 2;
  EXPECT_THROW(traced_run(cfg), std::invalid_argument);
}

// --- output checks -------------------------------------------------------------

/// One real RCAST run and one real 802.11 run of the short paper cell,
/// shared by the check tests (each test doctors its own copy).
struct Reference {
  ScenarioConfig cfg = short_paper_cell();
  ScenarioConfig wifi_cfg = [this] {
    ScenarioConfig c = cfg;
    c.scheme = scenario::Scheme::k80211;
    return c;
  }();
  RunResult run = timed_run(cfg, 1).result;
  RunResult wifi_run = timed_run(wifi_cfg, 1).result;
};

class PerfbenchChecks : public ::testing::Test {
 protected:
  static const Reference& ref() {
    static const Reference r;
    return r;
  }

  static bool fires(const ScenarioConfig& cfg, const RunResult& r,
                    const std::string& needle, PdrFloor floor = {0.0}) {
    for (const std::string& f : check_run(cfg, r, floor)) {
      if (f.find(needle) != std::string::npos) return true;
    }
    return false;
  }

  const ScenarioConfig* cfg_ = &ref().cfg;
  const RunResult* run_ = &ref().run;
  const ScenarioConfig* wifi_cfg_ = &ref().wifi_cfg;
  const RunResult* wifi_run_ = &ref().wifi_run;
};

TEST_F(PerfbenchChecks, RealRunsPass) {
  EXPECT_TRUE(check_run(*cfg_, *run_, {0.0}).empty());
  EXPECT_TRUE(check_run(*wifi_cfg_, *wifi_run_, {0.0}).empty());
}

TEST_F(PerfbenchChecks, DeliveredAboveOriginatedFires) {
  RunResult r = *run_;
  r.delivered = r.originated + 1;
  EXPECT_TRUE(fires(*cfg_, r, "> originated"));
}

TEST_F(PerfbenchChecks, EnergyOutsideSleepAwakeBoundsFires) {
  const double t = sim::to_seconds(cfg_->duration);
  RunResult high = *run_;
  high.per_node_energy_j[3] = 1.15 * t * 1.001;
  EXPECT_TRUE(fires(*cfg_, high, "node 3 energy"));
  RunResult low = *run_;
  low.per_node_energy_j[5] = 0.045 * t * 0.5;
  EXPECT_TRUE(fires(*cfg_, low, "node 5 energy"));
}

TEST_F(PerfbenchChecks, MissingPerNodeEnergyFires) {
  RunResult r = *run_;
  r.per_node_energy_j.pop_back();
  EXPECT_TRUE(fires(*cfg_, r, "entries"));
}

TEST_F(PerfbenchChecks, WifiNodeBelowAwakeEnergyFires) {
  RunResult r = *wifi_run_;
  r.per_node_energy_j[0] -= 1.0;
  EXPECT_TRUE(fires(*wifi_cfg_, r, "802.11 node 0"));
  // The same energy is legal for a power-saving scheme.
  EXPECT_FALSE(fires(*cfg_, r, "802.11"));
}

TEST_F(PerfbenchChecks, PdrBelowFloorFires) {
  EXPECT_TRUE(fires(*cfg_, *run_, "below floor", {run_->pdr_percent + 1.0}));
  EXPECT_FALSE(fires(*cfg_, *run_, "below floor", {run_->pdr_percent}));
}

TEST_F(PerfbenchChecks, FingerprintMismatchFires) {
  EXPECT_EQ(check_same_fingerprint(*run_, *run_, "same"), "");
  RunResult r = *run_;
  r.per_node_energy_j[0] += 1e-9;
  EXPECT_NE(check_same_fingerprint(*run_, r, "energy"), "");
  r = *run_;
  ++r.events_executed;
  EXPECT_NE(check_same_fingerprint(*run_, r, "events"), "");
  r = *run_;
  --r.delivered;
  EXPECT_NE(check_same_fingerprint(*run_, r, "delivered"), "");
  EXPECT_LT(fingerprint(*run_), std::uint64_t{1} << 52);
}

TEST_F(PerfbenchChecks, CsvMismatchFires) {
  EXPECT_EQ(check_same_csv("a,b\n1,2\n", "a,b\n1,2\n"), "");
  EXPECT_NE(check_same_csv("a,b\n1,2\n", "a,b\n1,3\n"), "");
}

TEST(PerfbenchReport, FailedRunsAndChecksMakeTheReportIncorrect) {
  Report rep(false);
  rep.add_run({});
  EXPECT_TRUE(rep.correct());
  rep.add_run({"threw: wall-clock deadline exceeded"});
  EXPECT_EQ(rep.attempted(), 2u);
  EXPECT_EQ(rep.failed(), 1u);
  EXPECT_FALSE(rep.correct());

  Report cross(false);
  cross.add_run({});
  cross.add_failure("");  // a passing cross-run check
  EXPECT_TRUE(cross.correct());
  cross.add_failure("exported CSV differs");
  EXPECT_EQ(cross.failed(), 0u);
  EXPECT_FALSE(cross.correct());
}

TEST(PerfbenchReport, OnlyCatalogMetricsWithFiniteValues) {
  Report rep(true);
  EXPECT_NO_THROW(rep.set("sim.events", 3.0));
  EXPECT_THROW(rep.set("setup_s", 1.0), std::out_of_range);  // other mode
  EXPECT_THROW(rep.set("no.such_metric", 1.0), std::out_of_range);
  EXPECT_THROW(rep.set("sim.events", std::nan("")), std::invalid_argument);
  const campaign::json::Value v = campaign::json::parse(rep.to_json());
  EXPECT_EQ(v.at("metrics").as_object().size(), per_layer_metrics().size());
  EXPECT_EQ(v.at("metrics").at("sim.events").at("value").as_double(), 3.0);
  EXPECT_EQ(v.at("metrics").at("sim.events").at("unit").as_string(), "count");
}

// --- config guards ---------------------------------------------------------------

double area_per_node(const geo::Rect& w, std::size_t nodes) {
  return w.width * w.height / static_cast<double>(nodes);
}

TEST(PerfbenchGuards, EveryWorkloadRunsAtPaperDensity) {
  const ScenarioConfig pc = paper_cell_config(1);
  EXPECT_NEAR(area_per_node(pc.world, pc.num_nodes), kAreaPerNodeM2, 1e-6);
  EXPECT_NEAR(pc.world.width, 1500.0, 1e-9);
  EXPECT_NEAR(pc.world.height, 300.0, 1e-9);
  const ScenarioConfig ss = scale_sharded_config(1, kShards);
  EXPECT_NEAR(area_per_node(ss.world, ss.num_nodes), kAreaPerNodeM2, 1e-6);
  const campaign::Manifest m = campaign_grid_manifest(1);
  for (const std::size_t n : m.node_counts) {
    EXPECT_NEAR(m.world_w_m * m.world_h_m / static_cast<double>(n),
                kAreaPerNodeM2, 1e-6);
  }
  for (const campaign::Job& job : campaign::expand(m)) {
    EXPECT_NEAR(area_per_node(job.cfg.world, job.cfg.num_nodes),
                kAreaPerNodeM2, 1e-6);
  }
}

TEST(PerfbenchGuards, SeedComesFromTheArgument) {
  EXPECT_EQ(paper_cell_config(1234).seed, 1234u);
  EXPECT_EQ(scale_sharded_config(1234, kShards).seed, 1234u);
  EXPECT_NE(scenario_seed(1, 0), scenario_seed(2, 0));
  // Scenario seeds of different workload seeds never overlap.
  std::set<std::uint64_t> seen;
  for (std::uint64_t s = 1; s <= 10; ++s) {
    for (std::size_t i = 0; i < scenarios_for(60.0, kPaperCellScenarioS); ++i) {
      EXPECT_TRUE(seen.insert(scenario_seed(s, i)).second);
    }
  }
  const campaign::Manifest m = campaign_grid_manifest(5);
  EXPECT_EQ(m.seed_base, scenario_seed(5, 0));
  EXPECT_LT(m.seeds, kSeedStride);
  // The run count depends on the arguments only.
  EXPECT_EQ(scenarios_for(30.0, kPaperCellScenarioS), 10u);
  EXPECT_EQ(scenarios_for(1.0, kScaleShardedScenarioS), 1u);
}

TEST(PerfbenchGuards, ThreadsAndShardsStayWithinTheBox) {
  const unsigned nproc = std::thread::hardware_concurrency();
  if (nproc == 0) GTEST_SKIP() << "hardware_concurrency unknown";
  EXPECT_LE(kWorkers, nproc);
  EXPECT_LE(kShards, nproc);
  EXPECT_EQ(paper_cell_config(1).sim_shards, 1u);
  EXPECT_EQ(scale_sharded_config(1, kShards).sim_shards, kShards);
  for (const campaign::Job& job : campaign::expand(campaign_grid_manifest(1))) {
    EXPECT_EQ(job.cfg.sim_shards, 1u);
  }
}

TEST(PerfbenchGuards, MetricNamesAreWellFormedAndCarryUnits) {
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> names;
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricSpec& s : *list) {
      EXPECT_TRUE(std::regex_match(s.name, name_re)) << s.name;
      EXPECT_TRUE(std::regex_match(s.unit, unit_re)) << s.name;
      EXPECT_TRUE(names.insert(s.name).second) << "duplicate " << s.name;
    }
  }
}

TEST(PerfbenchGuards, CatalogMatchesBenchmarkJson) {
  std::ifstream in(PERFBENCH_SPEC);
  ASSERT_TRUE(in) << PERFBENCH_SPEC;
  std::stringstream text;
  text << in.rdbuf();
  const campaign::json::Value spec = campaign::json::parse(text.str());
  auto expect_same = [](const campaign::json::Array& json,
                        const std::vector<MetricSpec>& catalog) {
    ASSERT_EQ(json.size(), catalog.size());
    for (std::size_t i = 0; i < json.size(); ++i) {
      EXPECT_EQ(json[i].at("name").as_string(), catalog[i].name);
      EXPECT_EQ(json[i].at("unit").as_string(), catalog[i].unit);
    }
  };
  expect_same(spec.at("end_to_end").as_array(), end_to_end_metrics());
  expect_same(spec.at("per_layer").as_array(), per_layer_metrics());
  std::set<std::string> names;
  for (const Workload& w : workloads()) names.insert(w.name);
  for (const campaign::json::Value& w : spec.at("workloads").as_array()) {
    EXPECT_TRUE(names.count(w.at("name").as_string())) << w.at("name").as_string();
  }
  EXPECT_EQ(spec.at("workloads").as_array().size(), workloads().size());
}

}  // namespace
}  // namespace rcast::perfbench
