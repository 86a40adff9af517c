#include <gtest/gtest.h>

#include "scenario/experiment.hpp"
#include "scenario/policy_registry.hpp"
#include "scenario/scenario.hpp"

namespace rcast::scenario {
namespace {

ScenarioConfig small_cfg(Scheme s, std::uint64_t seed = 1) {
  ScenarioConfig cfg;
  cfg.num_nodes = 20;
  cfg.num_flows = 5;
  cfg.world = {800.0, 300.0};
  cfg.rate_pps = 1.0;
  cfg.duration = 30 * sim::kSecond;
  cfg.pause = 30 * sim::kSecond;  // static
  cfg.scheme = s;
  cfg.seed = seed;
  return cfg;
}

const PowerPolicyEntry& policy(Scheme s) {
  return power_policies().resolve(to_string(s));
}

TEST(Scenario, SchemeToOverhearingMap) {
  EXPECT_EQ(policy(Scheme::kRcast).oh_map.data,
            mac::OverhearingMode::kRandomized);
  EXPECT_EQ(policy(Scheme::kRcast).oh_map.rerr,
            mac::OverhearingMode::kUnconditional);
  EXPECT_EQ(policy(Scheme::kPsmAll).oh_map.data,
            mac::OverhearingMode::kUnconditional);
  EXPECT_EQ(policy(Scheme::kPsmNone).oh_map.data, mac::OverhearingMode::kNone);
  EXPECT_EQ(policy(Scheme::kOdpm).oh_map.data, mac::OverhearingMode::kNone);
  EXPECT_EQ(policy(Scheme::kRcastBcast).oh_map.rreq_bcast,
            mac::OverhearingMode::kRandomized);
}

TEST(Scenario, SchemeUsesPsm) {
  EXPECT_FALSE(policy(Scheme::k80211).uses_psm);
  EXPECT_TRUE(policy(Scheme::kPsmNone).uses_psm);
  EXPECT_TRUE(policy(Scheme::kOdpm).uses_psm);
  EXPECT_TRUE(policy(Scheme::kRcast).uses_psm);
}

TEST(Scenario, SchemeNames) {
  EXPECT_EQ(to_string(Scheme::k80211), "80211");
  EXPECT_EQ(to_string(Scheme::kOdpm), "ODPM");
  EXPECT_EQ(to_string(Scheme::kRcast), "RCAST");
}

TEST(Scenario, RunProducesPopulatedResult) {
  const RunResult r = run_scenario(small_cfg(Scheme::kRcast));
  EXPECT_EQ(r.scheme, Scheme::kRcast);
  EXPECT_DOUBLE_EQ(r.duration_s, 30.0);
  EXPECT_EQ(r.per_node_energy_j.size(), 20u);
  EXPECT_EQ(r.role_numbers.size(), 20u);
  EXPECT_GT(r.total_energy_j, 0.0);
  EXPECT_GT(r.originated, 0u);
  EXPECT_GT(r.delivered, 0u);
  EXPECT_GT(r.events_executed, 0u);
  EXPECT_GT(r.pdr_percent, 0.0);
  EXPECT_LE(r.pdr_percent, 100.0);
}

TEST(Scenario, DeterministicForSameSeed) {
  const RunResult a = run_scenario(small_cfg(Scheme::kRcast, 7));
  const RunResult b = run_scenario(small_cfg(Scheme::kRcast, 7));
  EXPECT_DOUBLE_EQ(a.total_energy_j, b.total_energy_j);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.originated, b.originated);
  EXPECT_EQ(a.control_tx, b.control_tx);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.per_node_energy_j, b.per_node_energy_j);
  EXPECT_EQ(a.role_numbers, b.role_numbers);
}

TEST(Scenario, DifferentSeedsDiffer) {
  const RunResult a = run_scenario(small_cfg(Scheme::kRcast, 1));
  const RunResult b = run_scenario(small_cfg(Scheme::kRcast, 2));
  EXPECT_NE(a.total_energy_j, b.total_energy_j);
}

TEST(Scenario, EightyTwoElevenEnergyIsExactlyAwakePower) {
  const RunResult r = run_scenario(small_cfg(Scheme::k80211));
  // Every node awake the whole run: 1.15 W x 30 s x 20 nodes.
  EXPECT_NEAR(r.total_energy_j, 1.15 * 30.0 * 20.0, 1e-6);
  EXPECT_NEAR(r.energy_variance, 0.0, 1e-9);
}

TEST(Scenario, PsmSchemesUseLessEnergyThan80211) {
  const double e_awake = run_scenario(small_cfg(Scheme::k80211)).total_energy_j;
  for (Scheme s : {Scheme::kPsmNone, Scheme::kOdpm, Scheme::kRcast}) {
    const double e = run_scenario(small_cfg(s)).total_energy_j;
    EXPECT_LT(e, e_awake) << to_string(s);
  }
}

TEST(Scenario, RejectsDegenerateNetworks) {
  auto cfg = small_cfg(Scheme::kRcast);
  cfg.num_nodes = 1;
  EXPECT_THROW(Network net(cfg), ContractViolation);
}

TEST(Scenario, NodeAccessors) {
  Network net(small_cfg(Scheme::kRcast));
  EXPECT_EQ(net.node_count(), 20u);
  EXPECT_EQ(net.node(3).id(), 3u);
  EXPECT_EQ(net.node(3).mac().id(), 3u);
  EXPECT_EQ(net.node(3).dsr().id(), 3u);
}

TEST(Scenario, OverrideOhMapHonored) {
  auto cfg = small_cfg(Scheme::kRcast);
  cfg.override_oh_map = true;
  cfg.dsr.oh_map = core::OverhearingMap::psm_none();
  const RunResult r = run_scenario(cfg);
  // With the map forced to none, nobody commits to overhear.
  EXPECT_EQ(r.overhear_commits, 0u);
}

TEST(Scenario, RcastSchemeActuallyRandomizes) {
  const RunResult r = run_scenario(small_cfg(Scheme::kRcast));
  EXPECT_GT(r.overhear_commits + r.overhear_declines, 0u);
}

// --- experiment helpers ------------------------------------------------------

TEST(Experiment, RunRepetitionsVariesSeeds) {
  auto cfg = small_cfg(Scheme::kRcast);
  cfg.num_nodes = 10;
  cfg.num_flows = 3;
  cfg.duration = 10 * sim::kSecond;
  const auto runs = run_repetitions(cfg, 3, 3);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_NE(runs[0].total_energy_j, runs[1].total_energy_j);
  EXPECT_NE(runs[1].total_energy_j, runs[2].total_energy_j);
}

TEST(Experiment, RunRepetitionsMatchesSerialRuns) {
  auto cfg = small_cfg(Scheme::kOdpm);
  cfg.num_nodes = 10;
  cfg.num_flows = 3;
  cfg.duration = 10 * sim::kSecond;
  const auto parallel_runs = run_repetitions(cfg, 2, 2);
  auto c0 = cfg;
  c0.seed = cfg.seed;
  auto c1 = cfg;
  c1.seed = cfg.seed + 1;
  EXPECT_DOUBLE_EQ(parallel_runs[0].total_energy_j,
                   run_scenario(c0).total_energy_j);
  EXPECT_DOUBLE_EQ(parallel_runs[1].total_energy_j,
                   run_scenario(c1).total_energy_j);
}

TEST(Experiment, AverageOfIdenticalRunsIsIdentity) {
  auto cfg = small_cfg(Scheme::kRcast);
  cfg.num_nodes = 10;
  cfg.num_flows = 3;
  cfg.duration = 10 * sim::kSecond;
  const RunResult r = run_scenario(cfg);
  const RunResult avg = average({r, r});
  EXPECT_DOUBLE_EQ(avg.total_energy_j, r.total_energy_j);
  EXPECT_DOUBLE_EQ(avg.pdr_percent, r.pdr_percent);
  EXPECT_EQ(avg.per_node_energy_j, r.per_node_energy_j);
}

TEST(Experiment, AverageBlendsScalars) {
  RunResult a, b;
  a.total_energy_j = 10.0;
  b.total_energy_j = 20.0;
  a.pdr_percent = 90.0;
  b.pdr_percent = 100.0;
  const RunResult avg = average({a, b});
  EXPECT_DOUBLE_EQ(avg.total_energy_j, 15.0);
  EXPECT_DOUBLE_EQ(avg.pdr_percent, 95.0);
}

TEST(Experiment, AverageRequiresRuns) {
  EXPECT_THROW(average({}), ContractViolation);
}

TEST(Experiment, FormatHelpers) {
  EXPECT_EQ(fmt(3.14159, 8, 2), "    3.14");
  EXPECT_EQ(fmt(std::uint64_t{42}, 5), "   42");
  EXPECT_EQ(fmt(std::string("x"), 3), "  x");
}

TEST(Experiment, BenchScaleDefaults) {
  ::unsetenv("RCAST_FULL");
  ::unsetenv("RCAST_DURATION_S");
  ::unsetenv("RCAST_REPS");
  const auto s = BenchScale::from_env();
  EXPECT_FALSE(s.full);
  EXPECT_EQ(s.duration, 150 * sim::kSecond);
  EXPECT_EQ(s.num_nodes, 60u);
  ::setenv("RCAST_FULL", "1", 1);
  const auto f = BenchScale::from_env();
  EXPECT_TRUE(f.full);
  EXPECT_EQ(f.duration, 1125 * sim::kSecond);
  EXPECT_EQ(f.num_nodes, 100u);
  EXPECT_EQ(f.repetitions, 10u);
  ::unsetenv("RCAST_FULL");
}

TEST(Experiment, BenchScaleEnvOverrides) {
  ::setenv("RCAST_DURATION_S", "60", 1);
  ::setenv("RCAST_REPS", "2", 1);
  const auto s = BenchScale::from_env();
  EXPECT_EQ(s.duration, 60 * sim::kSecond);
  EXPECT_EQ(s.repetitions, 2u);
  ::unsetenv("RCAST_DURATION_S");
  ::unsetenv("RCAST_REPS");
}

}  // namespace
}  // namespace rcast::scenario

namespace rcast::scenario {
namespace {

TEST(Scenario, DelayDecompositionPopulated) {
  const RunResult r = run_scenario(small_cfg(Scheme::kRcast));
  EXPECT_GT(r.delay_p50_s, 0.0);
  EXPECT_GE(r.delay_p90_s, r.delay_p50_s);
  EXPECT_GE(r.avg_route_wait_s, 0.0);
  EXPECT_GT(r.avg_transit_s, 0.0);
  // Decomposition roughly adds up to the mean.
  EXPECT_NEAR(r.avg_route_wait_s + r.avg_transit_s, r.avg_delay_s,
              0.25 * r.avg_delay_s + 0.05);
}

TEST(Scenario, DropAccountingSumsConsistently) {
  auto cfg = small_cfg(Scheme::kRcast);
  cfg.pause = 2 * sim::kSecond;  // mobility forces some drops
  const RunResult r = run_scenario(cfg);
  std::uint64_t drops = 0;
  for (auto d : r.drops) drops += d;
  // delivered + dropped <= originated (remainder is in-flight at the end).
  EXPECT_LE(r.delivered + drops, r.originated);
}

TEST(Scenario, AodvProtocolSelectable) {
  auto cfg = small_cfg(Scheme::k80211);
  cfg.routing = RoutingProtocol::kAodv;
  const RunResult r = run_scenario(cfg);
  EXPECT_GT(r.delivered, 0u);
  EXPECT_EQ(to_string(cfg.routing), "AODV");
  EXPECT_EQ(to_string(RoutingProtocol::kDsr), "DSR");
}

}  // namespace
}  // namespace rcast::scenario
