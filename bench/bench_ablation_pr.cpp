// Ablation A1: the four overhearing-decision factors of paper §3.2.
//
// The paper evaluates only P_R = 1/N and leaves sender-ID, mobility, and
// remaining-battery factors as future work (§5). This bench runs all four
// (plus the combination) under mobile and static scenarios and reports the
// energy / PDR / overhead trade-off of each estimator.
#include "bench/bench_common.hpp"

using namespace rcast;
using namespace rcast::bench;

int main(int argc, char** argv) {
  Manifest m = load_manifest(argc, argv);
  print_header("Ablation A1: P_R estimator choice (paper §3.2 factors)", m);

  m.schemes = {Scheme::kRcast};
  m.rates_pps = {1.0};
  m.pauses = {mobile_pause(m), PauseSpec::static_scenario()};

  const core::PrEstimator estimators[] = {
      core::PrEstimator::kNeighborCount, core::PrEstimator::kSenderRecency,
      core::PrEstimator::kMobility, core::PrEstimator::kBattery,
      core::PrEstimator::kCombined};
  std::vector<CampaignResult> runs;  // one campaign per estimator
  for (auto est : estimators) {
    Manifest cell = m;
    // Give the battery estimator a finite (but ample) battery signal.
    if (est == core::PrEstimator::kBattery ||
        est == core::PrEstimator::kCombined) {
      cell.battery_j = 1.15 * m.duration_s * 4;
    }
    ScenarioConfig base;
    base.rcast.estimator = est;
    runs.push_back(campaign::run_campaign(cell, {}, base));
  }

  for (const PauseSpec& pause : m.pauses) {
    const sim::Time pause_t = pause_time(m, pause);
    std::printf("--- pause=%.0f s ---\n", sim::to_seconds(pause_t));
    std::printf("%-12s %12s %8s %10s %12s\n", "estimator", "energy(J)",
                "PDR(%)", "delay(s)", "norm-ovhd");
    double e_neigh = 0.0;
    bool all_deliver = true;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const auto est = estimators[i];
      const RunResult r = runs[i].average_cell(
          [&](const ScenarioConfig& c) { return c.pause == pause_t; });
      std::printf("%-12s %12.1f %8.1f %10.3f %12.3f\n",
                  core::to_string(est), r.total_energy_j, r.pdr_percent,
                  r.avg_delay_s, r.normalized_overhead);
      if (est == core::PrEstimator::kNeighborCount) e_neigh = r.total_energy_j;
      all_deliver &= r.pdr_percent > 70.0;
    }
    std::printf("\n");
    shape_check(all_deliver, "every estimator keeps PDR > 70%");
    shape_check(e_neigh > 0.0, "baseline estimator ran");
  }

  // Passive vs oracle neighbor counting for the paper's 1/N.
  std::printf("--- neighbor-count source (P_R = 1/N denominator) ---\n");
  std::printf("%-12s %12s %8s\n", "source", "energy(J)", "PDR(%)");
  m.pauses = {PauseSpec::static_scenario()};
  m.axes = {{"rcast.oracle_neighbors", {"true", "false"}}};
  const CampaignResult sources = campaign::run_campaign(m, {});
  RunResult passive;
  for (bool use_oracle : {true, false}) {
    const RunResult r = sources.average_cell([&](const ScenarioConfig& c) {
      return c.rcast_oracle_neighbors == use_oracle;
    });
    std::printf("%-12s %12.1f %8.1f\n", use_oracle ? "oracle" : "passive",
                r.total_energy_j, r.pdr_percent);
    if (!use_oracle) passive = r;
  }
  shape_check(passive.pdr_percent > 70.0,
              "passive neighbor table is a viable 1/N denominator");
  return shape_exit();
}
