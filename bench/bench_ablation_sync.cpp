// Ablation A5: sensitivity to the clock-synchronization assumption.
//
// The paper (§2.2.2, citing Tseng et al. / Huang & Lai) *assumes* all nodes
// agree on beacon boundaries and does not model sync cost or error. This
// bench sweeps a per-node beacon offset drawn from [0, J] and measures how
// Rcast degrades: with offsets well under the ATIM window (50 ms) the
// announcement windows still overlap and the scheme keeps working; once
// offsets approach the window size, neighbors sleep through each other's
// ATIMs and delivery collapses toward the retry/repair machinery.
#include "bench/bench_common.hpp"

using namespace rcast;
using namespace rcast::bench;

int main(int argc, char** argv) {
  Manifest m = load_manifest(argc, argv);
  print_header("Ablation A5: PSM clock-sync jitter sensitivity", m);

  m.schemes = {Scheme::kRcast};
  m.rates_pps = {1.0};
  m.pauses = {PauseSpec::static_scenario()};  // isolate the sync effect
  m.axes = {{"sync_jitter_ms", {"0", "5", "20", "50", "125"}}};
  const CampaignResult res = campaign::run_campaign(m, {});

  // link-fails: MAC data frames that exhausted their retries (seed mean).
  std::printf("%-12s %8s %12s %10s %12s\n", "jitter(ms)", "PDR(%)",
              "energy(J)", "delay(s)", "link-fails");

  RunResult sync0, sync_small, sync_window;
  for (const std::string& text : m.axes[0].values) {
    const double j = std::stod(text);
    const RunResult r = res.average_cell([&](const ScenarioConfig& c) {
      return c.sync_jitter == sim::from_millis(j);
    });
    std::printf("%-12.0f %8.1f %12.1f %10.3f %12llu\n", j, r.pdr_percent,
                r.total_energy_j, r.avg_delay_s,
                static_cast<unsigned long long>(r.data_tx_failed));
    if (j == 0.0) sync0 = r;
    if (j == 5.0) sync_small = r;
    if (j == 50.0) sync_window = r;
  }

  std::printf("\nSHAPE-CHECK\n");
  shape_check(sync_small.pdr_percent > sync0.pdr_percent - 8.0,
              "jitter well under the ATIM window is tolerated");
  shape_check(sync_window.pdr_percent < sync0.pdr_percent + 1.0,
              "window-sized jitter does not improve delivery");
  shape_check(sync0.pdr_percent > 85.0,
              "perfect sync (the paper's assumption) delivers");
  return shape_exit();
}
