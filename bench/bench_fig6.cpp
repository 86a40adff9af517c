// Fig. 6: variance of per-node energy consumption vs packet rate, for
// pause=600 (a) and static (b). Paper shape: 802.11 has zero variance;
// ODPM's variance is several times RCAST's ("four times less variance").
//
// This bench drives its scheme × rate grid through the campaign engine
// (src/campaign/) instead of a hand-rolled loop: the grid is declared as a
// Manifest, executed on the work-stealing runner, and cells are read back
// with average_cell — the same runner `rcast_campaignd run` drives.
#include "bench/bench_common.hpp"
#include "campaign/runner.hpp"

using namespace rcast;
using namespace rcast::bench;

namespace {

void panel(const char* name, sim::Time pause, const BenchScale& scale) {
  campaign::Manifest m;
  m.name = std::string("fig6") + name;
  m.schemes = {Scheme::k80211, Scheme::kOdpm, Scheme::kRcast};
  m.rates_pps = rate_sweep(scale);
  m.pauses = {campaign::PauseSpec::fixed(sim::to_seconds(pause))};
  m.node_counts = {scale.num_nodes};
  m.flows = scale.num_flows;
  m.duration_s = sim::to_seconds(scale.duration);
  m.seeds = scale.repetitions;

  const campaign::RunnerOptions opt;  // in-memory: no journal, no store
  const campaign::CampaignResult res = campaign::run_campaign(m, opt);

  std::printf("--- Fig.6%s: pause=%.0f s ---\n", name,
              sim::to_seconds(pause));
  std::printf("%-8s", "rate");
  for (double r : m.rates_pps) std::printf(" %10.1f", r);
  std::printf("\n");

  double var_odpm_sum = 0.0, var_rcast_sum = 0.0, var_awake_max = 0.0;
  for (Scheme s : m.schemes) {
    std::printf("%-8s", std::string(scenario::to_string(s)).c_str());
    for (double rate : m.rates_pps) {
      const RunResult r = res.average_cell(
          [&](const ScenarioConfig& c) {
            return c.scheme == s && c.rate_pps == rate;
          });
      std::printf(" %10.1f", r.energy_variance);
      if (s == Scheme::kOdpm) var_odpm_sum += r.energy_variance;
      if (s == Scheme::kRcast) var_rcast_sum += r.energy_variance;
      if (s == Scheme::k80211) {
        var_awake_max = std::max(var_awake_max, r.energy_variance);
      }
    }
    std::printf("\n");
  }

  std::printf("variance ratio ODPM/RCAST (sweep mean): %.2fx\n",
              var_odpm_sum / std::max(var_rcast_sum, 1e-12));
  shape_check(res.all_done(), "campaign ran every cell without failures");
  shape_check(var_awake_max < 1e-6, "802.11 variance is zero");
  shape_check(var_odpm_sum > 1.5 * var_rcast_sum,
              "ODPM variance well above RCAST (paper: ~2.4x-4x)");
  std::printf("\n");
}

}  // namespace

int main() {
  const auto scale = BenchScale::from_env();
  print_header("Fig. 6: variance of per-node energy vs packet rate", scale);
  const sim::Time mobile_pause =
      scale.full ? 600 * sim::kSecond : scale.duration / 2;
  panel("a", mobile_pause, scale);
  panel("b", scale.duration, scale);
  return shape_exit();
}
