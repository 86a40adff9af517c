// Table 1: protocol behaviour of the three schemes.
//
// The paper's Table 1 is qualitative ("always awake", "AM for a
// pre-determined period", "consistently PS / packets deferred"). This bench
// quantifies each claimed behaviour from each scheme's seed mean at 1 pkt/s,
// pause 600 s: awake fraction, ATIM usage, immediate transmissions, mean
// delay, and energy.
#include "bench/bench_common.hpp"

using namespace rcast;
using namespace rcast::bench;

int main(int argc, char** argv) {
  Manifest m = load_manifest(argc, argv);
  print_header("Table 1: protocol behaviour of 802.11 / ODPM / RCAST", m);

  m.schemes = {Scheme::k80211, Scheme::kOdpm, Scheme::kRcast};
  m.rates_pps = {1.0};
  m.pauses = {PauseSpec::fixed(600.0)};
  const CampaignResult res = campaign::run_campaign(m, {});

  std::printf("%-8s %14s %10s %12s %12s %10s\n", "scheme", "awake-frac",
              "ATIMs", "sleeps/BI/n", "delay(s)", "energy(J)");

  RunResult r80211, rodpm, rrcast;
  for (Scheme s : m.schemes) {
    const RunResult r = res.average_cell(
        [&](const ScenarioConfig& c) { return c.scheme == s; });
    // Awake fraction from mean power: P = f*1.15 + (1-f)*0.045.
    const double mean_w = r.energy_mean_j / r.duration_s;
    const double awake_frac = (mean_w - 0.045) / (1.15 - 0.045);
    const double bis = r.duration_s / 0.25;
    std::printf("%-8s %14.3f %10llu %12.3f %12.3f %10.1f\n",
                std::string(to_string(s)).c_str(), awake_frac,
                static_cast<unsigned long long>(r.atim_tx),
                static_cast<double>(r.mac_sleeps) /
                    (bis * static_cast<double>(m.node_counts.front())),
                r.avg_delay_s, r.total_energy_j);
    if (s == Scheme::k80211) r80211 = r;
    if (s == Scheme::kOdpm) rodpm = r;
    if (s == Scheme::kRcast) rrcast = r;
  }

  std::printf("\nSHAPE-CHECK (paper Table 1 rows)\n");
  shape_check(r80211.mac_sleeps == 0 && r80211.atim_tx == 0,
              "802.11: always awake, no PSM machinery");
  shape_check(r80211.avg_delay_s < rodpm.avg_delay_s &&
                  rodpm.avg_delay_s < rrcast.avg_delay_s,
              "delay: 802.11 < ODPM < RCAST (immediate vs deferred tx)");
  shape_check(r80211.total_energy_j > rodpm.total_energy_j &&
                  rodpm.total_energy_j > rrcast.total_energy_j,
              "energy: 802.11 > ODPM > RCAST");
  shape_check(rrcast.mac_sleeps > rodpm.mac_sleeps,
              "RCAST consistently in PS mode sleeps more than ODPM");
  return shape_exit();
}
