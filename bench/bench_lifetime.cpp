// Extension E1: network lifetime with finite batteries.
//
// The paper argues (§1, §4.2) that energy balance extends network lifetime
// because overloaded nodes die first. With a finite per-node battery this
// bench measures time-to-first-death and the number of dead nodes at the
// end of the run for each scheme.
#include "bench/bench_common.hpp"

using namespace rcast;
using namespace rcast::bench;

int main(int argc, char** argv) {
  Manifest m = load_manifest(argc, argv);
  print_header("Extension E1: network lifetime with finite batteries", m);

  // Battery sized so an always-awake node dies 75% into the run: heavy
  // (always-on / ODPM-AM) consumers die, while a balanced PSM node — which
  // averages well under 0.86 W — survives. (A smaller battery would invert
  // the dead-node comparison: balanced consumption means everyone crosses a
  // low threshold together.)
  m.battery_j = 1.15 * m.duration_s * 0.75;
  std::printf("battery per node: %.1f J\n\n", m.battery_j);
  m.schemes = {Scheme::k80211, Scheme::kOdpm, Scheme::kRcast};
  m.rates_pps = {1.0};
  m.pauses = {mobile_pause(m)};
  const CampaignResult res = campaign::run_campaign(m, {});

  std::printf("%-8s %16s %12s %8s %12s\n", "scheme", "first-death(s)",
              "dead-nodes", "PDR(%)", "energy(J)");

  RunResult r80211, rodpm, rrcast;
  for (Scheme s : m.schemes) {
    const RunResult r = res.average_cell(
        [&](const ScenarioConfig& c) { return c.scheme == s; });
    std::printf("%-8s %16.1f %12zu %8.1f %12.1f\n",
                std::string(to_string(s)).c_str(),
                r.first_death_s == 0.0 ? m.duration_s : r.first_death_s,
                r.dead_nodes, r.pdr_percent, r.total_energy_j);
    if (s == Scheme::k80211) r80211 = r;
    if (s == Scheme::kOdpm) rodpm = r;
    if (s == Scheme::kRcast) rrcast = r;
  }

  const double death_80211 =
      r80211.first_death_s == 0.0 ? m.duration_s : r80211.first_death_s;
  const double death_rcast =
      rrcast.first_death_s == 0.0 ? m.duration_s : rrcast.first_death_s;
  shape_check(r80211.dead_nodes == m.node_counts.front(),
              "always-on 802.11 exhausts every battery");
  shape_check(death_rcast > death_80211,
              "RCAST's first death comes later than 802.11's");
  shape_check(rrcast.dead_nodes <= rodpm.dead_nodes,
              "RCAST loses no more nodes than ODPM (energy balance)");
  shape_check(rrcast.dead_nodes < m.node_counts.front(),
              "RCAST keeps part of the network alive");
  return shape_exit();
}
