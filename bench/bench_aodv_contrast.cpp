// Ablation A4: why the paper builds Rcast on DSR rather than AODV (§1).
//
// "Other MANET routing algorithms usually employ periodic broadcasts of
// routing-related control messages, such as Hello messages in AODV, and
// thus tend to consume more energy with IEEE 802.11 PSM."
//
// This bench runs both protocols under plain 802.11 and under PSM and
// reports energy and delivery. Every AODV hello is a broadcast ATIM that
// keeps the sender's whole neighborhood awake for a beacon interval, so
// AODV under PSM collapses back to near-always-on consumption.
#include "bench/bench_common.hpp"

using namespace rcast;
using namespace rcast::bench;

int main(int argc, char** argv) {
  Manifest m = load_manifest(argc, argv);
  print_header("Ablation A4: DSR+Rcast vs AODV under PSM (paper §1)", m);

  struct Cell {
    scenario::RoutingProtocol proto;
    Scheme scheme;
    const char* label;
  };
  const Cell cells[] = {
      {scenario::RoutingProtocol::kDsr, Scheme::k80211, "DSR / 802.11"},
      {scenario::RoutingProtocol::kAodv, Scheme::k80211, "AODV / 802.11"},
      {scenario::RoutingProtocol::kDsr, Scheme::kRcast, "DSR / Rcast-PSM"},
      {scenario::RoutingProtocol::kAodv, Scheme::kRcast, "AODV / PSM"},
  };

  m.schemes = {Scheme::k80211, Scheme::kRcast};
  m.routings = {scenario::RoutingProtocol::kDsr,
                scenario::RoutingProtocol::kAodv};
  m.rates_pps = {1.0};
  m.pauses = {mobile_pause(m)};
  const CampaignResult res = campaign::run_campaign(m, {});

  std::printf("%-16s %12s %8s %10s %10s %10s\n", "stack", "energy(J)",
              "PDR(%)", "delay(s)", "hellos", "ctrl-tx");

  RunResult results[4];
  int i = 0;
  for (const Cell& c : cells) {
    const RunResult r = res.average_cell([&](const ScenarioConfig& cfg) {
      return cfg.routing == c.proto && cfg.scheme == c.scheme;
    });
    std::printf("%-16s %12.1f %8.1f %10.3f %10llu %10llu\n", c.label,
                r.total_energy_j, r.pdr_percent, r.avg_delay_s,
                static_cast<unsigned long long>(r.hello_tx),
                static_cast<unsigned long long>(r.control_tx));
    results[i++] = r;
  }

  const RunResult& dsr_awake = results[0];
  const RunResult& aodv_awake = results[1];
  const RunResult& dsr_psm = results[2];
  const RunResult& aodv_psm = results[3];

  std::printf("\nPSM savings: DSR %.0f%%, AODV %.0f%%\n",
              100.0 * (1.0 - dsr_psm.total_energy_j /
                                 dsr_awake.total_energy_j),
              100.0 * (1.0 - aodv_psm.total_energy_j /
                                 aodv_awake.total_energy_j));

  std::printf("\nSHAPE-CHECK (paper §1 claim)\n");
  shape_check(aodv_psm.total_energy_j > 1.5 * dsr_psm.total_energy_j,
              "AODV under PSM burns far more than DSR+Rcast under PSM");
  shape_check(aodv_psm.total_energy_j > 0.8 * aodv_awake.total_energy_j,
              "hello broadcasts forfeit most of AODV's PSM savings");
  shape_check(dsr_psm.total_energy_j < 0.6 * dsr_awake.total_energy_j,
              "DSR+Rcast keeps large PSM savings");
  shape_check(aodv_psm.pdr_percent > 80.0 && dsr_psm.pdr_percent > 80.0,
              "both stacks still deliver under PSM");
  shape_check(aodv_psm.hello_tx > 0 && dsr_psm.hello_tx == 0,
              "only AODV pays periodic hello traffic");
  return shape_exit();
}
