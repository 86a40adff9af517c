// Quickstart: the smallest end-to-end Rcast simulation.
//
// Builds a 50-node MANET, runs the three schemes the paper compares
// (plain 802.11, ODPM, Rcast) for 60 simulated seconds each, and prints the
// headline metrics: total energy, energy balance (variance), PDR, delay.
//
//   ./quickstart [--nodes=50] [--rate=1.0] [--seconds=60] [--seed=1]
#include <cstdio>

#include "scenario/scenario.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace rcast;
  Flags flags(argc, argv);

  scenario::ScenarioConfig cfg;
  cfg.num_nodes = static_cast<std::size_t>(flags.get_int("nodes", 50));
  cfg.num_flows = std::min<std::size_t>(10, cfg.num_nodes / 3);
  cfg.rate_pps = flags.get_double("rate", 1.0);
  cfg.duration = sim::from_seconds(flags.get_double("seconds", 60.0));
  cfg.pause = 60 * sim::kSecond;
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));

  std::printf("rcast quickstart: %zu nodes, %zu flows @ %.1f pkt/s, %.0f s\n\n",
              cfg.num_nodes, cfg.num_flows, cfg.rate_pps,
              sim::to_seconds(cfg.duration));
  std::printf("%-10s %12s %12s %8s %10s %12s\n", "scheme", "energy(J)",
              "variance", "PDR(%)", "delay(s)", "ctrl-pkts");

  for (auto scheme : {scenario::Scheme::k80211, scenario::Scheme::kOdpm,
                      scenario::Scheme::kRcast}) {
    cfg.scheme = scheme;
    const scenario::RunResult r = scenario::run_scenario(cfg);
    std::printf("%-10s %12.1f %12.1f %8.1f %10.3f %12llu\n",
                std::string(to_string(scheme)).c_str(), r.total_energy_j,
                r.energy_variance, r.pdr_percent, r.avg_delay_s,
                static_cast<unsigned long long>(r.control_tx));
  }

  std::printf(
      "\nExpected shape (paper Figs. 5-8): 802.11 burns the most energy with\n"
      "zero variance; Rcast uses the least energy with the best balance at\n"
      "the cost of ~0.1-0.3 s extra delay per hop from beacon buffering.\n");
  return 0;
}
