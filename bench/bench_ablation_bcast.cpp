// Ablation A2: Rcast applied to broadcast RREQs (paper §5 future work, and
// the broadcast-storm mitigation of Ni/Tseng et al. cited in §1).
//
// Randomized receiving of RREQ announcements lets nodes sleep through
// rebroadcast storms. The risk is failed route discovery; the decision is
// therefore conservative (receive probability max(0.5, 3/N)). This bench
// compares plain Rcast with the broadcast extension.
#include "bench/bench_common.hpp"

using namespace rcast;
using namespace rcast::bench;

int main(int argc, char** argv) {
  Manifest m = load_manifest(argc, argv);
  print_header("Ablation A2: randomized broadcast receiving (RREQ)", m);

  m.schemes = {Scheme::kRcast, Scheme::kRcastBcast};
  m.rates_pps = {1.0};
  m.pauses = {mobile_pause(m)};  // mobility forces rediscoveries
  const CampaignResult res = campaign::run_campaign(m, {});

  std::printf("%-10s %12s %8s %10s %12s %12s\n", "scheme", "energy(J)",
              "PDR(%)", "delay(s)", "rreq-tx", "norm-ovhd");

  RunResult plain, bcast;
  for (Scheme s : m.schemes) {
    const RunResult r = res.average_cell(
        [&](const ScenarioConfig& c) { return c.scheme == s; });
    std::printf("%-10s %12.1f %8.1f %10.3f %12llu %12.3f\n",
                std::string(to_string(s)).c_str(), r.total_energy_j,
                r.pdr_percent, r.avg_delay_s,
                static_cast<unsigned long long>(r.rreq_tx),
                r.normalized_overhead);
    (s == Scheme::kRcast ? plain : bcast) = r;
  }

  shape_check(bcast.pdr_percent > plain.pdr_percent - 12.0,
              "conservative randomization keeps discovery working");
  shape_check(bcast.total_energy_j < plain.total_energy_j * 1.05,
              "broadcast extension does not cost energy");
  shape_check(bcast.delivered > 0, "extension still delivers traffic");
  return shape_exit();
}
