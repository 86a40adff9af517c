// Ablation A3: the per-packet-class overhearing map of paper §3.3.
//
// Rcast's choices: RREP randomized, DATA randomized, RERR unconditional.
// This bench perturbs one class at a time and reports the cost of each
// choice, quantifying the paper's design reasoning (e.g. unconditional RREP
// overhearing is wasteful; RERR must propagate to purge stale routes).
#include "bench/bench_common.hpp"

using namespace rcast;
using namespace rcast::bench;

namespace {

struct Variant {
  const char* name;
  core::OverhearingMap map;
};

}  // namespace

int main(int argc, char** argv) {
  Manifest m = load_manifest(argc, argv);
  print_header("Ablation A3: per-packet-class overhearing map (paper §3.3)",
               m);
  m.schemes = {Scheme::kRcast};
  m.rates_pps = {1.0};
  m.pauses = {mobile_pause(m)};  // mobility makes RERRs matter

  using mac::OverhearingMode;
  std::vector<Variant> variants;
  variants.push_back({"rcast (paper)", core::OverhearingMap::rcast()});
  {
    auto m = core::OverhearingMap::rcast();
    m.rrep = OverhearingMode::kUnconditional;
    variants.push_back({"rrep=uncond", m});
  }
  {
    auto m = core::OverhearingMap::rcast();
    m.data = OverhearingMode::kUnconditional;
    variants.push_back({"data=uncond", m});
  }
  {
    auto m = core::OverhearingMap::rcast();
    m.rerr = OverhearingMode::kNone;
    variants.push_back({"rerr=none", m});
  }
  {
    auto m = core::OverhearingMap::rcast();
    m.data = OverhearingMode::kNone;
    m.rrep = OverhearingMode::kNone;
    variants.push_back({"no-overhear", m});
  }
  variants.push_back({"all-uncond", core::OverhearingMap::psm_all()});

  std::printf("%-14s %12s %8s %10s %12s\n", "variant", "energy(J)", "PDR(%)",
              "delay(s)", "norm-ovhd");

  std::vector<RunResult> rs;
  for (const auto& v : variants) {
    ScenarioConfig base;
    base.override_oh_map = true;
    base.dsr.oh_map = v.map;
    const RunResult r = campaign::run_campaign(m, {}, base).average_cell(
        [](const ScenarioConfig&) { return true; });
    std::printf("%-14s %12.1f %8.1f %10.3f %12.3f\n", v.name,
                r.total_energy_j, r.pdr_percent, r.avg_delay_s,
                r.normalized_overhead);
    rs.push_back(r);
  }

  // rs: [paper, rrep=uncond, data=uncond, rerr=none, no-overhear, all-uncond]
  shape_check(rs[0].total_energy_j < rs[2].total_energy_j,
              "unconditional DATA overhearing costs energy vs paper map");
  shape_check(rs[0].total_energy_j < rs[5].total_energy_j,
              "paper map cheaper than all-unconditional");
  shape_check(rs[5].total_energy_j > rs[4].total_energy_j,
              "all-unconditional is the most expensive end of the spectrum");
  shape_check(rs[0].pdr_percent > 70.0, "paper map keeps PDR healthy");
  return shape_exit();
}
