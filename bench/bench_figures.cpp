// Figs. 5-9: the paper's evaluation grid (§4.1), run once.
//
// Every figure draws its cells from one grid: 802.11 / ODPM / RCAST x the
// manifest's packet rates x its mobile and static pauses x its seeds. This
// binary runs that grid once through the campaign runner, then prints each
// figure's tables and shape checks from the cell means.
//
//   Fig. 5  per-node energy, sorted (rates 0.4 and 2.0, mobile and static)
//   Fig. 6  variance of per-node energy vs rate
//   Fig. 7  total energy, PDR and energy per bit vs rate
//   Fig. 8  delay and normalized routing overhead vs rate
//   Fig. 9  role number vs per-node energy (rates 0.4 and 2.0, mobile)
#include <algorithm>

#include "bench/bench_common.hpp"

using namespace rcast;
using namespace rcast::bench;

namespace {

constexpr Scheme kSchemes[3] = {Scheme::k80211, Scheme::kOdpm,
                                Scheme::kRcast};

/// A rate sweep at one pause: [rate][scheme], in manifest rate order and
/// kSchemes order.
using Sweep = std::vector<std::vector<RunResult>>;

/// The grid's results, addressed by cell.
struct Grid {
  const Manifest& m;
  CampaignResult res;
  sim::Time mobile;  // the manifest's mobile pause
  sim::Time stat;    // static scenario: pause = duration

  /// Seed mean of one cell.
  RunResult cell(Scheme s, double rate, sim::Time pause) const {
    return res.average_cell([&](const ScenarioConfig& c) {
      return c.scheme == s && c.rate_pps == rate && c.pause == pause;
    });
  }

  Sweep sweep(sim::Time pause) const {
    Sweep rows;
    for (double rate : m.rates_pps) {
      rows.emplace_back();
      for (Scheme s : kSchemes) rows.back().push_back(cell(s, rate, pause));
    }
    return rows;
  }
};

// --- Fig. 5 ------------------------------------------------------------------
// Paper shape: 802.11 is a flat line at the maximum; ODPM is strongly uneven
// (active nodes near always-on, idle nodes at the PSM floor); RCAST is low
// and nearly flat.

void fig5_panel(const Grid& g, const char* name, double rate,
                sim::Time pause) {
  std::printf("--- Fig.5%s: rate=%.1f pkt/s, pause=%.0f s ---\n", name, rate,
              sim::to_seconds(pause));

  std::vector<double> curves[3];
  for (int i = 0; i < 3; ++i) {
    curves[i] = g.cell(kSchemes[i], rate, pause).per_node_energy_j;
    std::sort(curves[i].begin(), curves[i].end());
  }

  // Print deciles of the sorted curve (the figure's x-axis is node rank).
  std::printf("%-8s", "rank%");
  for (int d = 0; d <= 100; d += 10) std::printf(" %8d", d);
  std::printf("\n");
  for (int i = 0; i < 3; ++i) {
    std::printf("%-8s", std::string(to_string(kSchemes[i])).c_str());
    const auto& c = curves[i];
    for (int d = 0; d <= 100; d += 10) {
      const std::size_t idx = std::min(c.size() - 1, d * c.size() / 100);
      std::printf(" %8.1f", c[idx]);
    }
    std::printf("\n");
  }

  const auto& awake = curves[0];
  const auto& odpm = curves[1];
  const auto& rcast = curves[2];
  // P90-P10 spread of the sorted curve: robust to single-node outliers.
  auto spread = [](const std::vector<double>& c) {
    return c[c.size() * 9 / 10] - c[c.size() / 10];
  };
  const double flat_80211 = awake.back() - awake.front();
  const double spread_odpm = spread(odpm);
  const double spread_rcast = spread(rcast);
  std::printf("spread (p90-p10): 80211=%.2f  ODPM=%.2f  RCAST=%.2f\n",
              flat_80211, spread_odpm, spread_rcast);

  shape_check(flat_80211 < 1e-6, "802.11 curve is flat at the maximum");
  shape_check(awake.back() >= odpm.back() * 0.999,
              "802.11 max >= ODPM max (nobody exceeds always-on)");
  shape_check(spread_odpm > spread_rcast,
              "ODPM per-node spread exceeds RCAST (energy balance)");
  shape_check(rcast.back() < awake.back(),
              "every RCAST node below the always-on ceiling");
  std::printf("\n");
}

void fig5(const Grid& g) {
  std::printf("=== Fig. 5: per-node energy consumption (sorted) ===\n\n");
  fig5_panel(g, "a", 0.4, g.mobile);
  fig5_panel(g, "b", 2.0, g.mobile);
  fig5_panel(g, "c", 0.4, g.stat);
  fig5_panel(g, "d", 2.0, g.stat);
}

// --- Fig. 6 ------------------------------------------------------------------
// Paper shape: 802.11 has zero variance; ODPM's variance is several times
// RCAST's ("four times less variance").

void fig6_panel(const Grid& g, const char* name, sim::Time pause) {
  std::printf("--- Fig.6%s: pause=%.0f s ---\n", name, sim::to_seconds(pause));
  std::printf("%-8s", "rate");
  for (double r : g.m.rates_pps) std::printf(" %10.1f", r);
  std::printf("\n");

  double var_odpm_sum = 0.0, var_rcast_sum = 0.0, var_awake_max = 0.0;
  for (Scheme s : kSchemes) {
    std::printf("%-8s", std::string(scenario::to_string(s)).c_str());
    for (double rate : g.m.rates_pps) {
      const double var = g.cell(s, rate, pause).energy_variance;
      std::printf(" %10.1f", var);
      if (s == Scheme::kOdpm) var_odpm_sum += var;
      if (s == Scheme::kRcast) var_rcast_sum += var;
      if (s == Scheme::k80211) var_awake_max = std::max(var_awake_max, var);
    }
    std::printf("\n");
  }

  std::printf("variance ratio ODPM/RCAST (sweep mean): %.2fx\n",
              var_odpm_sum / std::max(var_rcast_sum, 1e-12));
  shape_check(g.res.all_done(), "campaign ran every cell without failures");
  shape_check(var_awake_max < 1e-6, "802.11 variance is zero");
  shape_check(var_odpm_sum > 1.5 * var_rcast_sum,
              "ODPM variance well above RCAST (paper: ~2.4x-4x)");
  std::printf("\n");
}

void fig6(const Grid& g) {
  std::printf("=== Fig. 6: variance of per-node energy vs packet rate ===\n\n");
  fig6_panel(g, "a", g.mobile);
  fig6_panel(g, "b", g.stat);
}

// --- Fig. 7 ------------------------------------------------------------------
// Paper shape: 802.11 consumes the most energy; RCAST is 28-75% (mobile) to
// 37-131% (static) below ODPM; all schemes deliver >90% of packets; RCAST
// has the lowest energy-per-bit.

void fig7_panel(const Grid& g, const char* tag, sim::Time pause) {
  const auto& rates = g.m.rates_pps;
  const Sweep rows = g.sweep(pause);

  auto table = [&](const char* title, auto metric, const char* unit) {
    std::printf("--- Fig.7%s: %s [%s], pause=%.0f s ---\n", tag, title, unit,
                sim::to_seconds(pause));
    std::printf("%-8s", "rate");
    for (double r : rates) std::printf(" %12.1f", r);
    std::printf("\n");
    for (int i = 0; i < 3; ++i) {
      std::printf("%-8s", std::string(to_string(kSchemes[i])).c_str());
      for (std::size_t k = 0; k < rates.size(); ++k) {
        std::printf(" %12.4g", metric(rows[k][i]));
      }
      std::printf("\n");
    }
    std::printf("\n");
  };

  table("total energy", [](const RunResult& r) { return r.total_energy_j; },
        "J");
  table("packet delivery ratio",
        [](const RunResult& r) { return r.pdr_percent; }, "%");
  table("energy per bit",
        [](const RunResult& r) { return r.energy_per_bit_j; }, "J/bit");

  // Shape checks across the sweep.
  bool energy_order = true, pdr_ok = true, epb_rcast_best = true;
  double odpm_over_rcast_min = 1e9, odpm_over_rcast_max = 0.0;
  for (const auto& row : rows) {
    energy_order &= row[0].total_energy_j > row[1].total_energy_j &&
                    row[1].total_energy_j > row[2].total_energy_j;
    for (int i = 0; i < 3; ++i) pdr_ok &= row[i].pdr_percent > 85.0;
    epb_rcast_best &= row[2].energy_per_bit_j <= row[0].energy_per_bit_j &&
                      row[2].energy_per_bit_j <= row[1].energy_per_bit_j;
    const double ratio = (row[1].total_energy_j - row[2].total_energy_j) /
                         row[2].total_energy_j;
    odpm_over_rcast_min = std::min(odpm_over_rcast_min, ratio);
    odpm_over_rcast_max = std::max(odpm_over_rcast_max, ratio);
  }
  std::printf("RCAST energy advantage vs ODPM across sweep: %.0f%%..%.0f%%\n",
              100.0 * odpm_over_rcast_min, 100.0 * odpm_over_rcast_max);
  shape_check(energy_order, "energy: 802.11 > ODPM > RCAST at every rate");
  shape_check(pdr_ok, "all schemes deliver >85% of packets (paper: >90%)");
  shape_check(epb_rcast_best, "RCAST lowest energy-per-bit at every rate");
  shape_check(odpm_over_rcast_max > 0.15,
              "ODPM consumes noticeably more than RCAST (paper: 28-131%)");
  std::printf("\n");
}

void fig7(const Grid& g) {
  std::printf("=== Fig. 7: total energy, PDR, energy-per-bit vs rate ===\n\n");
  fig7_panel(g, "a-c", g.mobile);
  fig7_panel(g, "d-f", g.stat);
}

// --- Fig. 8 ------------------------------------------------------------------
// Paper shape: 802.11 and ODPM have small delay (immediate transmission);
// RCAST pays ~125 ms per hop of beacon buffering. Routing overhead is
// smallest for 802.11; ODPM and RCAST behave similarly ("RCAST performs at
// par with ODPM even with limited overhearing"); mobile scenarios have far
// higher overhead than static ones.

void print_metric(const Grid& g, const char* title, const Sweep& cells,
                  auto metric) {
  std::printf("--- %s ---\n%-8s", title, "rate");
  for (double r : g.m.rates_pps) std::printf(" %10.1f", r);
  std::printf("\n");
  for (int i = 0; i < 3; ++i) {
    std::printf("%-8s", std::string(to_string(kSchemes[i])).c_str());
    for (const auto& c : cells) std::printf(" %10.3f", metric(c[i]));
    std::printf("\n");
  }
  std::printf("\n");
}

void fig8(const Grid& g) {
  std::printf("=== Fig. 8: average delay and normalized routing overhead "
              "===\n\n");
  const Sweep mob = g.sweep(g.mobile);
  const Sweep sta = g.sweep(g.stat);

  print_metric(g, "Fig.8a: delay (s), mobile", mob,
               [](const RunResult& r) { return r.avg_delay_s; });
  print_metric(g, "Fig.8b: normalized routing overhead, mobile", mob,
               [](const RunResult& r) { return r.normalized_overhead; });
  print_metric(g, "Fig.8c: delay (s), static", sta,
               [](const RunResult& r) { return r.avg_delay_s; });
  print_metric(g, "Fig.8d: normalized routing overhead, static", sta,
               [](const RunResult& r) { return r.normalized_overhead; });

  bool delay_order = true;
  for (const Sweep* cells : {&mob, &sta}) {
    for (const auto& c : *cells) {
      delay_order &= c[0].avg_delay_s < c[2].avg_delay_s;  // 80211 < RCAST
      delay_order &= c[1].avg_delay_s < c[2].avg_delay_s;  // ODPM < RCAST
    }
  }
  shape_check(delay_order,
              "delay: 802.11 and ODPM below RCAST at every point");

  // RCAST delay is dominated by ~BI/2 per hop of buffering.
  bool rcast_delay_scale = true;
  for (const auto& c : sta) {
    rcast_delay_scale &= c[2].avg_delay_s > 0.1 && c[2].avg_delay_s < 10.0;
  }
  shape_check(rcast_delay_scale,
              "RCAST delay in the beacon-buffering regime (>= ~0.1 s)");

  double oh_mobile = 0.0, oh_static = 0.0;
  for (const auto& c : mob) {
    for (int i = 0; i < 3; ++i) oh_mobile += c[i].normalized_overhead;
  }
  for (const auto& c : sta) {
    for (int i = 0; i < 3; ++i) oh_static += c[i].normalized_overhead;
  }
  shape_check(oh_mobile > oh_static,
              "mobile overhead exceeds static overhead (more rediscovery)");

  // 802.11 has the smallest overhead; RCAST roughly at par with ODPM.
  double oh[3] = {0.0, 0.0, 0.0};
  for (const Sweep* cells : {&mob, &sta}) {
    for (const auto& c : *cells) {
      for (int i = 0; i < 3; ++i) oh[i] += c[i].normalized_overhead;
    }
  }
  shape_check(oh[0] <= oh[1] * 1.05 && oh[0] <= oh[2] * 1.05,
              "802.11 smallest routing overhead");
  shape_check(oh[2] < 3.0 * std::max(oh[1], 1e-9),
              "RCAST overhead at par with ODPM (within 3x despite limited "
              "overhearing)");
  std::printf("\n");
}

// --- Fig. 9 ------------------------------------------------------------------
// Paper shape: 802.11 points lie on a horizontal line (equal energy);
// RCAST's role numbers are more balanced than ODPM's (max role number in the
// high-rate panel: ~300 for RCAST vs ~500 for ODPM); role number does not
// strongly predict energy in RCAST.

std::uint64_t max_role(const RunResult& r) {
  std::uint64_t mx = 0;
  for (auto v : r.role_numbers) mx = std::max(mx, v);
  return mx;
}

/// Share of all forwarding work carried by the top 10% of nodes — the
/// concentration (preferential-attachment) measure behind Fig. 9's claim.
/// Normalizing by total work makes schemes with different delivery volumes
/// comparable.
double top_role_share(const RunResult& r) {
  auto v = r.role_numbers;
  std::sort(v.begin(), v.end());
  double total = 0.0;
  for (auto x : v) total += static_cast<double>(x);
  if (total == 0.0) return 0.0;
  const std::size_t k = std::max<std::size_t>(1, v.size() / 10);
  double top = 0.0;
  for (std::size_t i = v.size() - k; i < v.size(); ++i) {
    top += static_cast<double>(v[i]);
  }
  return top / total;
}

void fig9(const Grid& g) {
  std::printf("=== Fig. 9: role number vs per-node energy scatter ===\n\n");
  // panels: [80211@0.4, 80211@2, ODPM@0.4, ODPM@2, RCAST@0.4, RCAST@2]
  std::vector<RunResult> panels;
  const char* tags[6] = {"a", "b", "c", "d", "e", "f"};
  int t = 0;
  for (Scheme s : kSchemes) {
    for (double rate : {0.4, 2.0}) {
      RunResult r = g.cell(s, rate, g.mobile);
      std::printf("--- Fig.9%s: %s, rate=%.1f ---\n", tags[t++],
                  std::string(to_string(s)).c_str(), rate);
      std::printf("node: (role, energy J) — first 20 nodes\n");
      for (std::size_t i = 0;
           i < std::min<std::size_t>(20, r.role_numbers.size()); ++i) {
        std::printf("  %2zu: (%llu, %.1f)\n", i,
                    static_cast<unsigned long long>(r.role_numbers[i]),
                    r.per_node_energy_j[i]);
      }
      std::printf("max role=%llu  energy spread=%.2f J\n\n",
                  static_cast<unsigned long long>(max_role(r)),
                  r.energy_max_j - r.energy_min_j);
      panels.push_back(std::move(r));
    }
  }

  shape_check(panels[0].energy_max_j - panels[0].energy_min_j < 1e-6 &&
                  panels[1].energy_max_j - panels[1].energy_min_j < 1e-6,
              "802.11 scatter is a horizontal line (equal energy)");
  std::printf("forwarding concentration (top-decile share), rate=2.0: "
              "ODPM=%.2f RCAST=%.2f\n",
              top_role_share(panels[3]), top_role_share(panels[5]));
  // The preferential-attachment gap is a paper-scale effect: below the
  // paper's 100 nodes topology forces concentration for every scheme, so
  // the check allows slack there.
  const double slack = g.m.node_counts.front() >= 100 ? 1.0 : 1.35;
  shape_check(top_role_share(panels[5]) <= top_role_share(panels[3]) * slack,
              "high-rate forwarding concentration: RCAST <= ODPM (balance)");
  shape_check(panels[5].energy_variance < panels[3].energy_variance,
              "high-rate energy spread: RCAST < ODPM");
  // Role numbers exist (routes actually flowed) in every non-trivial panel.
  bool roles_flow = true;
  for (const auto& p : panels) roles_flow &= max_role(p) > 0;
  shape_check(roles_flow, "all panels show packet-forwarding activity");
}

}  // namespace

int main(int argc, char** argv) {
  const Manifest m = load_manifest(argc, argv);
  print_header("Figs. 5-9: the paper's evaluation grid", m);
  const Grid g{m, campaign::run_campaign(m, {}),
               pause_time(m, mobile_pause(m)),
               pause_time(m, PauseSpec::static_scenario())};
  fig5(g);
  fig6(g);
  fig7(g);
  fig8(g);
  fig9(g);
  return shape_exit();
}
