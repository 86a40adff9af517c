// rcast_sim — command-line front end to the simulator.
//
// Runs one scenario (or one per scheme) and prints either a human-readable
// report or a CSV row per run. Each classic flag (--nodes, --rate, ...) is
// shorthand for one registered parameter and `--set` reaches all of them,
// so scenario values are parsed and bounded by the parameter registry.
// Optional per-packet event tracing to a file.
//
// Examples:
//   rcast_sim --scheme=rcast --nodes=100 --rate=1.0 --seconds=300
//   rcast_sim --scheme=all --csv --seeds=5 > sweep.csv
//   rcast_sim --scheme=odpm --routing=aodv --trace=events.csv
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "scenario/params.hpp"
#include "scenario/scenario.hpp"
#include "scenario/scheme.hpp"
#include "stats/trace.hpp"
#include "util/flags.hpp"

namespace {

using namespace rcast;

// The classic flags and the registered parameter each one sets.
constexpr std::pair<const char*, const char*> kFlagParams[] = {
    {"scheme", "power.scheme"},   {"routing", "routing.protocol"},
    {"nodes", "nodes"},           {"flows", "flows"},
    {"rate", "rate_pps"},         {"payload", "payload_bytes"},
    {"seconds", "duration_s"},    {"width", "world.width_m"},
    {"height", "world.height_m"}, {"pause", "pause_s"},
    {"speed", "speed_mps"},       {"battery", "battery_j"},
    {"seed", "seed"},             {"estimator", "rcast.estimator"},
};

void print_usage() {
  std::puts(
      "rcast_sim — MANET energy-efficiency simulator (Rcast reproduction)\n"
      "\n"
      "  --scheme=NAME      80211 | psm-none | psm-all | odpm | rcast |\n"
      "                     rcast-bc | all            (default rcast)\n"
      "  --routing=PROTO    dsr | aodv                (default dsr)\n"
      "  --nodes=N          node count                (default 100)\n"
      "  --flows=N          CBR flow count            (default nodes/5)\n"
      "  --rate=PPS         packets/s per flow        (default 1.0)\n"
      "  --payload=BYTES    CBR payload               (default 64)\n"
      "  --seconds=S        simulated time            (default 150)\n"
      "  --width/--height=M world size                (default 1500x300)\n"
      "  --pause=S          waypoint pause; >=seconds => static (default s/2)\n"
      "  --speed=MPS        max node speed            (default 20)\n"
      "  --battery=J        per-node battery, 0=inf   (default 0)\n"
      "  --seed=N --seeds=K first seed / repetitions  (default 1 / 1)\n"
      "  --estimator=NAME   neighbors | sender-id | mobility | battery |\n"
      "                     combined                  (default neighbors)\n"
      "  --set KEY=VALUE    set any registered scenario parameter by its\n"
      "                     dotted name (e.g. --set mac.atim_window_ms=25\n"
      "                     --set odpm.rrep_timeout_s=10); repeatable,\n"
      "                     applied after the flags above\n"
      "  --csv              one CSV row per run (with header)\n"
      "  --trace=FILE       per-event trace, routing + MAC (single-run only)\n"
      "  --help-params      list every registered parameter\n"
      "  --help             this text");
}

// The mobility and traffic columns predate cfg/v4, since which every run is
// random waypoint with CBR flows.
void print_csv_header() {
  std::printf(
      "scheme,routing,mobility,traffic,seed,nodes,flows,rate_pps,seconds,"
      "pause_s,pdr_pct,energy_j,energy_var,epb_j_per_bit,delay_s,delay_p50_s,"
      "delay_p90_s,norm_overhead,ctrl_tx,hello_tx,dead_nodes,"
      "first_node_death_s,partition_time_s\n");
}

void print_csv_row(const scenario::ScenarioConfig& cfg,
                   const scenario::RunResult& r) {
  std::printf(
      "%s,%s,rwp,cbr,%llu,%zu,%zu,%.3f,%.1f,%.1f,%.2f,%.1f,%.1f,%.6g,%.4f,"
      "%.4f,%.4f,%.3f,%llu,%llu,%zu,%.1f,%.1f\n",
      std::string(to_string(cfg.scheme)).c_str(),
      std::string(to_string(cfg.routing)).c_str(),
      static_cast<unsigned long long>(cfg.seed), cfg.num_nodes,
      cfg.num_flows, cfg.rate_pps, sim::to_seconds(cfg.duration),
      sim::to_seconds(cfg.pause), r.pdr_percent, r.total_energy_j,
      r.energy_variance, r.energy_per_bit_j, r.avg_delay_s, r.delay_p50_s,
      r.delay_p90_s, r.normalized_overhead,
      static_cast<unsigned long long>(r.control_tx),
      static_cast<unsigned long long>(r.hello_tx), r.dead_nodes,
      r.first_death_s, r.partition_time_s);
}

void print_report(const scenario::ScenarioConfig& cfg,
                  const scenario::RunResult& r) {
  std::printf("--- %s / %s (seed %llu) ---\n",
              std::string(to_string(cfg.scheme)).c_str(),
              std::string(to_string(cfg.routing)).c_str(),
              static_cast<unsigned long long>(cfg.seed));
  std::printf("  delivery : %llu/%llu packets (PDR %.1f%%)\n",
              static_cast<unsigned long long>(r.delivered),
              static_cast<unsigned long long>(r.originated), r.pdr_percent);
  std::printf("  energy   : %.1f J total, %.1f J/node mean, variance %.1f\n",
              r.total_energy_j, r.energy_mean_j, r.energy_variance);
  std::printf("  delay    : mean %.3f s (p50 %.3f, p90 %.3f; route-wait "
              "%.3f + transit %.3f)\n",
              r.avg_delay_s, r.delay_p50_s, r.delay_p90_s,
              r.avg_route_wait_s, r.avg_transit_s);
  std::printf("  overhead : %llu control tx (%.3f per delivered)",
              static_cast<unsigned long long>(r.control_tx),
              r.normalized_overhead);
  if (r.hello_tx > 0) {
    std::printf(", %llu hellos", static_cast<unsigned long long>(r.hello_tx));
  }
  std::printf("\n  psm      : %llu ATIMs, %llu overhear commits / %llu "
              "declines, %llu sleeps\n",
              static_cast<unsigned long long>(r.atim_tx),
              static_cast<unsigned long long>(r.overhear_commits),
              static_cast<unsigned long long>(r.overhear_declines),
              static_cast<unsigned long long>(r.mac_sleeps));
  if (r.dead_nodes > 0) {
    std::printf("  battery  : %zu nodes dead, first death at %.1f s\n",
                r.dead_nodes, r.first_death_s);
  }
  if (r.partition_time_s > 0.0) {
    std::printf("  lifetime : network partitioned at %.1f s\n",
                r.partition_time_s);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  if (flags.has("help")) {
    print_usage();
    return 0;
  }
  if (flags.has("help-params")) {
    std::fputs(scenario::params_help().c_str(), stdout);
    return 0;
  }

  // Quick-run defaults: 150 s instead of the paper's 1125 s, then flows =
  // nodes/5 (at least 1) and pause = seconds/2 unless given.
  scenario::ScenarioConfig cfg;
  cfg.duration = 150 * sim::kSecond;
  const auto apply = [&cfg](const std::string& typed, const std::string& key,
                            const std::string& value) {
    try {
      scenario::set_param(cfg, key, value);
      return true;
    } catch (const scenario::ParamError& e) {
      std::fprintf(stderr, "%s: %s\n", typed.c_str(), e.what());
      return false;
    }
  };
  // --scheme=all belongs to the run loop below, not to power.scheme.
  const bool all_schemes = flags.get_string("scheme", "") == "all";
  for (const auto& [flag, param] : kFlagParams) {
    if (!flags.has(flag) || (all_schemes && std::string(flag) == "scheme")) {
      continue;
    }
    const std::string value = flags.get_string(flag, "");
    if (!apply("--" + std::string(flag) + "=" + value, param, value)) return 2;
  }
  if (!flags.has("flows")) {
    cfg.num_flows = scenario::default_flows(cfg.num_nodes);
  }
  if (!flags.has("pause")) {
    cfg.pause = sim::from_seconds(sim::to_seconds(cfg.duration) / 2.0);
  }
  const std::string seeds_text = flags.get_string("seeds", "1");
  const auto seeds = Flags::parse_u64(seeds_text);
  if (!seeds) {
    std::fprintf(stderr, "--seeds: expected a non-negative integer, got '%s'\n",
                 seeds_text.c_str());
    return 2;
  }

  // Generic overrides, applied on top of the flags above. The seed stays
  // flag-owned because the run loops below iterate it; the scheme may come
  // from either --scheme or --set power.scheme, but not both.
  for (const std::string& kv : flags.get_all("set")) {
    const auto eq = kv.find('=');
    if (eq == std::string::npos || eq == 0) {
      std::fprintf(stderr, "--set expects KEY=VALUE, got '%s'\n", kv.c_str());
      return 2;
    }
    const std::string key = kv.substr(0, eq);
    if (key == "seed") {
      std::fprintf(stderr, "--set seed: use --seed instead\n");
      return 2;
    }
    if (key == "power.scheme" && flags.has("scheme")) {
      std::fprintf(stderr,
                   "--set power.scheme conflicts with --scheme; pass one of "
                   "them\n");
      return 2;
    }
    if (!apply("--set " + kv, key, kv.substr(eq + 1))) return 2;
  }
  std::vector<scenario::Scheme> schemes = {cfg.scheme};
  if (all_schemes) {
    schemes.assign(scenario::kAllSchemes.begin(), scenario::kAllSchemes.end());
  }

  const bool csv = flags.get_bool("csv", false);
  const std::string trace_path = flags.get_string("trace", "");

  for (const auto& unknown : flags.unknown()) {
    std::fprintf(stderr, "unknown flag: --%s (see --help)\n",
                 unknown.c_str());
    return 2;
  }
  if (!trace_path.empty() && (schemes.size() > 1 || *seeds > 1)) {
    std::fprintf(stderr, "--trace requires a single scheme and seed\n");
    return 2;
  }

  if (csv) print_csv_header();

  for (auto scheme : schemes) {
    cfg.scheme = scheme;
    for (std::uint64_t k = 0; k < *seeds; ++k) {
      scenario::ScenarioConfig run_cfg = cfg;
      run_cfg.seed = cfg.seed + k;

      scenario::RunResult r;
      if (!trace_path.empty()) {
        std::ofstream out(trace_path);
        if (!out) {
          std::fprintf(stderr, "cannot open %s\n", trace_path.c_str());
          return 1;
        }
        stats::EventTracer tracer(out);
        scenario::Network net(run_cfg);
        net.telemetry().subscribe_routing(&tracer);
        net.telemetry().subscribe_mac(&tracer);
        r = net.run();
        std::fprintf(stderr, "trace: %llu events -> %s\n",
                     static_cast<unsigned long long>(tracer.lines_written()),
                     trace_path.c_str());
      } else {
        r = scenario::run_scenario(run_cfg);
      }

      if (csv) {
        print_csv_row(run_cfg, r);
      } else {
        print_report(run_cfg, r);
      }
    }
  }
  return 0;
}
