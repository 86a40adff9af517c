// Shared scaffolding for the shape-check bench binaries.
//
// Every bench prints (a) the same rows/series the paper figure reports and
// (b) a SHAPE-CHECK section asserting the qualitative result (orderings,
// crossovers, rough factors). Absolute joules differ from the paper's ns-2
// testbed; the shape is the reproduction target (see EXPERIMENTS.md).
//
// Scale: each binary takes one optional argument, a campaign manifest. The
// default is bench/paper_reduced.manifest (60 nodes, 150 s, 3 seeds), which
// keeps each binary in the seconds-to-a-minute range;
// bench/paper_full.manifest is the paper's 100 nodes / 1125 s / 10 seeds.
// bench_figures runs the manifest's grid as it stands. The other benches
// keep its scale (nodes, flows, duration, world, seeds) and replace its
// schemes, rates and pauses with their own cells. Every run goes through
// campaign::run_campaign with default options: in memory (no journal, no
// store), on every core.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "scenario/scenario.hpp"

namespace rcast::bench {

using campaign::CampaignResult;
using campaign::Manifest;
using campaign::PauseSpec;
using scenario::RunResult;
using scenario::ScenarioConfig;
using scenario::Scheme;

inline int g_shape_failures = 0;

/// Records and prints a shape expectation; returns the condition.
inline bool shape_check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_shape_failures;
  return ok;
}

inline int shape_exit() {
  if (g_shape_failures > 0) {
    std::printf("\n%d shape check(s) FAILED\n", g_shape_failures);
    return 1;
  }
  std::printf("\nall shape checks passed\n");
  return 0;
}

/// The manifest named by the only argument, or the reduced paper grid when
/// there is none. Exits 2 on a usage error or an unreadable manifest.
inline Manifest load_manifest(int argc, char** argv) {
  if (argc > 2) {
    std::fprintf(stderr, "usage: %s [MANIFEST]\n", argv[0]);
    std::exit(2);
  }
  const std::string path = argc == 2 ? argv[1] : RCAST_REDUCED_MANIFEST;
  try {
    return campaign::parse_manifest_file(path);
  } catch (const campaign::ManifestError& e) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
    std::exit(2);
  }
}

inline void print_header(const char* title, const Manifest& m) {
  std::printf("=== %s ===\n", title);
  std::printf("scale: %s (%zu nodes, %.0f s, %zu seeds)\n\n", m.name.c_str(),
              m.node_counts.front(), m.duration_s, m.seeds);
}

/// The manifest's mobile pause: its first fixed (non-static) one.
inline PauseSpec mobile_pause(const Manifest& m) {
  for (const PauseSpec& p : m.pauses) {
    if (!p.is_static) return p;
  }
  std::fprintf(stderr, "manifest '%s' has no fixed pause\n", m.name.c_str());
  std::exit(2);
}

/// The pause a job of `m` runs with at grid point `p` (static: the duration),
/// for matching a cell's ScenarioConfig::pause.
inline sim::Time pause_time(const Manifest& m, const PauseSpec& p) {
  return sim::from_seconds(p.is_static ? m.duration_s : p.seconds);
}

}  // namespace rcast::bench
