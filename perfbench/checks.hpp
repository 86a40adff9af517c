// Output checks behind the benchmark's `failed` count: a run that threw,
// timed out, or fails any check below is a failed run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"

namespace rcast::perfbench {

/// Lowest PDR a run must reach where data has to flow.
struct PdrFloor {
  double pct = 0.0;
};
inline constexpr PdrFloor kPaperCellPdr{70.0};     // 90 s runs: 85-96%
inline constexpr PdrFloor kScaleShardedPdr{70.0};  // 15 s runs: 85-92%
inline constexpr PdrFloor kCampaignJobPdr{50.0};

/// Identity of a run's outputs: FNV-1a over events executed, total and
/// per-node energy (bit patterns) and packets delivered, folded to 52 bits so
/// it survives a JSON double exactly.
std::uint64_t fingerprint(const scenario::RunResult& r);

/// Checks one finished run against its config; returns one message per
/// violated check (empty = the run passed):
///  * delivered <= originated, and per_node_energy_j has one entry per node;
///  * every node's energy lies in [sleep W x T, awake W x T];
///  * under 802.11 (always awake) every node sits at exactly awake W x T;
///  * PDR >= floor.
std::vector<std::string> check_run(const scenario::ScenarioConfig& cfg,
                                   const scenario::RunResult& r,
                                   PdrFloor floor);

/// Cross-run checks: same-seed runs share one fingerprint, and the same
/// grid exports the same CSV bytes. Return "" when they hold.
std::string check_same_fingerprint(const scenario::RunResult& a,
                                   const scenario::RunResult& b,
                                   const std::string& what);
std::string check_same_csv(const std::string& a, const std::string& b);

}  // namespace rcast::perfbench
