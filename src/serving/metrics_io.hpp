// LiveSnapshot <-> JSON, plus the tmp+rename snapshot file a campaign run
// rewrites after each job. The daemon's /metrics endpoint reads that file in
// `run` and `serve` alike, so a finished store keeps reporting the counters
// of the run that wrote it.
#pragma once

#include <optional>
#include <string>

#include "stats/live_counters.hpp"

namespace rcast::serving {

/// Renders a snapshot as a flat JSON object (fixed field order).
std::string snapshot_to_json(const stats::LiveSnapshot& s);

/// Parses snapshot_to_json output; nullopt on malformed/unreadable input
/// (a run that has not committed a job yet — callers treat it as zeros).
std::optional<stats::LiveSnapshot> snapshot_from_json(const std::string& text);

/// Atomically publishes a snapshot to `path` (write `path.tmp`, rename).
void write_snapshot_file(const std::string& path,
                         const stats::LiveSnapshot& s);

/// Reads a snapshot file; nullopt if absent or torn.
std::optional<stats::LiveSnapshot> read_snapshot_file(const std::string& path);

}  // namespace rcast::serving
