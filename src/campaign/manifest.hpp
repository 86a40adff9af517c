// Campaign manifests: a declarative parameter grid (scheme × routing ×
// rate × pause × node count × extra axes × seed) that expands
// deterministically into a job list. The text form is a flat key = value
// file (TOML-like scalars, comma-separated lists, '#' comments) so a whole
// paper-scale evaluation is one reviewable artifact instead of a loop
// buried in a bench binary.
//
// Beyond the six classic grid keys, *any* parameter registered in
// scenario/params.hpp (e.g. "mac.atim_window_ms", "odpm.rrep_timeout_s")
// is a valid manifest key: a single value is a scalar override applied to
// every job, a comma-separated list becomes an additional sweep axis.
//
// Expansion order is part of the format contract: scheme-major, seed-minor
// (scheme → routing → rate → pause → nodes → extra axes in manifest order
// → seed). Job indices, ids, and config digests are stable across
// processes, which is what lets the journal resume an interrupted campaign
// and the result store prove byte-identical aggregates.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "scenario/scheme.hpp"

namespace rcast::campaign {

/// Thrown on malformed manifest text; message carries the line number.
class ManifestError : public std::runtime_error {
 public:
  explicit ManifestError(const std::string& what) : std::runtime_error(what) {}
};

/// One pause-time grid point. `is_static` models the paper's "static
/// scenario" column: the pause is pinned to the scenario duration at
/// expansion time, whatever that duration is.
struct PauseSpec {
  double seconds = 0.0;
  bool is_static = false;

  static PauseSpec fixed(double s) { return {s, false}; }
  static PauseSpec static_scenario() { return {0.0, true}; }
};

/// A sweep axis over a registered scenario parameter (scenario/params.hpp).
/// Values are canonical parameter texts, in expansion order.
struct SweepAxis {
  std::string param;
  std::vector<std::string> values;
};

struct Manifest {
  std::string name = "campaign";

  // Grid axes (each axis must be non-empty).
  std::vector<scenario::Scheme> schemes{scenario::Scheme::kRcast};
  std::vector<scenario::RoutingProtocol> routings{
      scenario::RoutingProtocol::kDsr};
  std::vector<double> rates_pps{1.0};
  std::vector<PauseSpec> pauses{PauseSpec::fixed(600.0)};
  std::vector<std::size_t> node_counts{100};
  std::size_t seeds = 1;

  // Scalars applied to every job.
  std::uint64_t seed_base = 1;
  double duration_s = 150.0;
  std::size_t flows = 0;  // 0 = scenario::default_flows(node count)
  double payload_bytes = 64.0;
  double speed_mps = 20.0;
  double battery_j = 0.0;
  double world_w_m = 1500.0;
  double world_h_m = 300.0;

  /// Registered-parameter scalar overrides, (name, canonical value text) in
  /// manifest order; applied to every job before the grid fields.
  std::vector<std::pair<std::string, std::string>> overrides;

  /// Additional sweep axes over registered parameters, in manifest order
  /// (innermost-but-one loops; the seed stays innermost).
  std::vector<SweepAxis> axes;

  std::size_t job_count() const {
    std::size_t n = schemes.size() * routings.size() * rates_pps.size() *
                    pauses.size() * node_counts.size() * seeds;
    for (const auto& axis : axes) n *= axis.values.size();
    return n;
  }
};

/// Parses the key = value text form. Recognized keys:
///   name, schemes, routings, rates_pps, pauses_s (numbers or "static"),
///   nodes, seeds, seed_base, duration_s, flows, payload_bytes, speed_mps,
///   battery_j, world_m ("WxH") — plus any parameter registered in
///   scenario/params.hpp: a single value is an override, a comma-separated
///   list a sweep axis. Parameters that a classic key owns (axis_owner) must
///   use that key.
/// Classic keys take their values in the spelling and bounds of the
/// parameter they set (rates_pps as rate_pps, world_m as world.width_m and
/// world.height_m, flows as flows except that 0 picks default_flows, ...).
/// Unknown or duplicate keys, malformed or out-of-bounds values raise
/// ManifestError with the offending line number.
Manifest parse_manifest(std::string_view text);

/// The manifest key that owns registered parameter `param`: a grid axis
/// ("schemes" for power.scheme, "seeds / seed_base" for seed, ...) or a
/// manifest scalar that expand() writes into every job ("duration_s",
/// "world_m" for world.width_m and world.height_m, ...). Empty when `param`
/// is free to override. Owned parameters are rejected as manifest keys,
/// `--set` flags, Manifest::overrides and Manifest::axes.
std::string_view axis_owner(std::string_view param);

/// Reads and parses a manifest file; ManifestError on I/O failure too.
Manifest parse_manifest_file(const std::string& path);

/// One expanded grid point.
struct Job {
  std::size_t index = 0;     // position in expansion order
  std::string id;            // e.g. "RCAST/DSR/r1/p600/n100/s3" (extra axes
                             // append "name=value" segments before the seed)
  std::string digest;        // 16-hex-digit config digest
  scenario::ScenarioConfig cfg;
};

/// Expands the grid over `base` (subsystem knobs the manifest leaves
/// untouched come from `base`; manifest overrides and axes win over it).
/// The parameters axis_owner names always come from the manifest: `base`'s
/// values for them are overwritten. Throws ManifestError when an override
/// or axis names such a parameter.
std::vector<Job> expand(const Manifest& m,
                        const scenario::ScenarioConfig& base = {});

/// FNV-1a digest over the canonical text of every in-digest parameter in
/// the registry (scenario/params.hpp), tagged "cfg/v2": two configs with
/// the same digest produce the same RunResult (the simulator is
/// deterministic given the config). Any registry change — adding a field,
/// renaming, reordering — changes digests and therefore invalidates
/// existing campaign journals; bump the version tag when that happens so
/// the invalidation is explicit (DESIGN.md §11).
std::string config_digest(const scenario::ScenarioConfig& cfg);

/// Same as config_digest but with the seed excluded: identifies the
/// aggregation cell a job belongs to (all seeds of one grid point share
/// it), whatever combination of axes produced the config.
std::string config_cell_digest(const scenario::ScenarioConfig& cfg);

/// Digest of the whole expanded job list (order-sensitive); the journal
/// header pins this so a stale journal can never corrupt a resumed run.
std::string campaign_digest(const std::string& name,
                            const std::vector<Job>& jobs);

}  // namespace rcast::campaign
