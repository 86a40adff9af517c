#include "campaign/manifest.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "scenario/params.hpp"
#include "util/flags.hpp"

namespace rcast::campaign {

namespace {

std::string trim(std::string_view s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string_view::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return std::string(s.substr(b, e - b + 1));
}

std::vector<std::string> split_list(const std::string& v) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const auto comma = v.find(',', start);
    const std::string item =
        trim(std::string_view(v).substr(start, comma - start));
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

[[noreturn]] void fail(int line, const std::string& what) {
  throw ManifestError("manifest line " + std::to_string(line) + ": " + what);
}

/// Parses one value of a classic key as registered parameter `param`, so
/// it is spelled and bounded exactly as `--set` and sweep axes take it.
scenario::ParamValue need_param(int line, std::string_view param,
                                std::string_view v) {
  try {
    return scenario::find_param(param)->parse(v);
  } catch (const scenario::ParamError& e) {
    fail(line, e.what());
  }
}

std::uint64_t need_u64(int line, const std::string& key,
                       const std::string& v) {
  const auto u = Flags::parse_u64(v);
  if (!u) fail(line, key + ": expected a non-negative integer, got '" + v + "'");
  return *u;
}

// FNV-1a 64-bit over a canonical text rendering.
class Digest {
 public:
  void mix(std::string_view s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
    mix_char('|');
  }
  void mix(double d) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    mix(buf);
  }
  void mix(std::uint64_t u) { mix(std::to_string(u)); }
  void mix(std::int64_t i) { mix(std::to_string(i)); }

  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void mix_char(char c) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ULL;
  }

  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Compact number rendering for job ids ("r0.4", "p600", not "p600.000000").
std::string num_id(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

// Registered params owned by the classic manifest keys: the grid axes and
// the scalars expand() writes into every job. As manifest overrides or
// extra axes they would be overwritten by the expansion, so every surface
// points at the owning key instead.
constexpr std::pair<std::string_view, std::string_view> kAxisOwned[] = {
    {"power.scheme", "schemes"},
    {"routing.protocol", "routings"},
    {"rate_pps", "rates_pps"},
    {"pause_s", "pauses_s"},
    {"nodes", "nodes"},
    {"seed", "seeds / seed_base"},
    {"flows", "flows"},
    {"duration_s", "duration_s"},
    {"payload_bytes", "payload_bytes"},
    {"speed_mps", "speed_mps"},
    {"battery_j", "battery_j"},
    {"world.width_m", "world_m"},
    {"world.height_m", "world_m"},
};

}  // namespace

std::string_view axis_owner(std::string_view param) {
  for (const auto& [p, owner] : kAxisOwned) {
    if (p == param) return owner;
  }
  return {};
}

Manifest parse_manifest(std::string_view text) {
  Manifest m;
  std::set<std::string> seen;
  std::istringstream in{std::string(text)};
  std::string raw_line;
  int line_no = 0;
  while (std::getline(in, raw_line)) {
    ++line_no;
    std::string line = raw_line;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;

    const auto eq = line.find('=');
    if (eq == std::string::npos) fail(line_no, "expected 'key = value'");
    const std::string key = trim(std::string_view(line).substr(0, eq));
    const std::string value = trim(std::string_view(line).substr(eq + 1));
    if (key.empty()) fail(line_no, "empty key");
    if (value.empty()) fail(line_no, key + ": empty value");
    if (!seen.insert(key).second) fail(line_no, "duplicate key '" + key + "'");

    if (key == "name") {
      m.name = value;
    } else if (key == "schemes") {
      m.schemes.clear();
      for (const auto& item : split_list(value)) {
        m.schemes.push_back(*scenario::scheme_from_string(
            need_param(line_no, "power.scheme", item).token));
      }
      if (m.schemes.empty()) fail(line_no, "schemes: empty list");
    } else if (key == "routings") {
      m.routings.clear();
      for (const auto& item : split_list(value)) {
        m.routings.push_back(*scenario::routing_from_string(
            need_param(line_no, "routing.protocol", item).token));
      }
      if (m.routings.empty()) fail(line_no, "routings: empty list");
    } else if (key == "rates_pps") {
      m.rates_pps.clear();
      for (const auto& item : split_list(value)) {
        m.rates_pps.push_back(need_param(line_no, "rate_pps", item).d);
      }
      if (m.rates_pps.empty()) fail(line_no, "rates_pps: empty list");
    } else if (key == "pauses_s") {
      m.pauses.clear();
      for (const auto& item : split_list(value)) {
        m.pauses.push_back(
            item == "static"
                ? PauseSpec::static_scenario()
                : PauseSpec::fixed(need_param(line_no, "pause_s", item).d));
      }
      if (m.pauses.empty()) fail(line_no, "pauses_s: empty list");
    } else if (key == "nodes") {
      m.node_counts.clear();
      for (const auto& item : split_list(value)) {
        m.node_counts.push_back(need_param(line_no, key, item).u);
      }
      if (m.node_counts.empty()) fail(line_no, "nodes: empty list");
    } else if (key == "seeds") {
      m.seeds = static_cast<std::size_t>(need_u64(line_no, key, value));
      if (m.seeds == 0) fail(line_no, "seeds: must be >= 1");
    } else if (key == "seed_base") {
      m.seed_base = need_u64(line_no, key, value);
    } else if (key == "duration_s") {
      m.duration_s = need_param(line_no, key, value).d;
    } else if (key == "flows") {  // 0 (the default): default_flows(nodes)
      m.flows = value == "0" ? 0 : need_param(line_no, key, value).u;
    } else if (key == "payload_bytes") {
      m.payload_bytes = need_param(line_no, key, value).d;
    } else if (key == "speed_mps") {
      m.speed_mps = need_param(line_no, key, value).d;
    } else if (key == "battery_j") {
      m.battery_j = need_param(line_no, key, value).d;
    } else if (key == "world_m") {
      const auto x = value.find('x');
      if (x == std::string::npos) fail(line_no, "world_m: expected 'WxH'");
      const std::string_view v(value);
      m.world_w_m = need_param(line_no, "world.width_m", trim(v.substr(0, x))).d;
      m.world_h_m = need_param(line_no, "world.height_m", trim(v.substr(x + 1))).d;
    } else if (const scenario::Param* p = scenario::find_param(key)) {
      // Any registered scenario parameter: single value = scalar override,
      // comma-separated list = extra sweep axis.
      if (const auto owner = axis_owner(key); !owner.empty()) {
        fail(line_no, "'" + key + "' is owned by the manifest key '" +
                          std::string(owner) + "'; use that key");
      }
      const auto items = split_list(value);
      if (items.empty()) fail(line_no, key + ": empty value");
      std::vector<std::string> canonical;
      canonical.reserve(items.size());
      for (const auto& item : items) {
        try {
          canonical.push_back(p->parse(item).text());
        } catch (const scenario::ParamError& e) {
          fail(line_no, e.what());
        }
      }
      if (value.find(',') != std::string::npos) {
        m.axes.push_back(SweepAxis{key, std::move(canonical)});
      } else {
        m.overrides.emplace_back(key, std::move(canonical.front()));
      }
    } else {
      fail(line_no, "unknown key '" + key +
                        "' (not a manifest key or a registered scenario "
                        "parameter; see rcast_sim --help-params)");
    }
  }
  return m;
}

Manifest parse_manifest_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ManifestError("cannot open manifest: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_manifest(buf.str());
}

namespace {

// Both digests iterate the parameter registry, so every behavior-affecting
// ScenarioConfig field is mixed (the ParamRegistry completeness test pins
// this). The version tag makes registry changes an explicit invalidation:
// adding/renaming/reordering a parameter changes every digest, which
// retires existing campaign journals — bump the tag when you change the
// registry so the incompatibility is visible in code review (DESIGN.md §11).
std::string registry_digest(const scenario::ScenarioConfig& cfg,
                            const char* tag, bool with_seed) {
  Digest d;
  d.mix(tag);
  for (const scenario::Param& p : scenario::param_registry()) {
    if (!p.in_digest) continue;
    if (!with_seed && p.name == "seed") continue;
    d.mix(p.name);
    d.mix(p.get(cfg).text());
  }
  return d.hex();
}

}  // namespace

std::string config_digest(const scenario::ScenarioConfig& cfg) {
  return registry_digest(cfg, "cfg/v4", /*with_seed=*/true);
}

std::string config_cell_digest(const scenario::ScenarioConfig& cfg) {
  return registry_digest(cfg, "cell/v4", /*with_seed=*/false);
}

std::vector<Job> expand(const Manifest& m, const scenario::ScenarioConfig& base) {
  if (m.schemes.empty() || m.routings.empty() || m.rates_pps.empty() ||
      m.pauses.empty() || m.node_counts.empty() || m.seeds == 0) {
    throw ManifestError("manifest '" + m.name + "': every grid axis must be non-empty");
  }
  for (const auto& axis : m.axes) {
    if (axis.values.empty()) {
      throw ManifestError("manifest '" + m.name + "': axis '" + axis.param +
                          "' has no values");
    }
  }
  auto reject_owned = [&](const std::string& name) {
    if (const auto owner = axis_owner(name); !owner.empty()) {
      throw ManifestError("manifest '" + m.name + "': '" + name +
                          "' is owned by the manifest key '" +
                          std::string(owner) + "'");
    }
  };
  for (const auto& [name, text] : m.overrides) reject_owned(name);
  for (const auto& axis : m.axes) reject_owned(axis.param);

  // Resolve override/axis params once; parse_manifest validated the names.
  auto resolve = [&](const std::string& name) -> const scenario::Param& {
    const scenario::Param* p = scenario::find_param(name);
    if (p == nullptr) {
      throw ManifestError("manifest '" + m.name + "': unknown parameter '" +
                          name + "'");
    }
    return *p;
  };

  // Base config with every scalar override applied, cloned per job.
  scenario::ScenarioConfig overridden = base;
  for (const auto& [name, text] : m.overrides) {
    const scenario::Param& p = resolve(name);
    try {
      p.set(overridden, p.parse(text));
    } catch (const scenario::ParamError& e) {
      throw ManifestError("manifest '" + m.name + "': " + e.what());
    }
  }

  // Odometer over the extra axes (first axis slowest, matching the nesting
  // of the classic loops); empty when there are none.
  std::vector<std::size_t> odo(m.axes.size(), 0);
  const auto advance_odo = [&]() -> bool {
    for (std::size_t i = odo.size(); i-- > 0;) {
      if (++odo[i] < m.axes[i].values.size()) return true;
      odo[i] = 0;
    }
    return false;
  };

  std::vector<Job> jobs;
  jobs.reserve(m.job_count());
  for (const auto scheme : m.schemes) {
    for (const auto routing : m.routings) {
      for (const double rate : m.rates_pps) {
        for (const auto& pause : m.pauses) {
          for (const std::size_t nodes : m.node_counts) {
            bool more_axes = true;
            for (; more_axes; more_axes = advance_odo()) {
              for (std::size_t k = 0; k < m.seeds; ++k) {
                Job job;
                job.index = jobs.size();
                job.cfg = overridden;
                job.cfg.scheme = scheme;
                job.cfg.routing = routing;
                job.cfg.rate_pps = rate;
                job.cfg.num_nodes = nodes;
                job.cfg.num_flows =
                    m.flows > 0 ? m.flows : scenario::default_flows(nodes);
                job.cfg.duration = sim::from_seconds(m.duration_s);
                job.cfg.pause = pause.is_static
                                    ? job.cfg.duration
                                    : sim::from_seconds(pause.seconds);
                job.cfg.seed = m.seed_base + k;
                job.cfg.payload_bits =
                    static_cast<std::int64_t>(m.payload_bytes) * 8;
                job.cfg.max_speed_mps = m.speed_mps;
                job.cfg.battery_joules = m.battery_j;
                job.cfg.world = {m.world_w_m, m.world_h_m};

                std::ostringstream id;
                id << scenario::to_string(scheme) << '/'
                   << scenario::to_string(routing) << "/r" << num_id(rate)
                   << "/p"
                   << (pause.is_static ? std::string("static")
                                       : num_id(pause.seconds))
                   << "/n" << nodes;
                for (std::size_t i = 0; i < m.axes.size(); ++i) {
                  const scenario::Param& p = resolve(m.axes[i].param);
                  const auto value = p.parse(m.axes[i].values[odo[i]]);
                  p.set(job.cfg, value);
                  id << '/' << m.axes[i].param << '=' << value.pretty();
                }
                id << "/s" << job.cfg.seed;

                if (job.cfg.num_flows == 0) {
                  throw ManifestError("manifest '" + m.name + "': job '" +
                                      id.str() + "' expands to 0 flows");
                }
                job.digest = config_digest(job.cfg);
                job.id = id.str();
                jobs.push_back(std::move(job));
              }
            }
          }
        }
      }
    }
  }
  return jobs;
}

std::string campaign_digest(const std::string& name,
                            const std::vector<Job>& jobs) {
  Digest d;
  d.mix(name);
  d.mix(static_cast<std::uint64_t>(jobs.size()));
  for (const auto& job : jobs) d.mix(job.digest);
  return d.hex();
}

}  // namespace rcast::campaign
