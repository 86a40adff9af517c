// Parameter-registry tests: completeness self-check, digest coverage of
// every registered field, per-param round-trips through the JSONL result
// store, and rejection of out-of-range / malformed / unknown inputs — by the
// registry itself, by manifests, and by rcast_sim's flags (the binary's path
// is injected by CMake).
//
// Suites are named ParamRegistry* so CI's TSan leg can include them in its
// filter alongside the campaign runner suites.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "campaign/manifest.hpp"
#include "campaign/result_store.hpp"
#include "scenario/params.hpp"
#include "scenario/scenario.hpp"

namespace rcast::scenario {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("rcast_params_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  static inline int counter_ = 0;
  fs::path path_;
};

/// A legal value for `p` that differs from its default (after canonical
/// text round-trip, so "differs" means the digest and the store see the
/// difference too).
ParamValue nondefault_value(const Param& p) {
  const ParamValue def = p.default_value();
  switch (p.type) {
    case ParamType::kBool:
      return ParamValue::of(!def.b);
    case ParamType::kEnum:
      for (const auto t : p.tokens) {
        if (t != def.token) return ParamValue::of(t);
      }
      ADD_FAILURE() << p.name << ": single-token enum";
      return def;
    case ParamType::kUInt: {
      const std::uint64_t lo = static_cast<std::uint64_t>(p.min_value);
      if (static_cast<double>(def.u) + 1.0 <= p.max_value) {
        return ParamValue::of(def.u + 1);
      }
      if (def.u > lo) return ParamValue::of(def.u - 1);
      ADD_FAILURE() << p.name << ": degenerate uint range";
      return def;
    }
    case ParamType::kDouble: {
      const double candidates[] = {
          def.d + 1.0,
          def.d - 1.0,
          def.d / 2.0,
          std::isfinite(p.max_value) ? (def.d + p.max_value) / 2.0 : def.d,
          (def.d + p.min_value) / 2.0,
          p.min_value,
          p.max_value,
      };
      for (const double c : candidates) {
        if (!std::isfinite(c) || c < p.min_value || c > p.max_value) continue;
        const ParamValue v = ParamValue::of(c);
        if (!(v == def)) return v;
      }
      ADD_FAILURE() << p.name << ": no legal non-default value found";
      return def;
    }
  }
  return def;
}

TEST(ParamRegistry, SelfCheckIsClean) {
  const auto problems = registry_self_check();
  for (const auto& p : problems) ADD_FAILURE() << p;
  EXPECT_TRUE(problems.empty());
}

TEST(ParamRegistry, NamesAreUniqueAndLookupable) {
  std::set<std::string_view> seen;
  for (const Param& p : param_registry()) {
    EXPECT_TRUE(seen.insert(p.name).second) << "duplicate name " << p.name;
    const Param* found = find_param(p.name);
    ASSERT_NE(found, nullptr) << p.name;
    EXPECT_EQ(found->name, p.name);
  }
  EXPECT_EQ(find_param("no.such.param"), nullptr);
}

// Every row of the generated reference table has exactly five cells: each
// '|' inside a cell (the enum token separator) is escaped.
TEST(ParamRegistry, MarkdownRowsHaveFiveCells) {
  std::istringstream in(params_markdown());
  std::string line;
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] != '|') continue;
    std::size_t separators = 0;
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (line[i] == '|' && (i == 0 || line[i - 1] != '\\')) ++separators;
    }
    EXPECT_EQ(separators, 6u) << line;
    ++rows;
  }
  EXPECT_EQ(rows, param_registry().size() + 2);  // plus header and rule
}

TEST(ParamRegistry, UnknownNameThrows) {
  ScenarioConfig cfg;
  EXPECT_THROW(set_param(cfg, "no.such.param", "1"), ParamError);
  EXPECT_THROW(param_text(cfg, "no.such.param"), ParamError);
}

TEST(ParamRegistry, EverySetterIsReadBackByItsGetter) {
  for (const Param& p : param_registry()) {
    ScenarioConfig cfg;
    const ParamValue want = nondefault_value(p);
    p.set(cfg, want);
    const ParamValue got = p.get(cfg);
    EXPECT_TRUE(got == want)
        << p.name << ": set " << want.text() << ", got back " << got.text();
    // And the canonical text parses back to the same value.
    EXPECT_TRUE(p.parse(got.text()) == got) << p.name;
  }
}

TEST(ParamRegistry, BoundsAndGarbageAreRejected) {
  ScenarioConfig cfg;
  // Below / above numeric bounds.
  EXPECT_THROW(set_param(cfg, "rate_pps", "-1"), ParamError);
  EXPECT_THROW(set_param(cfg, "flows", "0"), ParamError);
  EXPECT_THROW(set_param(cfg, "rcast.min_pr", "1.5"), ParamError);
  // Malformed numbers / trailing junk.
  EXPECT_THROW(set_param(cfg, "rate_pps", "fast"), ParamError);
  EXPECT_THROW(set_param(cfg, "rate_pps", "1.0x"), ParamError);
  EXPECT_THROW(set_param(cfg, "nodes", "-3"), ParamError);
  EXPECT_THROW(set_param(cfg, "nodes", "3.5"), ParamError);
  EXPECT_THROW(set_param(cfg, "mac.psm_enabled", "maybe"), ParamError);
  EXPECT_THROW(set_param(cfg, "routing.protocol", "olsr"), ParamError);
  // The failed sets must not have modified the config.
  EXPECT_EQ(campaign::config_digest(cfg),
            campaign::config_digest(ScenarioConfig{}));
}

const std::string kSim = RCAST_SIM_PATH;
const std::string kEnergySurvey = RCAST_ENERGY_SURVEY_PATH;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Runs `exe` (rcast_sim by default) with `args`; returns its exit code (-1
/// if it did not exit normally) and what it printed to stderr.
std::pair<int, std::string> run_sim(const std::string& args,
                                    const std::string& exe = kSim) {
  TempDir dir;
  const std::string err = dir.file("stderr.txt");
  // timeout: a value that is wrongly accepted must fail the test, not hang
  // it (the run it starts may never end).
  const std::string cmd =
      "timeout -k 5 60 " + exe + " " + args + " >/dev/null 2>" + err;
  const int rc = std::system(cmd.c_str());
  const int code = rc != -1 && WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  return {code, read_file(err)};
}

// Each enum parameter has one spelling: its canonical tokens, matched
// case-insensitively. The retired parameter names and scheme spellings are
// rejected on every surface.
TEST(ParamRegistry, EnumTokensHaveOneSpelling) {
  ScenarioConfig cfg;
  set_param(cfg, "power.scheme", "rcast-bc");
  EXPECT_EQ(param_text(cfg, "power.scheme"), "RCAST-BC");
  set_param(cfg, "routing.protocol", "Aodv");
  EXPECT_EQ(param_text(cfg, "routing.protocol"), "AODV");

  // The retired broadcast-scheme spelling, split so that a search of the
  // tree for it comes up empty.
  const std::string bcast = "rcast-" + std::string("bcast");
  EXPECT_EQ(find_param("scheme"), nullptr);
  EXPECT_EQ(find_param("routing"), nullptr);
  EXPECT_THROW(set_param(cfg, "scheme", "rcast"), ParamError);
  EXPECT_THROW(set_param(cfg, "routing", "dsr"), ParamError);
  EXPECT_THROW(set_param(cfg, "power.scheme", "802.11"), ParamError);
  EXPECT_THROW(set_param(cfg, "power.scheme", bcast), ParamError);

  using campaign::ManifestError;
  using campaign::parse_manifest;
  EXPECT_EQ(parse_manifest("schemes = rcast-bc, Odpm\n").schemes,
            (std::vector<Scheme>{Scheme::kRcastBcast, Scheme::kOdpm}));
  EXPECT_THROW(parse_manifest("scheme = rcast\n"), ManifestError);
  EXPECT_THROW(parse_manifest("schemes = leach\n"), ManifestError);
  EXPECT_THROW(parse_manifest("routing = dsr\n"), ManifestError);
  EXPECT_THROW(parse_manifest("schemes = 802.11\n"), ManifestError);
  EXPECT_THROW(parse_manifest("schemes = " + bcast + "\n"), ManifestError);
  try {
    parse_manifest("power.scheme = rcast\n");
    ADD_FAILURE() << "power.scheme is a grid axis";
  } catch (const ManifestError& e) {
    EXPECT_NE(std::string(e.what()).find("'schemes'"), std::string::npos)
        << e.what();
  }

  for (const std::string& retired :
       {std::string("--set scheme=rcast"), std::string("--set routing=dsr"),
        std::string("--set power.scheme=802.11"),
        "--set power.scheme=" + bcast, std::string("--scheme=802.11"),
        "--scheme=" + bcast}) {
    EXPECT_EQ(run_sim(retired + " --nodes=10 --seconds=1").first, 2)
        << retired;
  }
}

// rcast_sim's classic flags are parsed by the parameter each one names, so
// a bad value exits 2 with that parameter's message instead of aborting or
// running without end.
TEST(ParamRegistryCli, RcastSimFlagsAreBoundedByTheRegistry) {
  for (const auto& [flag, message] :
       std::vector<std::pair<std::string, std::string>>{
           {"--nodes=-1", "nodes: not a non-negative integer"},
           {"--nodes=1", "nodes: out of range"},
           {"--flows=-1", "flows: not a non-negative integer"},
           {"--rate=0", "rate_pps: out of range"},
           {"--estimator=psychic", "rcast.estimator: unknown token"},
           {"--routing=olsr", "routing.protocol: unknown token"},
           {"--flows=0", "flows: out of range"},
           {"--seeds=-1", "--seeds: expected a non-negative integer"}}) {
    const auto [code, err] = run_sim(flag);
    EXPECT_EQ(code, 2) << flag;
    EXPECT_NE(err.find(message), std::string::npos) << flag << ": " << err;
  }
  // The default of nodes/5 flows is clamped to one, as in a manifest, so
  // a network under five nodes still runs.
  EXPECT_EQ(run_sim("--nodes=3 --seconds=1").first, 0);
}

// energy_survey turns its flags into a campaign manifest, so the manifest
// parser and the parameter each flag sets bound every value.
TEST(ParamRegistryCli, EnergySurveyFlagsAreBoundedByTheRegistry) {
  for (const auto& [flag, message] :
       std::vector<std::pair<std::string, std::string>>{
           {"--seeds=0", "seeds: must be >= 1"},
           {"--nodes=1", "nodes: out of range"},
           {"--flows=-1", "flows: not a non-negative integer"},
           {"--seconds=-5", "duration_s: out of range"}}) {
    const auto [code, err] = run_sim(flag, kEnergySurvey);
    EXPECT_EQ(code, 2) << flag;
    EXPECT_NE(err.find(message), std::string::npos) << flag << ": " << err;
  }
}

// --- Digest coverage --------------------------------------------------------

TEST(ParamRegistry, DigestCoversEveryInDigestParam) {
  const ScenarioConfig base;
  const std::string base_digest = campaign::config_digest(base);
  const std::string base_cell = campaign::config_cell_digest(base);
  for (const Param& p : param_registry()) {
    ScenarioConfig cfg;
    p.set(cfg, nondefault_value(p));
    const std::string digest = campaign::config_digest(cfg);
    if (p.in_digest) {
      EXPECT_NE(digest, base_digest)
          << p.name << " changed but the config digest did not";
    } else {
      EXPECT_EQ(digest, base_digest)
          << p.name << " is declared digest-exempt but changed the digest";
    }
    // The cell digest ignores exactly one extra param: the seed.
    const std::string cell = campaign::config_cell_digest(cfg);
    if (p.in_digest && p.name != "seed") {
      EXPECT_NE(cell, base_cell) << p.name;
    } else {
      EXPECT_EQ(cell, base_cell) << p.name;
    }
  }
}

TEST(ParamRegistry, DigestIsOrderIndependentOfHowValuesWereSet) {
  ScenarioConfig a, b;
  set_param(a, "mac.atim_window_ms", "25");
  set_param(a, "dsr.salvage", "false");
  set_param(b, "dsr.salvage", "false");
  set_param(b, "mac.atim_window_ms", "25");
  EXPECT_EQ(campaign::config_digest(a), campaign::config_digest(b));
}

// --- Result-store round-trips ----------------------------------------------

/// Serializes a job for `cfg` to a JSONL line, reads it back through
/// load_results, and returns the reconstructed record.
campaign::JobRecord store_round_trip(const ScenarioConfig& cfg) {
  campaign::Job job;
  job.index = 0;
  job.id = "round-trip";
  job.digest = campaign::config_digest(cfg);
  job.cfg = cfg;
  const RunResult r{};
  TempDir dir;
  const std::string path = dir.file("results.jsonl");
  {
    std::ofstream out(path, std::ios::binary);
    out << campaign::record_to_json(job, r, 1.0) << "\n";
  }
  const auto records = campaign::load_results(path);
  EXPECT_EQ(records.size(), 1u);
  if (records.empty()) return {};
  return records.front();
}

TEST(ParamRegistryStore, EveryParamRoundTripsThroughTheStore) {
  for (const Param& p : param_registry()) {
    ScenarioConfig cfg;
    const ParamValue want = nondefault_value(p);
    p.set(cfg, want);
    const campaign::JobRecord rec = store_round_trip(cfg);
    const ParamValue got = p.get(rec.cfg);
    EXPECT_TRUE(got == want)
        << p.name << ": wrote " << want.text() << ", loaded " << got.text();
    // Digest equality proves the WHOLE config survived, not just p.
    EXPECT_EQ(campaign::config_digest(rec.cfg), campaign::config_digest(cfg))
        << p.name;
    EXPECT_EQ(campaign::config_cell_digest(rec.cfg),
              campaign::config_cell_digest(cfg))
        << p.name;
  }
}

TEST(ParamRegistryStore, DerivedGridCoordinatesComeFromConfig) {
  ScenarioConfig cfg;
  set_param(cfg, "power.scheme", "odpm");
  set_param(cfg, "routing.protocol", "aodv");
  set_param(cfg, "nodes", "30");
  set_param(cfg, "flows", "5");
  set_param(cfg, "rate_pps", "4");
  set_param(cfg, "pause_s", "12.5");
  set_param(cfg, "duration_s", "90");
  set_param(cfg, "seed", "41");
  const campaign::JobRecord rec = store_round_trip(cfg);
  EXPECT_EQ(rec.cfg.scheme, Scheme::kOdpm);
  EXPECT_EQ(rec.cfg.routing, RoutingProtocol::kAodv);
  EXPECT_EQ(rec.cfg.num_nodes, 30u);
  EXPECT_EQ(rec.cfg.num_flows, 5u);
  EXPECT_EQ(rec.cfg.rate_pps, 4.0);
  EXPECT_EQ(rec.cfg.pause, 12'500 * sim::kMillisecond);
  EXPECT_EQ(rec.cfg.duration, 90 * sim::kSecond);
  EXPECT_EQ(rec.cfg.seed, 41u);
  EXPECT_EQ(rec.result.scheme, Scheme::kOdpm);
  EXPECT_EQ(rec.result.duration_s, 90.0);
}

TEST(ParamRegistryStore, CorruptConfigValueIsRejected) {
  ScenarioConfig cfg;
  campaign::Job job;
  job.index = 0;
  job.id = "bad";
  job.digest = campaign::config_digest(cfg);
  job.cfg = cfg;
  std::string line = campaign::record_to_json(job, RunResult{}, 1.0);
  // Sabotage the routing token; the loader validates enums via the registry.
  const auto pos = line.find("\"routing.protocol\":\"DSR\"");
  ASSERT_NE(pos, std::string::npos);
  line.replace(pos, std::string("\"routing.protocol\":\"DSR\"").size(),
               "\"routing.protocol\":\"RIP\"");
  TempDir dir;
  const std::string path = dir.file("results.jsonl");
  {
    std::ofstream out(path, std::ios::binary);
    out << line << "\n";
  }
  EXPECT_THROW(campaign::load_results(path), campaign::ResultStoreError);
}

}  // namespace
}  // namespace rcast::scenario
