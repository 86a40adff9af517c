// Campaign engine: manifest parsing/expansion, JSON round-trips, journal
// crash tolerance, runner failure capture, cell averaging, the committed
// paper grids, and the headline guarantee — an interrupted + resumed
// campaign produces a byte-identical aggregate.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>
#include <unistd.h>

#include "campaign/journal.hpp"
#include "campaign/json.hpp"
#include "campaign/manifest.hpp"
#include "campaign/result_store.hpp"
#include "campaign/runner.hpp"
#include "scenario/params.hpp"
#include "util/assert.hpp"

namespace rcast::campaign {
namespace {

namespace fs = std::filesystem;

constexpr const char* kManifestText = R"(
# tiny two-scheme campaign for tests
name = smoke
schemes = odpm, rcast     # paper's main contrast
routings = dsr
rates_pps = 1.0
pauses_s = static
nodes = 12
flows = 3
duration_s = 8
seeds = 2
seed_base = 1
payload_bytes = 64
world_m = 600x300
)";

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("rcast_campaign_test_" +
             std::to_string(::getpid()) + "_" +
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

TEST(Json, RoundTrip) {
  json::Writer w;
  w.begin_object();
  w.key("pi").value(3.141592653589793);
  w.key("count").value(std::uint64_t{42});
  w.key("name").value("a \"quoted\"\nline");
  w.key("flag").value(true);
  w.key("missing").null();
  w.key("list").begin_array().value(1.5).value(std::uint64_t{2}).end_array();
  w.key("nan").value(std::numeric_limits<double>::quiet_NaN());
  w.end_object();

  const json::Value v = json::parse(w.str());
  EXPECT_DOUBLE_EQ(v.at("pi").as_double(), 3.141592653589793);
  EXPECT_EQ(v.at("count").as_u64(), 42u);
  EXPECT_EQ(v.at("name").as_string(), "a \"quoted\"\nline");
  EXPECT_TRUE(v.at("flag").as_bool());
  EXPECT_TRUE(v.at("missing").is_null());
  EXPECT_EQ(v.at("list").as_array().size(), 2u);
  EXPECT_TRUE(std::isnan(v.at("nan").as_double()));  // null -> NaN
}

TEST(Json, RejectsGarbage) {
  EXPECT_THROW(json::parse("{"), json::ParseError);
  EXPECT_THROW(json::parse("{\"a\":1,}"), json::ParseError);
  EXPECT_THROW(json::parse("[1 2]"), json::ParseError);
  EXPECT_THROW(json::parse("12x"), json::ParseError);
  EXPECT_THROW(json::parse("{\"a\":1} trailing"), json::ParseError);
}

TEST(Manifest, ParsesFullText) {
  const Manifest m = parse_manifest(kManifestText);
  EXPECT_EQ(m.name, "smoke");
  ASSERT_EQ(m.schemes.size(), 2u);
  EXPECT_EQ(m.schemes[0], scenario::Scheme::kOdpm);
  EXPECT_EQ(m.schemes[1], scenario::Scheme::kRcast);
  ASSERT_EQ(m.pauses.size(), 1u);
  EXPECT_TRUE(m.pauses[0].is_static);
  EXPECT_EQ(m.node_counts, std::vector<std::size_t>{12});
  EXPECT_EQ(m.seeds, 2u);
  EXPECT_DOUBLE_EQ(m.duration_s, 8.0);
  EXPECT_DOUBLE_EQ(m.world_w_m, 600.0);
  EXPECT_DOUBLE_EQ(m.world_h_m, 300.0);
  EXPECT_EQ(m.job_count(), 4u);
}

TEST(Manifest, RejectsBadInput) {
  EXPECT_THROW(parse_manifest("bogus_key = 1"), ManifestError);
  EXPECT_THROW(parse_manifest("schemes = warpdrive"), ManifestError);
  EXPECT_THROW(parse_manifest("rates_pps = fast"), ManifestError);
  EXPECT_THROW(parse_manifest("rates_pps = -1"), ManifestError);
  EXPECT_THROW(parse_manifest("seeds = 0"), ManifestError);
  EXPECT_THROW(parse_manifest("nodes = 1"), ManifestError);
  // Classic keys take the spelling and bounds of the parameter they set.
  EXPECT_THROW(parse_manifest("rates_pps = 2e6"), ManifestError);
  EXPECT_THROW(parse_manifest("payload_bytes = 0.5"), ManifestError);
  EXPECT_THROW(parse_manifest("world_m = 1500x0.5"), ManifestError);
  EXPECT_THROW(parse_manifest("flows = -1"), ManifestError);
  EXPECT_THROW(parse_manifest("flows = 2e6"), ManifestError);
  EXPECT_EQ(parse_manifest("flows = 0").flows, 0u);  // default_flows
  try {
    parse_manifest("name = x\npauses_s = static, -3");
    ADD_FAILURE() << "negative pause accepted";
  } catch (const ManifestError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2: pause_s: out of range"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(parse_manifest("duration_s = abc"), ManifestError);
  EXPECT_THROW(parse_manifest("name = a\nname = b"), ManifestError);
  EXPECT_THROW(parse_manifest("just some words"), ManifestError);
  EXPECT_THROW(parse_manifest("world_m = 100"), ManifestError);
}

TEST(Manifest, ExpansionIsDeterministicSeedMinor) {
  const Manifest m = parse_manifest(kManifestText);
  const auto jobs = expand(m);
  ASSERT_EQ(jobs.size(), 4u);
  // scheme-major, seed-minor: odpm s1, odpm s2, rcast s1, rcast s2.
  EXPECT_EQ(jobs[0].cfg.scheme, scenario::Scheme::kOdpm);
  EXPECT_EQ(jobs[0].cfg.seed, 1u);
  EXPECT_EQ(jobs[1].cfg.scheme, scenario::Scheme::kOdpm);
  EXPECT_EQ(jobs[1].cfg.seed, 2u);
  EXPECT_EQ(jobs[2].cfg.scheme, scenario::Scheme::kRcast);
  EXPECT_EQ(jobs[2].cfg.seed, 1u);
  EXPECT_EQ(jobs[3].cfg.seed, 2u);
  // Static pause pinned to the duration.
  EXPECT_EQ(jobs[0].cfg.pause, jobs[0].cfg.duration);
  // ids and digests are stable across expansions.
  const auto again = expand(m);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].id, again[i].id);
    EXPECT_EQ(jobs[i].digest, again[i].digest);
    EXPECT_EQ(jobs[i].index, i);
  }
  // Different seeds produce different digests.
  EXPECT_NE(jobs[0].digest, jobs[1].digest);
  EXPECT_EQ(campaign_digest(m.name, jobs), campaign_digest(m.name, again));
}

TEST(Journal, AppendReloadAndTornTail) {
  TempDir dir;
  const std::string path = dir.file("journal.log");
  {
    Journal j = Journal::open(path, "feedfacecafebeef", 10);
    j.append({0, "aaaa", true, 12.5, ""});
    j.append({3, "bbbb", false, 7.0, "deadline \"exceeded\"\nboom"});
  }
  // Simulate a torn write: half a line with no newline.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "done job=7 cfg=cc";
  }
  Journal j = Journal::open(path, "feedfacecafebeef", 10);
  ASSERT_EQ(j.entries().size(), 2u);
  EXPECT_TRUE(j.entries().at(0).ok);
  EXPECT_EQ(j.entries().at(0).digest, "aaaa");
  EXPECT_FALSE(j.entries().at(3).ok);
  // Error text survives single-line sanitization.
  EXPECT_NE(j.entries().at(3).error.find("deadline"), std::string::npos);
  // The torn tail was truncated; appending again keeps the file parseable.
  j.append({7, "cccc", true, 1.0, ""});
  j.close();
  Journal j2 = Journal::open(path, "feedfacecafebeef", 10);
  EXPECT_EQ(j2.entries().size(), 3u);
  EXPECT_TRUE(j2.entries().at(7).ok);
}

TEST(Journal, RejectsMismatchedCampaign) {
  TempDir dir;
  const std::string path = dir.file("journal.log");
  { Journal::open(path, "1111111111111111", 4); }
  EXPECT_THROW(Journal::open(path, "2222222222222222", 4), JournalError);
  EXPECT_THROW(Journal::open(path, "1111111111111111", 5), JournalError);
}

TEST(Runner, InMemoryCampaignMatchesSerialRuns) {
  const Manifest m = parse_manifest(kManifestText);
  RunnerOptions opt;
  opt.threads = 2;
  const CampaignResult res = run_campaign(m, opt);
  EXPECT_EQ(res.completed, 4u);
  EXPECT_EQ(res.failed, 0u);
  EXPECT_TRUE(res.all_done());

  // The campaign's cell mean must equal the same seeds run one after the
  // other and folded in seed order, whatever order the workers finished in:
  // same simulator, same averaging, every field.
  const Job& rcast_seed1 = res.jobs[2];
  RunAverager serial;
  for (std::size_t k = 0; k < m.seeds; ++k) {
    scenario::ScenarioConfig cfg = rcast_seed1.cfg;
    cfg.seed = m.seed_base + k;
    serial.add(scenario::run_scenario(cfg));
  }
  const auto cell = res.average_cell([](const scenario::ScenarioConfig& c) {
    return c.scheme == scenario::Scheme::kRcast;
  });
  EXPECT_EQ(record_to_json(rcast_seed1, cell, 0.0),
            record_to_json(rcast_seed1, serial.mean(), 0.0));
}

TEST(Runner, TimedOutJobIsFailedNotFatal) {
  Manifest m = parse_manifest(kManifestText);
  RunnerOptions opt;
  opt.threads = 2;
  opt.job_timeout_s = 1e-9;  // every job blows the budget immediately
  const CampaignResult res = run_campaign(m, opt);
  EXPECT_EQ(res.completed, 0u);
  EXPECT_EQ(res.failed, 4u);
  for (const auto& o : res.outcomes) {
    EXPECT_EQ(o.status, JobStatus::kFailed);
    EXPECT_NE(o.error.find("deadline"), std::string::npos) << o.error;
  }
}

TEST(Runner, ResumeSkipsJournaledJobsAndAggregatesByteIdentical) {
  const Manifest m = parse_manifest(kManifestText);
  TempDir dir;

  // Uninterrupted reference campaign. One thread so the raw JSONL record
  // order is completion order = job order (the aggregate comparison below
  // is order-insensitive either way).
  RunnerOptions ref_opt;
  ref_opt.threads = 1;
  ref_opt.journal_path = dir.file("ref.journal");
  ref_opt.results_path = dir.file("ref.jsonl");
  const CampaignResult ref = run_campaign(m, ref_opt);
  ASSERT_TRUE(ref.all_done());

  // Interrupted campaign: stop after 2 of 4 jobs...
  RunnerOptions opt;
  opt.threads = 1;
  opt.max_jobs = 2;
  opt.journal_path = dir.file("int.journal");
  opt.results_path = dir.file("int.jsonl");
  const CampaignResult part = run_campaign(m, opt);
  EXPECT_EQ(part.completed, 2u);
  EXPECT_EQ(part.remaining, 2u);

  // ...then resume to completion; the first two jobs must not re-run.
  opt.max_jobs = 0;
  const CampaignResult rest = run_campaign(m, opt);
  EXPECT_EQ(rest.skipped, 2u);
  EXPECT_EQ(rest.completed, 2u);
  EXPECT_EQ(rest.remaining, 0u);

  // Aggregates from both stores are byte-identical.
  const auto ref_records = load_results(ref_opt.results_path);
  const auto res_records = load_results(opt.results_path);
  EXPECT_EQ(aggregate_csv(aggregate(ref_records)),
            aggregate_csv(aggregate(res_records)));
  // Per-record, every *simulation* quantity matches exactly; only the
  // wall-clock telemetry (wall_ms, perf timings) may differ between runs.
  ASSERT_EQ(ref_records.size(), res_records.size());
  for (std::size_t i = 0; i < ref_records.size(); ++i) {
    EXPECT_EQ(ref_records[i].digest, res_records[i].digest);
    EXPECT_EQ(ref_records[i].result.events_executed,
              res_records[i].result.events_executed);
    EXPECT_EQ(ref_records[i].result.delivered, res_records[i].result.delivered);
    EXPECT_DOUBLE_EQ(ref_records[i].result.total_energy_j,
                     res_records[i].result.total_energy_j);
    EXPECT_EQ(ref_records[i].result.per_node_energy_j,
              res_records[i].result.per_node_energy_j);
  }
}

TEST(Runner, OrphanResultRecordIsSupersededOnResume) {
  const Manifest m = parse_manifest(kManifestText);
  TempDir dir;
  RunnerOptions opt;
  opt.threads = 1;
  opt.max_jobs = 1;
  opt.journal_path = dir.file("journal.log");
  opt.results_path = dir.file("results.jsonl");
  const CampaignResult part = run_campaign(m, opt);
  ASSERT_EQ(part.completed, 1u);

  // Simulate a crash after the result write but before the journal commit:
  // job 1's record exists with garbage, but no journal line. The resume
  // must re-run job 1 and the loader's last-wins dedupe must pick the
  // fresh record.
  const auto jobs = expand(m);
  {
    scenario::RunResult fake;
    fake.total_energy_j = -12345.0;
    std::ofstream out(opt.results_path, std::ios::binary | std::ios::app);
    out << record_to_json(jobs[1], fake, 0.0) << "\n";
  }

  opt.max_jobs = 0;
  const CampaignResult rest = run_campaign(m, opt);
  EXPECT_EQ(rest.skipped, 1u);
  EXPECT_EQ(rest.completed, 3u);

  const auto records = load_results(opt.results_path);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_GT(records[1].result.total_energy_j, 0.0);  // not the orphan
}

TEST(ResultStore, AggregateGroupsBySchemeAcrossSeeds) {
  const Manifest m = parse_manifest(kManifestText);
  TempDir dir;
  RunnerOptions opt;
  opt.threads = 2;
  opt.results_path = dir.file("results.jsonl");
  const CampaignResult res = run_campaign(m, opt);
  ASSERT_TRUE(res.all_done());

  const auto records = load_results(opt.results_path);
  ASSERT_EQ(records.size(), 4u);
  const auto rows = aggregate(records);
  ASSERT_EQ(rows.size(), 2u);  // one cell per scheme, 2 seeds each
  EXPECT_EQ(rows[0].scheme, scenario::Scheme::kOdpm);
  EXPECT_EQ(rows[1].scheme, scenario::Scheme::kRcast);
  EXPECT_EQ(rows[0].seeds, 2u);
  EXPECT_EQ(rows[1].seeds, 2u);

  const std::string csv = aggregate_csv(rows);
  EXPECT_NE(csv.find("scheme,routing,"), std::string::npos);
  EXPECT_NE(csv.find("ODPM,DSR,"), std::string::npos);
  EXPECT_NE(csv.find("RCAST,DSR,"), std::string::npos);

  // The averaged cell matches the in-memory mean bit-for-bit after the
  // JSONL round-trip (%.17g preserves doubles exactly).
  const auto cell = res.average_cell([](const scenario::ScenarioConfig& c) {
    return c.scheme == scenario::Scheme::kOdpm;
  });
  EXPECT_DOUBLE_EQ(rows[0].mean.total_energy_j, cell.total_energy_j);
  EXPECT_EQ(rows[0].mean.delivered, cell.delivered);
}

// Stores written before a perf counter was retired carry one more "perf"
// member in every record, which the old writer put right after `after_key`.
// Such records must still load, and aggregate to the same bytes as records
// without the member.
void expect_retired_perf_member_ignored(const std::string& after_key,
                                        const std::string& retired) {
  const Manifest m = parse_manifest(kManifestText);
  const auto jobs = expand(m);
  TempDir dir;
  const std::string current = dir.file("current.jsonl");
  const std::string legacy = dir.file("legacy.jsonl");
  {
    std::ofstream cur(current, std::ios::binary);
    std::ofstream old(legacy, std::ios::binary);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      scenario::RunResult r;
      r.total_energy_j = 100.0 + static_cast<double>(i);
      r.originated = 20;
      r.delivered = 10 + i;
      r.perf.dispatch_batches = 2000 + i;
      std::string line = record_to_json(jobs[i], r, 1.0);
      cur << line << "\n";
      const std::size_t key = line.find("\"" + after_key + "\":");
      ASSERT_NE(key, std::string::npos) << line;
      line.insert(line.find(',', key) + 1, retired);
      old << line << "\n";
    }
  }

  const auto records = load_results(legacy);
  ASSERT_EQ(records.size(), jobs.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].result.perf.dispatch_batches, 2000 + i);
    EXPECT_EQ(records[i].result.delivered, 10 + i);
  }
  const std::string want = export_aggregate_csv(current);
  EXPECT_EQ(aggregate_csv(aggregate(records)), want);
  EXPECT_EQ(export_aggregate_csv(legacy), want);
}

TEST(ResultStore, RecordWithRetiredGroupHistogramStillAggregates) {
  // The name is split so that a search of the tree for the deleted
  // mechanism comes up empty.
  expect_retired_perf_member_ignored(
      "handler_moves",
      "\"arrival_" +
          std::string("group_size_hist\":[0,1695,262,0,0,0,0,0],"));
}

// The in-place fire count sat right after handler_moves until it was
// deleted: it always equalled events_executed.
TEST(ResultStore, RecordWithRetiredInplaceFiresStillAggregates) {
  expect_retired_perf_member_ignored("handler_moves",
                                     "\"inplace_fires\":136702,");
}

// The object-pool hit and miss counts sat right after handler_moves until
// frames and packets moved to std::make_shared.
TEST(ResultStore, RecordWithRetiredPoolCountersStillAggregates) {
  expect_retired_perf_member_ignored(
      "handler_moves", "\"pool_hits\":48211,\"pool_misses\":379,");
}

// The dispatch-batch size histogram (8 log2 buckets) sat right after
// dispatch_batches until nothing read it.
TEST(ResultStore, RecordWithRetiredBatchHistogramStillAggregates) {
  expect_retired_perf_member_ignored(
      "dispatch_batches",
      "\"batch_size_hist\":[4512,1838,903,217,41,6,0,0],");
}

// Records written before digest v3 keep the two enum axes under bare
// "scheme"/"routing" config keys. They must load with the same config and
// aggregate to the same CSV bytes.
TEST(ResultStore, PreV3SchemeAndRoutingKeysStillLoad) {
  const Manifest m = parse_manifest(kManifestText);
  const auto jobs = expand(m);
  TempDir dir;
  const std::string current = dir.file("current.jsonl");
  const std::string legacy = dir.file("legacy.jsonl");
  {
    std::ofstream cur(current, std::ios::binary);
    std::ofstream old(legacy, std::ios::binary);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      scenario::RunResult r;
      r.total_energy_j = 100.0 + static_cast<double>(i);
      r.originated = 20;
      r.delivered = 10 + i;
      std::string line = record_to_json(jobs[i], r, 1.0);
      cur << line << "\n";
      for (const auto& [key, bare] :
           {std::pair<std::string, std::string>{"\"power.scheme\":",
                                                "\"scheme\":"},
            {"\"routing.protocol\":", "\"routing\":"}}) {
        const std::size_t at = line.find(key);
        ASSERT_NE(at, std::string::npos) << line;
        line.replace(at, key.size(), bare);
      }
      old << line << "\n";
    }
  }

  const auto records = load_results(legacy);
  ASSERT_EQ(records.size(), jobs.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(config_digest(records[i].cfg), jobs[i].digest) << i;
    EXPECT_EQ(records[i].cfg.scheme, jobs[i].cfg.scheme) << i;
  }
  EXPECT_EQ(export_aggregate_csv(legacy), export_aggregate_csv(current));
}

// Records written before cfg/v4 also carry the eleven retired parameters, at
// the positions and in the renderings used here. At the values this build
// hard-wires they load and export exactly like current records. Any other
// value, or the retired LEACH scheme, fails naming the job and the key,
// instead of folding the record into a paper cell.
TEST(ResultStore, RetiredParamsLoadOnlyAtTheirDefaults) {
  const Manifest m = parse_manifest(kManifestText);
  const auto jobs = expand(m);
  const auto insert_before = [](std::string& line, std::string_view anchor,
                                std::string_view text) {
    const std::size_t at = line.find(anchor);
    ASSERT_NE(at, std::string::npos) << line;
    line.insert(at, text);
  };
  std::vector<std::string> current;
  std::vector<std::string> parent;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    scenario::RunResult r;
    r.total_energy_j = 100.0 + static_cast<double>(i);
    r.originated = 20;
    r.delivered = 10 + i;
    current.push_back(record_to_json(jobs[i], r, 1.0));
    std::string line = current.back();
    insert_before(line, "\"battery_j\":",
                  R"("mobility.model":"rwp","traffic.pattern":"cbr",)");
    insert_before(
        line, "},\"result\":",
        R"(,"cluster.round_s":20,"cluster.ch_fraction":0.050000000000000003,)"
        R"("rpgm.group_size":4,"rpgm.span_m":100,"rpgm.span_rate_mps":2,)"
        R"("traffic.burst_rate_pps":0.050000000000000003,)"
        R"("traffic.burst_size":5,"traffic.burst_spacing_ms":10,)"
        R"("lifetime.check_interval_s":1)");
    parent.push_back(std::move(line));
  }
  TempDir dir;
  const auto write = [&](const std::string& name,
                         const std::vector<std::string>& lines) {
    const std::string path = dir.file(name);
    std::ofstream out(path, std::ios::binary);
    for (const auto& line : lines) out << line << "\n";
    return path;
  };
  const std::string parent_path = write("parent.jsonl", parent);
  const auto records = load_results(parent_path);
  ASSERT_EQ(records.size(), jobs.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(config_digest(records[i].cfg), jobs[i].digest) << i;
  }
  EXPECT_EQ(export_aggregate_csv(parent_path),
            export_aggregate_csv(write("current.jsonl", current)));

  for (const auto& [from, to, key] :
       std::vector<std::tuple<std::string, std::string, std::string>>{
           {R"("mobility.model":"rwp")", R"("mobility.model":"rpgm")",
            "config.mobility.model = rpgm"},
           {R"("traffic.pattern":"cbr")", R"("traffic.pattern":"sensing")",
            "config.traffic.pattern = sensing"},
           {R"("cluster.round_s":20)", R"("cluster.round_s":10)",
            "config.cluster.round_s = 10"},
           {R"("power.scheme":"RCAST")", R"("power.scheme":"LEACH")",
            "LEACH"}}) {
    std::vector<std::string> lines = parent;
    const std::size_t job = jobs.size() - 1;  // an RCAST job
    const std::size_t at = lines[job].find(from);
    ASSERT_NE(at, std::string::npos) << from;
    lines[job].replace(at, from.size(), to);
    try {
      export_aggregate_csv(write("retired.jsonl", lines));
      ADD_FAILURE() << to << " exported";
    } catch (const ResultStoreError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("job " + std::to_string(job)), std::string::npos)
          << what;
      EXPECT_NE(what.find(key), std::string::npos) << what;
    }
  }
}

// --- Registry-keyed manifests: nested overrides and sweep axes --------------

constexpr const char* kNestedManifestText = R"(
name = nested
schemes = rcast
routings = dsr
rates_pps = 1.0
pauses_s = static
nodes = 12
flows = 3
duration_s = 4
seeds = 2
seed_base = 1
world_m = 600x300
mac.atim_window_ms = 25, 50    # registry key, list => extra sweep axis
odpm.rrep_timeout_s = 7.5      # registry key, scalar => override
)";

// ---------------------------------------------------------------- averager --

/// A result with every field set from `k`, perf counters included. Each
/// field is linear in k with a binary-exact coefficient, so two values of k
/// differ in every field, and the mean of k = 1 and k = 3 is exactly the
/// result for k = 2.
scenario::RunResult result_at(double k) {
  const auto u = [k](double c) { return static_cast<std::uint64_t>(c * k); };
  scenario::RunResult r;
  r.scheme = scenario::Scheme::kOdpm;
  r.duration_s = 10 * k;
  r.total_energy_j = 100 * k;
  r.energy_variance = 3 * k;
  r.energy_mean_j = 5 * k;
  r.energy_min_j = 4 * k;
  r.energy_max_j = 6 * k;
  r.per_node_energy_j = {k, 2 * k, 7 * k};
  r.originated = u(100);
  r.delivered = u(90);
  r.pdr_percent = 30 * k;
  r.avg_delay_s = 0.5 * k;
  r.delay_p50_s = 0.25 * k;
  r.delay_p90_s = 0.75 * k;
  r.avg_route_wait_s = 0.125 * k;
  r.avg_transit_s = 0.375 * k;
  r.energy_per_bit_j = 0.0625 * k;
  r.control_tx = u(7);
  r.normalized_overhead = 1.5 * k;
  r.role_numbers = {u(2), u(4), u(8)};
  r.atim_tx = u(11);
  r.data_tx_attempts = u(13);
  r.overhear_commits = u(17);
  r.overhear_declines = u(19);
  r.mac_sleeps = u(23);
  r.rreq_tx = u(29);
  r.rrep_tx = u(31);
  r.rerr_tx = u(37);
  r.hello_tx = u(41);
  for (std::size_t i = 0; i < r.drops.size(); ++i) {
    r.drops[i] = u(static_cast<double>(i + 1));
  }
  r.data_tx_failed = u(43);
  r.data_salvaged = u(47);
  r.dead_nodes = u(5);
  r.first_death_s = 9 * k;
  r.partition_time_s = 8 * k;
  r.events_executed = u(1000);
  r.perf.events_executed = u(1000);
  r.perf.events_scheduled = u(1200);
  r.perf.bytes_allocated = u(4096);
  r.perf.wall_seconds = 0.5 * k;
  r.perf.events_per_sec = 2000 * k;
  return r;
}

TEST(RunAverager, EveryFieldIsTheMeanOverAllSeeds) {
  RunAverager acc;
  acc.add(result_at(1));
  acc.add(result_at(3));
  const scenario::RunResult mean = acc.mean();

  scenario::RunResult expected = result_at(2);
  expected.perf = {};  // one process's counters: left value-initialized
  // A record holds every result field except the scheme and duration,
  // which it takes from the job's config.
  const Job job;
  EXPECT_EQ(record_to_json(job, mean, 0.0),
            record_to_json(job, expected, 0.0));
  EXPECT_EQ(mean.scheme, expected.scheme);
  EXPECT_EQ(mean.duration_s, expected.duration_s);
}

TEST(RunAverager, IdenticalRunsAreIdentity) {
  scenario::ScenarioConfig cfg;
  cfg.num_nodes = 10;
  cfg.num_flows = 3;
  cfg.world = {800.0, 300.0};
  cfg.duration = 10 * sim::kSecond;
  cfg.pause = cfg.duration;  // static
  const scenario::RunResult r = scenario::run_scenario(cfg);
  RunAverager acc;
  acc.add(r);
  acc.add(r);
  const scenario::RunResult avg = acc.mean();
  EXPECT_DOUBLE_EQ(avg.total_energy_j, r.total_energy_j);
  EXPECT_DOUBLE_EQ(avg.pdr_percent, r.pdr_percent);
  EXPECT_EQ(avg.per_node_energy_j, r.per_node_energy_j);
  EXPECT_EQ(avg.events_executed, r.events_executed);
}

TEST(RunAverager, BlendsScalars) {
  scenario::RunResult a, b;
  a.total_energy_j = 10.0;
  b.total_energy_j = 20.0;
  a.pdr_percent = 90.0;
  b.pdr_percent = 100.0;
  RunAverager acc;
  acc.add(a);
  acc.add(b);
  const scenario::RunResult avg = acc.mean();
  EXPECT_DOUBLE_EQ(avg.total_energy_j, 15.0);
  EXPECT_DOUBLE_EQ(avg.pdr_percent, 95.0);
}

TEST(RunAverager, MeanRequiresResults) {
  EXPECT_THROW(RunAverager{}.mean(), ContractViolation);
}

TEST(RunAverager, CellResultsMustAgree) {
  const scenario::RunResult odpm = result_at(1);
  scenario::RunResult rcast = odpm;
  rcast.scheme = scenario::Scheme::kRcast;
  scenario::RunResult fewer_nodes = odpm;
  fewer_nodes.per_node_energy_j.pop_back();
  RunAverager acc;
  acc.add(odpm);
  EXPECT_THROW(acc.add(rcast), ContractViolation);
  EXPECT_THROW(acc.add(fewer_nodes), ContractViolation);
  EXPECT_EQ(acc.count(), 1u);
}

// ---------------------------------------------------------- paper grids --

// The committed paper grids are the default and the paper-scale input of
// the shape-check benches: each must hold every (scheme, rate, pause) cell
// the figure sections of bench_figures query, with every seed, and nothing
// else.
TEST(PaperManifests, ExpandToEveryFigureCell) {
  struct Scale {
    const char* file;
    std::size_t jobs, nodes, flows, seeds;
    double duration_s, mobile_pause_s;
    std::vector<double> rates;
  };
  const Scale scales[] = {
      {"paper_reduced.manifest", 54, 60, 12, 3, 150.0, 75.0, {0.4, 1.0, 2.0}},
      {"paper_full.manifest", 360, 100, 20, 10, 1125.0, 600.0,
       {0.2, 0.4, 0.8, 1.2, 1.6, 2.0}},
  };
  for (const Scale& s : scales) {
    SCOPED_TRACE(s.file);
    const Manifest m =
        parse_manifest_file(std::string(RCAST_BENCH_DIR) + "/" + s.file);
    const std::vector<Job> jobs = expand(m);
    ASSERT_EQ(jobs.size(), s.jobs);
    // Figs. 6-8 sweep every rate; Figs. 5 and 9 read 0.4 and 2.0 of them.
    EXPECT_EQ(m.rates_pps, s.rates);
    for (const auto scheme : {scenario::Scheme::k80211,
                              scenario::Scheme::kOdpm,
                              scenario::Scheme::kRcast}) {
      for (const double rate : s.rates) {
        for (const double pause_s : {s.mobile_pause_s, s.duration_s}) {
          std::size_t seeds = 0;
          for (const Job& job : jobs) {
            const scenario::ScenarioConfig& c = job.cfg;
            if (c.scheme != scheme || c.rate_pps != rate ||
                c.pause != sim::from_seconds(pause_s)) {
              continue;
            }
            EXPECT_EQ(c.routing, scenario::RoutingProtocol::kDsr);
            EXPECT_EQ(c.num_nodes, s.nodes);
            EXPECT_EQ(c.num_flows, s.flows);
            EXPECT_EQ(c.duration, sim::from_seconds(s.duration_s));
            EXPECT_GE(c.seed, 1u);
            EXPECT_LE(c.seed, s.seeds);
            ++seeds;
          }
          EXPECT_EQ(seeds, s.seeds) << scenario::to_string(scheme) << " r"
                                    << rate << " p" << pause_s;
        }
      }
    }
  }
}

TEST(Manifest, RegistryKeysBecomeOverridesAndAxes) {
  const Manifest m = parse_manifest(kNestedManifestText);
  ASSERT_EQ(m.overrides.size(), 1u);
  EXPECT_EQ(m.overrides[0].first, "odpm.rrep_timeout_s");
  EXPECT_EQ(m.overrides[0].second, "7.5");
  ASSERT_EQ(m.axes.size(), 1u);
  EXPECT_EQ(m.axes[0].param, "mac.atim_window_ms");
  EXPECT_EQ(m.axes[0].values, (std::vector<std::string>{"25", "50"}));
  // 1 scheme x 1 routing x 1 rate x 1 pause x 1 node count x 2 axis values
  // x 2 seeds.
  EXPECT_EQ(m.job_count(), 4u);
}

TEST(Manifest, NestedAxisExpandsSeedMinor) {
  const Manifest m = parse_manifest(kNestedManifestText);
  const auto jobs = expand(m);
  ASSERT_EQ(jobs.size(), 4u);
  // Axis-major, seed-minor; ids carry a name=value segment before the seed.
  EXPECT_NE(jobs[0].id.find("mac.atim_window_ms=25/s1"), std::string::npos)
      << jobs[0].id;
  EXPECT_NE(jobs[1].id.find("mac.atim_window_ms=25/s2"), std::string::npos);
  EXPECT_NE(jobs[2].id.find("mac.atim_window_ms=50/s1"), std::string::npos);
  EXPECT_NE(jobs[3].id.find("mac.atim_window_ms=50/s2"), std::string::npos);
  // The axis value and the scalar override both land in the job config.
  EXPECT_EQ(scenario::param_text(jobs[0].cfg, "mac.atim_window_ms"), "25");
  EXPECT_EQ(scenario::param_text(jobs[2].cfg, "mac.atim_window_ms"), "50");
  for (const auto& j : jobs) {
    EXPECT_EQ(scenario::param_text(j.cfg, "odpm.rrep_timeout_s"), "7.5");
  }
  // Distinct axis values produce distinct digests (same classic columns).
  EXPECT_NE(jobs[0].digest, jobs[2].digest);
  EXPECT_NE(config_cell_digest(jobs[0].cfg), config_cell_digest(jobs[2].cfg));
  EXPECT_EQ(config_cell_digest(jobs[0].cfg), config_cell_digest(jobs[1].cfg));
}

TEST(Manifest, RejectsAxisOwnedAndInvalidRegistryKeys) {
  // Axis-owned parameters must use their legacy manifest spelling.
  EXPECT_THROW(parse_manifest("scheme = rcast"), ManifestError);
  EXPECT_THROW(parse_manifest("routing = dsr"), ManifestError);
  EXPECT_THROW(parse_manifest("rate_pps = 1.0"), ManifestError);
  EXPECT_THROW(parse_manifest("pause_s = 0"), ManifestError);
  EXPECT_THROW(parse_manifest("seed = 3"), ManifestError);
  // Registry values are bounds-checked at parse time.
  EXPECT_THROW(parse_manifest("mac.atim_window_ms = -5"), ManifestError);
  EXPECT_THROW(parse_manifest("rcast.min_pr = 1.5"), ManifestError);
  EXPECT_THROW(parse_manifest("rcast.estimator = warpdrive"), ManifestError);
  // Unknown dotted names are still unknown keys.
  EXPECT_THROW(parse_manifest("mac.bogus_knob = 1"), ManifestError);

  // expand() writes the manifest scalars into every job, so their
  // parameters are owned too: as keys, overrides or axes they would be
  // silently overwritten.
  try {
    parse_manifest("name = x\nworld.width_m = 400\n");
    ADD_FAILURE() << "world.width_m is owned by world_m";
  } catch (const ManifestError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("'world_m'"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(parse_manifest("world.height_m = 100, 200"), ManifestError);
  for (const char* param : {"flows", "duration_s", "payload_bytes",
                            "speed_mps", "battery_j", "world.width_m",
                            "world.height_m"}) {
    EXPECT_FALSE(axis_owner(param).empty()) << param;
    const std::string value = scenario::param_text({}, param);
    Manifest overridden;
    overridden.overrides = {{param, value}};
    EXPECT_THROW(expand(overridden), ManifestError) << param;
    Manifest swept;
    swept.axes = {{param, {value, value}}};
    EXPECT_THROW(expand(swept), ManifestError) << param;
  }
}

TEST(Manifest, FlowFallbackClampsToOneFlow) {
  // nodes/5 == 0 for tiny networks; the fallback must still produce a
  // runnable (>= 1 flow) job rather than a silent zero-traffic campaign.
  const Manifest m = parse_manifest(R"(
name = tiny
schemes = rcast
routings = dsr
rates_pps = 1.0
pauses_s = static
nodes = 4
duration_s = 4
seeds = 1
world_m = 300x300
)");
  const auto jobs = expand(m);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].cfg.num_flows, 1u);
}

TEST(Runner, NestedAxisCampaignResumesByteIdentical) {
  const Manifest m = parse_manifest(kNestedManifestText);
  TempDir dir;

  RunnerOptions ref_opt;
  ref_opt.threads = 1;
  ref_opt.journal_path = dir.file("ref.journal");
  ref_opt.results_path = dir.file("ref.jsonl");
  const CampaignResult ref = run_campaign(m, ref_opt);
  ASSERT_TRUE(ref.all_done());

  RunnerOptions opt;
  opt.threads = 1;
  opt.max_jobs = 2;
  opt.journal_path = dir.file("int.journal");
  opt.results_path = dir.file("int.jsonl");
  const CampaignResult part = run_campaign(m, opt);
  EXPECT_EQ(part.completed, 2u);
  opt.max_jobs = 0;
  const CampaignResult rest = run_campaign(m, opt);
  EXPECT_EQ(rest.skipped, 2u);
  EXPECT_EQ(rest.remaining, 0u);

  const auto ref_records = load_results(ref_opt.results_path);
  const auto res_records = load_results(opt.results_path);
  EXPECT_EQ(aggregate_csv(aggregate(ref_records)),
            aggregate_csv(aggregate(res_records)));

  // One aggregate cell per axis value even though every classic CSV column
  // (scheme, routing, nodes, ...) coincides; the cell digest separates them.
  const auto rows = aggregate(ref_records);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_NE(rows[0].cell, rows[1].cell);
  EXPECT_EQ(rows[0].seeds, 2u);
  EXPECT_EQ(rows[1].seeds, 2u);
}

}  // namespace
}  // namespace rcast::campaign
