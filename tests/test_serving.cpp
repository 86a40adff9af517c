// Serving layer: the in-memory result index (point and cell lookups, torn
// tails, a file created after open), the digest-keyed aggregate cache and
// its invalidation, streaming export equivalence, journal fsync batching,
// JSON parser edge cases, the HTTP server, and metrics snapshot I/O.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/journal.hpp"
#include "campaign/json.hpp"
#include "campaign/manifest.hpp"
#include "campaign/result_store.hpp"
#include "scenario/params.hpp"
#include "serving/http_server.hpp"
#include "serving/metrics_io.hpp"
#include "serving/result_service.hpp"

namespace rcast {
namespace {

namespace fs = std::filesystem;
using campaign::Job;

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("rcast_serving_test_" + std::to_string(::getpid()) + "_" +
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

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Synthetic campaign: expanded jobs with real digests, but results made up
// deterministically from the job index — no simulations, so index/service
// tests run in milliseconds even at thousands of records.
std::vector<Job> make_jobs(std::size_t seeds, std::size_t nodes = 2) {
  campaign::Manifest m;
  m.name = "serving_test";
  m.schemes = {scenario::Scheme::kRcast, scenario::Scheme::kOdpm};
  m.node_counts = {10, 20};
  m.node_counts.resize(nodes);
  m.seeds = seeds;
  m.duration_s = 5.0;
  return campaign::expand(m);
}

scenario::RunResult synth_result(std::size_t i) {
  scenario::RunResult r;
  r.pdr_percent = 50.0 + static_cast<double>(i % 49);
  r.total_energy_j = 10.0 + 0.25 * static_cast<double>(i);
  r.energy_mean_j = r.total_energy_j / 10.0;
  r.avg_delay_s = 0.01 * static_cast<double>(i + 1);
  r.originated = 100 + i;
  r.delivered = 90 + i;
  r.control_tx = 7 * i;
  r.per_node_energy_j = {1.0, 2.0 + static_cast<double>(i)};
  return r;
}

/// Writes jobs[first, last) to a fresh/appended store at `path`.
void write_records(const std::string& path, const std::vector<Job>& jobs,
                   std::size_t first, std::size_t last,
                   double wall_ms = 1.5) {
  auto store = campaign::ResultStore::open_append(path);
  for (std::size_t i = first; i < last; ++i) {
    store.append(jobs[i], synth_result(i), wall_ms);
  }
  store.close();
}

// ---------------------------------------------------------------- index --

TEST(ResultService, DigestToU64) {
  EXPECT_EQ(serving::digest_to_u64("0000000000000000"), 0u);
  EXPECT_EQ(serving::digest_to_u64("00000000000000ff"), 0xffu);
  EXPECT_EQ(serving::digest_to_u64("ffffffffffffffff"), ~0ull);
  EXPECT_THROW(serving::digest_to_u64("123"), serving::IndexError);
  EXPECT_THROW(serving::digest_to_u64("00000000000000zz"),
               serving::IndexError);
  EXPECT_THROW(serving::digest_to_u64("00000000000000ff "),
               serving::IndexError);
}

TEST(ResultService, BuildAndPointLookup) {
  TempDir dir;
  const auto jobs = make_jobs(3);
  const std::string jsonl = dir.file("results.jsonl");
  write_records(jsonl, jobs, 0, jobs.size());

  serving::ResultService svc(jsonl);
  ASSERT_EQ(svc.record_count(), jobs.size());

  // Every record is findable by its cfg digest and comes back as its exact
  // JSONL line.
  std::vector<std::string> lines;
  std::istringstream content(read_file(jsonl));
  for (std::string l; std::getline(content, l);) lines.push_back(l);
  ASSERT_EQ(lines.size(), jobs.size());
  for (const Job& job : jobs) {
    const auto line = svc.result_json(serving::digest_to_u64(job.digest));
    ASSERT_TRUE(line.has_value()) << job.id;
    EXPECT_EQ(*line, lines[job.index]) << job.id;
  }

  // A cell folds exactly the seeds of its grid point.
  const auto row = svc.aggregate_cell(
      serving::digest_to_u64(campaign::config_cell_digest(jobs[0].cfg)));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->seeds, 3u);
  campaign::AggregateAccumulator acc;
  for (const Job& job : jobs) {
    if (campaign::config_cell_digest(job.cfg) ==
        campaign::config_cell_digest(jobs[0].cfg)) {
      acc.add(campaign::parse_result_line(lines[job.index]));
    }
  }
  ASSERT_EQ(acc.records(), 3u);
  EXPECT_EQ(campaign::aggregate_csv({*row}), campaign::aggregate_csv(acc.rows()));
}

// A torn trailing line (a write still in flight, or a crash) is not indexed
// until its newline lands, and indexing leaves no file beside the JSONL.
TEST(ResultService, TornTrailingLineWaitsForNewline) {
  TempDir dir;
  const auto jobs = make_jobs(2);
  const std::string jsonl = dir.file("results.jsonl");
  write_records(jsonl, jobs, 0, 2);
  const std::string tail =
      campaign::record_to_json(jobs[2], synth_result(2), 1.5);
  {
    std::ofstream out(jsonl, std::ios::binary | std::ios::app);
    out << tail.substr(0, tail.size() / 2);
  }

  serving::ResultService svc(jsonl);
  EXPECT_EQ(svc.record_count(), 2u);
  EXPECT_FALSE(svc.result_json(serving::digest_to_u64(jobs[2].digest)));
  EXPECT_EQ(svc.refresh(), 0u);

  {
    std::ofstream out(jsonl, std::ios::binary | std::ios::app);
    out << tail.substr(tail.size() / 2);
  }
  EXPECT_EQ(svc.refresh(), 0u);  // complete bytes, but still no newline
  {
    std::ofstream out(jsonl, std::ios::binary | std::ios::app);
    out << '\n';
  }
  EXPECT_EQ(svc.refresh(), 1u);
  EXPECT_EQ(svc.result_json(serving::digest_to_u64(jobs[2].digest)), tail);
  EXPECT_EQ(svc.aggregate_csv(), campaign::export_aggregate_csv(jsonl));

  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(fs::path(jsonl).parent_path())) {
    names.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(names, std::vector<std::string>{"results.jsonl"});
}

// `run --port` opens the service before the runner creates the file: a
// missing file reads as empty, and refresh() picks it up once it appears.
TEST(ResultService, FileCreatedAfterOpenIsPickedUp) {
  TempDir dir;
  const auto jobs = make_jobs(2);
  const std::string jsonl = dir.file("results.jsonl");

  serving::ResultService svc(jsonl);
  EXPECT_EQ(svc.record_count(), 0u);
  EXPECT_EQ(svc.refresh(), 0u);
  EXPECT_FALSE(fs::exists(jsonl));

  write_records(jsonl, jobs, 0, jobs.size());
  EXPECT_EQ(svc.refresh(), jobs.size());
  EXPECT_EQ(svc.record_count(), jobs.size());
  EXPECT_EQ(svc.aggregate_csv(), campaign::export_aggregate_csv(jsonl));
}

// -------------------------------------------------------------- service --

// A job whose record was written but not journaled runs again after a
// crash and appends a second record: the later line wins.
TEST(ResultService, PointLookupAndLaterLineWins) {
  TempDir dir;
  const auto jobs = make_jobs(2);
  const std::string jsonl = dir.file("results.jsonl");
  write_records(jsonl, jobs, 0, 5, /*wall_ms=*/1.5);
  write_records(jsonl, jobs, 3, jobs.size(), /*wall_ms=*/2.5);  // 3,4 re-run

  serving::ResultService svc(jsonl);
  EXPECT_EQ(svc.record_count(), jobs.size());

  for (const Job& job : jobs) {
    const auto line = svc.result_json(serving::digest_to_u64(job.digest));
    ASSERT_TRUE(line.has_value()) << job.id;
    const auto rec = campaign::parse_result_line(*line);
    EXPECT_EQ(rec.job, job.index);
    EXPECT_EQ(rec.wall_ms, job.index < 3 ? 1.5 : 2.5) << job.id;
  }
  EXPECT_FALSE(svc.result_json(0x1234).has_value());
}

TEST(ResultService, AggregateCsvMatchesExport) {
  TempDir dir;
  const auto jobs = make_jobs(3);
  const std::string jsonl = dir.file("results.jsonl");
  write_records(jsonl, jobs, 0, jobs.size());
  write_records(jsonl, jobs, 0, jobs.size() / 2);  // re-run duplicates

  serving::ResultService svc(jsonl);
  EXPECT_EQ(svc.aggregate_csv(), campaign::export_aggregate_csv(jsonl));
}

TEST(ResultService, CacheHitMissInvalidation) {
  TempDir dir;
  const auto jobs = make_jobs(3);
  const std::string jsonl = dir.file("results.jsonl");
  write_records(jsonl, jobs, 0, jobs.size() - 1);  // last seed missing

  serving::ResultService svc(jsonl);
  const std::uint64_t cell = serving::digest_to_u64(
      campaign::config_cell_digest(jobs[0].cfg));

  auto row = svc.aggregate_cell(cell);
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->seeds, 3u);
  row = svc.aggregate_cell(cell);  // memoized
  EXPECT_EQ(svc.cache_stats().hits, 1u);
  EXPECT_EQ(svc.cache_stats().misses, 1u);

  // Appending the missing seed of the *other* cell must not disturb this
  // cell's cache entry.
  const std::uint64_t other_cell = serving::digest_to_u64(
      campaign::config_cell_digest(jobs.back().cfg));
  ASSERT_NE(cell, other_cell);
  write_records(jsonl, jobs, jobs.size() - 1, jobs.size());
  EXPECT_EQ(svc.refresh(), 1u);
  EXPECT_EQ(svc.cache_stats().invalidations, 0u);  // cell was not cached yet
  row = svc.aggregate_cell(cell);
  EXPECT_EQ(svc.cache_stats().hits, 2u);  // still warm

  // Now grow the cached cell: its entry must be dropped and recomputed.
  write_records(jsonl, jobs, 0, 1);  // duplicate record, same cell
  EXPECT_EQ(svc.refresh(), 1u);
  EXPECT_EQ(svc.cache_stats().invalidations, 1u);
  row = svc.aggregate_cell(cell);
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->seeds, 3u);  // dedupe: the duplicate superseded job 0
  EXPECT_EQ(svc.cache_stats().misses, 2u);

  const auto unknown = svc.aggregate_cell(0xabcdef);
  EXPECT_FALSE(unknown.has_value());
}

TEST(ResultService, RefreshSeesAppends) {
  TempDir dir;
  const auto jobs = make_jobs(2);
  const std::string jsonl = dir.file("results.jsonl");
  write_records(jsonl, jobs, 0, 2);

  serving::ResultService svc(jsonl);
  EXPECT_EQ(svc.record_count(), 2u);
  write_records(jsonl, jobs, 2, jobs.size());
  EXPECT_EQ(svc.refresh(), jobs.size() - 2);
  EXPECT_EQ(svc.record_count(), jobs.size());
  EXPECT_EQ(svc.refresh(), 0u);
}

// Filtered aggregates: a grid filter keeps exactly the matching rows of the
// unfiltered export (same order, same bytes per row); a seed filter refolds
// cells from the matching records only.
TEST(ResultService, FilteredAggregateSelectsRows) {
  TempDir dir;
  const auto jobs = make_jobs(3);  // 2 schemes x 2 node counts x 3 seeds
  const std::string jsonl = dir.file("results.jsonl");
  write_records(jsonl, jobs, 0, jobs.size());
  serving::ResultService svc(jsonl);

  const std::string full = svc.aggregate_csv();
  std::vector<std::string> lines;
  std::istringstream in(full);
  for (std::string l; std::getline(in, l);) lines.push_back(l);
  ASSERT_EQ(lines.size(), 5u);  // header + 4 cells

  // scheme=rcast keeps the two rcast rows, bytes unchanged.
  serving::AggregateFilter by_scheme;
  by_scheme.scheme = scenario::Scheme::kRcast;
  std::vector<std::string> expect = {lines[0]};
  for (const std::string& l : lines) {
    if (l.rfind("RCAST,", 0) == 0) expect.push_back(l);
  }
  ASSERT_EQ(expect.size(), 3u);
  std::string joined;
  for (const std::string& l : expect) joined += l + "\n";
  EXPECT_EQ(svc.aggregate_csv(by_scheme), joined);

  // scheme + nodes narrows to one row.
  by_scheme.nodes = 10;
  const std::string one = svc.aggregate_csv(by_scheme);
  EXPECT_EQ(std::count(one.begin(), one.end(), '\n'), 2);
  EXPECT_NE(one.find("RCAST,"), std::string::npos);

  // An unmatched filter yields just the header. Values compare in full:
  // 2^32 + 10 nodes (or 2^32 + 2 flows) is not 10 nodes (or 2 flows).
  serving::AggregateFilter none;
  none.nodes = 999;
  EXPECT_EQ(svc.aggregate_csv(none), lines[0] + "\n");
  none.nodes = (std::uint64_t{1} << 32) + 10;
  EXPECT_EQ(svc.aggregate_csv(none), lines[0] + "\n");
  serving::AggregateFilter wide_flows;
  wide_flows.flows = (std::uint64_t{1} << 32) + jobs[0].cfg.num_flows;
  EXPECT_EQ(svc.aggregate_csv(wide_flows), lines[0] + "\n");

  // A seed filter folds one record per cell: seeds column reads 1 and the
  // row count still matches the cell count.
  serving::AggregateFilter by_seed;
  by_seed.seed = jobs[1].cfg.seed;
  const std::string seeded = svc.aggregate_csv(by_seed);
  EXPECT_EQ(std::count(seeded.begin(), seeded.end(), '\n'), 5);
  std::istringstream sin(seeded);
  std::string header, row;
  std::getline(sin, header);
  while (std::getline(sin, row)) {
    // seeds is the 10th CSV column.
    std::istringstream cols(row);
    std::string field;
    for (int i = 0; i < 10; ++i) ASSERT_TRUE(std::getline(cols, field, ','));
    EXPECT_EQ(field, "1") << row;
  }
}

// ---------------------------------------------- streaming load (store) --

TEST(ResultStore, StreamingExportMatchesMaterialized) {
  TempDir dir;
  const auto jobs = make_jobs(3);
  const std::string jsonl = dir.file("results.jsonl");
  write_records(jsonl, jobs, 0, jobs.size());
  write_records(jsonl, jobs, 0, 2);  // duplicates; last wins
  {  // torn trailing line: skipped by both paths
    std::ofstream out(jsonl, std::ios::binary | std::ios::app);
    out << "{\"v\":2,\"job\":0,\"trunc";
  }

  const auto records = campaign::load_results(jsonl);
  const std::string materialized =
      campaign::aggregate_csv(campaign::aggregate(records));
  EXPECT_EQ(campaign::export_aggregate_csv(jsonl), materialized);

  std::size_t streamed = 0;
  campaign::for_each_result(jsonl, [&](campaign::JobRecord&& rec) {
    EXPECT_EQ(rec.job, records[streamed].job);
    ++streamed;
  });
  EXPECT_EQ(streamed, records.size());
}

TEST(ResultStore, LargeStoreStreamingRegression) {
  // The streaming path must stay O(winners) in memory and produce the exact
  // bytes of the materialized path on a store big enough to notice.
  TempDir dir;
  const auto jobs = make_jobs(500);  // 2 schemes x 1 node count x 500 seeds
  const std::string jsonl = dir.file("results.jsonl");
  write_records(jsonl, jobs, 0, jobs.size());

  const std::string streamed = campaign::export_aggregate_csv(jsonl);
  const std::string materialized = campaign::aggregate_csv(
      campaign::aggregate(campaign::load_results(jsonl)));
  EXPECT_EQ(streamed, materialized);
  EXPECT_EQ(campaign::scan_result_file(jsonl).size(), jobs.size());
}

TEST(ResultStore, ScanResultJobFastPath) {
  const auto jobs = make_jobs(1, 1);
  const std::string line = campaign::record_to_json(
      jobs[0], synth_result(0), 1.0);
  EXPECT_EQ(campaign::scan_result_job(line), jobs[0].index);
  // Fallback: whitespace breaks the fixed prefix but not the full parse.
  EXPECT_EQ(campaign::scan_result_job(
                "{ \"v\":2, \"job\": 7, \"id\":\"x\"}"),
            7u);
  // A record without "job" has no index to scan out.
  EXPECT_THROW(campaign::scan_result_job("{\"v\":2}"), std::exception);
}

// ---------------------------------------------------------------- journal --

TEST(Journal, SyncEveryBatchesButKeepsEverySetting) {
  // The crash-safety contract must hold at every batching level: lines are
  // flushed per append (reader visibility), and whatever makes it to disk
  // before a crash resumes cleanly.
  for (const std::uint64_t sync_every : {std::uint64_t{1}, std::uint64_t{3},
                                         std::uint64_t{100}}) {
    TempDir dir;
    const std::string path = dir.file("journal.log");
    {
      auto j = campaign::Journal::open(path, "cafe", 10);
      j.set_sync_every(sync_every);
      for (std::size_t i = 0; i < 5; ++i) j.append({i, "dddd", true, 1.0, ""});
      // No close(): destructor runs, but the appends were at least
      // fflushed, so a same-machine reader sees all five.
    }
    const auto view = campaign::Journal::load(path);
    EXPECT_EQ(view.entries.size(), 5u) << "sync_every=" << sync_every;

    // Torn trailing line (the crash case): truncated on reopen, the
    // remaining entries intact.
    {
      std::ofstream out(path, std::ios::binary | std::ios::app);
      out << "J 9 ok 1.0";  // no newline
    }
    auto j = campaign::Journal::open(path, "cafe", 10);
    EXPECT_EQ(j.entries().size(), 5u);
    j.set_sync_every(sync_every);
    j.append({7, "eeee", false, 2.0, "boom"});
    j.close();
    const auto after = campaign::Journal::load(path);
    EXPECT_EQ(after.entries.size(), 6u);
    EXPECT_FALSE(after.entries.at(7).ok);
  }
}

TEST(Journal, SyncEveryZeroRejected) {
  TempDir dir;
  auto j = campaign::Journal::open(dir.file("j.log"), "cafe", 4);
  EXPECT_THROW(j.set_sync_every(0), campaign::JournalError);
}

TEST(Journal, LoadIsReadOnly) {
  TempDir dir;
  const std::string path = dir.file("journal.log");
  {
    auto j = campaign::Journal::open(path, "cafe", 10);
    j.append({0, "aaaa", true, 1.0, ""});
  }
  {  // torn tail a live worker might be mid-writing
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "J 1 ok";
  }
  const std::string before = read_file(path);
  const auto view = campaign::Journal::load(path);
  EXPECT_EQ(view.campaign_digest, "cafe");
  EXPECT_EQ(view.entries.size(), 1u);
  // load() must never repair the file — that's the owner's job.
  EXPECT_EQ(read_file(path), before);

  EXPECT_THROW(campaign::Journal::load(dir.file("missing.log")),
               campaign::JournalError);
}

TEST(Journal, SyncEveryParamRegisteredOutsideDigest) {
  scenario::ScenarioConfig a, b;
  scenario::set_param(a, "campaign.journal_sync_every", "1");
  scenario::set_param(b, "campaign.journal_sync_every", "64");
  EXPECT_EQ(b.journal_sync_every, 64u);
  // Durability tuning cannot change what the simulator computes, so it must
  // not split aggregation cells or invalidate journals.
  EXPECT_EQ(campaign::config_digest(a), campaign::config_digest(b));
}

// ------------------------------------------------------------------- json --

TEST(JsonEdgeCases, StringEscapes) {
  const auto v = campaign::json::parse(
      R"("a\"b\\c\/d\b\f\n\r\t e Aé")");
  EXPECT_EQ(v.as_string(), "a\"b\\c/d\b\f\n\r\t e A\xc3\xa9");

  campaign::json::Writer w;
  w.value(std::string_view("ctrl\x01\x1f end"));
  const auto back = campaign::json::parse(w.str());
  EXPECT_EQ(back.as_string(), "ctrl\x01\x1f end");
}

TEST(JsonEdgeCases, NestingDepthLimit) {
  // 64 levels parse; 65 must be rejected, not overflow the stack.
  std::string ok(64, '[');
  ok += std::string(64, ']');
  EXPECT_NO_THROW(campaign::json::parse(ok));

  std::string deep(65, '[');
  deep += std::string(65, ']');
  EXPECT_THROW(campaign::json::parse(deep), campaign::json::ParseError);

  std::string objects;
  for (int i = 0; i < 65; ++i) objects += "{\"k\":";
  objects += "1";
  for (int i = 0; i < 65; ++i) objects += "}";
  EXPECT_THROW(campaign::json::parse(objects), campaign::json::ParseError);
}

TEST(JsonEdgeCases, NonFiniteNumbersRejected) {
  EXPECT_THROW(campaign::json::parse("1e999"), campaign::json::ParseError);
  EXPECT_THROW(campaign::json::parse("-1e999"), campaign::json::ParseError);
  EXPECT_THROW(campaign::json::parse("[1, 1e999]"),
               campaign::json::ParseError);
  // JSON has no NaN/Inf literals in the grammar either.
  EXPECT_THROW(campaign::json::parse("NaN"), campaign::json::ParseError);
  EXPECT_THROW(campaign::json::parse("Infinity"),
               campaign::json::ParseError);
  // The writer's encoding for non-finite doubles reads back as null -> NaN.
  campaign::json::Writer w;
  w.value(std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(campaign::json::parse(w.str()).as_double()));
}

TEST(JsonEdgeCases, TruncatedInput) {
  for (const char* text :
       {"{\"a\":", "[1,", "\"abc", "{\"a\"", "{", "[", "tru", "-", "1.",
        "1e", "{\"a\":1", "[1", "\"\\u00"}) {
    EXPECT_THROW(campaign::json::parse(text), campaign::json::ParseError)
        << "input: " << text;
  }
  EXPECT_THROW(campaign::json::parse(""), campaign::json::ParseError);
  EXPECT_THROW(campaign::json::parse("1 2"), campaign::json::ParseError);
}

// ------------------------------------------------------------------- http --

/// Minimal blocking test client speaking just enough HTTP/1.1.
class TestClient {
 public:
  explicit TestClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_request(const std::string& target, bool close_conn = false,
                    const std::string& method = "GET") {
    std::string req = method + " " + target + " HTTP/1.1\r\nHost: t\r\n";
    if (close_conn) req += "Connection: close\r\n";
    req += "\r\n";
    ASSERT_EQ(::send(fd_, req.data(), req.size(), 0),
              static_cast<ssize_t>(req.size()));
  }

  /// Reads one full response (headers + body, handling both Content-Length
  /// and chunked). Returns (status, body).
  std::pair<int, std::string> read_response() {
    while (buf_.find("\r\n\r\n") == std::string::npos) {
      if (!fill()) return {0, ""};
    }
    const auto header_end = buf_.find("\r\n\r\n") + 4;
    const std::string headers = buf_.substr(0, header_end);
    const int status = std::atoi(headers.c_str() + 9);
    std::string body;
    if (headers.find("Transfer-Encoding: chunked") != std::string::npos) {
      std::size_t pos = header_end;
      for (;;) {
        while (buf_.find("\r\n", pos) == std::string::npos) {
          if (!fill()) return {status, body};
        }
        const auto line_end = buf_.find("\r\n", pos);
        const std::size_t n =
            std::strtoull(buf_.c_str() + pos, nullptr, 16);
        pos = line_end + 2;
        if (n == 0) break;
        while (buf_.size() < pos + n + 2) {
          if (!fill()) return {status, body};
        }
        body += buf_.substr(pos, n);
        pos += n + 2;
      }
      while (buf_.size() < pos + 2) {
        if (!fill()) break;
      }
      buf_.erase(0, std::min(buf_.size(), pos + 2));
    } else {
      std::size_t len = 0;
      const auto cl = headers.find("Content-Length: ");
      if (cl != std::string::npos) {
        len = std::strtoull(headers.c_str() + cl + 16, nullptr, 10);
      }
      while (buf_.size() < header_end + len) {
        if (!fill()) break;
      }
      body = buf_.substr(header_end, len);
      buf_.erase(0, header_end + len);
    }
    return {status, body};
  }

 private:
  bool fill() {
    char tmp[4096];
    const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
    if (n <= 0) return false;
    buf_.append(tmp, static_cast<std::size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buf_;
};

TEST(HttpServer, UrlDecode) {
  EXPECT_EQ(serving::url_decode("a%20b+c%2Fd"), "a b c/d");
  EXPECT_EQ(serving::url_decode("plain"), "plain");
  EXPECT_EQ(serving::url_decode("%zz"), "%zz");  // malformed kept verbatim
  EXPECT_EQ(serving::url_decode("%41%42"), "AB");
}

TEST(HttpServer, ServesQueriesAndKeepAlive) {
  serving::HttpServer server(
      0,
      [](const serving::HttpRequest& req) {
        serving::HttpResponse resp;
        resp.body = req.path;
        for (const auto& [k, v] : req.query) resp.body += "|" + k + "=" + v;
        return resp;
      },
      2);
  ASSERT_GT(server.port(), 0);

  TestClient client(server.port());
  client.send_request("/echo?x=1&y=a%20b");
  auto [status, body] = client.read_response();
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "/echo|x=1|y=a b");

  // Keep-alive: a second request on the same connection.
  client.send_request("/two");
  std::tie(status, body) = client.read_response();
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "/two");

  // A key given twice (here once URL-encoded) is ambiguous: 400 naming it,
  // and the handler never runs.
  client.send_request("/echo?x=1&y=2&%78=3");
  std::tie(status, body) = client.read_response();
  EXPECT_EQ(status, 400);
  EXPECT_NE(body.find("repeated query parameter: x"), std::string::npos)
      << body;
  EXPECT_EQ(server.requests_served(), 3u);
  server.stop();
}

TEST(HttpServer, MethodNotAllowedAndHandlerError) {
  serving::HttpServer server(
      0,
      [](const serving::HttpRequest& req) -> serving::HttpResponse {
        if (req.path == "/boom") throw std::runtime_error("x");
        return {};
      },
      1);
  {
    TestClient client(server.port());
    client.send_request("/x", true, "POST");
    EXPECT_EQ(client.read_response().first, 405);
  }
  {
    TestClient client(server.port());
    client.send_request("/boom", true);
    EXPECT_EQ(client.read_response().first, 500);
  }
  server.stop();
}

TEST(HttpServer, ChunkedStreaming) {
  serving::HttpServer server(
      0,
      [](const serving::HttpRequest&) {
        serving::HttpResponse resp;
        auto n = std::make_shared<int>(0);
        resp.next_chunk = [n](std::string& chunk) {
          if (*n >= 3) return false;
          chunk = "part" + std::to_string((*n)++) + ";";
          return true;
        };
        return resp;
      },
      1);
  TestClient client(server.port());
  client.send_request("/stream", true);
  const auto [status, body] = client.read_response();
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "part0;part1;part2;");
  server.stop();
}

TEST(HttpServer, ConcurrentClients) {
  std::atomic<int> served{0};
  serving::HttpServer server(
      0,
      [&](const serving::HttpRequest&) {
        ++served;
        serving::HttpResponse resp;
        resp.body = "ok";
        return resp;
      },
      4);
  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  std::atomic<int> good{0};
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      TestClient client(server.port());
      for (int r = 0; r < 5; ++r) {
        client.send_request("/c");
        if (client.read_response() == std::pair<int, std::string>{200, "ok"}) {
          ++good;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(good.load(), kClients * 5);
  EXPECT_EQ(served.load(), kClients * 5);
  server.stop();
}

// ----------------------------------------------------------------- metrics --

TEST(MetricsIo, RoundTripAndTornFile) {
  stats::LiveSnapshot s;
  s.phy_tx = 111;
  s.data_delivered = 42;
  s.jobs_completed = 7;
  const auto back = serving::snapshot_from_json(serving::snapshot_to_json(s));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->phy_tx, 111u);
  EXPECT_EQ(back->data_delivered, 42u);
  EXPECT_EQ(back->jobs_completed, 7u);

  EXPECT_FALSE(serving::snapshot_from_json("{\"phy_tx\":").has_value());
  EXPECT_FALSE(serving::read_snapshot_file("/nonexistent/m.json")
                   .has_value());

  TempDir dir;
  const std::string path = dir.file("m.json");
  serving::write_snapshot_file(path, s);
  const auto file_back = serving::read_snapshot_file(path);
  ASSERT_TRUE(file_back.has_value());
  EXPECT_EQ(file_back->phy_tx, 111u);
  EXPECT_EQ(file_back->jobs_completed, 7u);
}

}  // namespace
}  // namespace rcast
