// Serving-layer benchmarks: point lookups through the in-memory index vs the
// displaced linear JSONL scan, memoized vs cold cell aggregates, a
// heavy-traffic HTTP burst (thousands of concurrent /aggregate queries
// against a >=100k-record store) with p50/p99 latency counters, and the
// cost of opening a service on that store.
//
// The committed BENCH_serving.json stores the linear-scan numbers as the
// "baseline" column and the indexed numbers as "after" under the same
// benchmark name, so tools/check_bench.py --gate-speedup can pin the
// indexed-vs-scan ratio (the issue's >=10x acceptance bar) in CI.
#include <benchmark/benchmark.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench/bench_json.hpp"
#include "campaign/manifest.hpp"
#include "campaign/result_store.hpp"
#include "serving/http_server.hpp"
#include "serving/result_service.hpp"

namespace {

namespace fs = std::filesystem;
using namespace rcast;

constexpr std::size_t kSeedsPerCell = 2000;  // 50 cells x 2000 = 100k records

/// Synthetic >=100k-record store shared by every benchmark: real expanded
/// jobs (real digests, real record bytes) with made-up results, written
/// without fsync so setup stays in seconds.
struct Store {
  std::string dir;
  std::string jsonl;
  std::vector<std::string> digests;        // one per record, job order
  std::vector<std::uint64_t> cells;        // distinct cell digests
  serving::ResultService* service = nullptr;

  ~Store() {
    delete service;
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

Store& store() {
  static Store s = [] {
    Store st;
    st.dir = (fs::temp_directory_path() /
              ("rcast_bench_serving_" + std::to_string(::getpid())))
                 .string();
    fs::create_directories(st.dir);
    st.jsonl = st.dir + "/results.jsonl";

    campaign::Manifest m;
    m.name = "bench_serving";
    m.schemes = {scenario::Scheme::kRcast, scenario::Scheme::kOdpm};
    m.rates_pps = {0.5, 1.0, 2.0, 4.0, 8.0};
    m.node_counts = {10, 20, 30, 40, 50};
    m.seeds = kSeedsPerCell;
    m.duration_s = 10.0;
    const auto jobs = campaign::expand(m);

    std::ofstream out(st.jsonl, std::ios::binary);
    scenario::RunResult r;
    r.per_node_energy_j = {1.0, 2.0};
    std::unordered_set<std::uint64_t> seen_cells;
    for (const auto& job : jobs) {
      r.pdr_percent = 50.0 + static_cast<double>(job.index % 49);
      r.total_energy_j = 10.0 + 0.25 * static_cast<double>(job.index % 97);
      r.delivered = 90 + job.index % 11;
      out << campaign::record_to_json(job, r, 1.5) << '\n';
      st.digests.push_back(job.digest);
      const std::uint64_t cell = serving::digest_to_u64(
          campaign::config_cell_digest(job.cfg));
      if (seen_cells.insert(cell).second) st.cells.push_back(cell);
    }
    out.close();

    st.service = new serving::ResultService(st.jsonl);  // indexes in memory
    return st;
  }();
  return s;
}

// ------------------------------------------------------------- lookups --

/// Indexed point lookup: hash probe + one seek/read. The committed record
/// stores BM_PointLookupScan's numbers as this benchmark's "baseline"
/// column — the speedup gate compares the two.
void BM_PointLookup(benchmark::State& state) {
  Store& st = store();
  std::mt19937_64 rng(7);
  for (auto _ : state) {
    const std::string& hex =
        st.digests[rng() % st.digests.size()];
    auto line = st.service->result_json(serving::digest_to_u64(hex));
    if (!line) state.SkipWithError("digest not found");
    benchmark::DoNotOptimize(line);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["records"] =
      benchmark::Counter(static_cast<double>(st.digests.size()));
}
BENCHMARK(BM_PointLookup)->Unit(benchmark::kMicrosecond);

/// The displaced path: stream the whole JSONL and string-match the digest,
/// parsing only candidate lines (the strongest linear contender — weaker
/// ones full-parse every line). Kept so the speedup column can be
/// re-measured honestly on the same box.
void BM_PointLookupScan(benchmark::State& state) {
  Store& st = store();
  std::mt19937_64 rng(7);
  for (auto _ : state) {
    const std::string& hex = st.digests[rng() % st.digests.size()];
    const std::string needle = "\"cfg_digest\":\"" + hex + "\"";
    std::ifstream in(st.jsonl, std::ios::binary);
    std::string line, winner;
    while (std::getline(in, line)) {
      if (line.find(needle) != std::string::npos) winner = line;
    }
    if (winner.empty()) state.SkipWithError("digest not found");
    benchmark::DoNotOptimize(winner);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PointLookupScan)->Unit(benchmark::kMillisecond);

// ----------------------------------------------------------- aggregates --

/// Memoized cell aggregate: every query after the first per cell is a
/// cache hit.
void BM_AggregateCellWarm(benchmark::State& state) {
  Store& st = store();
  for (const std::uint64_t cell : st.cells) {
    st.service->aggregate_cell(cell);  // prime
  }
  std::mt19937_64 rng(11);
  for (auto _ : state) {
    auto row = st.service->aggregate_cell(st.cells[rng() % st.cells.size()]);
    benchmark::DoNotOptimize(row);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["seeds_per_cell"] =
      benchmark::Counter(static_cast<double>(kSeedsPerCell));
}
BENCHMARK(BM_AggregateCellWarm)->Unit(benchmark::kMicrosecond);

/// Cold cell aggregate: each iteration folds one cell's records through
/// RunAverager from disk. A fresh service (cache empty) answers every cell
/// once before the next one is opened, outside the timed region; opening
/// per query would make the untimed index builds dominate the wall time.
void BM_AggregateCellCold(benchmark::State& state) {
  Store& st = store();
  std::unique_ptr<serving::ResultService> fresh;
  std::size_t next = st.cells.size();
  for (auto _ : state) {
    if (next == st.cells.size()) {
      state.PauseTiming();
      fresh = std::make_unique<serving::ResultService>(st.jsonl);
      next = 0;
      state.ResumeTiming();
    }
    auto row = fresh->aggregate_cell(st.cells[next++]);
    benchmark::DoNotOptimize(row);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AggregateCellCold)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------------- http burst --

/// Minimal keep-alive client for the burst benchmark.
class BurstClient {
 public:
  explicit BurstClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ok_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~BurstClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return ok_; }

  /// One request/response round trip; returns false on any failure.
  bool get(const std::string& target) {
    const std::string req =
        "GET " + target + " HTTP/1.1\r\nHost: b\r\n\r\n";
    if (::send(fd_, req.data(), req.size(), 0) !=
        static_cast<ssize_t>(req.size())) {
      return false;
    }
    // Read headers, then exactly Content-Length body bytes.
    while (buf_.find("\r\n\r\n") == std::string::npos) {
      if (!fill()) return false;
    }
    const std::size_t header_end = buf_.find("\r\n\r\n") + 4;
    const auto cl = buf_.find("Content-Length: ");
    if (cl == std::string::npos || cl > header_end) return false;
    const std::size_t len = std::strtoull(buf_.c_str() + cl + 16, nullptr, 10);
    while (buf_.size() < header_end + len) {
      if (!fill()) return false;
    }
    const bool success = buf_.compare(9, 3, "200") == 0;
    buf_.erase(0, header_end + len);
    return success;
  }

 private:
  bool fill() {
    char tmp[8192];
    const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
    if (n <= 0) return false;
    buf_.append(tmp, static_cast<std::size_t>(n));
    return true;
  }

  int fd_ = -1;
  bool ok_ = false;
  std::string buf_;
};

/// Thousands of concurrent /aggregate queries per iteration: kConnections
/// keep-alive clients hammer a warmed service, per-request latency recorded
/// for p50/p99 counters.
void BM_HttpAggregateBurst(benchmark::State& state) {
  Store& st = store();
  constexpr int kConnections = 8;
  constexpr int kRequestsPerConn = 250;  // 2000 queries per iteration

  serving::HttpServer server(
      0,
      [&st](const serving::HttpRequest& req) {
        serving::HttpResponse resp;
        const auto it = req.query.find("cell");
        if (it == req.query.end()) {
          resp.status = 400;
          return resp;
        }
        const auto row = st.service->aggregate_cell(
            serving::digest_to_u64(it->second));
        resp.status = row ? 200 : 404;
        resp.body = row ? std::to_string(row->mean.pdr_percent) : "{}";
        return resp;
      },
      4);
  for (const std::uint64_t cell : st.cells) {
    st.service->aggregate_cell(cell);  // warm the cache
  }

  std::vector<double> latencies_us;
  std::atomic<bool> failed{false};
  for (auto _ : state) {
    std::vector<std::vector<double>> per_thread(kConnections);
    std::vector<std::thread> threads;
    for (int t = 0; t < kConnections; ++t) {
      threads.emplace_back([&, t] {
        BurstClient client(server.port());
        if (!client.ok()) {
          failed = true;
          return;
        }
        std::mt19937_64 rng(static_cast<std::uint64_t>(t) + 17);
        char hex[17];
        for (int i = 0; i < kRequestsPerConn; ++i) {
          const std::uint64_t cell = st.cells[rng() % st.cells.size()];
          std::snprintf(hex, sizeof(hex), "%016llx",
                        static_cast<unsigned long long>(cell));
          const auto start = std::chrono::steady_clock::now();
          if (!client.get(std::string("/aggregate?cell=") + hex)) {
            failed = true;
            return;
          }
          per_thread[static_cast<std::size_t>(t)].push_back(
              std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - start)
                  .count());
        }
      });
    }
    for (auto& t : threads) t.join();
    for (auto& v : per_thread) {
      latencies_us.insert(latencies_us.end(), v.begin(), v.end());
    }
  }
  if (failed) {
    state.SkipWithError("burst client failed");
  } else {
    std::sort(latencies_us.begin(), latencies_us.end());
    const auto pct = [&](double p) {
      return latencies_us[std::min(
          latencies_us.size() - 1,
          static_cast<std::size_t>(p * static_cast<double>(
                                           latencies_us.size())))];
    };
    state.counters["p50_us"] = benchmark::Counter(pct(0.50));
    state.counters["p99_us"] = benchmark::Counter(pct(0.99));
    state.counters["connections"] = benchmark::Counter(kConnections);
  }
  state.SetItemsProcessed(state.iterations() * kConnections *
                          kRequestsPerConn);
  server.stop();
}
BENCHMARK(BM_HttpAggregateBurst)->Unit(benchmark::kMillisecond)->UseRealTime();

// ------------------------------------------------------------------- open --

/// Opening a service on the 100k-record store: one walk of the JSONL that
/// parses every line into the in-memory index — the daemon's startup cost.
void BM_ServiceOpen(benchmark::State& state) {
  Store& st = store();
  std::size_t records = 0;
  for (auto _ : state) {
    serving::ResultService svc(st.jsonl);
    records = svc.record_count();
    benchmark::DoNotOptimize(records);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records) *
                          static_cast<std::int64_t>(state.iterations()));
  state.counters["records"] =
      benchmark::Counter(static_cast<double>(records));
}
BENCHMARK(BM_ServiceOpen)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return rcast::bench::run_and_tee(argc, argv, "RCAST_BENCH_SERVING_JSON",
                                   "BENCH_serving.json");
}
