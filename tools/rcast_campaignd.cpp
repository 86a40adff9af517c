// rcast_campaignd — the campaign CLI. `run` executes a manifest's grid in
// this process on a pool of --threads simulator threads and can serve the
// growing result store over HTTP while it runs. A run stopped at any point
// (Ctrl-C, SIGTERM, kill -9) finishes with `resume`, and its export is
// byte-identical to an uninterrupted run's. SIGINT/SIGTERM stop run/resume
// at once, mid-job, with exit 128+signal: the journal makes that safe.
//
//   rcast_campaignd run     MANIFEST --out=DIR [--threads=N] [--port=P]
//   rcast_campaignd resume  MANIFEST --out=DIR [same knobs]
//   rcast_campaignd serve   MANIFEST --out=DIR --port=P
//   rcast_campaignd export  MANIFEST --out=DIR [--csv=FILE]
//   rcast_campaignd status  MANIFEST --out=DIR
//
// Layout under DIR: journal.log (the commit point), results.jsonl (one
// record per job: the whole store) and metrics.json (live counters,
// rewritten after each job); export/serve/status write nothing under DIR.
// Endpoints: /status (journal + cache view), /results?digest=<16hex>
// (point lookup via the in-memory index), /aggregate?cell=<16hex>
// (memoized seed-average), /aggregate (full CSV, optionally filtered by
// grid coordinates: ?scheme=rcast&routing=dsr&nodes=60&flows=8&rate_pps=4
// &pause_s=30&duration_s=900&seed=3), /metrics[?watch=N&interval-ms=M]
// (chunked live counter stream).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "campaign/journal.hpp"
#include "campaign/json.hpp"
#include "campaign/manifest.hpp"
#include "campaign/result_store.hpp"
#include "campaign/runner.hpp"
#include "scenario/params.hpp"
#include "scenario/scheme.hpp"
#include "serving/http_server.hpp"
#include "serving/metrics_io.hpp"
#include "serving/result_service.hpp"
#include "stats/live_counters.hpp"
#include "util/flags.hpp"

namespace {

using namespace rcast;
namespace fs = std::filesystem;

// The signal that asked run/resume/serve to stop; 0 while running. Atomic:
// the handler may run on a simulator or HTTP thread while the main thread
// polls.
std::atomic<int> g_stop{0};
static_assert(std::atomic<int>::is_always_lock_free);  // signal-safe
void on_signal(int sig) { g_stop = sig; }

void print_usage() {
  std::puts(
      "rcast_campaignd — checkpointed sweep campaigns (Rcast reproduction)\n"
      "\n"
      "  rcast_campaignd run     MANIFEST --out=DIR   start a campaign\n"
      "  rcast_campaignd resume  MANIFEST --out=DIR   finish after a stop\n"
      "  rcast_campaignd serve   MANIFEST --out=DIR   HTTP over a stored one\n"
      "  rcast_campaignd export  MANIFEST --out=DIR   aggregate CSV\n"
      "  rcast_campaignd status  MANIFEST --out=DIR   progress\n"
      "\n"
      "  --out=DIR        campaign directory (journal.log, results.jsonl,\n"
      "                   metrics.json)\n"
      "  --threads=N      simulator threads       (default: hardware)\n"
      "  --port=P         serve HTTP on 127.0.0.1:P (0 = ephemeral; run/serve)\n"
      "  --port-file=F    write the bound port to F (useful with --port=0)\n"
      "  --serve-after    keep serving after the campaign finishes (run mode)\n"
      "  --http-threads=N HTTP connection workers (default: 4)\n"
      "  --timeout-s=S    per-job wall budget     (default: none)\n"
      "  --max-jobs=N     new-job cutoff (interruption testing)\n"
      "  --csv=FILE       export target           (default: stdout)\n"
      "  --set KEY=VALUE  override a registered parameter (repeatable; pass\n"
      "                   the same --set flags to every subcommand)\n"
      "  --help-params    list every registered parameter: each is also a\n"
      "                   manifest key (a list of values adds a sweep axis)\n"
      "  --quiet          suppress per-job progress lines\n"
      "\n"
      "HTTP endpoints: /status, /results?digest=<16hex>,\n"
      "/aggregate?cell=<16hex>, /aggregate (CSV), /metrics[?watch=N].\n"
      "Stop a run at any point (Ctrl-C, SIGTERM, kill -9) and `resume` it:\n"
      "the export stays byte-identical to an uninterrupted run's.");
}

// ----------------------------------------------------------------- flags --

/// The flags each subcommand reads besides --out and --set. Any other flag
/// exits 2 before --out is touched, so a misspelt or retired flag fails
/// loudly instead of being ignored.
const std::vector<std::string> kRunFlags = {
    "threads", "timeout-s", "max-jobs",    "quiet",
    "port",    "port-file", "serve-after", "http-threads"};
const std::map<std::string, std::vector<std::string>> kSubcommandFlags = {
    {"run", kRunFlags},
    {"resume", kRunFlags},
    {"serve", {"port", "port-file", "http-threads"}},
    {"export", {"csv"}},
    {"status", {}},
};

/// The numeric flags, parsed strictly and range-checked before anything
/// touches --out.
struct Counts {
  std::size_t threads = 0;  // 0 = hardware concurrency
  std::size_t max_jobs = 0;
  std::size_t http_threads = 4;
  std::uint16_t port = 0;
};

/// Reads --name into `out` if present. Prints the accepted range and
/// returns false when the value is not an integer in [lo, hi].
template <typename T>
bool read_count(const Flags& flags, const char* name, std::uint64_t lo,
                std::uint64_t hi, T& out) {
  if (!flags.has(name)) return true;
  const std::string text = flags.get_string(name, "");
  const auto v = Flags::parse_u64(text);
  if (!v || *v < lo || *v > hi) {
    std::fprintf(stderr,
                 "--%s: expected an integer in [%llu, %llu], got '%s'\n",
                 name, static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi), text.c_str());
    return false;
  }
  out = static_cast<T>(*v);
  return true;
}

bool parse_counts(const Flags& flags, Counts& c) {
  constexpr std::uint64_t kMaxProcs = 1024;
  const std::string timeout = flags.get_string("timeout-s", "0");
  if (const auto v = Flags::parse_double(timeout); !v || *v < 0.0) {
    std::fprintf(stderr, "--timeout-s: expected seconds >= 0, got '%s'\n",
                 timeout.c_str());
    return false;
  }
  return read_count(flags, "threads", 0, kMaxProcs, c.threads) &&
         read_count(flags, "max-jobs", 0, SIZE_MAX, c.max_jobs) &&
         read_count(flags, "http-threads", 1, kMaxProcs, c.http_threads) &&
         read_count(flags, "port", 0, 65535, c.port);
}

// ---------------------------------------------------------------- layout --

std::string journal_path(const std::string& out_dir) {
  return out_dir + "/journal.log";
}
std::string results_path(const std::string& out_dir) {
  return out_dir + "/results.jsonl";
}
std::string metrics_path(const std::string& out_dir) {
  return out_dir + "/metrics.json";
}

/// Directories written while `run` forked one worker process per shard hold
/// a journal and a result file per shard. No subcommand reads them; this
/// names the file and the merge that makes the store exportable again.
bool is_shard_layout(const std::string& out_dir) {
  for (const char* name : {"journal.shard0.log", "results.shard0.jsonl"}) {
    const std::string path = out_dir + "/" + name;
    if (fs::exists(path)) {
      std::fprintf(stderr,
                   "%s: per-shard layout of an older rcast_campaignd. In %s, "
                   "run `cat results.shard*.jsonl > results.jsonl` and delete "
                   "the *.shard* files; export, serve and status then read "
                   "the merged store. The shard journals cannot be resumed.\n",
                   path.c_str(), out_dir.c_str());
      return true;
    }
  }
  return false;
}

/// Committed (ok, failed) jobs in the campaign's journal; zeros before the
/// run has written its header.
std::pair<std::size_t, std::size_t> journal_counts(const std::string& out_dir) {
  std::size_t ok = 0, failed = 0;
  try {
    const campaign::JournalView v =
        campaign::Journal::load(journal_path(out_dir));
    for (const auto& [_, e] : v.entries) (e.ok ? ok : failed) += 1;
  } catch (const campaign::JournalError&) {
  }
  return {ok, failed};
}

// ------------------------------------------------------------ HTTP layer --

struct ServeContext {
  serving::ResultService* svc = nullptr;
  std::string out_dir;
  std::string campaign_name;
  std::size_t job_count = 0;

  std::mutex refresh_mu;
  std::chrono::steady_clock::time_point last_refresh{};

  /// Refresh at most every 200 ms: point queries against a static store
  /// stay cheap, yet a store growing under the daemon is visible promptly.
  void maybe_refresh() {
    std::lock_guard<std::mutex> lock(refresh_mu);
    const auto now = std::chrono::steady_clock::now();
    if (now - last_refresh < std::chrono::milliseconds(200)) return;
    last_refresh = now;
    svc->refresh();
  }

  /// Unthrottled refresh, for lookup misses (a record committed
  /// microseconds ago should be queryable on the retry) and for the end of
  /// a run.
  void force_refresh() {
    std::lock_guard<std::mutex> lock(refresh_mu);
    last_refresh = std::chrono::steady_clock::now();
    svc->refresh();
  }
};

serving::HttpResponse error_response(int status, const std::string& message) {
  campaign::json::Writer w;
  w.begin_object().key("error").value(message).end_object();
  serving::HttpResponse resp;
  resp.status = status;
  resp.body = w.take();
  return resp;
}

std::string status_json(ServeContext& ctx) {
  campaign::json::Writer w;
  w.begin_object();
  w.key("campaign").value(ctx.campaign_name);
  w.key("jobs").value(static_cast<std::uint64_t>(ctx.job_count));
  w.key("records").value(static_cast<std::uint64_t>(ctx.svc->record_count()));
  const auto [ok, failed] = journal_counts(ctx.out_dir);
  w.key("done").value(static_cast<std::uint64_t>(ok + failed));
  w.key("ok").value(static_cast<std::uint64_t>(ok));
  w.key("failed").value(static_cast<std::uint64_t>(failed));
  const serving::CacheStats cs = ctx.svc->cache_stats();
  w.key("cache").begin_object();
  w.key("hits").value(cs.hits);
  w.key("misses").value(cs.misses);
  w.key("invalidations").value(cs.invalidations);
  w.end_object();
  w.end_object();
  return w.take();
}

/// Renders one aggregate row as JSON, mirroring the CSV columns.
std::string aggregate_row_json(const campaign::AggregateRow& row) {
  const auto& m = row.mean;
  campaign::json::Writer w;
  w.begin_object();
  w.key("cell").value(row.cell);
  w.key("scheme").value(scenario::to_string(row.scheme));
  w.key("routing").value(scenario::to_string(row.routing));
  w.key("mobility").value("rwp");  // constant since cfg/v4, as in the CSV
  w.key("traffic").value("cbr");
  w.key("nodes").value(static_cast<std::uint64_t>(row.nodes));
  w.key("flows").value(static_cast<std::uint64_t>(row.flows));
  w.key("rate_pps").value(row.rate_pps);
  w.key("pause_s").value(row.pause_s);
  w.key("duration_s").value(row.duration_s);
  w.key("seeds").value(static_cast<std::uint64_t>(row.seeds));
  w.key("pdr_pct").value(m.pdr_percent);
  w.key("energy_j").value(m.total_energy_j);
  w.key("energy_var").value(m.energy_variance);
  w.key("energy_mean_j").value(m.energy_mean_j);
  w.key("epb_j_per_bit").value(m.energy_per_bit_j);
  w.key("delay_s").value(m.avg_delay_s);
  w.key("norm_overhead").value(m.normalized_overhead);
  w.key("ctrl_tx").value(m.control_tx);
  w.key("hello_tx").value(m.hello_tx);
  w.key("dead_nodes").value(static_cast<std::uint64_t>(m.dead_nodes));
  w.key("first_node_death_s").value(m.first_death_s);
  w.key("partition_time_s").value(m.partition_time_s);
  w.end_object();
  return w.take();
}

/// Parses a ?digest=/-?cell= query value; nullopt on malformed input.
std::optional<std::uint64_t> parse_digest_param(const std::string& hex) {
  try {
    return serving::digest_to_u64(hex);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// Builds the /aggregate grid filter from query parameters. Returns the
/// filter, or an error message naming the offending parameter.
std::variant<serving::AggregateFilter, std::string> parse_aggregate_filter(
    const std::map<std::string, std::string>& query) {
  // scheme and routing parse through their parameters, as manifests do.
  serving::AggregateFilter f;
  try {
    for (const auto& [key, value] : query) {
      if (key == "scheme") {
        f.scheme = *scenario::scheme_from_string(
            scenario::find_param("power.scheme")->parse(value).token);
      } else if (key == "routing") {
        f.routing = *scenario::routing_from_string(
            scenario::find_param("routing.protocol")->parse(value).token);
      } else if (key == "nodes" || key == "flows" || key == "seed") {
        const auto v = Flags::parse_u64(value);
        if (!v) return "malformed " + key + ": " + value;
        if (key == "nodes") f.nodes = *v;
        else if (key == "flows") f.flows = *v;
        else f.seed = *v;
      } else if (key == "rate_pps" || key == "pause_s" ||
                 key == "duration_s") {
        const auto v = Flags::parse_double(value);
        if (!v) return "malformed " + key + ": " + value;
        if (key == "rate_pps") f.rate_pps = *v;
        else if (key == "pause_s") f.pause_s = *v;
        else f.duration_s = *v;
      } else {
        return "unknown aggregate parameter: " + key;
      }
    }
  } catch (const scenario::ParamError& e) {
    return std::string(e.what());
  }
  return f;
}

serving::HttpServer::Handler make_handler(std::shared_ptr<ServeContext> ctx) {
  return [ctx](const serving::HttpRequest& req) -> serving::HttpResponse {
    if (req.path == "/status") {
      ctx->maybe_refresh();
      serving::HttpResponse resp;
      resp.body = status_json(*ctx);
      return resp;
    }

    if (req.path == "/results") {
      const auto it = req.query.find("digest");
      if (it == req.query.end()) {
        return error_response(400, "missing ?digest=<16 hex digits>");
      }
      const auto digest = parse_digest_param(it->second);
      if (!digest) return error_response(400, "malformed digest");
      ctx->maybe_refresh();
      auto line = ctx->svc->result_json(*digest);
      if (!line) {  // maybe committed since the last refresh — retry once
        ctx->force_refresh();
        line = ctx->svc->result_json(*digest);
      }
      if (!line) return error_response(404, "unknown digest");
      serving::HttpResponse resp;
      resp.body = std::move(*line);
      return resp;
    }

    if (req.path == "/aggregate") {
      const auto it = req.query.find("cell");
      ctx->maybe_refresh();
      if (it == req.query.end()) {
        const auto parsed = parse_aggregate_filter(req.query);
        if (const auto* err = std::get_if<std::string>(&parsed)) {
          return error_response(400, *err);
        }
        serving::HttpResponse resp;
        resp.content_type = "text/csv";
        resp.body =
            ctx->svc->aggregate_csv(std::get<serving::AggregateFilter>(parsed));
        return resp;
      }
      if (req.query.size() > 1) {
        return error_response(400, "cell= cannot combine with grid filters");
      }
      const auto cell = parse_digest_param(it->second);
      if (!cell) return error_response(400, "malformed cell digest");
      auto row = ctx->svc->aggregate_cell(*cell);
      if (!row) {
        ctx->force_refresh();
        row = ctx->svc->aggregate_cell(*cell);
      }
      if (!row) return error_response(404, "unknown cell");
      serving::HttpResponse resp;
      resp.body = aggregate_row_json(*row);
      return resp;
    }

    if (req.path == "/metrics") {
      std::uint64_t watch = 1;
      std::uint64_t interval_ms = 1000;
      // A day bounds the interval, so the sleep deadline cannot overflow.
      constexpr std::uint64_t kMaxIntervalMs = 24 * 3600 * 1000;
      for (auto [key, max, out] :
           {std::tuple{"watch", UINT64_MAX, &watch},
            std::tuple{"interval-ms", kMaxIntervalMs, &interval_ms}}) {
        const auto it = req.query.find(key);
        if (it == req.query.end()) continue;
        const auto v = Flags::parse_u64(it->second);
        if (!v || *v > max) {
          return error_response(400, "invalid " + std::string(key) + ": " +
                                         it->second);
        }
        *out = *v;
      }
      serving::HttpResponse resp;
      resp.content_type = "application/x-ndjson";
      // state: (chunks remaining, is-first-chunk)
      auto state = std::make_shared<std::pair<std::uint64_t, bool>>(
          watch, /*first=*/true);
      resp.next_chunk = [ctx, state, interval_ms](std::string& chunk) {
        if (state->first == 0 || g_stop) return false;
        if (state->second) {
          state->second = false;
        } else {
          // Sleep in slices of at most 100 ms, so a stop signal ends the
          // stream promptly however long the interval.
          const auto until = std::chrono::steady_clock::now() +
                             std::chrono::milliseconds(interval_ms);
          for (auto now = std::chrono::steady_clock::now();
               now < until && !g_stop; now = std::chrono::steady_clock::now()) {
            std::this_thread::sleep_for(std::min<std::chrono::nanoseconds>(
                until - now, std::chrono::milliseconds(100)));
          }
          if (g_stop) return false;
        }
        --state->first;
        chunk = serving::snapshot_to_json(
            serving::read_snapshot_file(metrics_path(ctx->out_dir))
                .value_or(stats::LiveSnapshot{}));
        chunk += '\n';
        return true;
      };
      return resp;
    }

    return error_response(404, "no such endpoint");
  };
}

// ------------------------------------------------------------ subcommands --

/// Serve loop shared by `serve` and `run --serve-after`: blocks until
/// SIGINT/SIGTERM.
void serve_until_signalled() {
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

void write_port_file(const Flags& flags, std::uint16_t port) {
  const std::string path = flags.get_string("port-file", "");
  if (path.empty()) return;
  std::ofstream out(path, std::ios::trunc);
  out << port << '\n';
}

int cmd_run(const campaign::Manifest& manifest,
            const scenario::ScenarioConfig& base, const std::string& out_dir,
            const Flags& flags, const Counts& counts, bool resume) {
  const auto jobs = campaign::expand(manifest, base);  // validate early
  if (!resume && fs::exists(journal_path(out_dir))) {
    std::fprintf(stderr, "%s already has a journal — use `resume`\n",
                 out_dir.c_str());
    return 2;
  }
  fs::create_directories(out_dir);

  campaign::RunnerOptions opt;
  opt.journal_path = journal_path(out_dir);
  opt.results_path = results_path(out_dir);
  opt.threads = counts.threads;
  opt.job_timeout_s = flags.get_double("timeout-s", 0.0);
  opt.max_jobs = counts.max_jobs;
  opt.progress = !flags.get_bool("quiet", false);

  stats::LiveCounters live;
  opt.live = &live;
  // Each commit publishes the live counters for /metrics.
  const std::string metrics = metrics_path(out_dir);
  opt.on_commit = [&](const campaign::Job&, const campaign::JobOutcome&,
                      const campaign::AppendExtent*) {
    serving::write_snapshot_file(metrics, live.snapshot());
  };

  // Optional serving layer over the store the runner is writing.
  std::unique_ptr<serving::ResultService> svc;
  std::shared_ptr<ServeContext> ctx;
  std::unique_ptr<serving::HttpServer> server;
  if (flags.has("port")) {
    svc = std::make_unique<serving::ResultService>(opt.results_path);
    ctx = std::make_shared<ServeContext>();
    ctx->svc = svc.get();
    ctx->out_dir = out_dir;
    ctx->campaign_name = manifest.name;
    ctx->job_count = jobs.size();
    server = std::make_unique<serving::HttpServer>(
        counts.port, make_handler(ctx), counts.http_threads);
    std::fprintf(stderr, "serving on 127.0.0.1:%u\n", server->port());
    write_port_file(flags, server->port());
  }

  // The grid runs on its own thread so that this one answers a stop signal
  // within a poll interval, even mid-job. A stop does not wait for jobs in
  // flight: the journal is the commit point, so `resume` re-runs them.
  auto running = std::async(std::launch::async, [&] {
    return campaign::run_campaign(manifest, opt, base);
  });
  while (running.wait_for(std::chrono::milliseconds(20)) !=
             std::future_status::ready &&
         !g_stop) {
  }
  if (const int sig = g_stop) {
    std::fprintf(stderr, "stopped by signal %d — `resume` to finish\n", sig);
    std::_Exit(128 + sig);
  }
  const campaign::CampaignResult r = running.get();
  // The throttle may have skipped the last commits: index them before the
  // daemon says it is done, so its /aggregate then equals `export`.
  if (ctx) ctx->force_refresh();

  const auto [ok, failed] = journal_counts(out_dir);
  std::fprintf(stderr,
               "campaign '%s': %zu/%zu jobs done (%zu ok, %zu failed; %zu "
               "run now, %zu resumed, %zu not run)\n",
               manifest.name.c_str(), ok + failed, jobs.size(), ok, failed,
               r.completed + r.failed, r.skipped, r.remaining);
  if (server && flags.get_bool("serve-after", false)) {
    std::fprintf(stderr, "campaign done — still serving (Ctrl-C to stop)\n");
    serve_until_signalled();
  }
  if (server) server->stop();
  return failed == 0 ? 0 : 1;
}

int cmd_serve(const campaign::Manifest& manifest,
              const scenario::ScenarioConfig& base, const std::string& out_dir,
              const Flags& flags, const Counts& counts) {
  const auto jobs = campaign::expand(manifest, base);
  const std::string results = results_path(out_dir);
  if (!fs::exists(results)) {
    std::fprintf(stderr, "no result file %s\n", results.c_str());
    return 2;
  }

  serving::ResultService svc(results);
  auto ctx = std::make_shared<ServeContext>();
  ctx->svc = &svc;
  ctx->out_dir = out_dir;
  ctx->campaign_name = manifest.name;
  ctx->job_count = jobs.size();

  serving::HttpServer server(counts.port, make_handler(ctx),
                             counts.http_threads);
  std::fprintf(stderr, "serving %zu records on 127.0.0.1:%u\n",
               svc.record_count(), server.port());
  write_port_file(flags, server.port());
  serve_until_signalled();
  server.stop();
  return 0;
}

int cmd_export(const std::string& out_dir, const Flags& flags) {
  const std::string results = results_path(out_dir);
  if (!fs::exists(results)) {
    std::fprintf(stderr, "no result file %s\n", results.c_str());
    return 2;
  }
  const std::string csv = campaign::export_aggregate_csv(results);

  const std::string csv_path = flags.get_string("csv", "");
  if (csv_path.empty()) {
    std::fputs(csv.c_str(), stdout);
  } else {
    std::ofstream out(csv_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", csv_path.c_str());
      return 1;
    }
    out << csv;
    std::fprintf(stderr, "exported %s -> %s\n", results.c_str(),
                 csv_path.c_str());
  }
  return 0;
}

int cmd_status(const campaign::Manifest& manifest,
               const scenario::ScenarioConfig& base,
               const std::string& out_dir) {
  const auto jobs = campaign::expand(manifest, base);
  const std::string digest = campaign::campaign_digest(manifest.name, jobs);
  std::printf("campaign '%s': %zu jobs\n", manifest.name.c_str(),
              jobs.size());
  std::size_t ok = 0, failed = 0;
  const std::string path = journal_path(out_dir);
  if (fs::exists(path)) {
    const campaign::JournalView v = campaign::Journal::load(path);
    // Journal indices name the jobs of the manifest and --set flags that
    // wrote it; with others they would name the wrong jobs (exit 1).
    if (v.campaign_digest != digest || v.job_count != jobs.size()) {
      throw campaign::JournalError(path + " belongs to a different campaign "
                                          "(other manifest or --set flags)");
    }
    for (const auto& [idx, e] : v.entries) {
      (e.ok ? ok : failed) += 1;
      if (!e.ok) {
        std::printf("  FAILED %s: %s\n", jobs[idx].id.c_str(), e.error.c_str());
      }
    }
  }
  std::printf("total: %zu/%zu done (%zu ok, %zu failed)\n", ok + failed,
              jobs.size(), ok, failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  if (flags.has("help-params")) {
    std::fputs(scenario::params_help().c_str(), stdout);
    return 0;
  }
  if (flags.has("help") || flags.positional().size() < 2) {
    print_usage();
    return flags.has("help") ? 0 : 2;
  }

  const std::string cmd = flags.positional()[0];
  const std::string manifest_path = flags.positional()[1];
  const auto accepted = kSubcommandFlags.find(cmd);
  if (accepted == kSubcommandFlags.end()) {
    std::fprintf(stderr, "unknown subcommand '%s' (see --help)\n", cmd.c_str());
    return 2;
  }
  const std::string out_dir = flags.get_string("out", "");
  const std::vector<std::string> sets = flags.get_all("set");
  for (const std::string& name : accepted->second) flags.has(name);  // read
  for (const std::string& name : flags.unknown()) {
    std::fprintf(stderr, "unknown flag for %s: --%s (see --help)\n",
                 cmd.c_str(), name.c_str());
    return 2;
  }
  if (out_dir.empty()) {
    std::fprintf(stderr, "--out=DIR is required\n");
    return 2;
  }
  Counts counts;
  if (!parse_counts(flags, counts)) return 2;
  if (is_shard_layout(out_dir)) return 2;

  // run/resume/serve catch the stop signals: run/resume exit at once with
  // 128+signal, serve stops its HTTP server first. export and status keep
  // the default action and die on the spot; they write nothing.
  if (cmd == "run" || cmd == "resume" || cmd == "serve") {
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
  }

  scenario::ScenarioConfig base;
  for (const std::string& kv : sets) {
    const auto eq = kv.find('=');
    if (eq == std::string::npos || eq == 0) {
      std::fprintf(stderr, "--set expects KEY=VALUE, got '%s'\n", kv.c_str());
      return 2;
    }
    const std::string key = kv.substr(0, eq);
    if (const auto owner = campaign::axis_owner(key); !owner.empty()) {
      std::fprintf(stderr, "--set %s: owned by the manifest key '%s'\n",
                   key.c_str(), std::string(owner).c_str());
      return 2;
    }
    try {
      scenario::set_param(base, key, kv.substr(eq + 1));
    } catch (const scenario::ParamError& e) {
      std::fprintf(stderr, "--set %s: %s\n", kv.c_str(), e.what());
      return 2;
    }
  }

  try {
    const campaign::Manifest manifest =
        campaign::parse_manifest_file(manifest_path);
    if (cmd == "run" || cmd == "resume") {
      return cmd_run(manifest, base, out_dir, flags, counts, cmd == "resume");
    }
    if (cmd == "serve") {
      return cmd_serve(manifest, base, out_dir, flags, counts);
    }
    if (cmd == "export") return cmd_export(out_dir, flags);
    return cmd_status(manifest, base, out_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rcast_campaignd: %s\n", e.what());
    return 1;
  }
}
