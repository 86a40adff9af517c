#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "campaign/journal.hpp"
#include "campaign/json.hpp"
#include "campaign/result_store.hpp"
#include "campaign/runner.hpp"
#include "checks.hpp"
#include "sim/sharded_executor.hpp"

namespace rcast::perfbench {

namespace fs = std::filesystem;
using scenario::RunResult;
using scenario::ScenarioConfig;
using scenario::Scheme;

namespace {

/// Networks built per setup_s sample set (their median is reported).
constexpr std::size_t kSetupReps = 31;
/// Grid setups before each untraced grid and after the last one.
constexpr std::size_t kGridSetupBatch = 8;
/// Wall budget of one run or job; a run past it counts as failed.
constexpr double kRunTimeoutS = 120.0;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- per-layer aggregation ---------------------------------------------------

/// Work counts of one or more runs, summed (queue depth: max).
struct Counts {
  std::uint64_t events = 0, dispatch_batches = 0, depth_high_water = 0,
                rung_spawns = 0, heap_fallbacks = 0, handler_moves = 0,
                pool_hits = 0, pool_misses = 0, bytes_allocated = 0,
                spatial_queries = 0, candidates = 0, segment_refreshes = 0,
                cs_cells_visited = 0, frames_tx = 0, cs_entries_scanned = 0,
                arrival_records = 0, atim_tx = 0, data_tx_attempts = 0,
                sleeps = 0, overhear_commits = 0, overhear_declines = 0,
                rreq_tx = 0, rrep_tx = 0, rerr_tx = 0, control_tx = 0,
                salvaged = 0, drops_total = 0;

  void add(const RunResult& r, const phy::ChannelStats& ch) {
    const sim::PerfCounters& p = r.perf;
    events += p.events_executed;
    dispatch_batches += p.dispatch_batches;
    depth_high_water = std::max(depth_high_water, p.queue_depth_high_water);
    rung_spawns += p.queue_rung_spawns;
    heap_fallbacks += p.handler_heap_fallbacks;
    handler_moves += p.handler_moves;
    pool_hits += p.pool_hits;
    pool_misses += p.pool_misses;
    bytes_allocated += p.bytes_allocated;
    spatial_queries += p.spatial_queries;
    candidates += p.spatial_candidates_scanned;
    segment_refreshes += p.segment_refreshes;
    cs_cells_visited += p.cs_cells_visited;
    frames_tx += ch.frames_transmitted;
    cs_entries_scanned += ch.cs_entries_scanned;
    arrival_records += ch.arrival_records;
    atim_tx += r.atim_tx;
    data_tx_attempts += r.data_tx_attempts;
    sleeps += r.mac_sleeps;
    overhear_commits += r.overhear_commits;
    overhear_declines += r.overhear_declines;
    rreq_tx += r.rreq_tx;
    rrep_tx += r.rrep_tx;
    rerr_tx += r.rerr_tx;
    control_tx += r.control_tx;
    salvaged += r.data_salvaged;
    for (const std::uint64_t d : r.drops) drops_total += d;
  }
};

void put_counts(Report& rep, const Counts& c) {
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  rep.set("sim.events", d(c.events));
  rep.set("sim.dispatch_batches", d(c.dispatch_batches));
  rep.set("sim.queue_depth_high_water", d(c.depth_high_water));
  rep.set("sim.queue_rung_spawns", d(c.rung_spawns));
  rep.set("sim.heap_fallbacks", d(c.heap_fallbacks));
  rep.set("sim.handler_moves", d(c.handler_moves));
  rep.set("util.pool_hits", d(c.pool_hits));
  rep.set("util.pool_misses", d(c.pool_misses));
  rep.set("util.bytes_allocated", d(c.bytes_allocated));
  rep.set("geo.spatial_queries", d(c.spatial_queries));
  rep.set("geo.candidates_per_query", ratio(d(c.candidates), d(c.spatial_queries)));
  rep.set("mobility.segment_refreshes", d(c.segment_refreshes));
  rep.set("phy.frames_tx", d(c.frames_tx));
  rep.set("phy.cs_cells_visited", d(c.cs_cells_visited));
  rep.set("phy.cs_entries_scanned", d(c.cs_entries_scanned));
  rep.set("phy.arrival_records", d(c.arrival_records));
  rep.set("mac.atim_tx", d(c.atim_tx));
  rep.set("mac.data_tx_attempts", d(c.data_tx_attempts));
  rep.set("mac.sleeps", d(c.sleeps));
  rep.set("core.overhear_commits", d(c.overhear_commits));
  rep.set("core.overhear_declines", d(c.overhear_declines));
  rep.set("core.overhear_commit_ratio",
          ratio(d(c.overhear_commits),
                d(c.overhear_commits + c.overhear_declines)));
  rep.set("routing.rreq_tx", d(c.rreq_tx));
  rep.set("routing.rrep_tx", d(c.rrep_tx));
  rep.set("routing.rerr_tx", d(c.rerr_tx));
  rep.set("routing.control_tx", d(c.control_tx));
  rep.set("routing.salvaged", d(c.salvaged));
  rep.set("routing.drops_total", d(c.drops_total));
}

/// Bus-only counts; `attempts` is data_tx_attempts of the same runs.
void put_probe(Report& rep, const LayerProbe& p, std::uint64_t attempts) {
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const std::uint64_t lost = p.phy_rx_lost[0] + p.phy_rx_lost[1] +
                             p.phy_rx_lost[2] + p.phy_rx_lost[3];
  rep.set("phy.rx_ok", d(p.phy_rx_ok));
  rep.set("phy.rx_lost_collision",
          d(p.phy_rx_lost[static_cast<int>(stats::PhyLoss::kCollision)]));
  rep.set("phy.rx_lost_busy",
          d(p.phy_rx_lost[static_cast<int>(stats::PhyLoss::kWhileBusy)]));
  rep.set("phy.rx_lost_asleep",
          d(p.phy_rx_lost[static_cast<int>(stats::PhyLoss::kWhileAsleep)]));
  rep.set("phy.rx_lost_tx",
          d(p.phy_rx_lost[static_cast<int>(stats::PhyLoss::kWhileTx)]));
  rep.set("phy.rx_ok_ratio", ratio(d(p.phy_rx_ok), d(p.phy_rx_ok + lost)));
  rep.set("mac.atim_failed", d(p.atim_failed));
  rep.set("mac.data_tx_ok_ratio", ratio(d(p.data_tx_ok), d(attempts)));
  rep.set("mac.queue_drops", d(p.queue_drops));
  rep.set("power.am_windows", d(p.am_windows));
  rep.set("routing.forwarded", d(p.forwarded));
}

void put_slices(Report& rep, double atim_s, double data_s,
                const std::vector<double>& per_sim_s) {
  rep.set("mac.atim_window_wall_s", atim_s);
  rep.set("mac.data_phase_wall_s", data_s);
  rep.set("sim.wall_per_sim_s_p50", median(per_sim_s));
  rep.set("sim.wall_per_sim_s_max",
          per_sim_s.empty() ? 0.0
                            : *std::max_element(per_sim_s.begin(),
                                                per_sim_s.end()));
}

/// Output metrics over one or more runs: mean PDR, energy variance and
/// delay, total energy, and one fingerprint folding every run's in order.
struct Outputs {
  double pdr = 0.0, energy = 0.0, var = 0.0, delay = 0.0;
  std::uint64_t fp = 0;
  std::size_t runs = 0;

  void add(const RunResult& r) {
    pdr += r.pdr_percent;
    energy += r.total_energy_j;
    var += r.energy_variance;
    delay += r.avg_delay_s;
    fp = (fp * 0x100000001b3ULL) ^ fingerprint(r);
    ++runs;
  }

  void put(Report& rep) const {
    const double n = static_cast<double>(std::max<std::size_t>(runs, 1));
    rep.set("out.pdr_pct", pdr / n);
    rep.set("out.energy_j", energy);
    rep.set("out.energy_var", var / n);
    rep.set("out.delay_s", delay / n);
    rep.set("out.fingerprint",
            static_cast<double>(fp & ((std::uint64_t{1} << 52) - 1)));
  }
};

/// Timing-derived layer metrics of untraced runs, summed over the runs.
struct Timing {
  double run_wall_s = 0.0, loop_wall_s = 0.0, cpu_s = 0.0;
  std::uint64_t events = 0;
  std::size_t runs = 0;

  void add(const TimedRun& u) {
    run_wall_s += u.run_wall_s;
    loop_wall_s += u.result.perf.wall_seconds;
    cpu_s += u.cpu_s;
    events += u.result.perf.events_executed;
    ++runs;
  }

  void put(Report& rep) const {
    rep.set("scenario.summarize_s",
            ratio(run_wall_s - loop_wall_s, static_cast<double>(runs)));
    rep.set("sim.events_per_s", ratio(static_cast<double>(events), loop_wall_s));
    rep.set("proc.cpu_s", cpu_s);
    rep.set("proc.cpu_util", ratio(cpu_s, run_wall_s));
  }
};

void put_trace_overhead(Report& rep, double traced_s, double untraced_s) {
  rep.set("trace.overhead_pct", ratio(traced_s - untraced_s, untraced_s) * 100.0);
}

void put_failed_pct(Report& rep) {
  rep.set("failed_pct", ratio(static_cast<double>(rep.failed()),
                              static_cast<double>(rep.attempted())) *
                            100.0);
}

/// Runs `fn`, turning an exception (including a wall-clock timeout) into a
/// failed run; returns false if it threw.
template <class F>
bool guarded(Report& rep, const std::string& what, F&& fn) {
  try {
    fn();
    return true;
  } catch (const std::exception& e) {
    rep.add_run({what + " threw: " + e.what()});
    return false;
  }
}

ScenarioConfig with_timeout(ScenarioConfig cfg) {
  cfg.max_wall_seconds = kRunTimeoutS;
  return cfg;
}

// --- single-run workloads ----------------------------------------------------

/// Untraced runs of a single-run workload: one run per scenario. A
/// scenario's cost varies more from seed to seed (about ±20 %) than from run
/// to run, so the budget buys more scenarios rather than repeat runs.
/// run_wall_s is the mean over the scenarios (their costs are skewed, so a
/// median would follow one scenario), setup_s the median of all setups, and
/// runs_per_hour follows from the two.
template <class MakeConfig>
Report single_run_end_to_end(const Options& opt, double nominal_s,
                             MakeConfig&& make, PdrFloor floor) {
  Report rep(false);
  std::vector<double> setups, walls;
  for (std::size_t i = 0; i < scenarios_for(opt.seconds, nominal_s); ++i) {
    const ScenarioConfig cfg = make(scenario_seed(opt.seed, i));
    guarded(rep, "seed " + std::to_string(cfg.seed), [&] {
      const TimedRun u = timed_run(cfg, kSetupReps);
      rep.add_run(check_run(cfg, u.result, floor));
      setups.push_back(u.setup_s);
      walls.push_back(u.run_wall_s);
    });
  }
  const double setup = median(setups);
  const double wall = mean(walls);
  rep.set("setup_s", setup);
  rep.set("run_wall_s", wall);
  rep.set("runs_per_hour", ratio(3600.0, setup + wall));
  rep.set("peak_rss_mb", peak_rss_mb());
  return rep;
}

// --- campaign grid -----------------------------------------------------------

struct GridRun {
  campaign::CampaignResult cr;
  std::string csv;
  double wall_s = 0.0;    // run_campaign call through the CSV export
  double export_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t results_bytes = 0;
  std::vector<double> commit_s;  // since start; filled when timestamping
};

void fresh_dir(const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

/// Manifest expansion plus journal and store creation, in a fresh directory.
double grid_setup_s(const campaign::Manifest& m, const fs::path& dir) {
  fresh_dir(dir);
  const double t0 = now_s();
  const std::vector<campaign::Job> jobs = campaign::expand(m);
  campaign::Journal journal = campaign::Journal::open(
      (dir / "journal.log").string(),
      campaign::campaign_digest(m.name, jobs), jobs.size());
  campaign::ResultStore store =
      campaign::ResultStore::open_append((dir / "results.jsonl").string());
  const double t1 = now_s();
  journal.close();
  store.close();
  fs::remove_all(dir);
  return t1 - t0;
}

GridRun run_grid(const campaign::Manifest& m, const fs::path& dir,
                 std::size_t threads, bool timestamp_commits) {
  fresh_dir(dir);
  GridRun g;
  campaign::RunnerOptions opt;
  opt.threads = threads;
  opt.job_timeout_s = kRunTimeoutS;
  opt.journal_path = (dir / "journal.log").string();
  opt.results_path = (dir / "results.jsonl").string();
  double start = 0.0;
  if (timestamp_commits) {
    // on_commit runs under the runner's commit lock: no extra locking.
    opt.on_commit = [&](const campaign::Job&, const campaign::JobOutcome&,
                        const campaign::AppendExtent*) {
      g.commit_s.push_back(now_s() - start);
    };
  }
  const double cpu0 = cpu_now_s();
  start = now_s();
  g.cr = campaign::run_campaign(m, opt);
  const double exp0 = now_s();
  g.csv = campaign::export_aggregate_csv({opt.results_path});
  std::ofstream((dir / "aggregate.csv").string(), std::ios::binary) << g.csv;
  const double end = now_s();
  g.cpu_s = cpu_now_s() - cpu0;
  g.wall_s = end - start;
  g.export_s = end - exp0;
  g.results_bytes = fs::file_size(opt.results_path);
  fs::remove_all(dir);
  return g;
}

/// Checks every job of a grid run; returns the OK-job walls in seconds.
std::vector<double> check_grid(Report& rep, const GridRun& g) {
  std::vector<double> walls;
  for (std::size_t i = 0; i < g.cr.jobs.size(); ++i) {
    const campaign::JobOutcome& o = g.cr.outcomes[i];
    const campaign::Job& job = g.cr.jobs[i];
    if (o.status != campaign::JobStatus::kOk) {
      rep.add_run({job.id + " did not complete: " + o.error});
      continue;
    }
    std::vector<std::string> fails =
        check_run(job.cfg, o.result, kCampaignJobPdr);
    for (std::string& f : fails) f = job.id + ": " + f;
    rep.add_run(fails);
    walls.push_back(o.wall_ms / 1000.0);
  }
  return walls;
}

}  // namespace

// --- configs -----------------------------------------------------------------

geo::Rect world_at_density(std::size_t nodes) {
  const double width =
      std::sqrt(kAreaPerNodeM2 * static_cast<double>(nodes) * 5.0);
  return geo::Rect{width, width / 5.0};
}

std::uint64_t scenario_seed(std::uint64_t seed, std::size_t i) {
  return seed * kSeedStride + i;
}

std::size_t scenarios_for(double seconds, double nominal_s) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(seconds / nominal_s)));
}

ScenarioConfig paper_cell_config(std::uint64_t seed) {
  ScenarioConfig cfg;  // paper defaults: 100 nodes, 20 flows, 64 B, DSR
  cfg.world = world_at_density(cfg.num_nodes);
  cfg.rate_pps = 2.0;
  cfg.duration = 90 * sim::kSecond;  // 1125 s / 12.5
  cfg.pause = 48 * sim::kSecond;     // 600 s / 12.5
  cfg.scheme = Scheme::kRcast;
  cfg.routing = scenario::RoutingProtocol::kDsr;
  cfg.sim_shards = 1;
  cfg.seed = seed;
  return cfg;
}

ScenarioConfig scale_sharded_config(std::uint64_t seed, std::size_t shards) {
  ScenarioConfig cfg;
  cfg.num_nodes = 250;
  cfg.world = world_at_density(cfg.num_nodes);
  cfg.num_flows = 20;
  cfg.rate_pps = 1.0;
  cfg.duration = 15 * sim::kSecond;
  cfg.pause = cfg.duration;  // static
  cfg.scheme = Scheme::kRcast;
  cfg.routing = scenario::RoutingProtocol::kDsr;
  cfg.sim_shards = shards;
  cfg.seed = seed;
  return cfg;
}

campaign::Manifest campaign_grid_manifest(std::uint64_t seed) {
  campaign::Manifest m;
  m.name = "perfbench-grid";
  m.schemes = {Scheme::kRcast, Scheme::kOdpm, Scheme::k80211};
  m.rates_pps = {2.0, 1.0, 0.4};
  m.duration_s = 150.0;
  m.pauses = {campaign::PauseSpec::fixed(m.duration_s / 2),
              campaign::PauseSpec::static_scenario()};
  m.node_counts = {60};
  m.flows = 12;
  m.seeds = 4;
  m.seed_base = scenario_seed(seed, 0);
  const geo::Rect w = world_at_density(60);
  m.world_w_m = w.width;
  m.world_h_m = w.height;
  return m;
}

// --- metric catalog ----------------------------------------------------------

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"setup_s", "s"},
      {"run_wall_s", "s"},
      {"runs_per_hour", "1/h"},
      {"peak_rss_mb", "MB"},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"scenario.summarize_s", "s"},
      {"sim.events", "count"},
      {"sim.events_per_s", "1/s"},
      {"sim.dispatch_batches", "count"},
      {"sim.queue_depth_high_water", "count"},
      {"sim.queue_rung_spawns", "count"},
      {"sim.heap_fallbacks", "count"},
      {"sim.handler_moves", "count"},
      {"sim.wall_per_sim_s_p50", "s/s"},
      {"sim.wall_per_sim_s_max", "s/s"},
      {"sim.windows", "count"},
      {"sim.events_per_window", "count"},
      {"sim.window_wall_us", "us"},
      {"sim.shard_speedup", "ratio"},
      {"sim.shard_drift_energy_pct", "%"},
      {"sim.shard_drift_pdr_pts", "pts"},
      {"sim.shard_drift_events_pct", "%"},
      {"proc.cpu_s", "s"},
      {"proc.cpu_util", "cores"},
      {"util.pool_hits", "count"},
      {"util.pool_misses", "count"},
      {"util.bytes_allocated", "B"},
      {"geo.spatial_queries", "count"},
      {"geo.candidates_per_query", "count"},
      {"mobility.segment_refreshes", "count"},
      {"phy.frames_tx", "count"},
      {"phy.cs_cells_visited", "count"},
      {"phy.cs_entries_scanned", "count"},
      {"phy.arrival_records", "count"},
      {"phy.rx_ok", "count"},
      {"phy.rx_lost_collision", "count"},
      {"phy.rx_lost_busy", "count"},
      {"phy.rx_lost_asleep", "count"},
      {"phy.rx_lost_tx", "count"},
      {"phy.rx_ok_ratio", "ratio"},
      {"mac.atim_tx", "count"},
      {"mac.atim_failed", "count"},
      {"mac.data_tx_attempts", "count"},
      {"mac.data_tx_ok_ratio", "ratio"},
      {"mac.sleeps", "count"},
      {"mac.queue_drops", "count"},
      {"mac.atim_window_wall_s", "s"},
      {"mac.data_phase_wall_s", "s"},
      {"core.overhear_commits", "count"},
      {"core.overhear_declines", "count"},
      {"core.overhear_commit_ratio", "ratio"},
      {"power.am_windows", "count"},
      {"routing.rreq_tx", "count"},
      {"routing.rrep_tx", "count"},
      {"routing.rerr_tx", "count"},
      {"routing.control_tx", "count"},
      {"routing.forwarded", "count"},
      {"routing.salvaged", "count"},
      {"routing.drops_total", "count"},
      {"campaign.jobs", "count"},
      {"campaign.job_wall_p50_s", "s"},
      {"campaign.job_wall_max_s", "s"},
      {"campaign.worker_busy_pct", "%"},
      {"campaign.tail_idle_s", "s"},
      {"campaign.concurrency_inflation", "ratio"},
      {"campaign.results_bytes", "B"},
      {"campaign.export_s", "s"},
      {"out.pdr_pct", "%"},
      {"out.energy_j", "J"},
      {"out.energy_var", "J2"},
      {"out.delay_s", "s"},
      {"out.fingerprint", "hash"},
      {"trace.overhead_pct", "%"},
      {"failed_pct", "%"},
  };
  return kSpecs;
}

// --- Report ------------------------------------------------------------------

Report::Report(bool trace) {
  for (const MetricSpec& s : trace ? per_layer_metrics() : end_to_end_metrics()) {
    metrics_.push_back(Entry{s, 0.0});
  }
}

void Report::set(std::string_view name, double value) {
  if (!std::isfinite(value)) {
    throw std::invalid_argument("metric " + std::string(name) +
                                " is not finite");
  }
  for (Entry& e : metrics_) {
    if (name == e.spec.name) {
      e.value = value;
      return;
    }
  }
  throw std::out_of_range("metric " + std::string(name) +
                          " is not in this mode's catalog");
}

void Report::add_run(const std::vector<std::string>& failures) {
  ++attempted_;
  if (failures.empty()) return;
  ++failed_;
  failures_.insert(failures_.end(), failures.begin(), failures.end());
}

void Report::add_failure(std::string why) {
  if (!why.empty()) failures_.push_back(std::move(why));
}

std::string Report::to_json() const {
  campaign::json::Writer w;
  w.begin_object();
  w.key("correct").value(correct());
  w.key("attempted").value(static_cast<std::uint64_t>(attempted_));
  w.key("failed").value(static_cast<std::uint64_t>(failed_));
  w.key("metrics").begin_object();
  for (const Entry& e : metrics_) {
    w.key(e.spec.name).begin_object();
    w.key("value").value(e.value);
    w.key("unit").value(e.spec.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.take();
}

// --- runs --------------------------------------------------------------------

void LayerProbe::attach(stats::TelemetryBus& bus) {
  bus.subscribe_phy(this);
  bus.subscribe_mac(this);
  bus.subscribe_power(this);
  bus.subscribe_routing(this);
}

LayerProbe& LayerProbe::operator+=(const LayerProbe& o) {
  phy_rx_ok += o.phy_rx_ok;
  for (int i = 0; i < 4; ++i) phy_rx_lost[i] += o.phy_rx_lost[i];
  atim_failed += o.atim_failed;
  data_tx_ok += o.data_tx_ok;
  queue_drops += o.queue_drops;
  am_windows += o.am_windows;
  forwarded += o.forwarded;
  return *this;
}

TimedRun timed_run(const ScenarioConfig& cfg, std::size_t setup_reps,
                   LayerProbe* probe) {
  TimedRun out;
  std::vector<double> setups;
  std::unique_ptr<scenario::Network> net;
  for (std::size_t i = 0; i < std::max<std::size_t>(setup_reps, 1); ++i) {
    net.reset();
    const double t0 = now_s();
    net = std::make_unique<scenario::Network>(with_timeout(cfg));
    setups.push_back(now_s() - t0);
  }
  out.setup_s = median(setups);
  if (probe != nullptr) probe->attach(net->telemetry());
  const double cpu0 = cpu_now_s();
  const double t0 = now_s();
  out.result = net->run();
  out.run_wall_s = now_s() - t0;
  out.cpu_s = cpu_now_s() - cpu0;
  out.channel = net->channel().stats();
  if (const sim::ShardedExecutor* ex = net->simulator().executor()) {
    out.windows = ex->windows_executed();
  }
  return out;
}

TracedRun traced_run(const ScenarioConfig& cfg) {
  if (cfg.sim_shards != 1) {
    throw std::invalid_argument("traced_run slices single-queue runs only");
  }
  LayerProbe probe;  // outlives the network it subscribes to
  scenario::Network net(with_timeout(cfg));
  probe.attach(net.telemetry());
  sim::Simulator& s = net.simulator();
  s.set_wall_deadline(std::chrono::steady_clock::now() +
                      std::chrono::seconds(static_cast<int>(kRunTimeoutS)));

  TracedRun out;
  const sim::Time end = cfg.duration;
  const sim::Time bi = cfg.mac.beacon_interval;
  const sim::Time aw = std::min(cfg.mac.atim_window, bi);
  out.wall_per_sim_s.assign(
      static_cast<std::size_t>((end + sim::kSecond - 1) / sim::kSecond), 0.0);
  const double start = now_s();
  // Slice ends are exclusive (run_until(t - 1)): an event at an ATIM-window
  // start or end lands in the slice that begins there.
  for (sim::Time t0 = 0; t0 < end; t0 += bi) {
    const sim::Time atim_end = std::min(t0 + aw, end);
    const sim::Time bi_end = std::min(t0 + bi, end);
    const double a = now_s();
    s.run_until(atim_end - 1);
    const double b = now_s();
    s.run_until(bi_end - 1);
    const double c = now_s();
    out.atim_window_wall_s += b - a;
    out.data_phase_wall_s += c - b;
    out.wall_per_sim_s[static_cast<std::size_t>(t0 / sim::kSecond)] += c - a;
  }
  out.result = net.run();  // events at exactly `end`, then the summary
  out.wall_s = now_s() - start;
  out.probe = probe;
  return out;
}

// --- workloads ---------------------------------------------------------------

namespace {

Report run_paper_cell(const Options& opt) {
  if (!opt.trace) {
    return single_run_end_to_end(opt, kPaperCellScenarioS, paper_cell_config,
                                 kPaperCellPdr);
  }
  // Traced: each seed runs untraced, then traced; the two must agree.
  Report rep(true);
  Counts c;
  Timing timing;
  Outputs outputs;
  LayerProbe probe;
  std::uint64_t probe_attempts = 0;
  double traced_s = 0.0, atim_s = 0.0, data_s = 0.0;
  std::vector<double> per_sim_s;
  for (std::size_t i = 0; i < scenarios_for(opt.seconds, kPaperCellScenarioS);
       ++i) {
    const ScenarioConfig cfg = paper_cell_config(scenario_seed(opt.seed, i));
    const std::string tag = "seed " + std::to_string(cfg.seed);
    TimedRun u;
    TracedRun t;
    if (!guarded(rep, tag + " untraced", [&] {
          u = timed_run(cfg, kSetupReps);
          rep.add_run(check_run(cfg, u.result, kPaperCellPdr));
        })) {
      continue;
    }
    if (!guarded(rep, tag + " traced", [&] {
          t = traced_run(cfg);
          std::vector<std::string> fails =
              check_run(cfg, t.result, kPaperCellPdr);
          const std::string f = check_same_fingerprint(
              u.result, t.result, tag + " traced vs untraced");
          if (!f.empty()) fails.push_back(f);
          rep.add_run(fails);
        })) {
      continue;
    }
    c.add(u.result, u.channel);
    timing.add(u);
    outputs.add(u.result);
    probe += t.probe;
    probe_attempts += t.result.data_tx_attempts;
    traced_s += t.wall_s;
    atim_s += t.atim_window_wall_s;
    data_s += t.data_phase_wall_s;
    per_sim_s.insert(per_sim_s.end(), t.wall_per_sim_s.begin(),
                     t.wall_per_sim_s.end());
  }
  put_counts(rep, c);
  timing.put(rep);
  put_probe(rep, probe, probe_attempts);
  put_slices(rep, atim_s, data_s, per_sim_s);
  outputs.put(rep);
  put_trace_overhead(rep, traced_s, timing.run_wall_s);
  put_failed_pct(rep);
  return rep;
}

Report run_scale_sharded(const Options& opt) {
  auto sharded = [](std::uint64_t seed) {
    return scale_sharded_config(seed, kShards);
  };
  if (!opt.trace) {
    return single_run_end_to_end(opt, kScaleShardedScenarioS, sharded,
                                 kScaleShardedPdr);
  }
  // Sharded runs are never sliced (chunk ends would change the window
  // sequence), and external subscribers see nothing in them. Per seed: an
  // untraced K=4 run, a traced K=4 run (probe attached, executor counters
  // read; it must reproduce the untraced run), and a K=1 reference run that
  // supplies the speedup, the K-drift, and the bus counts.
  Report rep(true);
  Counts c;
  Timing timing;
  Outputs outputs;
  LayerProbe ref_probe;
  std::uint64_t ref_attempts = 0, windows = 0, sharded_events = 0,
                ref_events = 0;
  double traced_s = 0.0, ref_s = 0.0, sharded_energy = 0.0, ref_energy = 0.0,
         pdr_gap = 0.0;
  std::size_t pairs = 0;
  for (std::size_t i = 0;
       i < scenarios_for(opt.seconds, kScaleShardedScenarioS); ++i) {
    const std::uint64_t seed = scenario_seed(opt.seed, i);
    const ScenarioConfig cfg = sharded(seed);
    const ScenarioConfig ref_cfg = scale_sharded_config(seed, 1);
    const std::string tag = "seed " + std::to_string(seed);
    TimedRun u, t, ref;
    LayerProbe sharded_probe, probe;
    const bool ok = guarded(rep, tag + " untraced K=4", [&] {
      u = timed_run(cfg, kSetupReps);
      rep.add_run(check_run(cfg, u.result, kScaleShardedPdr));
    }) && guarded(rep, tag + " traced K=4", [&] {
      t = timed_run(cfg, 1, &sharded_probe);
      std::vector<std::string> fails =
          check_run(cfg, t.result, kScaleShardedPdr);
      const std::string f =
          check_same_fingerprint(u.result, t.result, tag + " same-seed K=4");
      if (!f.empty()) fails.push_back(f);
      rep.add_run(fails);
    }) && guarded(rep, tag + " K=1 reference", [&] {
      ref = timed_run(ref_cfg, 1, &probe);
      rep.add_run(check_run(ref_cfg, ref.result, kScaleShardedPdr));
    });
    if (!ok) continue;
    c.add(u.result, u.channel);
    timing.add(u);
    outputs.add(u.result);
    ref_probe += probe;
    ref_attempts += ref.result.data_tx_attempts;
    windows += t.windows;
    traced_s += t.run_wall_s;
    ref_s += ref.run_wall_s;
    sharded_events += u.result.events_executed;
    ref_events += ref.result.events_executed;
    sharded_energy += u.result.total_energy_j;
    ref_energy += ref.result.total_energy_j;
    pdr_gap += u.result.pdr_percent - ref.result.pdr_percent;
    ++pairs;
  }
  put_counts(rep, c);
  timing.put(rep);
  put_probe(rep, ref_probe, ref_attempts);
  const double w = static_cast<double>(windows);
  rep.set("sim.windows", w);
  rep.set("sim.events_per_window", ratio(static_cast<double>(sharded_events), w));
  rep.set("sim.window_wall_us", ratio(traced_s, w) * 1e6);
  rep.set("sim.shard_speedup", ratio(ref_s, timing.run_wall_s));
  rep.set("sim.shard_drift_energy_pct",
          ratio(sharded_energy - ref_energy, ref_energy) * 100.0);
  rep.set("sim.shard_drift_pdr_pts",
          ratio(pdr_gap, static_cast<double>(pairs)));
  rep.set("sim.shard_drift_events_pct",
          ratio(static_cast<double>(sharded_events) -
                    static_cast<double>(ref_events),
                static_cast<double>(ref_events)) * 100.0);
  outputs.put(rep);
  put_trace_overhead(rep, traced_s, timing.run_wall_s);
  put_failed_pct(rep);
  return rep;
}

Report run_campaign_grid(const Options& opt) {
  Report rep(opt.trace);
  const campaign::Manifest m = campaign_grid_manifest(opt.seed);
  const fs::path dir = fs::path(opt.workdir) / "campaign_grid";
  const std::size_t grids =
      std::max<std::size_t>(2, scenarios_for(opt.seconds, kCampaignGridS));

  if (!opt.trace) {
    // The same grid `grids` times; every grid must export the same CSV
    // bytes. Host contention only ever slows a run, so each job's fastest
    // run counts (run_wall_s is their mean: job costs cluster by scheme, so
    // a median would jump between clusters), and so does the fastest grid
    // (runs_per_hour). Setup batches sit between the grids, so setup_s
    // samples the host at several moments rather than one.
    std::vector<double> setups, rates, fastest_job;
    auto setup_batch = [&] {
      for (std::size_t i = 0; i < kGridSetupBatch; ++i) {
        setups.push_back(grid_setup_s(m, dir));
      }
    };
    std::string first_csv;
    for (std::size_t i = 0; i < grids; ++i) {
      setup_batch();
      guarded(rep, "grid", [&] {
        const GridRun g = run_grid(m, dir, kWorkers, false);
        const std::vector<double> job_walls = check_grid(rep, g);
        if (job_walls.size() != g.cr.jobs.size()) return;  // counted as failed
        rates.push_back(
            ratio(static_cast<double>(job_walls.size()), g.wall_s) * 3600.0);
        if (fastest_job.empty()) {
          fastest_job = job_walls;
        } else {
          for (std::size_t j = 0; j < job_walls.size(); ++j) {
            fastest_job[j] = std::min(fastest_job[j], job_walls[j]);
          }
        }
        if (i == 0) {
          first_csv = g.csv;
        } else {
          rep.add_failure(check_same_csv(first_csv, g.csv));
        }
      });
    }
    setup_batch();
    rep.set("setup_s", median(setups));
    rep.set("run_wall_s", mean(fastest_job));
    rep.set("runs_per_hour",
            rates.empty() ? 0.0 : *std::max_element(rates.begin(), rates.end()));
    rep.set("peak_rss_mb", peak_rss_mb());
    return rep;
  }

  // Traced: an untraced grid, a grid timestamped at every commit, then every
  // job run one at a time with a probe on all four layers; each direct run
  // must reproduce the campaign's result for that job.
  GridRun u, t;
  guarded(rep, "untraced grid", [&] {
    u = run_grid(m, dir, kWorkers, false);
    check_grid(rep, u);
  });
  std::vector<double> t_walls;
  guarded(rep, "traced grid", [&] {
    t = run_grid(m, dir, kWorkers, true);
    t_walls = check_grid(rep, t);
    rep.add_failure(check_same_csv(u.csv, t.csv));
  });

  Counts c;
  LayerProbe probe;
  Outputs outputs;
  std::uint64_t probe_attempts = 0;
  std::vector<double> one_walls;
  for (const campaign::Job& job : campaign::expand(m)) {
    guarded(rep, job.id + " direct", [&] {
      LayerProbe job_probe;
      const double t0 = now_s();
      const TimedRun d = timed_run(job.cfg, 1, &job_probe);
      one_walls.push_back(now_s() - t0);
      std::vector<std::string> fails =
          check_run(job.cfg, d.result, kCampaignJobPdr);
      if (job.index < t.cr.outcomes.size() &&
          t.cr.outcomes[job.index].status == campaign::JobStatus::kOk) {
        const std::string f = check_same_fingerprint(
            t.cr.outcomes[job.index].result, d.result,
            job.id + " direct vs campaign");
        if (!f.empty()) fails.push_back(f);
      }
      rep.add_run(fails);
      c.add(d.result, d.channel);
      probe += job_probe;
      probe_attempts += d.result.data_tx_attempts;
      outputs.add(d.result);
    });
  }
  put_counts(rep, c);
  put_probe(rep, probe, probe_attempts);

  double events = 0.0, loop_s = 0.0;
  for (const campaign::JobOutcome& o : u.cr.outcomes) {
    events += static_cast<double>(o.result.perf.events_executed);
    loop_s += o.result.perf.wall_seconds;
  }
  rep.set("sim.events_per_s", ratio(events, loop_s));
  rep.set("proc.cpu_s", u.cpu_s);
  rep.set("proc.cpu_util", ratio(u.cpu_s, u.wall_s));

  rep.set("campaign.jobs", static_cast<double>(t.cr.jobs.size()));
  rep.set("campaign.job_wall_p50_s", median(t_walls));
  rep.set("campaign.job_wall_max_s",
          t_walls.empty() ? 0.0
                          : *std::max_element(t_walls.begin(), t_walls.end()));
  const double busy = std::accumulate(t_walls.begin(), t_walls.end(), 0.0);
  const double run_s = t.wall_s - t.export_s;
  rep.set("campaign.worker_busy_pct",
          ratio(busy, static_cast<double>(kWorkers) * run_s) * 100.0);
  // Worker-seconds idle at the end: once the queue is drained, each of the
  // last kWorkers commits leaves its worker idle until the campaign returns.
  std::vector<double> commits = t.commit_s;
  std::sort(commits.begin(), commits.end());
  double tail = 0.0;
  for (std::size_t i = commits.size() > kWorkers ? commits.size() - kWorkers : 0;
       i < commits.size(); ++i) {
    tail += run_s - commits[i];
  }
  rep.set("campaign.tail_idle_s", tail);
  rep.set("campaign.concurrency_inflation",
          ratio(mean(t_walls), mean(one_walls)));
  rep.set("campaign.results_bytes", static_cast<double>(t.results_bytes));
  rep.set("campaign.export_s", t.export_s);
  outputs.put(rep);
  put_trace_overhead(rep, t.wall_s, u.wall_s);
  put_failed_pct(rep);
  return rep;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"paper_cell", &run_paper_cell},
      {"campaign_grid", &run_campaign_grid},
      {"scale_sharded", &run_scale_sharded},
  };
  return kWorkloads;
}

}  // namespace rcast::perfbench
