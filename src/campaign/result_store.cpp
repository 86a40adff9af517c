#include "campaign/result_store.hpp"

#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <type_traits>

#ifdef _WIN32
#include <io.h>
#else
#include <unistd.h>
#endif

#include "campaign/json.hpp"
#include "scenario/params.hpp"
#include "util/assert.hpp"

namespace rcast::campaign {

namespace {

void fsync_file(std::FILE* f) {
  std::fflush(f);
#ifdef _WIN32
  _commit(_fileno(f));
#else
  ::fsync(fileno(f));
#endif
}

}  // namespace

ResultStore ResultStore::open_append(const std::string& path) {
  ResultStore s;
  s.f_ = std::fopen(path.c_str(), "ab");
  if (!s.f_) throw ResultStoreError("cannot open results file: " + path);
  // "ab" reports position 0 until the first write; seek so append extents
  // are correct from the start.
  std::fseek(s.f_, 0, SEEK_END);
  const long end = std::ftell(s.f_);
  if (end < 0) throw ResultStoreError("cannot size results file: " + path);
  s.offset_ = static_cast<std::uint64_t>(end);
  return s;
}

ResultStore::ResultStore(ResultStore&& other) noexcept
    : f_(other.f_), offset_(other.offset_) {
  other.f_ = nullptr;
}

ResultStore::~ResultStore() { close(); }

void ResultStore::close() {
  if (f_) {
    std::fclose(f_);
    f_ = nullptr;
  }
}

AppendExtent ResultStore::append(const Job& job, const scenario::RunResult& r,
                                 double wall_ms) {
  if (!f_) throw ResultStoreError("result store is closed");
  const std::string line = record_to_json(job, r, wall_ms) + "\n";
  if (std::fwrite(line.data(), 1, line.size(), f_) != line.size()) {
    throw ResultStoreError("results write failed");
  }
  fsync_file(f_);
  AppendExtent ext{offset_, static_cast<std::uint32_t>(line.size() - 1)};
  offset_ += line.size();
  return ext;
}

std::string record_to_json(const Job& job, const scenario::RunResult& r,
                           double wall_ms) {
  json::Writer w;
  w.begin_object();
  w.key("v").value(std::uint64_t{2});
  w.key("job").value(static_cast<std::uint64_t>(job.index));
  w.key("id").value(job.id);
  w.key("cfg_digest").value(job.digest);
  w.key("wall_ms").value(wall_ms);

  // The full config, one member per registered parameter in registry order
  // (typed: numbers, booleans, enum token strings). Round-trips through
  // record_from_json with digest equality — test_params pins this per
  // parameter.
  w.key("config").begin_object();
  for (const scenario::Param& p : scenario::param_registry()) {
    w.key(p.name);
    const scenario::ParamValue v = p.get(job.cfg);
    switch (p.type) {
      case scenario::ParamType::kDouble:
        w.value(v.d);
        break;
      case scenario::ParamType::kUInt:
        w.value(v.u);
        break;
      case scenario::ParamType::kBool:
        w.value(v.b);
        break;
      case scenario::ParamType::kEnum:
        w.value(std::string_view(v.token));
        break;
    }
  }
  w.end_object();

  w.key("result").begin_object();
  w.key("total_energy_j").value(r.total_energy_j);
  w.key("energy_variance").value(r.energy_variance);
  w.key("energy_mean_j").value(r.energy_mean_j);
  w.key("energy_min_j").value(r.energy_min_j);
  w.key("energy_max_j").value(r.energy_max_j);
  w.key("originated").value(r.originated);
  w.key("delivered").value(r.delivered);
  w.key("pdr_percent").value(r.pdr_percent);
  w.key("avg_delay_s").value(r.avg_delay_s);
  w.key("delay_p50_s").value(r.delay_p50_s);
  w.key("delay_p90_s").value(r.delay_p90_s);
  w.key("avg_route_wait_s").value(r.avg_route_wait_s);
  w.key("avg_transit_s").value(r.avg_transit_s);
  w.key("energy_per_bit_j").value(r.energy_per_bit_j);
  w.key("control_tx").value(r.control_tx);
  w.key("normalized_overhead").value(r.normalized_overhead);
  w.key("atim_tx").value(r.atim_tx);
  w.key("data_tx_attempts").value(r.data_tx_attempts);
  w.key("overhear_commits").value(r.overhear_commits);
  w.key("overhear_declines").value(r.overhear_declines);
  w.key("mac_sleeps").value(r.mac_sleeps);
  w.key("rreq_tx").value(r.rreq_tx);
  w.key("rrep_tx").value(r.rrep_tx);
  w.key("rerr_tx").value(r.rerr_tx);
  w.key("hello_tx").value(r.hello_tx);
  w.key("data_tx_failed").value(r.data_tx_failed);
  w.key("data_salvaged").value(r.data_salvaged);
  w.key("dead_nodes").value(static_cast<std::uint64_t>(r.dead_nodes));
  w.key("first_node_death_s").value(r.first_death_s);
  w.key("partition_time_s").value(r.partition_time_s);
  w.key("events_executed").value(r.events_executed);

  w.key("per_node_energy_j").begin_array();
  for (const double e : r.per_node_energy_j) w.value(e);
  w.end_array();
  w.key("role_numbers").begin_array();
  for (const auto n : r.role_numbers) w.value(n);
  w.end_array();
  w.key("drops").begin_array();
  for (const auto d : r.drops) w.value(d);
  w.end_array();

  w.key("perf").begin_object();
  w.key("events_executed").value(r.perf.events_executed);
  w.key("events_scheduled").value(r.perf.events_scheduled);
  w.key("handler_heap_fallbacks").value(r.perf.handler_heap_fallbacks);
  w.key("queue_depth_high_water").value(r.perf.queue_depth_high_water);
  w.key("queue_rung_spawns").value(r.perf.queue_rung_spawns);
  w.key("dispatch_batches").value(r.perf.dispatch_batches);
  w.key("handler_moves").value(r.perf.handler_moves);
  w.key("pool_hits").value(r.perf.pool_hits);
  w.key("pool_misses").value(r.perf.pool_misses);
  w.key("bytes_allocated").value(r.perf.bytes_allocated);
  w.key("spatial_queries").value(r.perf.spatial_queries);
  w.key("spatial_candidates_scanned").value(r.perf.spatial_candidates_scanned);
  w.key("segment_refreshes").value(r.perf.segment_refreshes);
  w.key("cs_cells_visited").value(r.perf.cs_cells_visited);
  w.key("wall_seconds").value(r.perf.wall_seconds);
  w.key("events_per_sec").value(r.perf.events_per_sec);
  w.end_object();
  w.end_object();  // result

  w.end_object();
  return w.take();
}

namespace {

// Parameters retired with cfg/v4 (the clustered family and the lifetime
// check period), each with the value this build hard-wires: a token for
// enums, a number otherwise. Records written before cfg/v4 carry all of
// them; one that sets any to another value describes a run this build
// cannot simulate, and loading it would fold it into a paper cell.
struct RetiredParam {
  std::string_view name;
  std::string_view token;  // empty for numeric parameters
  double number;
};
constexpr RetiredParam kRetiredParams[] = {
    {"mobility.model", "rwp", 0},       {"traffic.pattern", "cbr", 0},
    {"cluster.round_s", {}, 20},        {"cluster.ch_fraction", {}, 0.05},
    {"rpgm.group_size", {}, 4},         {"rpgm.span_m", {}, 100},
    {"rpgm.span_rate_mps", {}, 2},      {"traffic.burst_rate_pps", {}, 0.05},
    {"traffic.burst_size", {}, 5},      {"traffic.burst_spacing_ms", {}, 10},
    {"lifetime.check_interval_s", {}, 1},
};

void reject_retired_values(std::size_t job, const json::Value& cfg) {
  auto number = [](double d) { return scenario::ParamValue::of(d).pretty(); };
  for (const RetiredParam& p : kRetiredParams) {
    const json::Value* member = cfg.find(std::string(p.name));
    if (member == nullptr) continue;
    const bool numeric = p.token.empty();
    if (numeric ? member->is_number() && member->as_double() == p.number
                : member->is_string() &&
                      scenario::detail::iequals(member->as_string(), p.token)) {
      continue;
    }
    const std::string got = member->is_string()   ? member->as_string()
                            : member->is_number() ? number(member->as_double())
                                                  : "a non-scalar value";
    throw ResultStoreError(
        "record job " + std::to_string(job) + ": config." +
        std::string(p.name) + " = " + got +
        " belongs to a retired model (this build runs only " +
        (numeric ? number(p.number) : std::string(p.token)) + ")");
  }
}

JobRecord record_from_json(const json::Value& v) {
  JobRecord rec;
  rec.job = static_cast<std::size_t>(v.at("job").as_u64());
  rec.id = v.at("id").as_string();
  rec.digest = v.at("cfg_digest").as_string();
  rec.wall_ms = v.at("wall_ms").as_double();

  // Reconstruct the full config through the registry: every registered
  // parameter present in the record's "config" object is applied; absent
  // keys keep their defaults (records always carry the full set since v2).
  const json::Value& cfg = v.at("config");
  reject_retired_values(rec.job, cfg);
  for (const scenario::Param& p : scenario::param_registry()) {
    const json::Value* member = cfg.find(std::string(p.name));
    // Records written before digest v3 stored the enum axes under bare
    // keys; read those as a fallback.
    if (member == nullptr && p.name == "power.scheme") {
      member = cfg.find("scheme");
    }
    if (member == nullptr && p.name == "routing.protocol") {
      member = cfg.find("routing");
    }
    if (member == nullptr) continue;
    scenario::ParamValue value;
    try {
      switch (p.type) {
        case scenario::ParamType::kDouble:
          value = scenario::ParamValue::of(member->as_double());
          break;
        case scenario::ParamType::kUInt:
          value = scenario::ParamValue::of(member->as_u64());
          break;
        case scenario::ParamType::kBool:
          value = scenario::ParamValue::of(member->as_bool());
          break;
        case scenario::ParamType::kEnum:
          // Validate + canonicalize the stored token.
          value = p.parse(member->as_string());
          break;
      }
      p.set(rec.cfg, value);
    } catch (const scenario::ParamError& e) {
      throw ResultStoreError("record job " + std::to_string(rec.job) +
                             ": config." + e.what());
    }
  }

  const json::Value& res = v.at("result");
  scenario::RunResult& r = rec.result;
  r.scheme = rec.cfg.scheme;
  r.duration_s = sim::to_seconds(rec.cfg.duration);
  r.total_energy_j = res.at("total_energy_j").as_double();
  r.energy_variance = res.at("energy_variance").as_double();
  r.energy_mean_j = res.at("energy_mean_j").as_double();
  r.energy_min_j = res.at("energy_min_j").as_double();
  r.energy_max_j = res.at("energy_max_j").as_double();
  r.originated = res.at("originated").as_u64();
  r.delivered = res.at("delivered").as_u64();
  r.pdr_percent = res.at("pdr_percent").as_double();
  r.avg_delay_s = res.at("avg_delay_s").as_double();
  r.delay_p50_s = res.at("delay_p50_s").as_double();
  r.delay_p90_s = res.at("delay_p90_s").as_double();
  r.avg_route_wait_s = res.at("avg_route_wait_s").as_double();
  r.avg_transit_s = res.at("avg_transit_s").as_double();
  r.energy_per_bit_j = res.at("energy_per_bit_j").as_double();
  r.control_tx = res.at("control_tx").as_u64();
  r.normalized_overhead = res.at("normalized_overhead").as_double();
  r.atim_tx = res.at("atim_tx").as_u64();
  r.data_tx_attempts = res.at("data_tx_attempts").as_u64();
  r.overhear_commits = res.at("overhear_commits").as_u64();
  r.overhear_declines = res.at("overhear_declines").as_u64();
  r.mac_sleeps = res.at("mac_sleeps").as_u64();
  r.rreq_tx = res.at("rreq_tx").as_u64();
  r.rrep_tx = res.at("rrep_tx").as_u64();
  r.rerr_tx = res.at("rerr_tx").as_u64();
  r.hello_tx = res.at("hello_tx").as_u64();
  r.data_tx_failed = res.at("data_tx_failed").as_u64();
  r.data_salvaged = res.at("data_salvaged").as_u64();
  r.dead_nodes = static_cast<std::size_t>(res.at("dead_nodes").as_u64());
  // Renamed from "first_death_s" at digest v3; read either spelling.
  if (const json::Value* g = res.find("first_node_death_s")) {
    r.first_death_s = g->as_double();
  } else {
    r.first_death_s = res.at("first_death_s").as_double();
  }
  if (const json::Value* g = res.find("partition_time_s")) {
    r.partition_time_s = g->as_double();
  }
  r.events_executed = res.at("events_executed").as_u64();

  for (const auto& e : res.at("per_node_energy_j").as_array()) {
    r.per_node_energy_j.push_back(e.as_double());
  }
  for (const auto& n : res.at("role_numbers").as_array()) {
    r.role_numbers.push_back(n.as_u64());
  }
  const auto& drops = res.at("drops").as_array();
  for (std::size_t i = 0; i < drops.size() && i < r.drops.size(); ++i) {
    r.drops[i] = drops[i].as_u64();
  }

  const json::Value& perf = res.at("perf");
  r.perf.events_executed = perf.at("events_executed").as_u64();
  r.perf.events_scheduled = perf.at("events_scheduled").as_u64();
  r.perf.handler_heap_fallbacks = perf.at("handler_heap_fallbacks").as_u64();
  r.perf.pool_hits = perf.at("pool_hits").as_u64();
  r.perf.pool_misses = perf.at("pool_misses").as_u64();
  r.perf.bytes_allocated = perf.at("bytes_allocated").as_u64();
  // Counters added after the v2 schema shipped postdate early stores:
  // tolerate their absence (they read back as zero).
  if (const json::Value* g = perf.find("queue_depth_high_water")) {
    r.perf.queue_depth_high_water = g->as_u64();
  }
  if (const json::Value* g = perf.find("queue_rung_spawns")) {
    r.perf.queue_rung_spawns = g->as_u64();
  }
  if (const json::Value* g = perf.find("dispatch_batches")) {
    r.perf.dispatch_batches = g->as_u64();
  }
  if (const json::Value* g = perf.find("handler_moves")) {
    r.perf.handler_moves = g->as_u64();
  }
  if (const json::Value* g = perf.find("spatial_queries")) {
    r.perf.spatial_queries = g->as_u64();
  }
  if (const json::Value* g = perf.find("spatial_candidates_scanned")) {
    r.perf.spatial_candidates_scanned = g->as_u64();
  }
  if (const json::Value* g = perf.find("segment_refreshes")) {
    r.perf.segment_refreshes = g->as_u64();
  }
  if (const json::Value* g = perf.find("cs_cells_visited")) {
    r.perf.cs_cells_visited = g->as_u64();
  }
  r.perf.wall_seconds = perf.at("wall_seconds").as_double();
  r.perf.events_per_sec = perf.at("events_per_sec").as_double();

  return rec;
}

}  // namespace

std::uint64_t for_each_line(
    const std::string& path, std::uint64_t start,
    const std::function<void(std::uint64_t, const std::string&)>& fn) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ResultStoreError("cannot open results file: " + path);
  in.seekg(static_cast<std::streamoff>(start));
  std::uint64_t offset = start;
  std::string line;
  while (std::getline(in, line)) {
    // getline hitting EOF mid-line means the trailing '\n' is missing.
    if (in.eof()) break;
    const std::uint64_t line_start = offset;
    offset += line.size() + 1;
    if (line.empty()) continue;
    fn(line_start, line);
  }
  return offset;
}

JobRecord parse_result_line(std::string_view line) {
  return record_from_json(json::parse(line));
}

std::size_t scan_result_job(std::string_view line) {
  // record_to_json writes the fixed prefix {"v":2,"job":N, — peel the job
  // index straight out of the bytes; a full parse handles anything else.
  constexpr std::string_view kPrefix = "{\"v\":2,\"job\":";
  if (line.substr(0, kPrefix.size()) == kPrefix) {
    std::size_t job = 0;
    std::size_t i = kPrefix.size();
    bool digits = false;
    while (i < line.size() && line[i] >= '0' && line[i] <= '9') {
      job = job * 10 + static_cast<std::size_t>(line[i] - '0');
      ++i;
      digits = true;
    }
    if (digits && i < line.size() && line[i] == ',') return job;
  }
  return static_cast<std::size_t>(json::parse(line).at("job").as_u64());
}

std::vector<RecordRef> scan_result_file(const std::string& path) {
  std::map<std::size_t, RecordRef> by_job;  // last record wins
  for_each_line(path, 0, [&](std::uint64_t offset, const std::string& line) {
    RecordRef ref;
    ref.job = scan_result_job(line);
    ref.offset = offset;
    ref.length = static_cast<std::uint32_t>(line.size());
    by_job[ref.job] = ref;
  });
  std::vector<RecordRef> out;
  out.reserve(by_job.size());
  for (const auto& [_, ref] : by_job) out.push_back(ref);
  return out;
}

void for_each_result(const std::string& path,
                     const std::function<void(JobRecord&&)>& fn) {
  const std::vector<RecordRef> winners = scan_result_file(path);
  // Winners are job-ordered, not offset-ordered, so re-seek per record
  // (reads are line-sized and page-cache-backed).
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ResultStoreError("cannot open results file: " + path);
  std::string buf;
  for (const RecordRef& ref : winners) {
    in.clear();
    in.seekg(static_cast<std::streamoff>(ref.offset));
    buf.resize(ref.length);
    if (!in.read(buf.data(), static_cast<std::streamsize>(ref.length))) {
      throw ResultStoreError(path + ": short read at offset " +
                             std::to_string(ref.offset));
    }
    fn(parse_result_line(buf));
  }
}

std::vector<JobRecord> load_results(const std::string& path) {
  std::map<std::size_t, JobRecord> by_job;  // last record wins
  for_each_line(path, 0, [&](std::uint64_t, const std::string& line) {
    JobRecord rec = record_from_json(json::parse(line));
    by_job[rec.job] = std::move(rec);
  });

  std::vector<JobRecord> out;
  out.reserve(by_job.size());
  for (auto& [_, rec] : by_job) out.push_back(std::move(rec));
  return out;
}

namespace {

// Every averaged RunResult field, in one fixed order: add() sums through it
// and mean() writes back through it, so a field cannot be summed but not
// averaged (or the reverse).
template <typename Result, typename Fn>
void visit_averaged(Result& r, Fn&& fn) {
  fn(r.duration_s);
  fn(r.total_energy_j);
  fn(r.energy_variance);
  fn(r.energy_mean_j);
  fn(r.energy_min_j);
  fn(r.energy_max_j);
  fn(r.originated);
  fn(r.delivered);
  fn(r.pdr_percent);
  fn(r.avg_delay_s);
  fn(r.delay_p50_s);
  fn(r.delay_p90_s);
  fn(r.avg_route_wait_s);
  fn(r.avg_transit_s);
  fn(r.energy_per_bit_j);
  fn(r.control_tx);
  fn(r.normalized_overhead);
  fn(r.atim_tx);
  fn(r.data_tx_attempts);
  fn(r.overhear_commits);
  fn(r.overhear_declines);
  fn(r.mac_sleeps);
  fn(r.rreq_tx);
  fn(r.rrep_tx);
  fn(r.rerr_tx);
  fn(r.hello_tx);
  for (auto& d : r.drops) fn(d);
  fn(r.data_tx_failed);
  fn(r.data_salvaged);
  fn(r.dead_nodes);
  fn(r.first_death_s);
  fn(r.partition_time_s);
  fn(r.events_executed);
  for (auto& e : r.per_node_energy_j) fn(e);
  for (auto& v : r.role_numbers) fn(v);
}

}  // namespace

void RunAverager::add(const scenario::RunResult& r) {
  if (n_ == 0) {
    scheme_ = r.scheme;
    nodes_ = r.per_node_energy_j.size();
    roles_ = r.role_numbers.size();
  }
  RCAST_REQUIRE(r.scheme == scheme_);
  RCAST_REQUIRE(r.per_node_energy_j.size() == nodes_);
  RCAST_REQUIRE(r.role_numbers.size() == roles_);
  std::size_t k = 0;
  visit_averaged(r, [&](const auto& v) {
    if (n_ == 0) sums_.push_back(0.0);
    sums_[k++] += static_cast<double>(v);
  });
  ++n_;
}

scenario::RunResult RunAverager::mean() const {
  RCAST_REQUIRE(n_ > 0);
  scenario::RunResult avg;
  avg.scheme = scheme_;
  avg.per_node_energy_j.resize(nodes_);
  avg.role_numbers.resize(roles_);
  const double n = static_cast<double>(n_);
  std::size_t k = 0;
  visit_averaged(avg, [&](auto& v) {
    v = static_cast<std::remove_reference_t<decltype(v)>>(sums_[k++] / n);
  });
  return avg;
}

void AggregateAccumulator::add(const JobRecord& rec) {
  // Group key: the seed-excluded cell digest, which distinguishes cells by
  // *every* config parameter — nested sweep axes (mac.*, odpm.*, ...) form
  // their own cells even though the CSV's classic columns coincide. Records
  // arrive in job-index order, so first-appearance order matches expansion
  // order deterministically.
  const scenario::ScenarioConfig& cfg = rec.cfg;
  std::string cell = config_cell_digest(cfg);
  auto [it, inserted] = by_cell_.try_emplace(cell, cells_.size());
  if (inserted) {
    cells_.emplace_back();
    AggregateRow& row = cells_.back().row;
    row.cell = std::move(cell);
    row.scheme = cfg.scheme;
    row.routing = cfg.routing;
    row.nodes = cfg.num_nodes;
    row.flows = cfg.num_flows;
    row.rate_pps = cfg.rate_pps;
    row.pause_s = sim::to_seconds(cfg.pause);
    row.duration_s = sim::to_seconds(cfg.duration);
  }
  cells_[it->second].acc.add(rec.result);
  ++records_;
}

std::vector<AggregateRow> AggregateAccumulator::rows() const {
  std::vector<AggregateRow> rows;
  rows.reserve(cells_.size());
  for (const auto& c : cells_) {
    rows.push_back(c.row);
    rows.back().seeds = c.acc.count();
    rows.back().mean = c.acc.mean();
  }
  return rows;
}

std::vector<AggregateRow> aggregate(const std::vector<JobRecord>& records) {
  AggregateAccumulator acc;
  for (const auto& rec : records) acc.add(rec);
  return acc.rows();
}

std::string export_aggregate_csv(const std::string& path) {
  AggregateAccumulator acc;
  for_each_result(path, [&](JobRecord&& rec) { acc.add(rec); });
  return aggregate_csv(acc.rows());
}

std::string aggregate_csv(const std::vector<AggregateRow>& rows) {
  // The mobility and traffic columns predate cfg/v4, since which every run
  // is random waypoint with CBR flows.
  std::string out =
      "scheme,routing,mobility,traffic,nodes,flows,rate_pps,pause_s,"
      "duration_s,seeds,pdr_pct,energy_j,energy_var,energy_mean_j,"
      "epb_j_per_bit,delay_s,norm_overhead,ctrl_tx,hello_tx,dead_nodes,"
      "first_node_death_s,partition_time_s\n";
  char buf[512];
  for (const auto& row : rows) {
    const auto& m = row.mean;
    std::snprintf(
        buf, sizeof(buf),
        "%s,%s,rwp,cbr,%zu,%zu,%.3f,%.1f,%.1f,%zu,%.2f,%.1f,%.1f,%.1f,%.6g,"
        "%.4f,%.3f,%llu,%llu,%zu,%.1f,%.1f\n",
        std::string(scenario::to_string(row.scheme)).c_str(),
        std::string(scenario::to_string(row.routing)).c_str(), row.nodes,
        row.flows, row.rate_pps, row.pause_s, row.duration_s, row.seeds,
        m.pdr_percent, m.total_energy_j, m.energy_variance, m.energy_mean_j,
        m.energy_per_bit_j, m.avg_delay_s, m.normalized_overhead,
        static_cast<unsigned long long>(m.control_tx),
        static_cast<unsigned long long>(m.hello_tx), m.dead_nodes,
        m.first_death_s, m.partition_time_s);
    out += buf;
  }
  return out;
}

}  // namespace rcast::campaign
