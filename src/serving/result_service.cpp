#include "serving/result_service.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <unordered_set>

namespace rcast::serving {

std::uint64_t digest_to_u64(std::string_view hex) {
  if (hex.size() != 16) throw IndexError("digest must be 16 hex digits");
  std::uint64_t v = 0;
  for (const char c : hex) {
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint64_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') v |= static_cast<std::uint64_t>(c - 'A' + 10);
    else throw IndexError("digest must be 16 hex digits");
  }
  return v;
}

ResultService::ResultService(std::string path) : path_(std::move(path)) {
  index_new_lines();
}

std::size_t ResultService::index_new_lines() {
  // A file that does not exist yet reads as empty: `run --port` opens the
  // service before the runner creates the file.
  std::error_code ec;
  if (!std::filesystem::exists(path_, ec)) return 0;
  std::size_t added = 0;
  const auto index_line = [&](std::uint64_t offset, const std::string& line) {
    const campaign::JobRecord rec = campaign::parse_result_line(line);
    const scenario::ScenarioConfig& cfg = rec.cfg;
    IndexEntry e;
    e.offset = offset;
    e.length = line.size();
    e.cfg_digest = digest_to_u64(rec.digest);
    e.cell_digest = digest_to_u64(campaign::config_cell_digest(cfg));
    e.scheme = cfg.scheme;
    e.routing = cfg.routing;
    e.nodes = cfg.num_nodes;
    e.flows = cfg.num_flows;
    e.rate_pps = cfg.rate_pps;
    e.pause_s = sim::to_seconds(cfg.pause);
    e.duration_s = sim::to_seconds(cfg.duration);
    e.seed = cfg.seed;

    winner_by_job_[rec.job] = e;  // later records win, like the loader
    job_by_cfg_[e.cfg_digest] = rec.job;
    jobs_by_cell_[e.cell_digest].push_back(rec.job);
    // Precise invalidation: only the cell that gained a record goes cold.
    if (cache_.erase(e.cell_digest) > 0) ++stats_.invalidations;
    // Advance per line, so a malformed line is retried, not skipped.
    consumed_ = offset + line.size() + 1;
    ++added;
  };
  consumed_ = campaign::for_each_line(path_, consumed_, index_line);
  return added;
}

std::string ResultService::read_line(const IndexEntry& e) {
  std::ifstream in(path_, std::ios::binary);
  if (!in) throw IndexError("cannot open results file: " + path_);
  in.seekg(static_cast<std::streamoff>(e.offset));
  std::string buf(e.length, '\0');
  if (!in.read(buf.data(), static_cast<std::streamsize>(e.length))) {
    throw IndexError(path_ + ": short read at offset " +
                     std::to_string(e.offset));
  }
  return buf;
}

std::optional<std::string> ResultService::result_json(
    std::uint64_t cfg_digest) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto jit = job_by_cfg_.find(cfg_digest);
  if (jit == job_by_cfg_.end()) return std::nullopt;
  return read_line(winner_by_job_.at(jit->second));
}

std::optional<campaign::AggregateRow> ResultService::fold_cell(
    std::uint64_t cell_digest, std::optional<std::uint64_t> seed) {
  std::vector<std::size_t>& jobs = jobs_by_cell_[cell_digest];
  std::sort(jobs.begin(), jobs.end());
  jobs.erase(std::unique(jobs.begin(), jobs.end()), jobs.end());

  campaign::AggregateAccumulator acc;
  for (const std::size_t job : jobs) {
    const IndexEntry& w = winner_by_job_.at(job);
    // A superseded record can leave a stale membership if the job's winner
    // moved cells (only possible with hand-mixed stores); skip it.
    if (w.cell_digest != cell_digest || (seed && *seed != w.seed)) continue;
    acc.add(campaign::parse_result_line(read_line(w)));
  }
  if (acc.records() == 0) return std::nullopt;
  return acc.rows().front();
}

std::optional<campaign::AggregateRow> ResultService::aggregate_cell(
    std::uint64_t cell_digest) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto cit = cache_.find(cell_digest);
  if (cit != cache_.end()) {
    ++stats_.hits;
    return cit->second;
  }
  const auto jit = jobs_by_cell_.find(cell_digest);
  if (jit == jobs_by_cell_.end() || jit->second.empty()) return std::nullopt;
  ++stats_.misses;
  auto row = fold_cell(cell_digest);
  if (row) cache_.emplace(cell_digest, *row);
  return row;
}

std::string ResultService::aggregate_csv(const AggregateFilter& filter) {
  std::lock_guard<std::mutex> lock(mu_);
  // Winning records in job-index order give cells in first-appearance
  // order, exactly like the campaign export; each cell folds through the
  // cache so repeated exports and warm /aggregate queries share work.
  //
  // Filtering happens per cell: every grid field except the seed is
  // cell-constant, so the winner that introduces a cell decides for the
  // whole cell and cached rows stay valid. Only a seed constraint cuts
  // *inside* cells — those rows fold from the matching subset, uncached.
  std::vector<std::size_t> jobs;
  jobs.reserve(winner_by_job_.size());
  for (const auto& [job, w] : winner_by_job_) jobs.push_back(job);
  std::sort(jobs.begin(), jobs.end());
  std::unordered_set<std::uint64_t> seen_cells;
  std::vector<campaign::AggregateRow> rows;
  for (const std::size_t job : jobs) {
    const IndexEntry& w = winner_by_job_.at(job);
    const std::uint64_t cell = w.cell_digest;
    if (!seen_cells.insert(cell).second) continue;
    if (!filter.matches_cell(w)) continue;
    if (filter.seed) {
      if (auto row = fold_cell(cell, filter.seed)) rows.push_back(*row);
      continue;
    }
    const auto cit = cache_.find(cell);
    if (cit != cache_.end()) {
      ++stats_.hits;
      rows.push_back(cit->second);
    } else {
      ++stats_.misses;
      // The winner w belongs to this cell, so the fold has a record.
      campaign::AggregateRow row = *fold_cell(cell);
      cache_.emplace(cell, row);
      rows.push_back(std::move(row));
    }
  }
  return campaign::aggregate_csv(rows);
}

std::size_t ResultService::refresh() {
  std::lock_guard<std::mutex> lock(mu_);
  return index_new_lines();
}

std::size_t ResultService::record_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return winner_by_job_.size();
}

CacheStats ResultService::cache_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace rcast::serving
