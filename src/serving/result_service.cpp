#include "serving/result_service.hpp"

#include <algorithm>
#include <fstream>
#include <unordered_set>

namespace rcast::serving {

ResultService::ResultService(std::vector<std::string> paths)
    : paths_(std::move(paths)) {
  indexes_.reserve(paths_.size());
  for (std::size_t fi = 0; fi < paths_.size(); ++fi) {
    indexes_.push_back(ResultIndex::open(paths_[fi]));
    absorb_new_entries(fi, indexes_[fi].entries(), 0);
  }
}

void ResultService::absorb_new_entries(std::size_t file,
                                       const std::vector<IndexEntry>& entries,
                                       std::size_t first_new) {
  for (std::size_t i = first_new; i < entries.size(); ++i) {
    const IndexEntry& e = entries[i];
    winner_by_job_[static_cast<std::size_t>(e.job)] = Winner{file, e};
    job_by_cfg_[e.cfg_digest] = static_cast<std::size_t>(e.job);
    jobs_by_cell_[e.cell_digest].push_back(static_cast<std::size_t>(e.job));
    // Precise invalidation: only the cell that gained a record goes cold.
    if (cache_.erase(e.cell_digest) > 0) ++stats_.invalidations;
  }
}

std::string ResultService::read_line(std::size_t file, std::uint64_t offset,
                                     std::uint32_t length) {
  std::ifstream in(paths_[file], std::ios::binary);
  if (!in) {
    throw IndexError("cannot open results file: " + paths_[file]);
  }
  in.seekg(static_cast<std::streamoff>(offset));
  std::string buf(length, '\0');
  if (!in.read(buf.data(), static_cast<std::streamsize>(length))) {
    throw IndexError(paths_[file] + ": short read at offset " +
                     std::to_string(offset));
  }
  return buf;
}

std::optional<std::string> ResultService::result_json(
    std::uint64_t cfg_digest) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto jit = job_by_cfg_.find(cfg_digest);
  if (jit == job_by_cfg_.end()) return std::nullopt;
  const auto wit = winner_by_job_.find(jit->second);
  if (wit == winner_by_job_.end()) return std::nullopt;
  const Winner& w = wit->second;
  return read_line(w.file, w.entry.offset, w.entry.length);
}

campaign::AggregateRow ResultService::fold_cell(std::uint64_t cell_digest) {
  std::vector<std::size_t>& jobs = jobs_by_cell_[cell_digest];
  std::sort(jobs.begin(), jobs.end());
  jobs.erase(std::unique(jobs.begin(), jobs.end()), jobs.end());

  campaign::AggregateAccumulator acc;
  for (const std::size_t job : jobs) {
    const Winner& w = winner_by_job_.at(job);
    // A superseded record can leave a stale membership if the job's winner
    // moved cells (only possible with hand-mixed stores); skip it.
    if (w.entry.cell_digest != cell_digest) continue;
    acc.add(campaign::parse_result_line(
        read_line(w.file, w.entry.offset, w.entry.length)));
  }
  if (acc.records() == 0) {
    throw IndexError("cell has no live records");
  }
  return acc.rows().front();
}

campaign::AggregateRow ResultService::fold_cell_subset(
    std::uint64_t cell_digest, const AggregateFilter& filter, bool& any) {
  std::vector<std::size_t>& jobs = jobs_by_cell_[cell_digest];
  std::sort(jobs.begin(), jobs.end());
  jobs.erase(std::unique(jobs.begin(), jobs.end()), jobs.end());

  campaign::AggregateAccumulator acc;
  for (const std::size_t job : jobs) {
    const Winner& w = winner_by_job_.at(job);
    if (w.entry.cell_digest != cell_digest ||
        (filter.seed && *filter.seed != w.entry.seed)) {
      continue;
    }
    acc.add(campaign::parse_result_line(
        read_line(w.file, w.entry.offset, w.entry.length)));
  }
  any = acc.records() != 0;
  return any ? acc.rows().front() : campaign::AggregateRow{};
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
  campaign::AggregateRow row = fold_cell(cell_digest);
  cache_.emplace(cell_digest, row);
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
    const Winner& w = winner_by_job_.at(job);
    const std::uint64_t cell = w.entry.cell_digest;
    if (!seen_cells.insert(cell).second) continue;
    // The seed varies within a cell: fold_cell_subset checks it per record.
    if (!filter.matches_cell(w.entry)) continue;
    if (filter.seed) {
      bool any = false;
      campaign::AggregateRow row = fold_cell_subset(cell, filter, any);
      if (any) rows.push_back(std::move(row));
      continue;
    }
    const auto cit = cache_.find(cell);
    if (cit != cache_.end()) {
      ++stats_.hits;
      rows.push_back(cit->second);
    } else {
      ++stats_.misses;
      campaign::AggregateRow row = fold_cell(cell);
      cache_.emplace(cell, row);
      rows.push_back(std::move(row));
    }
  }
  return campaign::aggregate_csv(rows);
}

std::size_t ResultService::refresh() {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t added = 0;
  for (std::size_t fi = 0; fi < indexes_.size(); ++fi) {
    const std::size_t before = indexes_[fi].entries().size();
    added += indexes_[fi].refresh();
    absorb_new_entries(fi, indexes_[fi].entries(), before);
  }
  return added;
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
