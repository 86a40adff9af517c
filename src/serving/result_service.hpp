// Read path of the serving daemon: a thread-safe view over one or more
// (shard) JSONL result files, each fronted by a ResultIndex sidecar, plus a
// digest-keyed cache of seed-averaged aggregates.
//
// Lookup semantics mirror the campaign loader exactly: when the same job
// index appears in several files (or several times in one file — a torn
// write superseded by a re-run), the last-scanned record wins, and
// aggregates fold the winning records in job-index order through
// scenario::RunAverager — so the CSV this service exports is byte-identical
// to campaign::export_aggregate_csv (`rcast_campaignd export`) over the
// merged store.
//
// Cache invalidation: refresh() re-scans the files for appended records
// (the daemon calls it when it observes journal growth) and drops exactly
// the cache entries whose cell gained records; untouched cells stay warm.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "campaign/result_store.hpp"
#include "serving/result_index.hpp"

namespace rcast::serving {

/// Aggregate-cache observability for /status.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t invalidations = 0;
};

/// Conjunctive filter over the grid coordinates the 80-byte index records
/// carry. Unset fields match everything; doubles compare exactly (the
/// values come from the manifest, not from arithmetic). A seed constraint
/// selects individual records *within* cells, so filtered aggregates with a
/// seed bypass the cell cache; all other fields are cell-constant and keep
/// cached rows usable.
struct AggregateFilter {
  std::optional<std::uint8_t> scheme;
  std::optional<std::uint8_t> routing;
  std::optional<std::uint8_t> mobility;  // mobility_models() ordinal
  std::optional<std::uint8_t> traffic;   // traffic_patterns() ordinal
  std::optional<std::uint32_t> nodes;
  std::optional<std::uint32_t> flows;
  std::optional<double> rate_pps;
  std::optional<double> pause_s;
  std::optional<double> duration_s;
  std::optional<std::uint64_t> seed;

  bool empty() const {
    return !scheme && !routing && !mobility && !traffic && !nodes && !flows &&
           !rate_pps && !pause_s && !duration_s && !seed;
  }

  /// Every field but the seed: the part of the filter that is constant
  /// across a cell's records (the seed is checked per record).
  bool matches_cell(const IndexEntry& e) const {
    return (!scheme || *scheme == e.scheme) &&
           (!routing || *routing == e.routing) &&
           (!mobility || *mobility == e.mobility) &&
           (!traffic || *traffic == e.traffic) &&
           (!nodes || *nodes == e.nodes) && (!flows || *flows == e.flows) &&
           (!rate_pps || *rate_pps == e.rate_pps) &&
           (!pause_s || *pause_s == e.pause_s) &&
           (!duration_s || *duration_s == e.duration_s);
  }
};

class ResultService {
 public:
  /// Opens (building/extending sidecars as needed) every file in `paths`.
  /// Later files win job-index collisions, so pass shards in shard order.
  explicit ResultService(std::vector<std::string> paths);

  /// The winning record with this cfg/v2 digest, as its raw JSONL line
  /// (already valid JSON); nullopt if unknown.
  std::optional<std::string> result_json(std::uint64_t cfg_digest);

  /// Seed-averaged aggregate of one cell/v2 digest, memoized. nullopt if
  /// the cell has no records.
  std::optional<campaign::AggregateRow> aggregate_cell(
      std::uint64_t cell_digest);

  /// Aggregate CSV over every winning record that passes `filter` (default:
  /// all of them — byte-identical to `rcast_campaignd export` on the merged
  /// store). Rows keep first-appearance cell order, so a filtered export is
  /// exactly the unfiltered one with non-matching rows removed — except
  /// under a seed constraint, which recomputes each row from the matching
  /// subset of records.
  std::string aggregate_csv(const AggregateFilter& filter = {});

  /// Re-scans every file for appended records and invalidates the cache
  /// entries of cells that grew. Returns the number of new records seen.
  std::size_t refresh();

  /// Winning records (distinct job indices) across all files — superseded
  /// duplicates are not counted.
  std::size_t record_count() const;

  CacheStats cache_stats() const;

 private:
  /// The last-scanned record for one job index: which file it lives in plus
  /// its full index entry (extent, digests, and the grid coordinates the
  /// aggregate filter matches against).
  struct Winner {
    std::size_t file = 0;
    IndexEntry entry;
  };

  // All private methods assume mu_ is held.
  void absorb_new_entries(std::size_t file,
                          const std::vector<IndexEntry>& entries,
                          std::size_t first_new);
  std::string read_line(std::size_t file, std::uint64_t offset,
                        std::uint32_t length);
  campaign::AggregateRow fold_cell(std::uint64_t cell_digest);
  campaign::AggregateRow fold_cell_subset(std::uint64_t cell_digest,
                                          const AggregateFilter& filter,
                                          bool& any);

  mutable std::mutex mu_;
  std::vector<std::string> paths_;
  std::vector<ResultIndex> indexes_;
  std::unordered_map<std::size_t, Winner> winner_by_job_;
  std::unordered_map<std::uint64_t, std::size_t> job_by_cfg_;  // digest -> job
  // Job indices per cell; kept sorted lazily at fold time.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> jobs_by_cell_;
  std::unordered_map<std::uint64_t, campaign::AggregateRow> cache_;
  CacheStats stats_;
};

}  // namespace rcast::serving
