// Read path of the serving daemon: a thread-safe, in-memory index over a
// campaign's JSONL result file, plus a digest-keyed cache of seed-averaged
// aggregates.
//
// The index lives only in memory. Opening the service walks the file with
// the store's line walker (campaign::for_each_line, so export and serving
// share one torn-tail rule), parses each complete line once, and records its
// extent, both digests and its grid coordinates; point and cell lookups are
// then a hash probe plus one read. refresh() walks on from the last
// consumed offset, so indexing parses every line once. A file that does not
// exist yet reads as empty until it appears. The service never writes.
//
// Lookup semantics mirror the campaign loader exactly: when the same job
// index appears several times (a torn write superseded by a re-run), the
// last line wins, and aggregates fold the winning records in job-index
// order through campaign::RunAverager — so the CSV this service exports is
// byte-identical to campaign::export_aggregate_csv (`rcast_campaignd
// export`) over the same file.
//
// Cache invalidation: refresh() drops exactly the cache entries whose cell
// gained records; untouched cells stay warm.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "campaign/result_store.hpp"

namespace rcast::serving {

class IndexError : public std::runtime_error {
 public:
  explicit IndexError(const std::string& what) : std::runtime_error(what) {}
};

/// Parses a 16-hex-digit digest rendering back to its integer value.
std::uint64_t digest_to_u64(std::string_view hex);

/// One indexed JSONL record. Numeric digests are the FNV-1a values whose
/// `%016llx` renderings appear in the JSONL ("cfg_digest", cell); every
/// coordinate keeps the config's own type.
struct IndexEntry {
  std::uint64_t offset = 0;      // line start in the JSONL
  std::size_t length = 0;        // line length excluding '\n'
  std::uint64_t cfg_digest = 0;  // seed included (cfg/v2)
  std::uint64_t cell_digest = 0; // seed excluded (cell/v2)
  scenario::Scheme scheme = scenario::Scheme::kRcast;
  scenario::RoutingProtocol routing = scenario::RoutingProtocol::kDsr;
  std::size_t nodes = 0;
  std::size_t flows = 0;
  double rate_pps = 0.0;
  double pause_s = 0.0;
  double duration_s = 0.0;
  std::uint64_t seed = 0;
};

/// Aggregate-cache observability for /status.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t invalidations = 0;
};

/// Conjunctive filter over the grid coordinates of the index entries. Unset
/// fields match everything; doubles compare exactly (the values come from
/// the manifest, not from arithmetic). A seed constraint selects individual
/// records *within* cells, so filtered aggregates with a seed bypass the
/// cell cache; all other fields are cell-constant and keep cached rows
/// usable.
struct AggregateFilter {
  std::optional<scenario::Scheme> scheme;
  std::optional<scenario::RoutingProtocol> routing;
  std::optional<std::size_t> nodes;
  std::optional<std::size_t> flows;
  std::optional<double> rate_pps;
  std::optional<double> pause_s;
  std::optional<double> duration_s;
  std::optional<std::uint64_t> seed;

  /// Every field but the seed: the part of the filter that is constant
  /// across a cell's records (the seed is checked per record).
  bool matches_cell(const IndexEntry& e) const {
    return (!scheme || *scheme == e.scheme) &&
           (!routing || *routing == e.routing) &&
           (!nodes || *nodes == e.nodes) && (!flows || *flows == e.flows) &&
           (!rate_pps || *rate_pps == e.rate_pps) &&
           (!pause_s || *pause_s == e.pause_s) &&
           (!duration_s || *duration_s == e.duration_s);
  }
};

class ResultService {
 public:
  /// Indexes every complete line of the JSONL file at `path`.
  explicit ResultService(std::string path);

  /// The winning record with this cfg/v2 digest, as its raw JSONL line
  /// (already valid JSON); nullopt if unknown.
  std::optional<std::string> result_json(std::uint64_t cfg_digest);

  /// Seed-averaged aggregate of one cell/v2 digest, memoized. nullopt if
  /// the cell has no records.
  std::optional<campaign::AggregateRow> aggregate_cell(
      std::uint64_t cell_digest);

  /// Aggregate CSV over every winning record that passes `filter` (default:
  /// all of them — byte-identical to `rcast_campaignd export`). Rows keep first-appearance cell order, so a filtered export is
  /// exactly the unfiltered one with non-matching rows removed — except
  /// under a seed constraint, which recomputes each row from the matching
  /// subset of records.
  std::string aggregate_csv(const AggregateFilter& filter = {});

  /// Indexes the complete lines appended since the last walk and
  /// invalidates the cache entries of cells that grew. Returns the number of
  /// new records seen.
  std::size_t refresh();

  /// Winning records (distinct job indices) — superseded duplicates are not
  /// counted.
  std::size_t record_count() const;

  CacheStats cache_stats() const;

 private:
  // All private methods assume mu_ is held.
  std::size_t index_new_lines();
  std::string read_line(const IndexEntry& e);
  /// Folds the cell's winning records (only those of `seed`, if set) in
  /// job-index order; nullopt when none qualifies.
  std::optional<campaign::AggregateRow> fold_cell(
      std::uint64_t cell_digest, std::optional<std::uint64_t> seed = {});

  mutable std::mutex mu_;
  const std::string path_;
  std::uint64_t consumed_ = 0;  // bytes walked so far
  // The last-scanned record of each job index.
  std::unordered_map<std::size_t, IndexEntry> winner_by_job_;
  std::unordered_map<std::uint64_t, std::size_t> job_by_cfg_;  // digest -> job
  // Job indices per cell; kept sorted lazily at fold time.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> jobs_by_cell_;
  std::unordered_map<std::uint64_t, campaign::AggregateRow> cache_;
  CacheStats stats_;
};

}  // namespace rcast::serving
