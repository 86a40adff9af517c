// Structured result store for campaigns: one JSONL record per finished job
// (config + full RunResult + perf counters), plus aggregation into the
// paper-style per-cell CSV the bench binaries and `rcast_campaignd export`
// print.
//
// Determinism contract: records are written with fixed field order and
// round-trip float precision, the loader dedupes by job index keeping the
// *last* record (a torn pre-journal write is superseded by the re-run,
// which produces identical bytes), and aggregation walks cells in job-index
// order — so an interrupted-then-resumed campaign exports a CSV that is
// byte-identical to an uninterrupted one.
#pragma once

#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "campaign/manifest.hpp"
#include "scenario/scenario.hpp"

namespace rcast::campaign {

class ResultStoreError : public std::runtime_error {
 public:
  explicit ResultStoreError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Byte extent of one appended JSONL record, handed to the runner's
/// on_commit hook. No reader needs it any more (the serving index walks the
/// JSONL itself); it stays while the repository benchmark compiles against
/// the hook's signature.
struct AppendExtent {
  std::uint64_t offset = 0;  // byte offset of the line start in the file
  std::uint32_t length = 0;  // line length excluding the trailing '\n'
};

class ResultStore {
 public:
  /// Opens `path` for appending (creates it if absent).
  static ResultStore open_append(const std::string& path);

  ResultStore(ResultStore&& other) noexcept;
  ResultStore& operator=(ResultStore&&) = delete;
  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;
  ~ResultStore();

  /// Appends one record and fsyncs. Call *before* the journal commit so a
  /// journaled job always has its record on disk. Returns where the record
  /// landed so callers can index it without re-scanning the file.
  AppendExtent append(const Job& job, const scenario::RunResult& r,
                      double wall_ms);

  void close();

 private:
  ResultStore() = default;

  std::FILE* f_ = nullptr;
  std::uint64_t offset_ = 0;  // current end-of-file position
};

/// Serializes one job record to a single JSONL line (no trailing newline).
std::string record_to_json(const Job& job, const scenario::RunResult& r,
                           double wall_ms);

/// One record read back from the store.
struct JobRecord {
  std::size_t job = 0;
  std::string id;
  std::string digest;
  double wall_ms = 0.0;
  /// The full scenario config, reconstructed through the parameter registry
  /// (every registered key present in the record's "config" object). Grid
  /// coordinates and the cell digest (config_cell_digest) derive from it.
  scenario::ScenarioConfig cfg;
  scenario::RunResult result;
};

/// Parses one JSONL line into a JobRecord (the inverse of record_to_json).
/// Throws ResultStoreError / json::ParseError on malformed input.
JobRecord parse_result_line(std::string_view line);

/// Walks the complete ('\n'-terminated) lines of `path` from byte `start` (a
/// line start), calling fn(offset, line) for each non-blank one. A torn
/// trailing line (no newline, the only state a crash can leave) is skipped.
/// Returns the offset just past the last complete line: the next walk's
/// start. Throws ResultStoreError if the file cannot be opened.
std::uint64_t for_each_line(
    const std::string& path, std::uint64_t start,
    const std::function<void(std::uint64_t, const std::string&)>& fn);

/// Extracts the job index from one JSONL line without a full parse: records
/// are written with the fixed prefix `{"v":2,"job":N,`, so a cheap scan
/// suffices; anything else falls back to a full JSON parse.
std::size_t scan_result_job(std::string_view line);

/// The winning (last-written) record of one job in a JSONL file: later
/// lines supersede earlier ones (a re-run after a torn write), mirroring
/// load_results' last-wins dedupe.
struct RecordRef {
  std::size_t job = 0;
  std::uint64_t offset = 0;   // byte offset of the line start
  std::uint32_t length = 0;   // line length excluding '\n'
};

/// Pass 1 of a streaming load: scans `path`, keeping one winning RecordRef
/// per job index (blank and torn trailing lines skipped), and returns the
/// winners sorted by job index. Memory is O(jobs), not O(bytes).
std::vector<RecordRef> scan_result_file(const std::string& path);

/// Streams every winning record of `path` through `fn` in job-index order
/// without materializing more than one JobRecord at a time. Equivalent to
/// iterating load_results(path).
void for_each_result(const std::string& path,
                     const std::function<void(JobRecord&&)>& fn);

/// Loads a JSONL results file: skips blank/torn lines, dedupes by job index
/// (last record wins), returns records sorted by job index.
std::vector<JobRecord> load_results(const std::string& path);

/// Mean of one cell's results, fed one at a time: streaming consumers
/// (campaign export, the serving aggregate cache, CampaignResult's
/// average_cell) fold a cell without materializing every RunResult.
///
/// Every field of mean() is the mean over all results added (counters
/// truncated to integers, vectors and the drop breakdown element-wise, the
/// delay percentiles as the mean of each run's percentile), except:
///   - `scheme`: a cell has one scheme; every result must carry it.
///   - `perf`: left value-initialized (wall-clock and queue counters
///     describe one process's run, not a cell).
class RunAverager {
 public:
  /// Results of one cell must agree on the scheme and the per-node vector
  /// lengths.
  void add(const scenario::RunResult& r);

  std::size_t count() const { return n_; }

  /// Mean over everything added so far; requires count() > 0.
  scenario::RunResult mean() const;

 private:
  std::size_t n_ = 0;
  scenario::Scheme scheme_ = scenario::Scheme::kRcast;
  std::size_t nodes_ = 0;  // per_node_energy_j length
  std::size_t roles_ = 0;  // role_numbers length
  std::vector<double> sums_;  // one per averaged field, in visit order
};

/// One aggregated cell: every seed of one grid point (identified by the
/// seed-excluded cell digest, so extra sweep axes form distinct cells),
/// averaged via RunAverager.
struct AggregateRow {
  std::string cell;  // config_cell_digest shared by the cell's records
  scenario::Scheme scheme = scenario::Scheme::kRcast;
  scenario::RoutingProtocol routing = scenario::RoutingProtocol::kDsr;
  std::size_t nodes = 0;
  std::size_t flows = 0;
  double rate_pps = 0.0;
  double pause_s = 0.0;
  double duration_s = 0.0;
  std::size_t seeds = 0;  // records that contributed (failed jobs missing)
  scenario::RunResult mean;
};

/// Groups records by cell digest (seed excluded) in first-appearance order
/// and averages each group. Input must be job-index-sorted (load_results
/// output qualifies).
std::vector<AggregateRow> aggregate(const std::vector<JobRecord>& records);

/// Incremental form of `aggregate` (which is implemented on top of it): feed
/// job-index-ordered records one at a time; rows() yields the identical
/// first-appearance-ordered AggregateRows without retaining the records.
class AggregateAccumulator {
 public:
  void add(const JobRecord& rec);
  std::size_t records() const { return records_; }
  std::vector<AggregateRow> rows() const;

 private:
  struct Cell {
    AggregateRow row;
    RunAverager acc;
  };
  std::vector<Cell> cells_;                             // first-appearance order
  std::unordered_map<std::string, std::size_t> by_cell_;  // digest -> cells_ idx
  std::size_t records_ = 0;
};

/// Streaming equivalent of aggregate_csv(aggregate(load_results(path))):
/// identical bytes, O(winners) memory.
std::string export_aggregate_csv(const std::string& path);

/// Renders the aggregate table as CSV (header + one row per cell) with
/// fixed formatting; identical inputs produce identical bytes.
std::string aggregate_csv(const std::vector<AggregateRow>& rows);

}  // namespace rcast::campaign
