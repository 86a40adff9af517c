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
#include "scenario/experiment.hpp"
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

/// The winning (last-written) record of one job across an ordered set of
/// JSONL files: later files — and later lines within a file — supersede
/// earlier ones, mirroring load_results' last-wins dedupe.
struct RecordRef {
  std::size_t job = 0;
  std::size_t file = 0;       // index into the paths passed to the scan
  std::uint64_t offset = 0;   // byte offset of the line start
  std::uint32_t length = 0;   // line length excluding '\n'
};

/// Pass 1 of a streaming load: scans `paths` in order, keeping one winning
/// RecordRef per job index (blank and torn trailing lines skipped), and
/// returns the winners sorted by job index. Memory is O(jobs), not O(bytes).
std::vector<RecordRef> scan_result_files(const std::vector<std::string>& paths);

/// Streams every winning record of `paths` through `fn` in job-index order
/// without materializing more than one JobRecord at a time. Equivalent to
/// iterating load_results(path) when given a single path.
void for_each_result(const std::vector<std::string>& paths,
                     const std::function<void(JobRecord&&)>& fn);

/// Loads a JSONL results file: skips blank/torn lines, dedupes by job index
/// (last record wins), returns records sorted by job index.
std::vector<JobRecord> load_results(const std::string& path);

/// One aggregated cell: every seed of one grid point (identified by the
/// seed-excluded cell digest, so extra sweep axes form distinct cells),
/// averaged via scenario::average.
struct AggregateRow {
  std::string cell;  // config_cell_digest shared by the cell's records
  scenario::Scheme scheme = scenario::Scheme::kRcast;
  scenario::RoutingProtocol routing = scenario::RoutingProtocol::kDsr;
  std::string mobility;  // mobility.model registry name
  std::string traffic;   // traffic.pattern registry name
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
    scenario::RunAverager acc;
  };
  std::vector<Cell> cells_;                             // first-appearance order
  std::unordered_map<std::string, std::size_t> by_cell_;  // digest -> cells_ idx
  std::size_t records_ = 0;
};

/// Streaming equivalent of aggregate_csv(aggregate(load_results(path))) over
/// one or more JSONL files (later files win job-index collisions): identical
/// bytes, O(winners) memory.
std::string export_aggregate_csv(const std::vector<std::string>& paths);

/// Renders the aggregate table as CSV (header + one row per cell) with
/// fixed formatting; identical inputs produce identical bytes.
std::string aggregate_csv(const std::vector<AggregateRow>& rows);

}  // namespace rcast::campaign
