// Binary index sidecar over a campaign JSONL results file.
//
// The campaign store answers every lookup by re-parsing the whole JSONL —
// fine for a bench run, linear-scan-slow for a serving daemon fielding
// thousands of queries against a 100k-record store. The sidecar
// (`<results>.jsonl.idx`) holds one fixed-width 80-byte record per JSONL
// line: the line's byte extent plus the two digests (cfg/v2, cell/v2) and
// the classic grid coordinates, so point and cell lookups become a hash
// probe plus one seek instead of a scan.
//
// Format (little-endian, offsets in bytes):
//   header, 16 B:  "rcastidx" | u32 version (1) | u32 record size (80)
//   record, 80 B:   0 u64 job        8 u64 offset    16 u64 cfg_digest
//                  24 u64 cell      32 u32 length    36 u8 scheme
//                  37 u8 routing    38 u8 mobility   39 u8 traffic
//                  40 u32 nodes     44 u32 flows     48 f64 rate_pps
//                  56 f64 pause_s   64 f64 duration  72 u64 seed
//
// Bytes 38/39 were zero padding before the policy-registry split; they now
// carry the mobility/traffic registry ordinals, whose value 0 is the
// pre-split default (rwp / cbr) — old sidecars stay valid unmodified.
//
// Deliberately no record count in the header: the count is derived from the
// file size, so an append crash leaves at worst a torn trailing record that
// the next open truncates — and a rebuild from the JSONL alone reproduces
// the sidecar byte-for-byte (the --reindex test pins this).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "scenario/scenario.hpp"
#include "serving/mapped_file.hpp"

namespace rcast::serving {

class IndexError : public std::runtime_error {
 public:
  explicit IndexError(const std::string& what) : std::runtime_error(what) {}
};

/// One indexed JSONL record. Numeric digests are the FNV-1a values whose
/// `%016llx` renderings appear in the JSONL ("cfg_digest", cell).
struct IndexEntry {
  std::uint64_t job = 0;
  std::uint64_t offset = 0;      // line start in the JSONL
  std::uint64_t cfg_digest = 0;  // seed included (cfg/v2)
  std::uint64_t cell_digest = 0; // seed excluded (cell/v2)
  std::uint32_t length = 0;      // line length excluding '\n'
  std::uint8_t scheme = 0;       // scenario::Scheme
  std::uint8_t routing = 0;      // scenario::RoutingProtocol
  std::uint8_t mobility = 0;     // mobility_models() registry ordinal
  std::uint8_t traffic = 0;      // traffic_patterns() registry ordinal
  std::uint32_t nodes = 0;
  std::uint32_t flows = 0;
  double rate_pps = 0.0;
  double pause_s = 0.0;
  double duration_s = 0.0;
  std::uint64_t seed = 0;
};

/// Parses a 16-hex-digit digest rendering back to its integer value.
std::uint64_t digest_to_u64(std::string_view hex);

class ResultIndex {
 public:
  static std::string sidecar_path(const std::string& jsonl_path) {
    return jsonl_path + ".idx";
  }

  /// Opens the sidecar of `jsonl_path`, creating or repairing it as needed:
  /// a missing/corrupt/stale sidecar is rebuilt from the JSONL, a valid one
  /// is extended with entries for any JSONL bytes appended since it was
  /// written. The result always mirrors the JSONL's current complete lines.
  static ResultIndex open(const std::string& jsonl_path);

  /// Deletes and rebuilds the sidecar from the JSONL alone (--reindex).
  static ResultIndex rebuild(const std::string& jsonl_path);

  /// Entries in JSONL (append) order.
  const std::vector<IndexEntry>& entries() const { return entries_; }

  /// JSONL bytes covered by the index (end of the last indexed line).
  std::uint64_t indexed_bytes() const { return indexed_bytes_; }

  /// Last-appended entry with this cfg digest (point lookup), or nullptr.
  const IndexEntry* find_cfg(std::uint64_t cfg_digest) const;

  /// Every entry of one aggregation cell, in append order.
  std::vector<const IndexEntry*> find_cell(std::uint64_t cell_digest) const;

  /// Absorbs records appended since open()/the last refresh and indexes
  /// them. Returns how many entries were added. The daemon calls this when
  /// it notices journal growth.
  ///
  /// Two sources, tried in order:
  ///  1. The mmapped sidecar — when another process (a campaign writer with
  ///     its own ResultIndex) keeps the sidecar in lockstep with the JSONL,
  ///     new records are adopted straight from the mapping: one fstat, zero
  ///     reads, zero JSON parsing.
  ///  2. The JSONL itself — any complete lines the sidecar does not cover
  ///     yet are parsed and appended to the sidecar, exactly as before.
  std::size_t refresh();

  /// Indexes one record the caller just appended to the JSONL — the
  /// in-process fast path (ResultStore::append returns the extent). The
  /// entry must describe bytes at indexed_bytes().
  void append(const IndexEntry& e);

  const std::string& jsonl_path() const { return jsonl_path_; }

 private:
  ResultIndex() = default;

  void insert_maps(std::size_t entry_idx);
  void append_to_sidecar(const IndexEntry& e);
  std::size_t index_new_lines(bool write_sidecar);
  std::size_t absorb_from_sidecar();

  std::string jsonl_path_;
  std::string idx_path_;
  std::vector<IndexEntry> entries_;
  std::uint64_t indexed_bytes_ = 0;
  /// Lazily-opened read map of the sidecar, used by refresh() to adopt
  /// records an external writer appended without re-reading the file.
  MappedFile sidecar_map_;
  /// True once refresh() has adopted a record it did not write itself:
  /// another process owns the sidecar, so the JSONL fallback must stop
  /// appending records (they would duplicate the writer's).
  bool sidecar_external_ = false;
  std::unordered_map<std::uint64_t, std::size_t> by_cfg_;  // last wins
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_cell_;
};

/// Serializes one entry to its 80-byte on-disk form.
void encode_entry(const IndexEntry& e, unsigned char out[80]);
IndexEntry decode_entry(const unsigned char in[80]);

/// The entry of one stored record: its job index and cfg digest, the config
/// it ran (source of the cell digest and the grid coordinates) and its JSONL
/// extent. The worker's commit hook and the rebuild from JSONL both build
/// entries here, which is what keeps their sidecars byte-identical.
IndexEntry index_entry(std::uint64_t job, std::uint64_t cfg_digest,
                       const scenario::ScenarioConfig& cfg,
                       std::uint64_t offset, std::uint32_t length);

}  // namespace rcast::serving
