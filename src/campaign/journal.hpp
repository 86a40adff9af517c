// Crash-safe campaign journal: an append-only, fsync'd record of finished
// jobs. One header line pins the campaign digest (manifest + expansion
// order) and job count; each subsequent line commits one job. A job's
// JSONL result record is written *before* its journal line, so the journal
// line is the commit point — on resume, any result record without a
// matching journal entry is a torn write and is superseded by re-running
// the job (deterministically producing the same bytes).
//
// The format is a line-oriented text file so a half-written trailing line
// (the only state a crash can leave, given append + fsync ordering) is
// detected by the missing newline and discarded.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>

namespace rcast::campaign {

class JournalError : public std::runtime_error {
 public:
  explicit JournalError(const std::string& what) : std::runtime_error(what) {}
};

struct JournalEntry {
  std::size_t job = 0;
  std::string digest;       // config digest of the committed job
  bool ok = false;          // false = job failed (threw / timed out)
  double wall_ms = 0.0;
  std::string error;        // single line, only meaningful when !ok
};

/// Read-only snapshot of a journal file: the header plus every complete
/// committed line at the moment of the read. Unlike Journal::open this never
/// truncates a torn tail or opens the file for append, so it is safe to call
/// on a journal another thread or process is actively writing (the serving
/// daemon's /status polls the journal its runner is writing this way).
struct JournalView {
  std::string campaign_digest;
  std::size_t job_count = 0;
  std::map<std::size_t, JournalEntry> entries;
};

class Journal {
 public:
  /// Opens `path` for appending, creating it (with a header) if absent.
  /// An existing journal must carry the same campaign digest and job count,
  /// otherwise it belongs to a different campaign and opening throws.
  /// Pre-existing committed entries are loaded and available via entries().
  static Journal open(const std::string& path,
                      const std::string& campaign_digest,
                      std::size_t job_count);

  /// Parses `path` read-only (see JournalView). Throws JournalError if the
  /// file is missing or the header is malformed; a torn trailing line is
  /// ignored, not repaired.
  static JournalView load(const std::string& path);

  Journal(Journal&& other) noexcept;
  Journal& operator=(Journal&&) = delete;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;
  ~Journal();

  /// Entries committed before this process opened the journal.
  const std::map<std::size_t, JournalEntry>& entries() const {
    return entries_;
  }

  /// Appends one commit line, flushed to the OS (visible to concurrent
  /// readers) and fsynced: every append is durable before this returns.
  void append(const JournalEntry& e);

  void close();

 private:
  Journal() = default;

  std::FILE* f_ = nullptr;
  std::map<std::size_t, JournalEntry> entries_;
};

}  // namespace rcast::campaign
