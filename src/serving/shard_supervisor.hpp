// Worker-shard supervisor: forks one process per shard and babysits the
// fleet until every shard has exited normally or the caller asks it to stop.
//
// The recovery model leans entirely on the campaign journal: a worker is an
// idempotent, resumable unit of work, so when one dies to a signal (kill
// -9, OOM, segfault) the supervisor simply re-execs the same argv and the
// new process resumes from its shard journal — re-running at most the jobs
// whose commit lines were lost, whose re-produced records the store's
// last-wins dedupe absorbs. Exports stay byte-identical either way.
//
// fork() is followed immediately by execv() (no allocation or locking in
// the child), so the supervisor is safe to run alongside the daemon's HTTP
// worker threads.
#pragma once

#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include <sys/types.h>

namespace rcast::serving {

struct WorkerStatus {
  pid_t pid = -1;        // current (or last) pid; -1 before first spawn
  bool running = false;
  int respawns = 0;      // signal-death recoveries so far
  int exit_code = -1;    // valid once !running and exited normally
  bool gave_up = false;  // died to a signal more than max_respawns times
};

class ShardSupervisor {
 public:
  /// `max_respawns`: how many signal deaths each worker may survive before
  /// the supervisor gives up on it (normal nonzero exits are never
  /// respawned — a worker that *fails* is distinct from one that was
  /// *killed*).
  explicit ShardSupervisor(int max_respawns = 5)
      : max_respawns_(max_respawns) {}

  /// Spawns one process per argv (argv[0] is the program path). Throws
  /// std::runtime_error if any fork/exec fails outright.
  void start(const std::vector<std::vector<std::string>>& argvs);

  /// Blocks until every worker has exited normally or been given up on.
  /// Returns true iff all workers exited with status 0.
  ///
  /// Polls `stop_requested` while waiting (every ~20 ms): once it returns
  /// true, every running worker gets SIGTERM, none is respawned — not even
  /// one that died to the same Ctrl-C — and the call returns false as soon
  /// as the last worker is reaped.
  bool wait_all(const std::function<bool()>& stop_requested);

  /// Point-in-time fleet view (safe from other threads, e.g. /status).
  std::vector<WorkerStatus> status() const;

 private:
  pid_t spawn(const std::vector<std::string>& argv);

  int max_respawns_ = 5;
  mutable std::mutex mu_;
  std::vector<std::vector<std::string>> argvs_;
  std::vector<WorkerStatus> workers_;
};

}  // namespace rcast::serving
