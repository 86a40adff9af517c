// Campaign runner: executes an expanded job list on a work-stealing worker
// pool (one independent Simulator per job, so each worker thread owns its
// run's pools and allocation counters), with per-job wall-clock timeouts,
// failure capture (a throwing job is recorded as failed, never fatal to the
// campaign), crash-safe journaling, JSONL result persistence, and live
// progress/ETA reporting fed by each run's PerfCounters. It is the only
// multi-run path: the bench binaries and examples run their grids here too.
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "campaign/manifest.hpp"
#include "campaign/result_store.hpp"  // AppendExtent, RunAverager
#include "scenario/scenario.hpp"
#include "stats/live_counters.hpp"

namespace rcast::campaign {

struct JobOutcome;

struct RunnerOptions {
  /// Worker threads; 0 = hardware concurrency (capped at the job count).
  std::size_t threads = 0;
  /// Per-job wall-clock budget in seconds; 0 = unlimited. A job that blows
  /// the budget is recorded as failed with a timeout error.
  double job_timeout_s = 0.0;
  /// Journal path; empty disables checkpointing (pure in-memory campaign,
  /// what the bench binaries use).
  std::string journal_path;
  /// JSONL results path; empty disables persistence.
  std::string results_path;
  /// Stop claiming new jobs once this many have been *newly* run this
  /// process (journal-skipped jobs don't count); 0 = no limit. Used by
  /// tests and CI to interrupt a campaign at a deterministic point.
  std::size_t max_jobs = 0;
  /// Progress/ETA lines on stderr after each job completes.
  bool progress = false;
  /// Called under the commit lock after each newly-run job is persisted
  /// (result record + journal line). `extent` locates the job's JSONL record
  /// in the results file, or is nullptr when no results file is configured
  /// or the job failed. The daemon rewrites its metrics.json snapshot here.
  std::function<void(const Job&, const JobOutcome&, const AppendExtent*)>
      on_commit;
  /// When set, subscribed to every job's telemetry bus (phy + mac + routing)
  /// for the duration of the run and marked on each completion/failure —
  /// the live feed behind the daemon's /metrics endpoint. Must outlive the
  /// run_campaign call.
  stats::LiveCounters* live = nullptr;
};

enum class JobStatus {
  kOk,         // ran this process, result available
  kFailed,     // ran this process, threw or timed out
  kSkipped,    // already committed in the journal — not re-run
  kNotRun,     // never claimed (max_jobs cutoff hit first)
};

struct JobOutcome {
  JobStatus status = JobStatus::kNotRun;
  double wall_ms = 0.0;
  std::string error;            // only for kFailed (or a journaled failure)
  scenario::RunResult result;   // only valid when status == kOk
};

struct CampaignResult {
  std::vector<Job> jobs;
  std::vector<JobOutcome> outcomes;  // parallel to jobs

  std::size_t completed = 0;  // newly run OK this process
  std::size_t failed = 0;     // newly run, threw/timed out
  std::size_t skipped = 0;    // satisfied from the journal
  std::size_t remaining = 0;  // not run (max_jobs cutoff)

  bool all_done() const { return remaining == 0 && failed == 0; }

  /// Mean (RunAverager) over every in-memory OK result whose config
  /// satisfies `pred`, folded in job order (seed-ascending within a cell).
  /// Throws if no job matches.
  template <typename Pred>
  scenario::RunResult average_cell(Pred&& pred) const {
    RunAverager acc;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (outcomes[i].status == JobStatus::kOk && pred(jobs[i].cfg)) {
        acc.add(outcomes[i].result);
      }
    }
    return acc.mean();
  }
};

/// Expands `manifest` over `base` and runs it per `opt`. With a journal
/// configured, committed jobs are skipped and new completions are appended
/// — calling this again after an interruption *is* the resume path.
CampaignResult run_campaign(const Manifest& manifest, const RunnerOptions& opt,
                            const scenario::ScenarioConfig& base = {});

}  // namespace rcast::campaign
