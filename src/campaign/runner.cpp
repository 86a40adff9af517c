#include "campaign/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "campaign/journal.hpp"
#include "campaign/result_store.hpp"
#include "sim/simulator.hpp"

namespace rcast::campaign {

namespace {

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

CampaignResult run_campaign(const Manifest& manifest, const RunnerOptions& opt,
                            const scenario::ScenarioConfig& base) {
  CampaignResult cr;
  cr.jobs = expand(manifest, base);
  cr.outcomes.assign(cr.jobs.size(), JobOutcome{});

  std::optional<Journal> journal;
  std::optional<ResultStore> store;
  if (!opt.journal_path.empty()) {
    journal.emplace(Journal::open(opt.journal_path,
                                  campaign_digest(manifest.name, cr.jobs),
                                  cr.jobs.size()));
  }
  if (!opt.results_path.empty()) {
    store.emplace(ResultStore::open_append(opt.results_path));
  }

  // Jobs already committed in the journal are satisfied without re-running;
  // everything else goes on the shared work queue.
  std::vector<std::size_t> pending;
  pending.reserve(cr.jobs.size());
  for (const auto& job : cr.jobs) {
    if (journal) {
      const auto it = journal->entries().find(job.index);
      if (it != journal->entries().end()) {
        // The journal header already pinned the campaign digest, so a
        // per-entry digest mismatch means the file was hand-edited.
        if (it->second.digest != job.digest) {
          throw JournalError("journal entry for job " +
                             std::to_string(job.index) +
                             " does not match the manifest (cfg digest " +
                             it->second.digest + " vs " + job.digest + ")");
        }
        auto& outcome = cr.outcomes[job.index];
        outcome.status = JobStatus::kSkipped;
        outcome.wall_ms = it->second.wall_ms;
        outcome.error = it->second.error;
        ++cr.skipped;
        continue;
      }
    }
    pending.push_back(job.index);
  }

  std::size_t threads = opt.threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads = std::min(threads, std::max<std::size_t>(pending.size(), 1));

  const auto campaign_start = std::chrono::steady_clock::now();
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> started{0};
  std::mutex commit_mu;  // serializes store/journal appends + progress
  std::size_t done_this_run = 0;
  std::uint64_t events_this_run = 0;

  auto worker = [&] {
    for (;;) {
      // Claim under the max_jobs budget: `started` counts claims, so with
      // max_jobs=N exactly the first N pending jobs run, in order.
      if (opt.max_jobs > 0 &&
          started.fetch_add(1) >= opt.max_jobs) {
        return;
      }
      const std::size_t slot = next.fetch_add(1);
      if (slot >= pending.size()) return;
      const std::size_t idx = pending[slot];
      const Job& job = cr.jobs[idx];
      JobOutcome& outcome = cr.outcomes[idx];

      scenario::ScenarioConfig cfg = job.cfg;
      cfg.max_wall_seconds = opt.job_timeout_s;
      const auto t0 = std::chrono::steady_clock::now();
      try {
        scenario::Network net(cfg);
        if (opt.live != nullptr) {
          net.telemetry().subscribe_phy(opt.live);
          net.telemetry().subscribe_mac(opt.live);
          net.telemetry().subscribe_routing(opt.live);
        }
        outcome.result = net.run();
        outcome.status = JobStatus::kOk;
      } catch (const std::exception& e) {
        outcome.status = JobStatus::kFailed;
        outcome.error = e.what();
      }
      outcome.wall_ms = ms_between(t0, std::chrono::steady_clock::now());

      std::lock_guard<std::mutex> lock(commit_mu);
      // Result record first, journal line second: the journal is the commit
      // point, so a crash between the two leaves an orphan record that the
      // loader's last-wins dedupe supersedes after the job re-runs.
      std::optional<AppendExtent> extent;
      if (store && outcome.status == JobStatus::kOk) {
        extent = store->append(job, outcome.result, outcome.wall_ms);
      }
      if (journal) {
        JournalEntry e;
        e.job = job.index;
        e.digest = job.digest;
        e.ok = outcome.status == JobStatus::kOk;
        e.wall_ms = outcome.wall_ms;
        e.error = outcome.error;
        journal->append(e);
      }
      if (opt.live != nullptr) {
        if (outcome.status == JobStatus::kOk) {
          opt.live->mark_job_completed();
        } else {
          opt.live->mark_job_failed();
        }
      }
      if (opt.on_commit) {
        opt.on_commit(job, outcome, extent ? &*extent : nullptr);
      }

      ++done_this_run;
      if (outcome.status == JobStatus::kOk) {
        ++cr.completed;
        events_this_run += outcome.result.perf.events_executed;
      } else {
        ++cr.failed;
      }
      if (opt.progress) {
        const double elapsed_s =
            ms_between(campaign_start, std::chrono::steady_clock::now()) /
            1000.0;
        const std::size_t target =
            opt.max_jobs > 0 ? std::min(opt.max_jobs, pending.size())
                             : pending.size();
        const double eta_s =
            done_this_run > 0
                ? elapsed_s / static_cast<double>(done_this_run) *
                      static_cast<double>(target - done_this_run)
                : 0.0;
        std::fprintf(stderr,
                     "[%zu/%zu] %-32s %s %7.0f ms | %.2fM events/s | eta %.0f s\n",
                     done_this_run, target, job.id.c_str(),
                     outcome.status == JobStatus::kOk ? "ok    " : "FAILED",
                     outcome.wall_ms,
                     elapsed_s > 0.0
                         ? static_cast<double>(events_this_run) / elapsed_s / 1e6
                         : 0.0,
                     eta_s);
        if (outcome.status == JobStatus::kFailed) {
          std::fprintf(stderr, "        error: %s\n", outcome.error.c_str());
        }
      }
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t w = 0; w < threads; ++w) workers.emplace_back(worker);
  for (auto& w : workers) w.join();

  for (const auto& outcome : cr.outcomes) {
    if (outcome.status == JobStatus::kNotRun) ++cr.remaining;
  }
  return cr;
}

}  // namespace rcast::campaign
