// End-to-end tests of the rcast_campaignd binary: runs whose export is
// byte-identical to an in-process run_campaign over the same layout, resume
// after interruption, after kill -9 and after SIGINT/SIGTERM, HTTP serving
// while a campaign runs, rejection of malformed counts and unknown flags,
// refusal of the retired per-shard layout, read-only export/status/serve,
// and prompt shutdown of /metrics streams. These drive the real executable
// (path injected by CMake) over tiny manifests; the HTTP checks use curl.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/json.hpp"
#include "campaign/manifest.hpp"
#include "campaign/result_store.hpp"
#include "campaign/runner.hpp"

namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("rcast_campaignd_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  static inline int counter_ = 0;
  fs::path path_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Runs a shell command, returning its exit code (-1 on system() failure).
int run(const std::string& cmd) {
  const int rc = std::system(cmd.c_str());
  if (rc == -1) return -1;
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : 128;
}

std::string write_manifest(const TempDir& dir) {
  const std::string path = dir.file("m.txt");
  std::ofstream out(path);
  out << "name = e2e\n"
         "schemes = rcast, odpm\n"
         "routings = dsr\n"
         "rates_pps = 1.0\n"
         "pauses_s = 0\n"
         "nodes = 12\n"
         "flows = 3\n"
         "duration_s = 6\n"
         "seeds = 3\n"
         "world_m = 600x300\n";
  return path;
}

/// `seeds` jobs of about 0.3 s each in a Release build (longer under a
/// sanitizer), so a signal or a kill can land mid-job and HTTP queries land
/// while jobs run.
std::string write_slow_manifest(const TempDir& dir, int seeds = 2) {
  const std::string path = dir.file("slow.txt");
  std::ofstream out(path);
  out << "name = slow\n"
         "schemes = rcast\n"
         "rates_pps = 1.0\n"
         "pauses_s = 0\n"
         "nodes = 30\n"
         "flows = 6\n"
         "duration_s = 300\n"
         "seeds = " << seeds << "\n"
         "world_m = 900x300\n";
  return path;
}

const std::string kDaemon = RCAST_CAMPAIGND_PATH;

/// The reference export for `manifest`: one in-process run_campaign over
/// journal.log + results.jsonl, exported by the result store. That is the
/// daemon's own layout, so the daemon must export it to the same bytes.
std::string reference_csv(const TempDir& dir, const std::string& manifest) {
  namespace campaign = rcast::campaign;
  const std::string out_dir = dir.file("single");
  fs::create_directories(out_dir);
  campaign::RunnerOptions opt;
  opt.threads = 2;
  opt.journal_path = out_dir + "/journal.log";
  opt.results_path = out_dir + "/results.jsonl";
  EXPECT_TRUE(
      campaign::run_campaign(campaign::parse_manifest_file(manifest), opt)
          .all_done());
  const std::string csv = campaign::export_aggregate_csv(opt.results_path);

  const std::string exported = dir.file("single.csv");
  EXPECT_EQ(run(kDaemon + " export " + manifest + " --out=" + out_dir +
                " --csv=" + exported + " 2>/dev/null"),
            0);
  EXPECT_EQ(read_file(exported), csv);
  return csv;
}

/// Starts the daemon with `args` as the leader of a new process group, so a
/// group signal reaches it but not this test, and the group shows whether
/// the daemon left any process behind. Output is discarded. The returned pid
/// is also the group id.
pid_t spawn_daemon(const std::vector<std::string>& args) {
  std::vector<std::string> owned = {kDaemon};
  owned.insert(owned.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : owned) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::setpgid(0, 0);
    const int devnull = ::open("/dev/null", O_WRONLY);
    ::dup2(devnull, STDOUT_FILENO);
    ::dup2(devnull, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::setpgid(pid, pid);  // also here, so the group exists before we signal it
  return pid;
}

/// True once `path` holds a complete line starting with `prefix`, polling
/// for up to `limit`. The journal's header line ("rcast-campaign-journal")
/// shows a run has started; a "done" line shows a job has committed.
bool wait_for_line(const std::string& path, const std::string& prefix,
                   std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < deadline) {
    std::istringstream in(read_file(path));
    for (std::string line; std::getline(in, line) && !in.eof();) {
      if (line.rfind(prefix, 0) == 0) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

/// True when no process is left in the group `pgid`.
bool group_is_empty(pid_t pgid) {
  const int probe = ::kill(-pgid, 0);
  return probe == -1 && errno == ESRCH;
}

/// Reaps `pid`, polling for up to `limit`; its wait status, or -1 if it is
/// still running then.
int wait_for_exit(pid_t pid, std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  for (;;) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) return status;
    if (std::chrono::steady_clock::now() > deadline) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

/// Every file under `dir` (relative name -> bytes).
std::map<std::string, std::string> snapshot_tree(const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    out[fs::relative(entry.path(), dir).string()] =
        entry.is_regular_file() ? read_file(entry.path().string()) : "<dir>";
  }
  return out;
}

/// Starts the daemon with `args` on an ephemeral HTTP port and returns
/// (pid, port); port 0 if the daemon never wrote its port file (the daemon
/// is then killed).
std::pair<pid_t, int> spawn_listening(const TempDir& dir,
                                      std::vector<std::string> args) {
  const std::string port_file = dir.file("port.txt");
  fs::remove(port_file);
  args.push_back("--port=0");
  args.push_back("--port-file=" + port_file);
  const pid_t pid = spawn_daemon(args);
  for (int i = 0; i < 500; ++i) {  // <= 10 s
    std::ifstream in(port_file);
    if (int port = 0; in >> port && port > 0) return {pid, port};
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ::kill(-pid, SIGKILL);
  wait_for_exit(pid, std::chrono::seconds(10));
  return {pid, 0};
}

std::pair<pid_t, int> spawn_serve(const TempDir& dir,
                                  const std::string& manifest,
                                  const std::string& out_dir) {
  return spawn_listening(dir, {"serve", manifest, "--out=" + out_dir});
}

/// GETs `target` from the daemon on `port` with curl: (HTTP status, body).
std::pair<int, std::string> http_get(const TempDir& dir, int port,
                                     const std::string& target) {
  const std::string body = dir.file("body.txt");
  const std::string code = dir.file("code.txt");
  run("curl -s -o " + body + " -w '%{http_code}' 'http://127.0.0.1:" +
      std::to_string(port) + target + "' > " + code);
  std::ifstream in(code);
  int status = 0;
  in >> status;
  return {status, read_file(body)};
}

TEST(Campaignd, ShardedExportByteIdenticalToSingleProcess) {
  TempDir dir;
  const std::string manifest = write_manifest(dir);
  const std::string reference = reference_csv(dir, manifest);
  ASSERT_FALSE(reference.empty());

  // The in-process run's directory is the daemon's layout: resume finds
  // every job committed and runs none.
  EXPECT_EQ(run(kDaemon + " resume " + manifest + " --out=" +
                dir.file("single") + " --quiet 2>/dev/null"),
            0);
  EXPECT_EQ(run(kDaemon + " export " + manifest + " --out=" +
                dir.file("single") + " 2>/dev/null | cmp -s - " +
                dir.file("single.csv")),
            0);

  // One simulator thread or several: the same bytes, in the same layout.
  for (const char* threads : {"1", "3"}) {
    SCOPED_TRACE(std::string("--threads=") + threads);
    const std::string out_dir = dir.file(std::string("run") + threads);
    ASSERT_EQ(run(kDaemon + " run " + manifest + " --out=" + out_dir +
                  " --threads=" + threads + " --quiet 2>/dev/null"),
              0);
    const std::string csv = out_dir + ".csv";
    ASSERT_EQ(run(kDaemon + " export " + manifest + " --out=" + out_dir +
                  " --csv=" + csv + " 2>/dev/null"),
              0);
    EXPECT_EQ(read_file(csv), reference);

    // The store is the JSONL alone: no index file, one file per role.
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(out_dir)) {
      names.push_back(entry.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names, (std::vector<std::string>{"journal.log", "metrics.json",
                                               "results.jsonl"}));
  }
}

TEST(Campaignd, InterruptedRunResumesByteIdentical) {
  TempDir dir;
  const std::string manifest = write_manifest(dir);
  const std::string reference = reference_csv(dir, manifest);

  const std::string out_dir = dir.file("interrupted");
  // --max-jobs=2: the run stops claiming after two new jobs — a
  // deterministic mid-campaign interruption.
  ASSERT_EQ(run(kDaemon + " run " + manifest + " --out=" + out_dir +
                " --threads=1 --max-jobs=2 --quiet 2>/dev/null"),
            0);
  ASSERT_EQ(run(kDaemon + " resume " + manifest + " --out=" + out_dir +
                " --threads=2 --quiet 2>/dev/null"),
            0);
  const std::string csv = dir.file("resumed.csv");
  ASSERT_EQ(run(kDaemon + " export " + manifest + " --out=" + out_dir +
                " --csv=" + csv + " 2>/dev/null"),
            0);
  EXPECT_EQ(read_file(csv), reference);
}

// Ctrl-C (SIGINT to the process group) and SIGINT/SIGTERM to the daemon
// alone each stop a run promptly, mid-job, with exit 128 + signal and no
// process left behind, and `resume` then finishes the campaign with the
// reference bytes. Each stop gets its own directory: the journal header
// shows that its run has started.
TEST(Campaignd, SignalsStopDaemonAndWorkersThenResumeFinishes) {
  TempDir dir;
  const std::string manifest = write_slow_manifest(dir);
  const std::string reference = reference_csv(dir, manifest);

  const struct {
    int sig;
    bool group;
  } kStops[] = {{SIGTERM, false}, {SIGINT, false}, {SIGINT, true}};
  for (const auto& stop : kStops) {
    SCOPED_TRACE(std::string(strsignal(stop.sig)) +
                 (stop.group ? " to the group" : " to the daemon"));
    const std::string out_dir = dir.file("signalled" +
                                         std::to_string(stop.sig) +
                                         (stop.group ? "g" : ""));
    const pid_t pid = spawn_daemon(
        {"run", manifest, "--out=" + out_dir, "--threads=1", "--quiet"});
    const auto kill_group = [pid] {
      ::kill(-pid, SIGKILL);
      wait_for_exit(pid, std::chrono::seconds(10));
    };
    // The header is written when the runner opens the journal, just before
    // it claims its first job.
    if (!wait_for_line(out_dir + "/journal.log", "rcast-campaign-journal",
                       std::chrono::seconds(10))) {
      kill_group();
      FAIL() << "the run never opened its journal";
    }
    ASSERT_EQ(::kill(stop.group ? -pid : pid, stop.sig), 0);
    const auto t0 = std::chrono::steady_clock::now();
    const int status = wait_for_exit(pid, std::chrono::seconds(10));
    if (status == -1) {
      kill_group();
      FAIL() << "daemon still running 10 s after the signal";
    }
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2));
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 128 + stop.sig);
    EXPECT_TRUE(group_is_empty(pid));

    ASSERT_EQ(run(kDaemon + " resume " + manifest + " --out=" + out_dir +
                  " --threads=2 --quiet 2>/dev/null"),
              0);
    const std::string csv = out_dir + ".csv";
    ASSERT_EQ(run(kDaemon + " export " + manifest + " --out=" + out_dir +
                  " --csv=" + csv + " 2>/dev/null"),
              0);
    EXPECT_EQ(read_file(csv), reference);
  }
}

// Counts are validated, and flags checked against the ones the subcommand
// reads, before anything touches --out: misspelt flags (--thread) and the
// retired worker-fleet flags exit 2 instead of being ignored.
TEST(Campaignd, MalformedCountsExitBeforeTouchingOut) {
  TempDir dir;
  const std::string manifest = write_manifest(dir);
  const std::string out_dir = dir.file("untouched");
  fs::create_directories(out_dir);
  for (const char* bad :
       {"--threads=-1", "--max-jobs=1.5", "--http-threads=0", "--port=65536",
        "--timeout-s=-1", "--shards=2", "--shard=0", "--max-respawns=5",
        "--thread=2"}) {
    for (const char* cmd : {"run", "export", "serve", "status"}) {
      // timeout: a regression must fail the test, not hang it.
      EXPECT_EQ(run("timeout -k 5 60 " + kDaemon + " " + cmd + " " +
                    manifest + " --out=" + out_dir + " " + bad +
                    " 2>/dev/null"),
                2)
          << cmd << " " << bad;
    }
  }
  // A well-formed flag of another subcommand is unknown here too.
  for (const auto& [cmd, flag] :
       {std::pair<const char*, const char*>{"run", "--csv=x.csv"},
        {"export", "--threads=2"},
        {"serve", "--max-jobs=1"},
        {"status", "--port=0"}}) {
    EXPECT_EQ(run("timeout -k 5 60 " + kDaemon + " " + cmd + " " + manifest +
                  " --out=" + out_dir + " " + flag + " 2>/dev/null"),
              2)
        << cmd << " " << flag;
  }
  EXPECT_TRUE(fs::is_empty(out_dir));
}

// Expansion writes the manifest's own scalars into every job, so a --set
// of a parameter a manifest key owns would be silently lost: it exits 2
// before anything is written.
TEST(Campaignd, SetOfManifestOwnedParamExitsBeforeTouchingOut) {
  TempDir dir;
  const std::string manifest = write_manifest(dir);
  const std::string out_dir = dir.file("never_created");
  for (const char* set : {"--set duration_s=3", "--set battery_j=50",
                          "--set world.width_m=400"}) {
    EXPECT_EQ(run("timeout -k 5 60 " + kDaemon + " run " + manifest +
                  " --out=" + out_dir + " " + set + " 2>/dev/null"),
              2)
        << set;
  }
  EXPECT_FALSE(fs::exists(out_dir));
}

// kill -9 of `run` itself once a job has committed: no process is left
// behind to race the resume, and resume finishes with the reference bytes.
TEST(Campaignd, KilledRunResumesByteIdentical) {
  TempDir dir;
  const std::string manifest = write_slow_manifest(dir);
  const std::string reference = reference_csv(dir, manifest);

  const std::string out_dir = dir.file("killed");
  const pid_t pid = spawn_daemon(
      {"run", manifest, "--out=" + out_dir, "--threads=1", "--quiet"});
  const bool committed = wait_for_line(out_dir + "/journal.log", "done",
                                       std::chrono::seconds(30));
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  const int status = wait_for_exit(pid, std::chrono::seconds(10));
  if (status == -1) {
    ::kill(-pid, SIGKILL);
    wait_for_exit(pid, std::chrono::seconds(10));
    FAIL() << "daemon survived SIGKILL";
  }
  ASSERT_TRUE(committed) << "no job committed within 30 s";
  EXPECT_TRUE(WIFSIGNALED(status));
  EXPECT_TRUE(group_is_empty(pid));

  ASSERT_EQ(run(kDaemon + " resume " + manifest + " --out=" + out_dir +
                " --threads=1 --quiet 2>/dev/null"),
            0);
  const std::string csv = dir.file("killed.csv");
  ASSERT_EQ(run(kDaemon + " export " + manifest + " --out=" + out_dir +
                " --csv=" + csv + " 2>/dev/null"),
            0);
  EXPECT_EQ(read_file(csv), reference);
}

// `run --port` serves /status, /aggregate and /metrics while its jobs run,
// and after the run (--serve-after) its /aggregate equals `export`.
TEST(Campaignd, RunServesWhileCampaignRuns) {
  TempDir dir;
  const std::string manifest = write_slow_manifest(dir, /*seeds=*/4);
  const std::string out_dir = dir.file("served");
  const auto [pid, port] = spawn_listening(
      dir, {"run", manifest, "--out=" + out_dir, "--threads=2",
            "--serve-after", "--quiet"});
  ASSERT_GT(port, 0) << "run never bound its port";
  // However the test ends, no daemon is left serving.
  struct KillGroupOnExit {
    pid_t pgid;
    ~KillGroupOnExit() {
      if (::kill(-pgid, SIGKILL) == 0) {
        wait_for_exit(pgid, std::chrono::seconds(10));
      }
    }
  } guard{pid};
  const auto done_jobs = [&] {
    const auto [status, body] = http_get(dir, port, "/status");
    EXPECT_EQ(status, 200) << body;
    const auto v = rcast::campaign::json::parse(body);
    EXPECT_EQ(v.at("jobs").as_u64(), 4u) << body;
    return v.at("done").as_u64();
  };

  // The port is bound before the first job starts, and each job takes
  // about 0.3 s: these queries land while jobs run.
  EXPECT_LT(done_jobs(), 4u);
  EXPECT_EQ(http_get(dir, port, "/aggregate").first, 200);
  const auto [metrics_status, metrics] =
      http_get(dir, port, "/metrics?watch=1");
  EXPECT_EQ(metrics_status, 200);
  EXPECT_NE(metrics.find("\"jobs_completed\":"), std::string::npos) << metrics;

  for (int i = 0; i < 600 && done_jobs() < 4; ++i) {  // <= 60 s
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  ASSERT_EQ(done_jobs(), 4u);
  const std::string csv = dir.file("served.csv");
  ASSERT_EQ(run(kDaemon + " export " + manifest + " --out=" + out_dir +
                " --csv=" + csv + " 2>/dev/null"),
            0);
  const std::string exported = read_file(csv);
  std::pair<int, std::string> served;
  for (int i = 0; i < 50; ++i) {  // the index refreshes at most every 200 ms
    served = http_get(dir, port, "/aggregate");
    if (served.second == exported) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_EQ(served, std::make_pair(200, exported));

  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  const int status = wait_for_exit(pid, std::chrono::seconds(10));
  ASSERT_NE(status, -1) << "daemon still serving 10 s after SIGTERM";
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_TRUE(group_is_empty(pid));
}

// A directory in the per-shard layout that `run` wrote while it forked
// worker processes is refused by every subcommand, which names the file
// and leaves the directory as it was. After the merge the message names,
// export gives the reference bytes.
TEST(Campaignd, ShardLayoutIsRefusedUntilMerged) {
  TempDir dir;
  const std::string manifest = write_manifest(dir);
  const std::string reference = reference_csv(dir, manifest);

  // Split the reference store as two workers would have written it.
  const std::string old_dir = dir.file("old");
  fs::create_directories(old_dir);
  {
    std::ofstream shard[2] = {
        std::ofstream(old_dir + "/results.shard0.jsonl", std::ios::binary),
        std::ofstream(old_dir + "/results.shard1.jsonl", std::ios::binary)};
    std::istringstream in(read_file(dir.file("single/results.jsonl")));
    for (std::string line; std::getline(in, line);) {
      shard[rcast::campaign::scan_result_job(line) % 2] << line << '\n';
    }
  }
  // A journal alone marks the layout too.
  const std::string journal_only = dir.file("journal_only");
  fs::create_directories(journal_only);
  fs::copy_file(dir.file("single/journal.log"),
                journal_only + "/journal.shard0.log");

  for (const auto& [out_dir, file] :
       {std::pair<std::string, std::string>{old_dir, "results.shard0.jsonl"},
        {journal_only, "journal.shard0.log"}}) {
    const auto before = snapshot_tree(out_dir);
    for (const char* cmd : {"run", "resume", "serve", "export", "status"}) {
      const std::string err = dir.file("err.txt");
      EXPECT_EQ(run("timeout -k 5 60 " + kDaemon + " " + cmd + " " +
                    manifest + " --out=" + out_dir + " 2>" + err +
                    " >/dev/null"),
                2)
          << cmd << " " << out_dir;
      EXPECT_NE(read_file(err).find(out_dir + "/" + file), std::string::npos)
          << cmd << ": " << read_file(err);
      EXPECT_NE(read_file(err).find("cat results.shard*.jsonl > results.jsonl"),
                std::string::npos)
          << cmd << ": " << read_file(err);
    }
    EXPECT_EQ(snapshot_tree(out_dir), before);
  }

  ASSERT_EQ(run("cd " + old_dir +
                " && cat results.shard*.jsonl > results.jsonl"
                " && rm results.shard*.jsonl"),
            0);
  const std::string csv = dir.file("merged.csv");
  ASSERT_EQ(run(kDaemon + " export " + manifest + " --out=" + old_dir +
                " --csv=" + csv + " 2>/dev/null"),
            0);
  EXPECT_EQ(read_file(csv), reference);
}

TEST(Campaignd, StatusReportsShardProgress) {
  TempDir dir;
  const std::string manifest = write_manifest(dir);
  const std::string out_dir = dir.file("status");
  ASSERT_EQ(run(kDaemon + " run " + manifest + " --out=" + out_dir +
                " --threads=2 --quiet 2>/dev/null"),
            0);
  const std::string out_file = dir.file("status.txt");
  ASSERT_EQ(run(kDaemon + " status " + manifest + " --out=" + out_dir +
                " > " + out_file + " 2>/dev/null"),
            0);
  EXPECT_EQ(read_file(out_file),
            "campaign 'e2e': 6 jobs\ntotal: 6/6 done (6 ok, 0 failed)\n");

  // Journal indices name jobs of the campaign that wrote them: other --set
  // flags expand to other jobs, so status refuses instead of miscounting.
  const std::string err_file = dir.file("status.err");
  EXPECT_EQ(run(kDaemon + " status " + manifest + " --out=" + out_dir +
                " --set mac.atim_window_ms=25 >/dev/null 2>" + err_file),
            1);
  EXPECT_NE(read_file(err_file).find("belongs to a different campaign"),
            std::string::npos)
      << read_file(err_file);
}

// export, status and serve (with a query) leave --out byte-for-byte as they
// found it: no index files, no empty files. An export of a directory with
// no store fails, names the file and creates nothing.
TEST(Campaignd, ExportStatusServeWriteNothingUnderOut) {
  TempDir dir;
  const std::string manifest = write_manifest(dir);
  const std::string out_dir = dir.file("store");
  ASSERT_EQ(run(kDaemon + " run " + manifest + " --out=" + out_dir +
                " --threads=2 --quiet 2>/dev/null"),
            0);
  const auto before = snapshot_tree(out_dir);

  const std::string csv = dir.file("export.csv");
  ASSERT_EQ(run(kDaemon + " export " + manifest + " --out=" + out_dir +
                " --csv=" + csv + " 2>/dev/null"),
            0);
  ASSERT_EQ(run(kDaemon + " status " + manifest + " --out=" + out_dir +
                " >/dev/null 2>&1"),
            0);
  const std::string err = dir.file("export.err");
  const std::string missing = dir.file("missing");
  EXPECT_EQ(run(kDaemon + " export " + manifest + " --out=" + missing +
                " >/dev/null 2>" + err),
            2);
  EXPECT_NE(read_file(err).find(missing + "/results.jsonl"), std::string::npos)
      << read_file(err);
  EXPECT_FALSE(fs::exists(missing));

  const auto [pid, port] = spawn_serve(dir, manifest, out_dir);
  ASSERT_GT(port, 0) << "serve never bound its port";
  const auto [status, body] = http_get(dir, port, "/aggregate");
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, read_file(csv));

  // Grid filters: a scheme selects exactly its row of the export; unknown
  // schemes get power.scheme's own message; the retired mobility/traffic
  // keys and a repeated key are rejected.
  const std::string exported = read_file(csv);
  const std::size_t row = exported.find("\nRCAST,") + 1;
  ASSERT_NE(row, 0u) << exported;
  const std::string rcast_only =
      exported.substr(0, exported.find('\n') + 1) +
      exported.substr(row, exported.find('\n', row) + 1 - row);
  EXPECT_EQ(http_get(dir, port, "/aggregate?scheme=rcast"),
            std::make_pair(200, rcast_only));
  const auto [bogus_status, bogus] =
      http_get(dir, port, "/aggregate?scheme=bogus");
  EXPECT_EQ(bogus_status, 400);
  EXPECT_NE(bogus.find("power.scheme: unknown token (got 'bogus'; expected "
                       "80211|PSM-NONE|PSM-ALL|ODPM|RCAST|RCAST-BC)"),
            std::string::npos)
      << bogus;
  EXPECT_EQ(http_get(dir, port, "/aggregate?mobility.model=rwp").first, 400);
  EXPECT_EQ(http_get(dir, port, "/aggregate?scheme=rcast&scheme=odpm").first,
            400);
  ::kill(pid, SIGTERM);
  EXPECT_NE(wait_for_exit(pid, std::chrono::seconds(10)), -1);

  EXPECT_EQ(snapshot_tree(out_dir), before);
  // The retired index and worker subcommands are unknown ones now.
  for (const char* retired : {"reindex", "worker"}) {
    EXPECT_EQ(run(kDaemon + " " + retired + " " + manifest + " --out=" +
                  out_dir + " 2>/dev/null"),
              2)
        << retired;
  }
}

// /metrics validates its stream parameters, and a long-interval stream does
// not hold up a SIGTERM'd serve: the stream sleeps in short slices that
// check the stop flag.
TEST(Campaignd, MetricsStreamStopsPromptlyOnSigterm) {
  TempDir dir;
  const std::string manifest = write_manifest(dir);
  const std::string out_dir = dir.file("store");
  ASSERT_EQ(run(kDaemon + " run " + manifest + " --out=" + out_dir +
                " --threads=1 --quiet 2>/dev/null"),
            0);
  const auto [pid, port] = spawn_serve(dir, manifest, out_dir);
  ASSERT_GT(port, 0) << "serve never bound its port";

  // serve reads the counters the run left in metrics.json.
  const auto [metrics_status, metrics] =
      http_get(dir, port, "/metrics?watch=1&interval-ms=1");
  EXPECT_EQ(metrics_status, 200);
  EXPECT_NE(metrics.find("\"jobs_completed\":6,"), std::string::npos)
      << metrics;
  EXPECT_EQ(http_get(dir, port, "/metrics?watch=abc").first, 400);
  EXPECT_EQ(http_get(dir, port, "/metrics?interval-ms=-5").first, 400);
  EXPECT_EQ(http_get(dir, port, "/metrics?interval-ms=86400001").first, 400);

  // Open a two-chunk stream 20 s apart; once its first chunk has arrived,
  // the stream is asleep inside its interval.
  const std::string stream = dir.file("stream.txt");
  run("curl -sN 'http://127.0.0.1:" + std::to_string(port) +
      "/metrics?watch=2&interval-ms=20000' > " + stream + " 2>/dev/null &");
  for (int i = 0; i < 500 && read_file(stream).empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_FALSE(read_file(stream).empty()) << "stream never started";

  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  const auto t0 = std::chrono::steady_clock::now();
  const int status = wait_for_exit(pid, std::chrono::seconds(10));
  if (status == -1) {
    ::kill(-pid, SIGKILL);
    wait_for_exit(pid, std::chrono::seconds(10));
    FAIL() << "serve still running 10 s after SIGTERM";
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2));
  EXPECT_TRUE(WIFEXITED(status));
}

}  // namespace
