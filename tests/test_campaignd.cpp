// End-to-end tests of the rcast_campaignd binary: sharded runs whose merged
// export is byte-identical to an in-process single-journal run, resume after
// interruption, after kill -9 and after SIGINT/SIGTERM, rejection of
// malformed counts, read-only export/status/serve, and prompt shutdown of
// /metrics streams. These drive the real executable (path injected by CMake)
// over tiny manifests; the HTTP checks use curl.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

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

const std::string kDaemon = RCAST_CAMPAIGND_PATH;

/// The reference export for `manifest`: one in-process run_campaign over a
/// single journal.log + results.jsonl, exported by the result store. The
/// daemon must export that single-process directory to the same bytes, so
/// directories in this layout stay readable.
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
  const std::string csv = campaign::export_aggregate_csv({opt.results_path});

  const std::string exported = dir.file("single.csv");
  EXPECT_EQ(run(kDaemon + " export " + manifest + " --out=" + out_dir +
                " --csv=" + exported + " 2>/dev/null"),
            0);
  EXPECT_EQ(read_file(exported), csv);
  return csv;
}

/// Starts the daemon with `args` as the leader of a new process group, so a
/// group signal reaches it and its workers but not this test. Output is
/// discarded. The returned pid is also the group id.
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

/// True once the daemon `pid` has a child that exec'd as a worker (its
/// cmdline starts "/proc/self/exe\0worker"), polling for up to `limit`.
bool wait_for_worker(pid_t pid, std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < deadline) {
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator("/proc", ec)) {
      // /proc/<pid>/stat: "pid (comm) state ppid ..."; comm may hold spaces.
      const std::string stat = read_file(entry.path() / "stat");
      const auto paren = stat.rfind(')');
      if (paren == std::string::npos) continue;
      std::istringstream fields(stat.substr(paren + 1));
      std::string state;
      pid_t ppid = 0;
      if (!(fields >> state >> ppid) || ppid != pid) continue;
      const std::string cmdline = read_file(entry.path() / "cmdline");
      if (cmdline.find(std::string("\0worker\0", 8)) != std::string::npos) {
        return true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
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

/// Starts `serve` on an ephemeral port and returns (pid, port); port 0 if
/// the daemon never wrote its port file (the daemon is then killed).
std::pair<pid_t, int> spawn_serve(const TempDir& dir,
                                  const std::string& manifest,
                                  const std::string& out_dir) {
  const std::string port_file = dir.file("port.txt");
  fs::remove(port_file);
  const pid_t pid = spawn_daemon({"serve", manifest, "--out=" + out_dir,
                                  "--port=0", "--port-file=" + port_file});
  for (int i = 0; i < 500; ++i) {  // <= 10 s
    std::ifstream in(port_file);
    if (int port = 0; in >> port && port > 0) return {pid, port};
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ::kill(-pid, SIGKILL);
  wait_for_exit(pid, std::chrono::seconds(10));
  return {pid, 0};
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

  // The single-journal directory is read-only to the daemon: shard workers
  // would ignore journal.log and re-run every job in it.
  for (const char* cmd : {"run", "resume"}) {
    EXPECT_EQ(run(kDaemon + " " + cmd + " " + manifest + " --out=" +
                  dir.file("single") + " --shards=1 --quiet 2>/dev/null"),
              2)
        << cmd;
  }
  EXPECT_FALSE(fs::exists(dir.file("single/journal.shard0.log")));

  const std::string out_dir = dir.file("sharded");
  ASSERT_EQ(run(kDaemon + " run " + manifest + " --out=" + out_dir +
                " --shards=3 --threads=1 --quiet 2>/dev/null"),
            0);
  const std::string csv = dir.file("sharded.csv");
  ASSERT_EQ(run(kDaemon + " export " + manifest + " --out=" + out_dir +
                " --csv=" + csv + " 2>/dev/null"),
            0);
  EXPECT_EQ(read_file(csv), reference);

  // The store is the JSONL alone: no index file beside any shard.
  for (const auto& entry : fs::directory_iterator(out_dir)) {
    EXPECT_NE(entry.path().extension(), ".idx") << entry.path();
  }
}

TEST(Campaignd, InterruptedRunResumesByteIdentical) {
  TempDir dir;
  const std::string manifest = write_manifest(dir);
  const std::string reference = reference_csv(dir, manifest);

  const std::string out_dir = dir.file("interrupted");
  // --max-jobs=1: each worker stops after one new job — a deterministic
  // mid-campaign interruption.
  ASSERT_EQ(run(kDaemon + " run " + manifest + " --out=" + out_dir +
                " --shards=2 --threads=1 --max-jobs=1 --quiet 2>/dev/null"),
            0);
  ASSERT_EQ(run(kDaemon + " resume " + manifest + " --out=" + out_dir +
                " --shards=2 --threads=1 --quiet 2>/dev/null"),
            0);
  const std::string csv = dir.file("resumed.csv");
  ASSERT_EQ(run(kDaemon + " export " + manifest + " --out=" + out_dir +
                " --csv=" + csv + " 2>/dev/null"),
            0);
  EXPECT_EQ(read_file(csv), reference);
}

// Ctrl-C (SIGINT to the process group) and SIGINT/SIGTERM to the daemon
// alone each stop the daemon and every worker promptly with a nonzero exit;
// the workers are not respawned, and `resume` then finishes the campaign
// with the reference bytes.
TEST(Campaignd, SignalsStopDaemonAndWorkersThenResumeFinishes) {
  TempDir dir;
  // Two jobs of about a second each, so every signal lands mid-job.
  const std::string manifest = dir.file("slow.txt");
  {
    std::ofstream out(manifest);
    out << "name = slow\n"
           "schemes = rcast\n"
           "rates_pps = 1.0\n"
           "pauses_s = 0\n"
           "nodes = 30\n"
           "flows = 6\n"
           "duration_s = 600\n"
           "seeds = 2\n"
           "world_m = 900x300\n";
  }
  const std::string reference = reference_csv(dir, manifest);
  const std::string out_dir = dir.file("signalled");

  const struct {
    int sig;
    bool group;
  } kStops[] = {{SIGTERM, false}, {SIGINT, false}, {SIGINT, true}};
  const char* cmd = "run";
  for (const auto& stop : kStops) {
    SCOPED_TRACE(std::string(strsignal(stop.sig)) +
                 (stop.group ? " to the group" : " to the daemon"));
    const pid_t pid = spawn_daemon({cmd, manifest, "--out=" + out_dir,
                                    "--shards=1", "--threads=1", "--quiet"});
    cmd = "resume";
    const auto kill_group = [pid] {
      ::kill(-pid, SIGKILL);
      wait_for_exit(pid, std::chrono::seconds(10));
    };
    if (!wait_for_worker(pid, std::chrono::seconds(10))) {
      kill_group();
      FAIL() << "no worker started";
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
    // The daemon reaped every worker before exiting: the group is empty.
    const int probe = ::kill(-pid, 0);
    const int probe_errno = errno;
    EXPECT_EQ(probe, -1);
    EXPECT_EQ(probe_errno, ESRCH);
  }

  ASSERT_EQ(run(kDaemon + " resume " + manifest + " --out=" + out_dir +
                " --shards=1 --threads=1 --quiet 2>/dev/null"),
            0);
  const std::string csv = dir.file("signalled.csv");
  ASSERT_EQ(run(kDaemon + " export " + manifest + " --out=" + out_dir +
                " --csv=" + csv + " 2>/dev/null"),
            0);
  EXPECT_EQ(read_file(csv), reference);
}

// Counts are validated before anything touches --out: a sign-wrapped
// --shards=-1 would make export create results.shard<k>.jsonl files for k
// up to 2^64.
TEST(Campaignd, MalformedCountsExitBeforeTouchingOut) {
  TempDir dir;
  const std::string manifest = write_manifest(dir);
  const std::string out_dir = dir.file("untouched");
  fs::create_directories(out_dir);
  for (const char* bad :
       {"--shards=-1", "--shards=2x", "--shard=-1", "--threads=-1",
        "--max-jobs=1.5", "--max-respawns=-1", "--http-threads=0",
        "--port=65536", "--timeout-s=-1"}) {
    for (const char* cmd : {"run", "export", "serve", "status"}) {
      // timeout: a regression must fail the test, not hang it.
      EXPECT_EQ(run("timeout -k 5 60 " + kDaemon + " " + cmd + " " +
                    manifest + " --out=" + out_dir + " " + bad +
                    " 2>/dev/null"),
                2)
          << cmd << " " << bad;
    }
  }
  EXPECT_TRUE(fs::is_empty(out_dir));
}

TEST(Campaignd, KilledWorkerResumesByteIdentical) {
  TempDir dir;
  const std::string manifest = write_manifest(dir);
  const std::string reference = reference_csv(dir, manifest);

  // Start one worker shard directly in the background, kill -9 it as soon
  // as its journal shows progress, then resume the whole fleet.
  const std::string out_dir = dir.file("killed");
  fs::create_directories(out_dir);
  const std::string pid_file = dir.file("worker.pid");
  ASSERT_EQ(run(kDaemon + " worker " + manifest + " --out=" + out_dir +
                " --shards=1 --shard=0 --threads=1 --quiet 2>/dev/null & "
                "echo $! > " + pid_file),
            0);

  const std::string journal = out_dir + "/journal.shard0.log";
  for (int i = 0; i < 200; ++i) {  // wait for >=1 committed job (<=10 s)
    std::ifstream in(journal);
    std::string line;
    int lines = 0;
    while (std::getline(in, line)) ++lines;
    if (lines >= 2) break;  // header + at least one commit
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  run("kill -9 $(cat " + pid_file + ") 2>/dev/null; wait 2>/dev/null");
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  ASSERT_EQ(run(kDaemon + " resume " + manifest + " --out=" + out_dir +
                " --shards=1 --threads=1 --quiet 2>/dev/null"),
            0);
  const std::string csv = dir.file("killed.csv");
  ASSERT_EQ(run(kDaemon + " export " + manifest + " --out=" + out_dir +
                " --csv=" + csv + " 2>/dev/null"),
            0);
  EXPECT_EQ(read_file(csv), reference);
}

TEST(Campaignd, StatusReportsShardProgress) {
  TempDir dir;
  const std::string manifest = write_manifest(dir);
  const std::string out_dir = dir.file("status");
  ASSERT_EQ(run(kDaemon + " run " + manifest + " --out=" + out_dir +
                " --shards=2 --threads=1 --quiet 2>/dev/null"),
            0);
  const std::string out_file = dir.file("status.txt");
  ASSERT_EQ(run(kDaemon + " status " + manifest + " --out=" + out_dir +
                " > " + out_file + " 2>/dev/null"),
            0);
  const std::string status = read_file(out_file);
  EXPECT_NE(status.find("campaign 'e2e': 6 jobs, 2 shard journal(s)"),
            std::string::npos)
      << status;
  EXPECT_NE(status.find("total: 6/6 done (6 ok, 0 failed)"),
            std::string::npos)
      << status;

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
// found it: no index files, no empty shard files. An export naming a shard
// that does not exist fails and names the file.
TEST(Campaignd, ExportStatusServeWriteNothingUnderOut) {
  TempDir dir;
  const std::string manifest = write_manifest(dir);
  const std::string out_dir = dir.file("store");
  ASSERT_EQ(run(kDaemon + " run " + manifest + " --out=" + out_dir +
                " --shards=2 --threads=1 --quiet 2>/dev/null"),
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
  EXPECT_EQ(run(kDaemon + " export " + manifest + " --out=" + out_dir +
                " --shards=4 >/dev/null 2>" + err),
            1);
  EXPECT_NE(read_file(err).find("results.shard2.jsonl"), std::string::npos)
      << read_file(err);

  const auto [pid, port] = spawn_serve(dir, manifest, out_dir);
  ASSERT_GT(port, 0) << "serve never bound its port";
  const auto [status, body] = http_get(dir, port, "/aggregate");
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, read_file(csv));
  ::kill(pid, SIGTERM);
  EXPECT_NE(wait_for_exit(pid, std::chrono::seconds(10)), -1);

  EXPECT_EQ(snapshot_tree(out_dir), before);
  // The retired index subcommand is an unknown one now.
  EXPECT_EQ(run(kDaemon + " reindex " + manifest + " --out=" + out_dir +
                " 2>/dev/null"),
            2);
}

// /metrics validates its stream parameters, and a long-interval stream does
// not hold up a SIGTERM'd serve: the stream sleeps in short slices that
// check the stop flag.
TEST(Campaignd, MetricsStreamStopsPromptlyOnSigterm) {
  TempDir dir;
  const std::string manifest = write_manifest(dir);
  const std::string out_dir = dir.file("store");
  ASSERT_EQ(run(kDaemon + " run " + manifest + " --out=" + out_dir +
                " --shards=1 --threads=1 --quiet 2>/dev/null"),
            0);
  const auto [pid, port] = spawn_serve(dir, manifest, out_dir);
  ASSERT_GT(port, 0) << "serve never bound its port";

  EXPECT_EQ(http_get(dir, port, "/metrics?watch=abc").first, 400);
  EXPECT_EQ(http_get(dir, port, "/metrics?interval-ms=-5").first, 400);
  EXPECT_EQ(http_get(dir, port, "/metrics?interval-ms=86400001").first, 400);
  EXPECT_EQ(http_get(dir, port, "/metrics?watch=1&interval-ms=1").first, 200);

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
