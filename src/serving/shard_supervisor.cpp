#include "serving/shard_supervisor.hpp"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <stdexcept>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

namespace rcast::serving {

pid_t ShardSupervisor::spawn(const std::vector<std::string>& argv) {
  // Build the char* vector before forking: nothing between fork() and
  // execv() may allocate (other threads may hold the heap lock).
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const auto& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error(std::string("fork failed: ") +
                             std::strerror(errno));
  }
  if (pid == 0) {
    ::execv(cargv[0], cargv.data());
    // exec failed; _exit (not exit) — no atexit handlers in the child.
    ::_exit(127);
  }
  return pid;
}

void ShardSupervisor::start(
    const std::vector<std::vector<std::string>>& argvs) {
  std::lock_guard<std::mutex> lock(mu_);
  argvs_ = argvs;
  workers_.assign(argvs_.size(), WorkerStatus{});
  for (std::size_t i = 0; i < argvs_.size(); ++i) {
    workers_[i].pid = spawn(argvs_[i]);
    workers_[i].running = true;
  }
}

bool ShardSupervisor::wait_all(const std::function<bool()>& stop_requested) {
  bool stopping = false;
  for (;;) {
    // A requested stop SIGTERMs the fleet once; the workers' journals make
    // the interruption resumable.
    if (!stopping && stop_requested()) {
      stopping = true;
      std::lock_guard<std::mutex> lock(mu_);
      for (const WorkerStatus& w : workers_) {
        if (w.running) ::kill(w.pid, SIGTERM);
      }
    }
    int wstatus = 0;
    const pid_t pid = ::waitpid(-1, &wstatus, WNOHANG);
    if (pid == 0) {  // workers still running; look at the stop flag again
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      continue;
    }
    if (pid < 0) {
      if (errno == EINTR) continue;
      if (errno == ECHILD) break;  // no children left
      throw std::runtime_error(std::string("waitpid failed: ") +
                               std::strerror(errno));
    }
    // A group Ctrl-C can kill a worker before the check above sees the
    // stop, so look again before respawning it.
    const bool stop_now = stopping || stop_requested();

    std::lock_guard<std::mutex> lock(mu_);
    std::size_t idx = workers_.size();
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      if (workers_[i].running && workers_[i].pid == pid) {
        idx = i;
        break;
      }
    }
    if (idx == workers_.size()) continue;  // not ours (shouldn't happen)
    WorkerStatus& w = workers_[idx];

    if (WIFEXITED(wstatus)) {
      w.running = false;
      w.exit_code = WEXITSTATUS(wstatus);
    } else if (WIFSIGNALED(wstatus)) {
      if (!stop_now && w.respawns < max_respawns_) {
        ++w.respawns;
        w.pid = spawn(argvs_[idx]);  // resume from the shard journal
      } else {
        w.running = false;
        w.gave_up = !stop_now;
      }
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& w : workers_) {
    if (w.running || w.gave_up || w.exit_code != 0) return false;
  }
  return true;
}

std::vector<WorkerStatus> ShardSupervisor::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return workers_;
}

}  // namespace rcast::serving
