// perfbench --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
//
// Runs one benchmark workload and prints its report as the last line of
// standard output (one JSON object: correct, attempted, failed, metrics).
// Failed checks are listed on standard error. perfbench/run.py builds this
// binary and is the entry point users call.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --workdir DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rcast::perfbench;
  std::string workload;
  Options opt;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--workdir") {
      opt.workdir = val;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1) return usage("arguments come in --key value pairs");
  if (!have_seed || opt.workdir.empty() || !(opt.seconds > 0.0)) {
    return usage("--seed, --seconds > 0 and --workdir are required");
  }
  for (const Workload& w : workloads()) {
    if (workload != w.name) continue;
    try {
      const Report rep = w.run(opt);
      for (const std::string& f : rep.failures()) {
        std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
      }
      std::printf("%s\n", rep.to_json().c_str());
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s aborted: %s\n", w.name, e.what());
      return 1;
    }
  }
  return usage(("unknown workload '" + workload + "'").c_str());
}
