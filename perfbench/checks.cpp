#include "checks.hpp"

#include <cmath>
#include <cstring>
#include <sstream>

namespace rcast::perfbench {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffU;
    h *= kFnvPrime;
  }
}

std::uint64_t bits_of(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

}  // namespace

std::uint64_t fingerprint(const scenario::RunResult& r) {
  std::uint64_t h = kFnvOffset;
  mix(h, r.events_executed);
  mix(h, bits_of(r.total_energy_j));
  for (const double e : r.per_node_energy_j) mix(h, bits_of(e));
  mix(h, r.delivered);
  return h & ((std::uint64_t{1} << 52) - 1);
}

std::vector<std::string> check_run(const scenario::ScenarioConfig& cfg,
                                   const scenario::RunResult& r,
                                   PdrFloor floor) {
  std::vector<std::string> out;
  auto fail = [&](const std::string& what) { out.push_back(what); };

  if (r.delivered > r.originated) {
    fail("delivered " + std::to_string(r.delivered) + " > originated " +
         std::to_string(r.originated));
  }
  if (r.per_node_energy_j.size() != cfg.num_nodes) {
    fail("per-node energy has " + std::to_string(r.per_node_energy_j.size()) +
         " entries for " + std::to_string(cfg.num_nodes) + " nodes");
  }

  const double t = sim::to_seconds(cfg.duration);
  const double lo = cfg.power.sleep_w * t;
  const double hi = cfg.power.idle_w * t;
  const double tol = 1e-9 * hi;
  const bool always_awake = cfg.scheme == scenario::Scheme::k80211;
  for (std::size_t i = 0; i < r.per_node_energy_j.size(); ++i) {
    const double e = r.per_node_energy_j[i];
    std::ostringstream os;
    os.precision(17);
    if (!(e >= lo - tol && e <= hi + tol)) {
      os << "node " << i << " energy " << e << " J outside [" << lo << ", "
         << hi << "]";
      fail(os.str());
    } else if (always_awake && std::fabs(e - hi) > tol) {
      os << "802.11 node " << i << " energy " << e << " J != " << hi;
      fail(os.str());
    }
  }

  if (!(r.pdr_percent >= floor.pct)) {
    std::ostringstream os;
    os << "PDR " << r.pdr_percent << "% below floor " << floor.pct << "%";
    fail(os.str());
  }
  return out;
}

std::string check_same_fingerprint(const scenario::RunResult& a,
                                   const scenario::RunResult& b,
                                   const std::string& what) {
  const std::uint64_t fa = fingerprint(a);
  const std::uint64_t fb = fingerprint(b);
  if (fa == fb) return "";
  return what + ": fingerprint " + std::to_string(fa) + " != " +
         std::to_string(fb);
}

std::string check_same_csv(const std::string& a, const std::string& b) {
  if (a == b) return "";
  return "exported CSV differs between same-seed grids (" +
         std::to_string(a.size()) + " vs " + std::to_string(b.size()) +
         " bytes)";
}

}  // namespace rcast::perfbench
