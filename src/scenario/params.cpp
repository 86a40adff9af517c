#include "scenario/params.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>

#include "util/assert.hpp"

namespace rcast::scenario {

namespace {

// Size fences for registry_self_check(): pinned x86-64 Linux layouts of
// ScenarioConfig and every subconfig it embeds. Adding a field to any of
// these structs changes its size and fails the completeness check until a
// descriptor is registered and the fence updated (DESIGN.md §11).
constexpr std::size_t kScenarioConfigSize = 616;
constexpr std::size_t kMacConfigSize = 112;
constexpr std::size_t kDsrConfigSize = 80;
constexpr std::size_t kAodvConfigSize = 80;
constexpr std::size_t kOdpmConfigSize = 32;
constexpr std::size_t kRcastConfigSize = 104;
constexpr std::size_t kPowerTableSize = 32;
constexpr std::size_t kRouteCacheConfigSize = 16;

// Times are stored as sim::Time (integer nanoseconds) but exposed as doubles
// in the unit the parameter name states. llround (not static_cast) so that
// value -> text -> value is exact: the round-trip error of ns/1e6*1e6 is far
// below 0.5 ns for every representable scenario time.
sim::Time s_to_time(double s) {
  return static_cast<sim::Time>(std::llround(s * 1e9));
}
sim::Time ms_to_time(double ms) {
  return static_cast<sim::Time>(std::llround(ms * 1e6));
}
sim::Time us_to_time(double us) {
  return static_cast<sim::Time>(std::llround(us * 1e3));
}
double time_to_s(sim::Time t) { return static_cast<double>(t) / 1e9; }
double time_to_ms(sim::Time t) { return static_cast<double>(t) / 1e6; }
double time_to_us(sim::Time t) { return static_cast<double>(t) / 1e3; }

std::string fmt_double(double v, const char* spec) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), spec, v);
  return buf;
}

mac::OverhearingMode oh_from_token(std::string_view t) {
  using mac::OverhearingMode;
  for (auto m : {OverhearingMode::kNone, OverhearingMode::kRandomized,
                 OverhearingMode::kUnconditional}) {
    if (t == mac::to_string(m)) return m;
  }
  RCAST_REQUIRE_MSG(false, "non-canonical overhearing token: " + std::string(t));
  return OverhearingMode::kNone;
}

core::PrEstimator estimator_from_token(std::string_view t) {
  using core::PrEstimator;
  for (auto e : {PrEstimator::kNeighborCount, PrEstimator::kSenderRecency,
                 PrEstimator::kMobility, PrEstimator::kBattery,
                 PrEstimator::kCombined}) {
    if (t == core::to_string(e)) return e;
  }
  RCAST_REQUIRE_MSG(false, "non-canonical estimator token: " + std::string(t));
  return PrEstimator::kNeighborCount;
}

// Effectively "no upper bound" for 64-bit parameters: both this literal and
// any representable uint64 compare correctly in the double domain.
constexpr double kU64Max = 18446744073709551615.0;

// Descriptor builders. EXPR is a field expression on `c`; every macro
// produces a full Param with capture-free get/set lambdas.
#define PD(NAME, EXPR, MIN, MAX, DOC)                                       \
  {NAME,                                                                    \
   ParamType::kDouble,                                                      \
   DOC,                                                                     \
   MIN,                                                                     \
   MAX,                                                                     \
   true,                                                                    \
   {},                                                                      \
   [](const ScenarioConfig& c) {                                            \
     return ParamValue::of(static_cast<double>(EXPR));                      \
   },                                                                       \
   [](ScenarioConfig& c, const ParamValue& v) { EXPR = v.d; }}

#define PT(NAME, EXPR, UNIT, MIN, MAX, DOC)                                 \
  {NAME,                                                                    \
   ParamType::kDouble,                                                      \
   DOC,                                                                     \
   MIN,                                                                     \
   MAX,                                                                     \
   true,                                                                    \
   {},                                                                      \
   [](const ScenarioConfig& c) {                                            \
     return ParamValue::of(time_to_##UNIT(EXPR));                           \
   },                                                                       \
   [](ScenarioConfig& c, const ParamValue& v) { EXPR = UNIT##_to_time(v.d); }}

#define PU(NAME, EXPR, CAST, MIN, MAX, DOC)                                 \
  {NAME,                                                                    \
   ParamType::kUInt,                                                        \
   DOC,                                                                     \
   MIN,                                                                     \
   MAX,                                                                     \
   true,                                                                    \
   {},                                                                      \
   [](const ScenarioConfig& c) {                                            \
     return ParamValue::of(static_cast<std::uint64_t>(EXPR));               \
   },                                                                       \
   [](ScenarioConfig& c, const ParamValue& v) { EXPR = static_cast<CAST>(v.u); }}

#define PB(NAME, EXPR, DOC)                                                 \
  {NAME,                                                                    \
   ParamType::kBool,                                                        \
   DOC,                                                                     \
   0.0,                                                                     \
   0.0,                                                                     \
   true,                                                                    \
   {},                                                                      \
   [](const ScenarioConfig& c) { return ParamValue::of(bool(EXPR)); },      \
   [](ScenarioConfig& c, const ParamValue& v) { EXPR = v.b; }}

#define POH(NAME, EXPR, DOC)                                                \
  {NAME,                                                                    \
   ParamType::kEnum,                                                        \
   DOC,                                                                     \
   0.0,                                                                     \
   0.0,                                                                     \
   true,                                                                    \
   {"none", "randomized", "unconditional"},                                 \
   [](const ScenarioConfig& c) {                                            \
     return ParamValue::of(std::string_view(mac::to_string(EXPR)));         \
   },                                                                       \
   [](ScenarioConfig& c, const ParamValue& v) {                             \
     EXPR = oh_from_token(v.token);                                         \
   }}

std::vector<Param> build_registry() {
  std::vector<Param> reg = {
      // --- topology / mobility / traffic (paper §4.1) ----------------------
      PU("nodes", c.num_nodes, std::size_t, 2, 1e6,
         "Number of nodes placed uniformly in the world rectangle"),
      PD("world.width_m", c.world.width, 1, 1e6, "World width (m)"),
      PD("world.height_m", c.world.height, 1, 1e6, "World height (m)"),
      PD("tx_range_m", c.tx_range_m, 1, 1e5, "Transmission range (m)"),
      PD("cs_range_m", c.cs_range_m, 1, 1e5, "Carrier-sense range (m)"),
      PU("bitrate_bps", c.bitrate_bps, std::int64_t, 1000, 1e10,
         "Radio bitrate (bits/s)"),
      PD("speed_mps", c.max_speed_mps, 0, 1000,
         "Random-waypoint maximum speed (m/s); 0 = static placement"),
      PT("pause_s", c.pause, s, 0, 1e6,
         "Random-waypoint pause time (s); >= duration_s = static"),
      PU("flows", c.num_flows, std::size_t, 1, 1e6, "Number of CBR flows"),
      PD("rate_pps", c.rate_pps, 1e-6, 1e6, "Per-flow CBR rate (packets/s)"),
      {"payload_bytes",
       ParamType::kDouble,
       "CBR payload size (bytes)",
       1,
       65536,
       true,
       {},
       // Stored as bits; /8 and *8 are exact in binary floating point.
       [](const ScenarioConfig& c) {
         return ParamValue::of(static_cast<double>(c.payload_bits) / 8.0);
       },
       [](ScenarioConfig& c, const ParamValue& v) {
         c.payload_bits = static_cast<std::int64_t>(std::llround(v.d * 8.0));
       }},
      PT("duration_s", c.duration, s, 0.001, 1e7,
         "Simulated duration (s)"),
      PU("seed", c.seed, std::uint64_t, 0, kU64Max, "Master RNG seed"),
      {"power.scheme",
       ParamType::kEnum,
       "Power-policy scheme (paper comparison axis)",
       0.0,
       0.0,
       true,
       {"80211", "PSM-NONE", "PSM-ALL", "ODPM", "RCAST", "RCAST-BC"},
       [](const ScenarioConfig& c) {
         return ParamValue::of(to_string(c.scheme));
       },
       [](ScenarioConfig& c, const ParamValue& v) {
         c.scheme = *scheme_from_string(v.token);
       }},
      {"routing.protocol",
       ParamType::kEnum,
       "Network-layer routing protocol",
       0.0,
       0.0,
       true,
       {"DSR", "AODV"},
       [](const ScenarioConfig& c) {
         return ParamValue::of(to_string(c.routing));
       },
       [](ScenarioConfig& c, const ParamValue& v) {
         c.routing = *routing_from_string(v.token);
       }},
      PD("battery_j", c.battery_joules, 0, 1e12,
         "Initial battery energy per node (J); 0 = infinite (paper)"),
      PB("override_oh_map", c.override_oh_map,
         "Use dsr.oh_* as configured instead of the scheme's canonical map"),
      PT("sync_jitter_ms", c.sync_jitter, ms, 0, 1e6,
         "Per-node beacon clock offset drawn uniformly from [0, jitter]"),
      {"max_wall_seconds",
       ParamType::kDouble,
       "Wall-clock budget per run (s); 0 = unlimited. Cannot affect results",
       0,
       1e9,
       false,  // the only knob excluded from config_digest
       {},
       [](const ScenarioConfig& c) { return ParamValue::of(c.max_wall_seconds); },
       [](ScenarioConfig& c, const ParamValue& v) { c.max_wall_seconds = v.d; }},
      PU("sim.shards", c.sim_shards, std::uint64_t, 0, 64,
         "Spatial shards (worker threads) per run; 1 = single-queue loop, "
         "0 = one per hardware thread (DESIGN.md §15)"),
      PU("sim.horizon_ns", c.sim_horizon_ns, std::uint64_t, 0, 1e12,
         "Conservative window width for sharded runs (ns); 0 = derive from "
         "cs_range_m (propagation across the carrier-sense disc)"),
      {"campaign.journal_sync_every",
       ParamType::kUInt,
       "Fsync the campaign journal every N committed jobs (1 = every commit). "
       "Cannot affect results",
       1,
       1e9,
       false,  // durability knob, like max_wall_seconds: not in config_digest
       {},
       [](const ScenarioConfig& c) {
         return ParamValue::of(c.journal_sync_every);
       },
       [](ScenarioConfig& c, const ParamValue& v) {
         c.journal_sync_every = v.u;
       }},

      // --- energy model (WaveLAN-II defaults) ------------------------------
      PD("power.idle_w", c.power.idle_w, 0, 1000, "Idle-listening draw (W)"),
      PD("power.rx_w", c.power.rx_w, 0, 1000, "Receive draw (W)"),
      PD("power.tx_w", c.power.tx_w, 0, 1000, "Transmit draw (W)"),
      PD("power.sleep_w", c.power.sleep_w, 0, 1000, "Doze-state draw (W)"),

      // --- MAC (IEEE 802.11 DSSS + PSM) ------------------------------------
      PT("mac.beacon_interval_ms", c.mac.beacon_interval, ms, 1, 1e5,
         "PSM beacon interval (ms)"),
      PT("mac.atim_window_ms", c.mac.atim_window, ms, 0.01, 1e5,
         "ATIM window length (ms)"),
      PT("mac.slot_us", c.mac.slot, us, 1, 1e6, "Contention slot (us)"),
      PT("mac.sifs_us", c.mac.sifs, us, 0, 1e6, "SIFS (us)"),
      PT("mac.difs_us", c.mac.difs, us, 0, 1e6, "DIFS (us)"),
      PU("mac.cw_min", c.mac.cw_min, int, 0, 65535,
         "Minimum contention window"),
      PU("mac.cw_max", c.mac.cw_max, int, 0, 65535,
         "Maximum contention window"),
      PU("mac.retry_limit", c.mac.retry_limit, int, 0, 100,
         "Unicast retry limit before a link-failure report"),
      PU("mac.data_header_bits", c.mac.data_header_bits, std::int64_t, 0, 1e6,
         "MAC data header + FCS (bits)"),
      PU("mac.ack_bits", c.mac.ack_bits, std::int64_t, 0, 1e6,
         "ACK frame size (bits)"),
      PU("mac.atim_bits", c.mac.atim_bits, std::int64_t, 0, 1e6,
         "ATIM management frame size (bits)"),
      PU("mac.preamble_bits", c.mac.preamble_bits, std::int64_t, 0, 1e6,
         "PLCP preamble + header (bits)"),
      PU("mac.queue_limit", c.mac.queue_limit, std::size_t, 1, 1e6,
         "Interface queue length (packets)"),
      PB("mac.psm_enabled", c.mac.psm_enabled,
         "PSM structure on/off; overridden from the scheme by the builder"),
      PU("mac.atim_fail_limit", c.mac.atim_fail_limit, int, 1, 1000,
         "Consecutive un-acked ATIM intervals before a link-failure report"),
      PT("mac.beacon_offset_ms", c.mac.beacon_offset, ms, 0, 1e5,
         "Fixed beacon schedule offset from the global epoch (ms)"),

      // --- DSR --------------------------------------------------------------
      POH("dsr.oh_rrep", c.dsr.oh_map.rrep,
          "Overhearing level announced for RREP transmissions"),
      POH("dsr.oh_data", c.dsr.oh_map.data,
          "Overhearing level announced for data transmissions"),
      POH("dsr.oh_rerr", c.dsr.oh_map.rerr,
          "Overhearing level announced for RERR transmissions"),
      POH("dsr.oh_rreq_bcast", c.dsr.oh_map.rreq_bcast,
          "Receiving level for broadcast RREQ announcements"),
      PU("dsr.cache_capacity", c.dsr.cache.capacity, std::size_t, 1, 1e6,
         "Route cache capacity (paths)"),
      PT("dsr.route_ttl_s", c.dsr.cache.route_ttl, s, 0, 1e6,
         "Cached route lifetime (s); 0 = no timeout (paper's DSR)"),
      PT("dsr.send_buffer_timeout_s", c.dsr.send_buffer_timeout, s, 0, 1e6,
         "Send-buffer packet lifetime while awaiting a route (s)"),
      PU("dsr.send_buffer_capacity", c.dsr.send_buffer_capacity, std::size_t,
         1, 1e6, "Send-buffer capacity (packets)"),
      PB("dsr.reply_from_cache", c.dsr.reply_from_cache,
         "Intermediate nodes answer RREQs from their route cache"),
      PB("dsr.nonpropagating_first", c.dsr.nonpropagating_first,
         "First RREQ attempt with TTL 1 (expanding ring)"),
      PU("dsr.max_rreq_attempts", c.dsr.max_rreq_attempts, int, 1, 1000,
         "Discovery attempts before giving up on a destination"),
      PT("dsr.rreq_backoff_base_ms", c.dsr.rreq_backoff_base, ms, 1, 1e6,
         "Initial RREQ retry backoff (ms)"),
      PT("dsr.rreq_backoff_max_ms", c.dsr.rreq_backoff_max, ms, 1, 1e7,
         "RREQ retry backoff cap (ms)"),
      PU("dsr.network_ttl", c.dsr.network_ttl, int, 1, 255,
         "Network-wide flood TTL"),
      PB("dsr.cache_reverse_overheard", c.dsr.cache_reverse_overheard,
         "Also cache the reverse direction of overheard routes"),
      PB("dsr.salvage", c.dsr.salvage,
         "Salvage data packets via the cache after a link break"),
      PU("dsr.max_salvage", c.dsr.max_salvage, int, 0, 100,
         "Salvage attempts per packet"),

      // --- AODV -------------------------------------------------------------
      PT("aodv.active_route_timeout_s", c.aodv.active_route_timeout, s, 0.01,
         1e6, "Route lifetime after last use (s)"),
      PT("aodv.hello_interval_s", c.aodv.hello_interval, s, 0.01, 1e6,
         "Hello broadcast period (s)"),
      PU("aodv.allowed_hello_loss", c.aodv.allowed_hello_loss, int, 1, 100,
         "Missed hellos before a link is declared dead"),
      PU("aodv.ttl_start", c.aodv.ttl_start, int, 1, 255,
         "Expanding-ring initial TTL"),
      PU("aodv.ttl_increment", c.aodv.ttl_increment, int, 1, 255,
         "Expanding-ring TTL increment per attempt"),
      PU("aodv.ttl_threshold", c.aodv.ttl_threshold, int, 1, 255,
         "TTL beyond which discovery goes network-wide"),
      PU("aodv.network_ttl", c.aodv.network_ttl, int, 1, 255,
         "Network-wide flood TTL"),
      PU("aodv.max_rreq_attempts", c.aodv.max_rreq_attempts, int, 1, 1000,
         "Discovery attempts before giving up on a destination"),
      PT("aodv.rreq_backoff_base_ms", c.aodv.rreq_backoff_base, ms, 1, 1e6,
         "Initial RREQ retry backoff (ms)"),
      PT("aodv.rreq_backoff_max_ms", c.aodv.rreq_backoff_max, ms, 1, 1e7,
         "RREQ retry backoff cap (ms)"),
      PT("aodv.send_buffer_timeout_s", c.aodv.send_buffer_timeout, s, 0, 1e6,
         "Send-buffer packet lifetime while awaiting a route (s)"),
      PU("aodv.send_buffer_capacity", c.aodv.send_buffer_capacity,
         std::size_t, 1, 1e6, "Send-buffer capacity (packets)"),
      PB("aodv.intermediate_rrep", c.aodv.intermediate_rrep,
         "Intermediate nodes with fresh routes answer RREQs"),
      PB("aodv.hello_only_when_active", c.aodv.hello_only_when_active,
         "Send hellos only while holding active routes (RFC behaviour)"),

      // --- ODPM (Zheng & Kravets) -------------------------------------------
      PT("odpm.rrep_timeout_s", c.odpm.rrep_am_timeout, s, 0, 1e6,
         "AM dwell after receiving a RREP (s)"),
      PT("odpm.data_timeout_s", c.odpm.data_am_timeout, s, 0, 1e6,
         "AM dwell after sending/receiving/forwarding data (s)"),
      PT("odpm.belief_timeout_s", c.odpm.belief_timeout, s, 0, 1e6,
         "How long a heard PwrMgt=AM bit is trusted (s)"),
      PB("odpm.refresh_on_overhear", c.odpm.refresh_on_overhear,
         "Overheard data refreshes the AM data timeout (sticky AM)"),

      // --- Rcast (the paper's contribution) ---------------------------------
      {"rcast.estimator",
       ParamType::kEnum,
       "P_R estimator (paper evaluates 'neighbors' = 1/N)",
       0.0,
       0.0,
       true,
       {"neighbors", "sender-id", "mobility", "battery", "combined"},
       [](const ScenarioConfig& c) {
         return ParamValue::of(
             std::string_view(core::to_string(c.rcast.estimator)));
       },
       [](ScenarioConfig& c, const ParamValue& v) {
         c.rcast.estimator = estimator_from_token(v.token);
       }},
      PD("rcast.min_pr", c.rcast.min_pr, 0, 1,
         "Lower clamp on the overhearing probability"),
      PD("rcast.max_pr", c.rcast.max_pr, 0, 1,
         "Upper clamp on the overhearing probability"),
      PT("rcast.neighbor_ttl_s", c.rcast.neighbor_ttl, s, 0.01, 1e6,
         "Passive neighbor-table entry lifetime (s)"),
      PT("rcast.sender_recency_window_s", c.rcast.sender_recency_window, s, 0,
         1e6, "sender-id estimator: always overhear senders silent this long"),
      PU("rcast.max_skips", c.rcast.max_skips, int, 0, 1e6,
         "sender-id estimator: forced overhear after this many skips"),
      PD("rcast.churn_factor", c.rcast.churn_factor, 0, 1e6,
         "mobility estimator: P_R divisor weight on link churn"),
      PD("rcast.bcast_floor", c.rcast.bcast_floor, 0, 1,
         "Broadcast extension: minimum receive probability"),
      PD("rcast.bcast_scale", c.rcast.bcast_scale, 0, 1e6,
         "Broadcast extension: receive probability = max(floor, scale/N)"),
      PB("rcast.oracle_neighbors", c.rcast_oracle_neighbors,
         "P_R = 1/N uses the true topology neighbor count (paper semantics)"),
  };
  return reg;
}

#undef PD
#undef PT
#undef PU
#undef PB
#undef POH

}  // namespace

ParamValue ParamValue::of(double v) {
  ParamValue p;
  p.type = ParamType::kDouble;
  p.d = v;
  return p;
}

ParamValue ParamValue::of(std::uint64_t v) {
  ParamValue p;
  p.type = ParamType::kUInt;
  p.u = v;
  return p;
}

ParamValue ParamValue::of(bool v) {
  ParamValue p;
  p.type = ParamType::kBool;
  p.b = v;
  return p;
}

ParamValue ParamValue::of(std::string_view canonical_token) {
  ParamValue p;
  p.type = ParamType::kEnum;
  p.token = canonical_token;
  return p;
}

std::string ParamValue::text() const {
  switch (type) {
    case ParamType::kDouble:
      return fmt_double(d, "%.17g");
    case ParamType::kUInt:
      return std::to_string(u);
    case ParamType::kBool:
      return b ? "true" : "false";
    case ParamType::kEnum:
      return token;
  }
  return {};
}

std::string ParamValue::pretty() const {
  if (type == ParamType::kDouble) return fmt_double(d, "%g");
  return text();
}

bool ParamValue::operator==(const ParamValue& o) const {
  if (type != o.type) return false;
  switch (type) {
    case ParamType::kDouble:
      return d == o.d;
    case ParamType::kUInt:
      return u == o.u;
    case ParamType::kBool:
      return b == o.b;
    case ParamType::kEnum:
      return token == o.token;
  }
  return false;
}

ParamValue Param::default_value() const {
  static const ScenarioConfig kDefaults{};
  return get(kDefaults);
}

std::string Param::range_text() const {
  switch (type) {
    case ParamType::kDouble:
    case ParamType::kUInt: {
      std::string out = "[" + fmt_double(min_value, "%g") + ", " +
                        fmt_double(max_value, "%g") + "]";
      return out;
    }
    case ParamType::kBool:
      return "true|false";
    case ParamType::kEnum: {
      std::string out;
      for (const auto& t : tokens) {
        if (!out.empty()) out += "|";
        out += t;
      }
      return out;
    }
  }
  return {};
}

ParamValue Param::parse(std::string_view text) const {
  const std::string owned(text);
  auto fail = [&](const std::string& why) -> ParamError {
    return ParamError(std::string(name) + ": " + why + " (got '" + owned +
                      "'; expected " + range_text() + ")");
  };
  switch (type) {
    case ParamType::kDouble: {
      char* end = nullptr;
      const double v = std::strtod(owned.c_str(), &end);
      if (end == owned.c_str() || *end != '\0' || !std::isfinite(v)) {
        throw fail("not a finite number");
      }
      if (v < min_value || v > max_value) throw fail("out of range");
      return ParamValue::of(v);
    }
    case ParamType::kUInt: {
      if (owned.empty() ||
          owned.find_first_not_of("0123456789") != std::string::npos) {
        throw fail("not a non-negative integer");
      }
      errno = 0;
      char* end = nullptr;
      const unsigned long long v = std::strtoull(owned.c_str(), &end, 10);
      if (errno != 0 || *end != '\0') throw fail("not a non-negative integer");
      const double vd = static_cast<double>(v);
      if (vd < min_value || vd > max_value) throw fail("out of range");
      return ParamValue::of(static_cast<std::uint64_t>(v));
    }
    case ParamType::kBool: {
      for (const char* t : {"true", "1", "yes", "on"}) {
        if (detail::iequals(owned, t)) return ParamValue::of(true);
      }
      for (const char* t : {"false", "0", "no", "off"}) {
        if (detail::iequals(owned, t)) return ParamValue::of(false);
      }
      throw fail("not a boolean");
    }
    case ParamType::kEnum: {
      for (const auto& t : tokens) {
        if (detail::iequals(owned, t)) return ParamValue::of(t);
      }
      throw fail("unknown token");
    }
  }
  throw fail("unhandled parameter type");
}

const std::vector<Param>& param_registry() {
  static const std::vector<Param> kRegistry = build_registry();
  return kRegistry;
}

const Param* find_param(std::string_view name) {
  for (const Param& p : param_registry()) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

void set_param(ScenarioConfig& cfg, std::string_view name,
               std::string_view value_text) {
  const Param* p = find_param(name);
  if (p == nullptr) {
    throw ParamError("unknown parameter '" + std::string(name) +
                     "' (see --help-params)");
  }
  p->set(cfg, p->parse(value_text));
}

std::string param_text(const ScenarioConfig& cfg, std::string_view name) {
  const Param* p = find_param(name);
  if (p == nullptr) {
    throw ParamError("unknown parameter '" + std::string(name) + "'");
  }
  return p->get(cfg).text();
}

std::string params_help() {
  std::string out;
  out += "Scenario parameters (--set name=value; any name is also a campaign\n"
         "manifest override or sweep axis):\n";
  for (const Param& p : param_registry()) {
    std::string line = "  " + std::string(p.name);
    if (line.size() < 30) line.resize(30, ' ');
    line += "  ";
    line += to_string(p.type);
    line += "  default ";
    line += p.default_value().pretty();
    line += "  ";
    line += p.range_text();
    out += line + "\n";
    out += "      " + std::string(p.doc);
    if (!p.in_digest) out += " [excluded from config digest]";
    out += "\n";
  }
  return out;
}

std::string params_markdown() {
  std::string out;
  out += std::string(kParamsDocBegin) + "\n\n";
  out += "| Parameter | Type | Default | Range / tokens | Description |\n";
  out += "|---|---|---|---|---|\n";
  for (const Param& p : param_registry()) {
    std::string range = p.range_text();
    // '|' is the enum token separator and the markdown cell separator.
    for (std::size_t i = 0; (i = range.find('|', i)) != std::string::npos;
         i += 2) {
      range.replace(i, 1, "\\|");
    }
    out += "| `" + std::string(p.name) + "` | " + std::string(to_string(p.type)) +
           " | `" + p.default_value().pretty() + "` | " + range + " | " +
           std::string(p.doc);
    if (!p.in_digest) out += " *(excluded from config digest)*";
    out += " |\n";
  }
  out += "\n" + std::string(kParamsDocEnd);
  return out;
}

std::vector<std::string> registry_self_check() {
  std::vector<std::string> problems;
  const auto& reg = param_registry();
  std::unordered_set<std::string_view> seen;

  for (const Param& p : reg) {
    const std::string n(p.name);
    if (!seen.insert(p.name).second) problems.push_back("duplicate name: " + n);
    if (p.name.empty() || !std::islower(static_cast<unsigned char>(p.name[0]))) {
      problems.push_back("name must start with a lowercase letter: " + n);
    }
    for (const char c : p.name) {
      if (!(std::islower(static_cast<unsigned char>(c)) ||
            std::isdigit(static_cast<unsigned char>(c)) || c == '_' ||
            c == '.')) {
        problems.push_back("bad character in name: " + n);
        break;
      }
    }
    if (p.get == nullptr || p.set == nullptr) {
      problems.push_back("missing accessor: " + n);
      continue;
    }
    if (p.type == ParamType::kEnum && p.tokens.empty()) {
      problems.push_back("enum without token table: " + n);
    }

    // Default must round-trip: default -> canonical text -> parse -> set ->
    // get -> identical canonical text. This is the property the config
    // digest and the result store rely on for every parameter.
    const ParamValue def = p.default_value();
    if (p.type == ParamType::kDouble || p.type == ParamType::kUInt) {
      const double dv = p.type == ParamType::kDouble
                            ? def.d
                            : static_cast<double>(def.u);
      if (dv < p.min_value || dv > p.max_value) {
        problems.push_back("default outside bounds: " + n);
      }
    }
    try {
      const ParamValue reparsed = p.parse(def.text());
      ScenarioConfig cfg;
      p.set(cfg, reparsed);
      if (!(p.get(cfg) == def)) {
        problems.push_back("default does not round-trip through text: " + n);
      }
    } catch (const ParamError& e) {
      problems.push_back("default text does not re-parse: " + n + " (" +
                         e.what() + ")");
    }
  }

  // Completeness fence: without reflection, detect "field added but no
  // descriptor registered" by pinning the size of ScenarioConfig and every
  // subconfig. A new field changes the size; update the descriptor table
  // AND the constant here. Layout is checked on x86-64 Linux (the CI
  // platform) only.
#if defined(__x86_64__) && defined(__linux__)
  struct SizeFence {
    const char* what;
    std::size_t actual;
    std::size_t expected;
  };
  const SizeFence fences[] = {
      {"scenario::ScenarioConfig", sizeof(ScenarioConfig),
       kScenarioConfigSize},
      {"mac::MacConfig", sizeof(mac::MacConfig), kMacConfigSize},
      {"routing::DsrConfig", sizeof(routing::DsrConfig), kDsrConfigSize},
      {"routing::AodvConfig", sizeof(routing::AodvConfig), kAodvConfigSize},
      {"power::OdpmConfig", sizeof(power::OdpmConfig), kOdpmConfigSize},
      {"core::RcastConfig", sizeof(core::RcastConfig), kRcastConfigSize},
      {"energy::PowerTable", sizeof(energy::PowerTable), kPowerTableSize},
      {"routing::RouteCacheConfig", sizeof(routing::RouteCacheConfig),
       kRouteCacheConfigSize},
  };
  for (const auto& f : fences) {
    if (f.actual != f.expected) {
      problems.push_back(
          std::string("sizeof(") + f.what + ") = " +
          std::to_string(f.actual) + ", registry expects " +
          std::to_string(f.expected) +
          " — a field was added/removed without updating the parameter "
          "registry (src/scenario/params.cpp; see DESIGN.md §11)");
    }
  }
#endif
  return problems;
}

}  // namespace rcast::scenario
