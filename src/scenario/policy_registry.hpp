// String-keyed factory registries for the four policy layers: power scheme,
// routing protocol, mobility model, traffic pattern. The scenario builder
// resolves registry entries from ScenarioConfig's string/enum axes instead
// of switching over enums, so a new policy is one registry entry — no
// scenario.cpp edits (DESIGN.md §16).
//
// Registries are function-local statics populated with the built-ins on
// first access (thread-safe magic statics; read-only afterwards, so
// concurrent Network builds on worker threads need no locking). Entry order
// is stable and defines the ordinal of each name that the /aggregate filter
// matches.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/scenario.hpp"

namespace rcast::scenario {

/// Unknown-name resolution failure; the message lists every registered name.
class RegistryError : public std::runtime_error {
 public:
  explicit RegistryError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Everything a power-policy factory may wire up. `rng` is the node's root
/// stream — fork it with a policy-unique salt so schemes that draw (Rcast,
/// LEACH) do not perturb each other's streams.
struct PowerPolicyContext {
  sim::Simulator& sim;
  phy::Channel& channel;
  mac::Mac& mac;
  const ScenarioConfig& cfg;
  phy::NodeId id;
  Rng& rng;
  energy::EnergyMeter* meter;
  stats::TelemetryBus* bus;
};

struct RoutingContext {
  sim::Simulator& sim;
  mac::Mac& mac;
  const ScenarioConfig& cfg;
  Rng& rng;  // fork with a protocol-unique salt
  mac::PowerPolicy* policy;
};

/// `rng` is the node's mobility stream, already forked per node.
struct MobilityContext {
  const ScenarioConfig& cfg;
  std::size_t id;
  Rng rng;
};

/// A traffic factory builds every source of the run (the flow-matrix shape
/// is pattern-specific). `agent` resolves a node's routing agent;
/// `bind_shard` must be called with the source node before constructing each
/// source so its events land on the node's home shard.
struct TrafficContext {
  sim::Simulator& sim;
  const ScenarioConfig& cfg;
  Rng& rng;
  std::function<routing::RoutingAgent&(phy::NodeId)> agent;
  std::function<void(phy::NodeId)> bind_shard;
};

struct PowerPolicyEntry {
  std::string name;  // canonical, matches the power.scheme enum token
  bool uses_psm;     // MacConfig::psm_enabled for this scheme
  core::OverhearingMap oh_map;  // DSR's per-class levels unless overridden
  std::function<std::unique_ptr<mac::PowerPolicy>(const PowerPolicyContext&)>
      make;
};

struct RoutingEntry {
  std::string name;  // canonical, matches the routing.protocol enum token
  std::function<std::unique_ptr<routing::RoutingAgent>(const RoutingContext&)>
      make;
};

struct MobilityEntry {
  std::string name;
  std::function<std::unique_ptr<mobility::MobilityModel>(MobilityContext&&)>
      make;
};

struct TrafficEntry {
  std::string name;
  std::function<std::vector<std::unique_ptr<traffic::TrafficSource>>(
      const TrafficContext&)>
      make;
};

template <typename Entry>
class PolicyRegistry {
 public:
  /// `kind` names the layer in error messages ("power scheme", ...).
  explicit PolicyRegistry(std::string kind) : kind_(std::move(kind)) {}

  PolicyRegistry(const PolicyRegistry&) = delete;
  PolicyRegistry& operator=(const PolicyRegistry&) = delete;

  /// Registers an entry. Duplicate names (case-insensitive) are a startup
  /// contract violation: two factories claiming one name cannot both win.
  const Entry& add(Entry entry) {
    RCAST_REQUIRE_MSG(!entry.name.empty(), "registry entry needs a name");
    RCAST_REQUIRE_MSG(find(entry.name) == nullptr,
                      "duplicate " + kind_ + " registration: " + entry.name);
    entries_.push_back(std::move(entry));  // deque: stable addresses
    return entries_.back();
  }

  /// Case-insensitive lookup; nullptr if absent.
  const Entry* find(std::string_view name) const {
    for (const Entry& e : entries_) {
      if (detail::iequals(name, e.name)) return &e;
    }
    return nullptr;
  }

  /// Lookup that throws RegistryError listing the registered names.
  const Entry& resolve(std::string_view name) const {
    if (const Entry* e = find(name)) return *e;
    std::string msg = "unknown " + kind_ + " '" + std::string(name) +
                      "'; registered: ";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (i > 0) msg += ", ";
      msg += entries_[i].name;
    }
    throw RegistryError(msg);
  }

  /// Registration-order position of `name` — the stable ordinal the serving
  /// index records for each axis and the /aggregate filter compares. Throws
  /// like resolve.
  std::size_t index_of(std::string_view name) const {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (detail::iequals(name, entries_[i].name)) return i;
    }
    resolve(name);  // throws with the full name list
    return 0;       // unreachable
  }

  std::size_t size() const { return entries_.size(); }
  const Entry& at(std::size_t i) const { return entries_.at(i); }

  std::vector<std::string_view> names() const {
    std::vector<std::string_view> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) out.push_back(e.name);
    return out;
  }

 private:
  std::string kind_;
  std::deque<Entry> entries_;
};

/// The four registries, built-ins registered on first access. Registration
/// order matches the Scheme / RoutingProtocol enum values — entry i is named
/// to_string(static_cast<Scheme>(i)) — so enum casts and index_of agree for
/// the built-ins (the /aggregate scheme and routing filters rely on this).
PolicyRegistry<PowerPolicyEntry>& power_policies();
PolicyRegistry<RoutingEntry>& routing_protocols();
PolicyRegistry<MobilityEntry>& mobility_models();
PolicyRegistry<TrafficEntry>& traffic_patterns();

}  // namespace rcast::scenario
