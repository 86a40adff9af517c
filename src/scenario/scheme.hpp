// The communication schemes compared in the paper (plus the two PSM
// overhearing extremes used as ablation baselines), the canonical
// name <-> enum mapping shared by the CLI, the bench binaries, and
// campaign manifests, and what each scheme asks of the MAC and DSR.
#pragma once

#include <array>
#include <optional>
#include <string_view>

#include "core/overhearing_map.hpp"

namespace rcast::scenario {

enum class Scheme {
  k80211 = 0,     // plain IEEE 802.11, no PSM — always awake
  kPsmNone = 1,   // IEEE 802.11 PSM, no overhearing (the "naive solution")
  kPsmAll = 2,    // IEEE 802.11 PSM, unconditional overhearing
  kOdpm = 3,      // On-Demand Power Management (Zheng & Kravets)
  kRcast = 4,     // RandomCast (the paper's contribution)
  kRcastBcast = 5,  // Rcast + randomized broadcast receiving (paper §5)
};

constexpr std::string_view to_string(Scheme s) {
  switch (s) {
    case Scheme::k80211:
      return "80211";
    case Scheme::kPsmNone:
      return "PSM-NONE";
    case Scheme::kPsmAll:
      return "PSM-ALL";
    case Scheme::kOdpm:
      return "ODPM";
    case Scheme::kRcast:
      return "RCAST";
    case Scheme::kRcastBcast:
      return "RCAST-BC";
  }
  return "?";
}

enum class RoutingProtocol {
  kDsr = 0,   // Dynamic Source Routing (the paper's substrate)
  kAodv = 1,  // Ad-hoc On-demand Distance Vector (contrast, paper §1)
};

constexpr std::string_view to_string(RoutingProtocol p) {
  switch (p) {
    case RoutingProtocol::kDsr:
      return "DSR";
    case RoutingProtocol::kAodv:
      return "AODV";
  }
  return "?";
}

/// Every scheme, in figure order (`--scheme=all`).
inline constexpr std::array<Scheme, 6> kAllSchemes = {
    Scheme::k80211,  Scheme::kPsmNone, Scheme::kPsmAll,
    Scheme::kOdpm,   Scheme::kRcast,   Scheme::kRcastBcast,
};

namespace detail {

constexpr bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const char ca = (a[i] >= 'A' && a[i] <= 'Z') ? a[i] + ('a' - 'A') : a[i];
    const char cb = (b[i] >= 'A' && b[i] <= 'Z') ? b[i] + ('a' - 'A') : b[i];
    if (ca != cb) return false;
  }
  return true;
}

}  // namespace detail

/// Parses a canonical scheme name ("80211", "PSM-NONE", ..., "RCAST-BC"),
/// case-insensitively.
constexpr std::optional<Scheme> scheme_from_string(std::string_view s) {
  for (Scheme scheme : kAllSchemes) {
    if (detail::iequals(s, to_string(scheme))) return scheme;
  }
  return std::nullopt;
}

/// Whether the scheme runs IEEE 802.11 PSM (MacConfig::psm_enabled). Only
/// plain 802.11 keeps every radio awake.
constexpr bool uses_psm(Scheme s) { return s != Scheme::k80211; }

/// The scheme's per-packet-class overhearing levels, which DSR uses unless
/// ScenarioConfig::override_oh_map is set.
constexpr core::OverhearingMap overhearing_map(Scheme s) {
  switch (s) {
    case Scheme::kPsmAll:
      return core::OverhearingMap::psm_all();
    case Scheme::kRcast:
      return core::OverhearingMap::rcast();
    case Scheme::kRcastBcast:
      return core::OverhearingMap::rcast_with_broadcast();
    case Scheme::k80211:
    case Scheme::kPsmNone:
    case Scheme::kOdpm:
      break;
  }
  return core::OverhearingMap::psm_none();
}

/// Parses a routing protocol name, case-insensitively ("dsr" | "aodv").
constexpr std::optional<RoutingProtocol> routing_from_string(
    std::string_view s) {
  if (detail::iequals(s, to_string(RoutingProtocol::kDsr))) {
    return RoutingProtocol::kDsr;
  }
  if (detail::iequals(s, to_string(RoutingProtocol::kAodv))) {
    return RoutingProtocol::kAodv;
  }
  return std::nullopt;
}

}  // namespace rcast::scenario
