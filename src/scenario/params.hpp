// Typed parameter registry: the single declarative description of every
// behavior-affecting ScenarioConfig field, including the nested mac.*,
// dsr.*, aodv.*, odpm.*, rcast.* and power.* subconfigs.
//
// One table drives five consumer surfaces that used to each hand-maintain
// their own field list (and silently drift):
//   1. campaign manifests — any registered dotted name is a scalar override
//      or a sweep axis (campaign/manifest.cpp),
//   2. config digests — campaign::config_digest mixes every in_digest
//      param, so no behavior-affecting field can alias a resumed job,
//   3. the CLIs — rcast_sim/rcast_campaignd `--set key=value`, rcast_sim's
//      classic flags (each one names a parameter), and the generated
//      `--help-params` listing,
//   4. the result store — records serialize and round-trip the full config
//      (campaign/result_store.cpp),
//   5. docs — the parameter reference in EXPERIMENTS.md is emitted from
//      this table (tools/rcast_params), with a tier-1 stale-docs gate.
//
// Adding a ScenarioConfig field therefore means adding one descriptor here
// (see DESIGN.md §11); the registry completeness test fails the build's
// test suite if a field is added without one.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/scenario.hpp"

namespace rcast::scenario {

/// Thrown on unknown names, unparseable values, or bounds violations; the
/// message names the parameter and its accepted range/tokens.
class ParamError : public std::runtime_error {
 public:
  explicit ParamError(const std::string& what) : std::runtime_error(what) {}
};

enum class ParamType : std::uint8_t {
  kDouble = 0,  // floating scalar (times are doubles in the unit the
                // name's suffix states: _s, _ms, _us)
  kUInt = 1,    // non-negative integer
  kBool = 2,    // true/false (also accepts 1/0, yes/no, on/off)
  kEnum = 3,    // one of a fixed token table, matched case-insensitively
};

constexpr std::string_view to_string(ParamType t) {
  switch (t) {
    case ParamType::kDouble:
      return "double";
    case ParamType::kUInt:
      return "uint";
    case ParamType::kBool:
      return "bool";
    case ParamType::kEnum:
      return "enum";
  }
  return "?";
}

/// A typed parameter value in transit between text surfaces and
/// ScenarioConfig fields. Exactly one of the payload members is active,
/// selected by `type`.
struct ParamValue {
  ParamType type = ParamType::kDouble;
  double d = 0.0;
  std::uint64_t u = 0;
  bool b = false;
  std::string token;  // kEnum: canonical spelling from the token table

  static ParamValue of(double v);
  static ParamValue of(std::uint64_t v);
  static ParamValue of(bool v);
  static ParamValue of(std::string_view canonical_token);

  /// Canonical text rendering: %.17g doubles (exact round trip), decimal
  /// integers, "true"/"false", the canonical enum token. This is what the
  /// config digest mixes and what set-from-text parses back.
  std::string text() const;

  /// Human rendering for help/docs: %g doubles, otherwise same as text().
  std::string pretty() const;

  bool operator==(const ParamValue& o) const;
};

/// One registered parameter: a dotted path into ScenarioConfig plus the
/// typed accessors every consumer shares.
struct Param {
  std::string_view name;  // dotted path, e.g. "mac.atim_window_ms"
  ParamType type = ParamType::kDouble;
  std::string_view doc;
  /// Inclusive numeric bounds (kDouble/kUInt); ignored for bool/enum.
  double min_value = 0.0;
  double max_value = 0.0;
  /// False only for knobs that cannot change the simulated result (e.g.
  /// max_wall_seconds, a wall-clock budget): excluded from config_digest.
  bool in_digest = true;
  /// kEnum: the canonical tokens, matched case-insensitively.
  std::vector<std::string_view> tokens;

  ParamValue (*get)(const ScenarioConfig&) = nullptr;
  void (*set)(ScenarioConfig&, const ParamValue&) = nullptr;

  /// Value on a default-constructed ScenarioConfig.
  ParamValue default_value() const;

  /// Parses `text` per `type`, enforcing bounds / the token table. Throws
  /// ParamError with the parameter name and accepted range in the message.
  ParamValue parse(std::string_view text) const;

  /// "[min, max]" for numerics, "true|false", or the enum token list.
  std::string range_text() const;
};

/// The registry, in stable registration order (the order the digest mixes
/// and the docs list). Built once, immutable afterwards.
const std::vector<Param>& param_registry();

/// Lookup by dotted name (exact; each parameter has one spelling); nullptr
/// if unknown.
const Param* find_param(std::string_view name);

/// Parse + assign in one step; throws ParamError on unknown name, bad
/// value, or bounds violation.
void set_param(ScenarioConfig& cfg, std::string_view name,
               std::string_view value_text);

/// Canonical text of one parameter's current value; throws on unknown name.
std::string param_text(const ScenarioConfig& cfg, std::string_view name);

/// The `--help-params` listing: one line per parameter with type, default,
/// range and doc string.
std::string params_help();

/// The generated EXPERIMENTS.md parameter reference, including the
/// BEGIN/END marker lines (tools/rcast_params --check/--update).
std::string params_markdown();

inline constexpr std::string_view kParamsDocBegin =
    "<!-- BEGIN GENERATED: parameter registry (tools/rcast_params --update=EXPERIMENTS.md) -->";
inline constexpr std::string_view kParamsDocEnd =
    "<!-- END GENERATED: parameter registry -->";

/// Registry completeness self-check. Returns human-readable problems, empty
/// when healthy. Catches: duplicate/malformed names, defaults outside
/// bounds, and — via a sizeof fence on ScenarioConfig and every subconfig —
/// fields added without a descriptor (a new field changes the struct size;
/// the fence then names the struct to update). Run by test_params and by
/// `rcast_params --self-check` under both sanitizer CI legs.
std::vector<std::string> registry_self_check();

}  // namespace rcast::scenario
