// Tiny command-line flag helper for bench and example binaries.
//
// Supported syntax: --name=value, --name value, and bare --name (bool true).
// Unrecognized flags are kept and can be listed, so typos fail loudly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace rcast {

class Flags {
 public:
  Flags(int argc, const char* const* argv);

  /// True if --name was present (with or without a value).
  bool has(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Every value the flag was given, in command-line order (the get_*
  /// accessors see only the last one). For repeatable flags like --set.
  std::vector<std::string> get_all(const std::string& name) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags that were never queried via get_*/has; call after parsing all
  /// known flags to report typos.
  std::vector<std::string> unknown() const;

  /// Strict numeric parsing: the entire (whitespace-trimmed) string must be
  /// a finite number, otherwise nullopt. Unlike std::stod/std::stoul these
  /// never accept trailing garbage ("1.5x"), negative values sign-wrapped
  /// into unsigned ("-3"), or empty input. Shared by the CLIs, the campaign
  /// journal and the campaign manifest parser.
  static std::optional<double> parse_double(const std::string& s);
  static std::optional<std::uint64_t> parse_u64(const std::string& s);

 private:
  std::optional<std::string> raw(const std::string& name) const;

  std::map<std::string, std::string> values_;
  /// Every (name, value) occurrence in command-line order.
  std::vector<std::pair<std::string, std::string>> occurrences_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
};

}  // namespace rcast
