#include "util/flags.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "util/assert.hpp"

namespace rcast {

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    std::string name, value;
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      name = arg;
      value = argv[++i];
    } else {
      name = arg;
      value = "true";
    }
    values_[name] = value;
    occurrences_.emplace_back(std::move(name), std::move(value));
  }
}

std::optional<std::string> Flags::raw(const std::string& name) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

bool Flags::has(const std::string& name) const { return raw(name).has_value(); }

std::string Flags::get_string(const std::string& name,
                              const std::string& fallback) const {
  return raw(name).value_or(fallback);
}

std::int64_t Flags::get_int(const std::string& name,
                            std::int64_t fallback) const {
  const auto v = raw(name);
  if (!v) return fallback;
  return std::stoll(*v);
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto v = raw(name);
  if (!v) return fallback;
  return std::stod(*v);
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto v = raw(name);
  if (!v) return fallback;
  return *v == "true" || *v == "1" || *v == "yes" || *v == "on";
}

std::vector<std::string> Flags::get_all(const std::string& name) const {
  queried_[name] = true;
  std::vector<std::string> out;
  for (const auto& [k, v] : occurrences_) {
    if (k == name) out.push_back(v);
  }
  return out;
}

std::vector<std::string> Flags::unknown() const {
  std::vector<std::string> out;
  for (const auto& [k, _] : values_) {
    if (!queried_.count(k)) out.push_back(k);
  }
  return out;
}

namespace {

std::string trimmed(const std::string& s) {
  const auto b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

}  // namespace

std::optional<double> Flags::parse_double(const std::string& s) {
  const std::string t = trimmed(s);
  if (t.empty()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(t.c_str(), &end);
  if (end != t.c_str() + t.size() || errno == ERANGE) return std::nullopt;
  if (!std::isfinite(v)) return std::nullopt;
  return v;
}

std::optional<std::uint64_t> Flags::parse_u64(const std::string& s) {
  const std::string t = trimmed(s);
  if (t.empty() || t[0] == '-' || t[0] == '+') return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(t.c_str(), &end, 10);
  if (end != t.c_str() + t.size() || errno == ERANGE) return std::nullopt;
  return static_cast<std::uint64_t>(v);
}

}  // namespace rcast
