#include "support/strutil.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/error.hpp"

namespace mfbc {

namespace {
std::string printf_str(const char* fmt, double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, fmt, digits, v);
  return buf;
}
}  // namespace

std::string human_bytes(double bytes) {
  static const char* units[] = {"B", "KB", "MB", "GB", "TB", "PB"};
  int u = 0;
  while (bytes >= 1024.0 && u < 5) {
    bytes /= 1024.0;
    ++u;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, bytes < 10 ? "%.2f %s" : "%.1f %s", bytes,
                units[u]);
  return buf;
}

std::string human_count(double count) {
  static const char* units[] = {"", "K", "M", "B", "T"};
  int u = 0;
  while (std::fabs(count) >= 1000.0 && u < 4) {
    count /= 1000.0;
    ++u;
  }
  char buf[64];
  if (u == 0) {
    std::snprintf(buf, sizeof buf, "%.0f", count);
  } else {
    std::snprintf(buf, sizeof buf, "%.1f%s", count, units[u]);
  }
  return buf;
}

std::string fixed(double v, int digits) { return printf_str("%.*f", v, digits); }

std::string compact(double v, int digits) { return printf_str("%.*g", v, digits); }

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  for (std::size_t at; (at = text.find(sep, pos)) != std::string::npos;
       pos = at + 1) {
    out.push_back(text.substr(pos, at - pos));
  }
  out.push_back(text.substr(pos));
  return out;
}

void require_flag(bool ok, const std::string& flag,
                  const std::string& reason) {
  if (!ok) throw Error(flag + ": " + reason);
}

std::int64_t parse_int(const std::string& text, const std::string& what,
                       std::int64_t max) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  const bool overflow = errno == ERANGE;  // before anything else sets errno
  require_flag(end != text.c_str() && *end == '\0', what,
               "expected an integer");
  require_flag(v >= 0, what, "value must be non-negative");
  require_flag(!overflow && v <= max, what,
               "value must be at most " + std::to_string(max));
  return v;
}

std::uint64_t parse_u64(const std::string& text, const std::string& what) {
  // strtoull would accept "-1" as 2^64 - 1.
  require_flag(text.empty() || text[0] != '-', what,
               "value must be non-negative");
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  const bool overflow = errno == ERANGE;  // before anything else sets errno
  require_flag(end != text.c_str() && *end == '\0', what,
               "expected an integer");
  require_flag(!overflow, what, "value must fit in 64 bits");
  return v;
}

double parse_double(const std::string& text, const std::string& what) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  require_flag(end != text.c_str() && *end == '\0', what,
               "expected a number");
  require_flag(std::isfinite(v), what, "expected a finite number");
  return v;
}

}  // namespace mfbc
