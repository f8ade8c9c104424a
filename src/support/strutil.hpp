// Small string/formatting helpers shared by the CLI tools and benchmarks.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace mfbc {

/// "1.80 GB", "117 MB", "512 B" — human-readable byte counts.
std::string human_bytes(double bytes);

/// "65.6M", "1.8B", "737" — human-readable counts (as the paper's Table 2).
std::string human_count(double count);

/// Fixed-precision double formatting ("%.*f").
std::string fixed(double v, int digits);

/// Scientific-ish compact formatting ("%.*g").
std::string compact(double v, int digits = 4);

/// `text` split at every `sep`; empty fields are kept ("a,,b" → 3 fields).
std::vector<std::string> split(const std::string& text, char sep);

/// Reject a command-line value or flag combination: unless `ok`, throws
/// mfbc::Error reading "<flag>: <reason>", which the tools print as
/// "error: <flag>: <reason>" and exit 2.
void require_flag(bool ok, const std::string& flag, const std::string& reason);

// Strict numeric parsers behind every numeric command-line flag and fault
// spec item. The whole of `text` must be one base-10 number: trailing text,
// a sign where none is allowed, or an out-of-range value throws mfbc::Error
// reading "<what>: <reason>", never a silent 0, wrap or saturation.

/// A non-negative integer no larger than `max`.
std::int64_t parse_int(
    const std::string& text, const std::string& what,
    std::int64_t max = std::numeric_limits<std::int64_t>::max());

/// parse_int into a narrower type (`parse_int<int>`), checked against its max.
template <class Int>
Int parse_int(const std::string& text, const std::string& what) {
  return static_cast<Int>(
      parse_int(text, what, std::numeric_limits<Int>::max()));
}

/// A full-range uint64 (seeds above INT64_MAX stay exact).
std::uint64_t parse_u64(const std::string& text, const std::string& what);

/// A finite double.
double parse_double(const std::string& text, const std::string& what);

}  // namespace mfbc
