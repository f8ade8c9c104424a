// Tests for src/support: error macros, deterministic RNG, string helpers.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/strutil.hpp"

namespace mfbc {
namespace {

TEST(Error, CheckThrowsWithMessage) {
  try {
    MFBC_CHECK(1 == 2, "one is not two");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("one is not two"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) {
  EXPECT_NO_THROW(MFBC_CHECK(2 + 2 == 4, "arithmetic"));
}

TEST(Rng, DeterministicAcrossInstances) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 3);
}

TEST(Rng, BoundedStaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.bounded(17), 17u);
  }
}

TEST(Rng, BoundedCoversRange) {
  Xoshiro256 rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.bounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, Uniform01InUnitInterval) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, WeightsAreIntegersInRange) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 500; ++i) {
    const double w = rng.weight(1, 100);
    EXPECT_GE(w, 1.0);
    EXPECT_LE(w, 100.0);
    EXPECT_EQ(w, static_cast<double>(static_cast<long long>(w)));
  }
}

TEST(Rng, WeightRejectsZeroLow) {
  Xoshiro256 rng(9);
  EXPECT_THROW(rng.weight(0, 5), Error);
}

TEST(Strutil, HumanBytes) {
  EXPECT_EQ(human_bytes(512), "512.0 B");
  EXPECT_EQ(human_bytes(2048), "2.00 KB");
}

TEST(Strutil, HumanCount) {
  EXPECT_EQ(human_count(737), "737");
  EXPECT_EQ(human_count(65.6e6), "65.6M");
  EXPECT_EQ(human_count(1.8e9), "1.8B");
}

TEST(Strutil, Fixed) { EXPECT_EQ(fixed(3.14159, 2), "3.14"); }

TEST(Strutil, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("0.3,,7", ','), (std::vector<std::string>{"0.3", "", "7"}));
}

TEST(Strutil, StrictParsersNameTheFlagAndTheReason) {
  const auto error_of = [](auto parse) -> std::string {
    try {
      parse();
    } catch (const Error& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_EQ(parse_int("16", "--ranks"), 16);
  EXPECT_EQ(parse_u64("18446744073709551615", "--seed"), UINT64_MAX);
  EXPECT_EQ(parse_double("-0.25", "--eps"), -0.25);
  const std::vector<std::pair<std::string, std::function<void()>>> bad = {
      {"--ranks: expected an integer", [] { parse_int("abc", "--ranks"); }},
      {"--approx: expected an integer", [] { parse_int("2.5", "--approx"); }},
      {"--top: value must be non-negative", [] { parse_int("-1", "--top"); }},
      {"--top: value must be at most 7", [] { parse_int("8", "--top", 7); }},
      {"--seed: value must be non-negative", [] { parse_u64("-1", "--seed"); }},
      {"--seed: value must fit in 64 bits",
       [] { parse_u64("18446744073709551616", "--seed"); }},
      {"--eps: expected a number", [] { parse_double("", "--eps"); }},
      {"--eps: expected a finite number", [] { parse_double("nan", "--eps"); }},
  };
  for (const auto& [message, parse] : bad) EXPECT_EQ(error_of(parse), message);
}

}  // namespace
}  // namespace mfbc
