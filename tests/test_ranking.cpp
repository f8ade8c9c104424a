// Tests for the ranking utilities.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "mfbc/ranking.hpp"
#include "support/error.hpp"

namespace mfbc::core {
namespace {

TEST(TopK, OrdersByScoreDescending) {
  const std::vector<double> s{1.0, 5.0, 3.0, 4.0, 2.0};
  auto r = top_k(s, 3);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0].vertex, 1u);
  EXPECT_EQ(r[1].vertex, 3u);
  EXPECT_EQ(r[2].vertex, 2u);
}

TEST(TopK, TiesBrokenByVertexId) {
  const std::vector<double> s{2.0, 2.0, 2.0};
  auto r = top_k(s, 2);
  EXPECT_EQ(r[0].vertex, 0u);
  EXPECT_EQ(r[1].vertex, 1u);
}

TEST(TopK, ClampsK) {
  const std::vector<double> s{1.0, 2.0};
  EXPECT_EQ(top_k(s, 10).size(), 2u);
  EXPECT_TRUE(top_k({}, 3).empty());
}

// The serving layer's tie pin: with every score equal, top-k is the first k
// vertex ids in ascending order — the whole ranking is determined by the
// id tiebreak alone.
TEST(TopK, AllEqualScoresRankByVertexId) {
  const std::vector<double> s(8, 3.25);
  const auto r = top_k(s, 8);
  ASSERT_EQ(r.size(), 8u);
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_EQ(r[i].vertex, i);
    EXPECT_EQ(r[i].score, 3.25);
  }
}

TEST(TopK, TieAtTheKBoundaryTakesLowestIds) {
  // Scores: 9, then four vertices tied at 5. k=3 must take the two
  // lowest-id members of the tie class.
  const std::vector<double> s{5.0, 9.0, 5.0, 5.0, 5.0};
  const auto r = top_k(s, 3);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0].vertex, 1u);
  EXPECT_EQ(r[1].vertex, 0u);
  EXPECT_EQ(r[2].vertex, 2u);
}

// Determinism pin for the serve-layer cache: repeated top_k calls over the
// same scores are byte-identical — same ids, same score bit patterns — so
// a cached answer can never differ from a freshly computed one.
TEST(TopK, RepeatedCallsAreByteIdentical) {
  std::vector<double> s;
  for (int i = 0; i < 40; ++i) {
    s.push_back(static_cast<double>((i * 7919) % 13) / 3.0);
  }
  const auto a = top_k(s, 10);
  const auto b = top_k(s, 10);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].vertex, b[i].vertex);
    EXPECT_EQ(std::memcmp(&a[i].score, &b[i].score, sizeof(double)), 0);
  }
}

// Overflowed path counts turn λ into NaN or ±inf; ranking them would print a
// NaN beside real scores, so top_k names the first bad vertex instead.
TEST(TopK, RejectsNonFiniteScores) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [scores, first_bad] :
       {std::pair{std::vector<double>{1.0, nan, 3.0, inf}, "vertex v1;"},
        std::pair{std::vector<double>{1.0, 2.0, inf, nan}, "vertex v2;"}}) {
    try {
      top_k(scores, 1);
      ADD_FAILURE() << "no error for " << first_bad;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(first_bad), std::string::npos)
          << e.what();
    }
  }
}

TEST(TopKOverlap, IdenticalScoresGiveOne) {
  const std::vector<double> s{3.0, 1.0, 4.0, 1.5, 9.0};
  EXPECT_DOUBLE_EQ(top_k_overlap(s, s, 3), 1.0);
}

TEST(TopKOverlap, DisjointTopSetsGiveZero) {
  const std::vector<double> a{9.0, 8.0, 0.0, 0.0};
  const std::vector<double> b{0.0, 0.0, 9.0, 8.0};
  EXPECT_DOUBLE_EQ(top_k_overlap(a, b, 2), 0.0);
}

TEST(TopKOverlap, PartialOverlap) {
  const std::vector<double> a{9.0, 8.0, 7.0, 0.0};
  const std::vector<double> b{9.0, 0.0, 8.0, 7.0};
  EXPECT_DOUBLE_EQ(top_k_overlap(a, b, 2), 0.5);  // {0,1} vs {0,2}
}

TEST(TopKOverlap, Validates) {
  EXPECT_THROW(top_k_overlap({1.0}, {1.0, 2.0}, 1), Error);
  EXPECT_THROW(top_k_overlap({1.0}, {1.0}, 0), Error);
}

}  // namespace
}  // namespace mfbc::core
