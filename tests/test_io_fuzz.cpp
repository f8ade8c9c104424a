// Round-trip property tests for graph I/O across random graph families,
// plus malformed-input error paths.
#include <gtest/gtest.h>

#include <sstream>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/more_generators.hpp"
#include "graph/prep.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace mfbc::graph {
namespace {

Graph random_graph(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const bool directed = rng.bounded(2) == 0;
  const bool weighted = rng.bounded(2) == 0;
  WeightSpec ws{weighted, 1, 50};
  switch (rng.bounded(3)) {
    case 0:
      return erdos_renyi(20 + static_cast<vid_t>(rng.bounded(60)),
                         80 + static_cast<nnz_t>(rng.bounded(200)), directed,
                         ws, seed + 1);
    case 1: {
      RmatParams p;
      p.scale = 6;
      p.edge_factor = 4;
      p.directed = directed;
      p.weights = ws;
      return remove_isolated(rmat(p, seed + 2));
    }
    default:
      return watts_strogatz(24 + static_cast<vid_t>(rng.bounded(30)), 4, 0.3,
                            ws, seed + 3);
  }
}

class IoRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IoRoundTrip, MatrixMarketPreservesGraphExactly) {
  Graph g = random_graph(GetParam());
  std::stringstream ss;
  write_matrix_market(ss, g);
  Graph h = read_matrix_market(ss);
  EXPECT_EQ(h.adj(), g.adj());
  EXPECT_EQ(h.directed(), g.directed());
  EXPECT_EQ(h.weighted(), g.weighted());
}

TEST_P(IoRoundTrip, EdgeListPreservesStructure) {
  // Edge lists cannot represent isolated vertices and carry no
  // directedness/weight metadata; compare against the cleaned graph with
  // the flags passed back in.
  Graph g = remove_isolated(random_graph(GetParam() ^ 0xE1));
  std::stringstream ss;
  write_edge_list(ss, g);
  Graph h = read_edge_list(ss, {.directed = g.directed(), .weighted = true});
  EXPECT_EQ(h.n(), g.n());
  EXPECT_EQ(h.m(), g.m());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IoRoundTrip,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(IoErrors, MatrixMarketBadBanner) {
  std::stringstream ss("%%NotMatrixMarket\n2 2 1\n1 2\n");
  EXPECT_THROW(read_matrix_market(ss), Error);
}

TEST(IoErrors, MatrixMarketTruncatedEntries) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 5\n1 2\n");
  EXPECT_THROW(read_matrix_market(ss), Error);
}

TEST(IoErrors, MatrixMarketRectangularRejected) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate pattern general\n3 4 1\n1 2\n");
  EXPECT_THROW(read_matrix_market(ss), Error);
}

TEST(IoErrors, EmptyFileRejected) {
  std::stringstream ss("");
  EXPECT_THROW(read_matrix_market(ss), Error);
}

TEST(IoErrors, EdgeListMissingWeight) {
  std::stringstream ss("1 2\n");
  EXPECT_THROW(read_edge_list(ss, {.weighted = true}), Error);
}

TEST(IoErrors, EdgeListNegativeId) {
  std::stringstream ss("-1 2\n");
  EXPECT_THROW(read_edge_list(ss, {}), Error);
}

TEST(IoErrors, MissingFile) {
  EXPECT_THROW(read_edge_list_file("/nonexistent/graph.txt", {}), Error);
}

/// Runs `fn`, expecting an mfbc::Error, and returns its message.
template <typename Fn>
std::string error_message(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected an mfbc::Error";
  return {};
}

TEST(IoErrors, MessagesCarrySourceAndLineContext) {
  std::stringstream ss("1 2\n3 x\n");
  const std::string msg =
      error_message([&] { read_edge_list(ss, {}, "edges.txt"); });
  // The bad token is on line 2 of the named stream.
  EXPECT_NE(msg.find("edges.txt:2:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("non-numeric vertex id 'x'"), std::string::npos) << msg;
}

TEST(IoErrors, EdgeListTruncatedLine) {
  std::stringstream ss("1 2\n3\n");
  const std::string msg = error_message([&] { read_edge_list(ss, {}); });
  EXPECT_NE(msg.find("truncated edge"), std::string::npos) << msg;
  EXPECT_NE(msg.find(":2:"), std::string::npos) << msg;
}

TEST(IoErrors, EdgeListOverflowingId) {
  std::stringstream ss("1 99999999999999999999999\n");
  const std::string msg = error_message([&] { read_edge_list(ss, {}); });
  EXPECT_NE(msg.find("overflowing vertex id"), std::string::npos) << msg;
}

TEST(IoErrors, EdgeListBadWeights) {
  std::stringstream bad_tok("1 2 abc\n");
  EXPECT_NE(error_message([&] { read_edge_list(bad_tok, {.weighted = true}); })
                .find("non-numeric edge weight 'abc'"),
            std::string::npos);
  std::stringstream negative("1 2 -3.5\n");
  EXPECT_NE(error_message([&] { read_edge_list(negative, {.weighted = true}); })
                .find("negative edge weight"),
            std::string::npos);
  // Zero (and signed zero) weights would reach Graph's positivity check as
  // an internal error; the parser names them with the file:line context.
  for (const char* zero : {"0", "0.0", "-0"}) {
    std::stringstream ss(std::string("1 2 5\n3 4 ") + zero + "\n");
    const std::string msg = error_message(
        [&] { read_edge_list(ss, {.weighted = true}, "zero.txt"); });
    EXPECT_NE(msg.find("zero.txt:2:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("zero edge weight"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("MFBC_CHECK"), std::string::npos) << msg;
  }
  std::stringstream mm(
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 0\n");
  EXPECT_NE(error_message([&] { read_matrix_market(mm); })
                .find("zero edge weight"),
            std::string::npos);
  std::stringstream inf("1 2 inf\n");
  EXPECT_NE(error_message([&] { read_edge_list(inf, {.weighted = true}); })
                .find("non-finite edge weight"),
            std::string::npos);
}

TEST(IoErrors, EdgeListZeroIdWhenOneIndexed) {
  std::stringstream ss("0 2\n");
  const std::string msg =
      error_message([&] { read_edge_list(ss, {.one_indexed = true}); });
  EXPECT_NE(msg.find("ids are 1-based here"), std::string::npos) << msg;
}

TEST(IoErrors, MatrixMarketIdOutOfRange) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 7\n");
  const std::string msg =
      error_message([&] { read_matrix_market(ss, "graph.mtx"); });
  EXPECT_NE(msg.find("graph.mtx:3:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("out of range [1, 3]"), std::string::npos) << msg;
}

TEST(IoErrors, MatrixMarketTruncationReportsCounts) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate pattern general\n3 3 5\n1 2\n2 3\n");
  const std::string msg = error_message([&] { read_matrix_market(ss); });
  EXPECT_NE(msg.find("expected 5 entries, got 2"), std::string::npos) << msg;
}

TEST(IoErrors, MatrixMarketNonNumericSizeLine) {
  std::stringstream ss("%%MatrixMarket matrix coordinate pattern general\n"
                       "3 3 five\n");
  const std::string msg = error_message([&] { read_matrix_market(ss); });
  EXPECT_NE(msg.find("non-numeric entry count 'five'"), std::string::npos)
      << msg;
}

TEST(Prep, InducedSubgraphBasics) {
  Graph g = Graph::from_edges(
      6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}}, false, false);
  const std::vector<vid_t> keep{1, 2, 3};
  std::vector<vid_t> map;
  Graph sub = induced_subgraph(g, keep, &map);
  EXPECT_EQ(sub.n(), 3);
  EXPECT_EQ(sub.m(), 2);  // edges (1,2) and (2,3) survive
  EXPECT_EQ(map[1], 0);
  EXPECT_EQ(map[2], 1);
  EXPECT_EQ(map[0], -1);
}

TEST(Prep, InducedSubgraphDeduplicatesAndValidates) {
  Graph g = Graph::from_edges(4, {{0, 1}, {2, 3}}, true, false);
  const std::vector<vid_t> keep{2, 3, 2};
  Graph sub = induced_subgraph(g, keep);
  EXPECT_EQ(sub.n(), 2);
  EXPECT_EQ(sub.m(), 1);
  const std::vector<vid_t> bad{9};
  EXPECT_THROW(induced_subgraph(g, bad), Error);
}

}  // namespace
}  // namespace mfbc::graph
