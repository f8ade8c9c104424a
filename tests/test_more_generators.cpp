// Tests for the extra workload generators, plus the §5.2 load-balance
// property: after random relabeling, nonzeros spread nearly evenly over the
// blocks of a processor grid (the balls-into-bins assumption the paper's
// block cost model rests on).
#include <gtest/gtest.h>

#include "baseline/brandes.hpp"
#include "dist/dmatrix.hpp"
#include "graph/metrics.hpp"
#include "graph/more_generators.hpp"
#include "graph/prep.hpp"
#include "mfbc/mfbc_seq.hpp"
#include "support/error.hpp"

namespace mfbc::graph {
namespace {

TEST(WattsStrogatz, RingLatticeAtBetaZero) {
  Graph g = watts_strogatz(20, 4, 0.0, {}, 1);
  EXPECT_EQ(g.n(), 20);
  EXPECT_EQ(g.m(), 40);  // n·k/2
  auto stats = degree_stats(g);
  EXPECT_EQ(stats.min, 4);
  EXPECT_EQ(stats.max, 4);
  // Ring lattice has diameter ~ n/k.
  auto d = estimate_diameter(g, 20, 2);
  EXPECT_GE(d.lower_bound, 4);
}

TEST(WattsStrogatz, RewiringShrinksDiameter) {
  Graph lattice = watts_strogatz(256, 4, 0.0, {}, 3);
  Graph small = watts_strogatz(256, 4, 0.3, {}, 3);
  auto d0 = estimate_diameter(lattice, 32, 4);
  auto d1 = estimate_diameter(small, 32, 4);
  EXPECT_LT(d1.lower_bound, d0.lower_bound);
}

TEST(WattsStrogatz, ValidatesArguments) {
  EXPECT_THROW(watts_strogatz(10, 3, 0.1, {}, 1), Error);   // odd k
  EXPECT_THROW(watts_strogatz(10, 2, 1.5, {}, 1), Error);   // beta > 1
  EXPECT_THROW(watts_strogatz(3, 2, 0.1, {}, 1), Error);    // too small
}

TEST(BarabasiAlbert, PowerLawTail) {
  Graph g = barabasi_albert(2000, 3, {}, 5);
  EXPECT_EQ(g.n(), 2000);
  auto stats = degree_stats(g);
  EXPECT_GE(stats.min, 3);
  EXPECT_GT(static_cast<double>(stats.max), 6.0 * stats.avg);  // heavy tail
  EXPECT_EQ(weakly_connected_components(g), 1);  // attachment keeps it whole
}

TEST(BarabasiAlbert, DeterministicAndSeedSensitive) {
  Graph a = barabasi_albert(200, 2, {}, 7);
  Graph b = barabasi_albert(200, 2, {}, 7);
  Graph c = barabasi_albert(200, 2, {}, 8);
  EXPECT_EQ(a.adj(), b.adj());
  EXPECT_FALSE(a.adj() == c.adj());
}

TEST(Grid2d, PlainGridShape) {
  Graph g = grid_2d(5, /*torus=*/false, {}, 1);
  EXPECT_EQ(g.n(), 25);
  EXPECT_EQ(g.m(), 2 * 5 * 4);  // 2·side·(side−1)
  auto d = estimate_diameter(g, 25, 1);
  EXPECT_EQ(d.lower_bound, 8);  // corner to corner
}

TEST(Grid2d, TorusIsRegular) {
  Graph g = grid_2d(6, /*torus=*/true, {}, 1);
  EXPECT_EQ(g.m(), 2 * 6 * 6);
  auto stats = degree_stats(g);
  EXPECT_EQ(stats.min, 4);
  EXPECT_EQ(stats.max, 4);
}

TEST(Grid2d, WeightedBcMatchesBrandes) {
  WeightSpec ws{true, 1, 5};
  Graph g = grid_2d(6, false, ws, 9);
  auto ref = baseline::brandes(g);
  auto got = core::mfbc(g, {.batch_size = 12});
  for (std::size_t v = 0; v < ref.size(); ++v) {
    EXPECT_NEAR(got[v], ref[v], 1e-9 * (1.0 + ref[v]));
  }
}

TEST(LoadBalance, RandomRelabelSpreadsBlocks) {
  // §5.2: "randomizing the row and column order implies that the number of
  // nonzeros of each such block is proportional to the block size". A BA
  // graph without relabeling concentrates hubs in early rows; after random
  // relabeling the heaviest block of a 4x4 grid must be within a modest
  // factor of the average.
  Graph g = barabasi_albert(4096, 8, {}, 11);
  Graph shuffled = random_relabel(g, 13);
  sim::Sim sim(16);
  dist::Layout grid{0, 4, 4, dist::Range{0, g.n()}, dist::Range{0, g.n()},
                    false};
  auto d = dist::DistMatrix<Weight>::scatter(
      sim, shuffled.adj(), grid);
  const double avg = static_cast<double>(d.nnz()) / 16.0;
  EXPECT_LT(static_cast<double>(d.max_block_nnz()), 1.5 * avg);
}

}  // namespace
}  // namespace mfbc::graph
