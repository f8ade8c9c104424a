// Tests for the distributed matrix container: scatter/gather round trips,
// redistribution across layouts (including transposed homes), elementwise
// ops, and the cost charges that accompany the data movement.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <vector>

#include "algebra/tropical.hpp"
#include "dist/dmatrix.hpp"
#include "support/rng.hpp"

namespace mfbc::dist {

// Parameter names for the discovered ctest ids. Without this, gtest prints a
// Layout's raw bytes, padding included, so the ids changed between builds.
void PrintTo(const Layout& l, std::ostream* os) {
  *os << "r" << l.rank0 << "_" << l.pr << "x" << l.pc << "_rows"
      << l.rows.lo << "-" << l.rows.hi << "_cols" << l.cols.lo << "-"
      << l.cols.hi << (l.transposed ? "_T" : "");
}

namespace {

using algebra::SumMonoid;
using sparse::Coo;
using sparse::Csr;

Csr<double> random_csr(vid_t m, vid_t n, double density, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Coo<double> coo(m, n);
  for (vid_t i = 0; i < m; ++i) {
    for (vid_t j = 0; j < n; ++j) {
      if (rng.uniform01() < density) {
        coo.push(i, j, static_cast<double>(1 + rng.bounded(99)));
      }
    }
  }
  return Csr<double>::from_coo<SumMonoid>(std::move(coo));
}

TEST(DistMatrix, ScatterGatherRoundTrip) {
  sim::Sim sim(6);
  auto a = random_csr(20, 15, 0.3, 1);
  Layout l{0, 2, 3, Range{0, 20}, Range{0, 15}, false};
  auto d = DistMatrix<double>::scatter(sim, a, l);
  EXPECT_EQ(d.nnz(), a.nnz());
  EXPECT_EQ(d.gather(sim), a);
}

TEST(DistMatrix, ScatterChargesFullPayload) {
  sim::Sim sim(4);
  auto a = random_csr(16, 16, 0.25, 2);
  Layout l{0, 2, 2, Range{0, 16}, Range{0, 16}, false};
  DistMatrix<double>::scatter(sim, a, l);
  // Scatter of nnz entries at 2 words each (double value + index).
  EXPECT_DOUBLE_EQ(sim.ledger().critical().words,
                   static_cast<double>(a.nnz()) * 2.0);
}

TEST(DistMatrix, BlocksHoldLocalRowsGlobalCols) {
  sim::Sim sim(4);
  auto a = random_csr(8, 8, 0.5, 3);
  Layout l{0, 2, 2, Range{0, 8}, Range{0, 8}, false};
  auto d = DistMatrix<double>::scatter(sim, a, l);
  // Block (1,1): global rows 4..8, global cols 4..8; stored rows 0..4.
  const auto& blk = d.block(1, 1);
  EXPECT_EQ(blk.nrows(), 4);
  EXPECT_EQ(blk.ncols(), 8);
  for (vid_t r = 0; r < blk.nrows(); ++r) {
    for (vid_t c : blk.row_cols(r)) {
      EXPECT_GE(c, 4);
      EXPECT_LT(c, 8);
    }
  }
}

class RedistributeTest : public ::testing::TestWithParam<Layout> {};

TEST_P(RedistributeTest, PreservesContent) {
  sim::Sim sim(12);
  auto a = random_csr(24, 18, 0.3, 4);
  Layout src{0, 2, 2, Range{0, 24}, Range{0, 18}, false};
  auto d = DistMatrix<double>::scatter(sim, a, src);
  auto r = redistribute(sim, d, GetParam());
  EXPECT_EQ(r.gather(sim), a);
  // And back again.
  auto back = redistribute(sim, r, src);
  EXPECT_EQ(back.gather(sim), a);
}

INSTANTIATE_TEST_SUITE_P(
    Targets, RedistributeTest,
    ::testing::Values(Layout{0, 1, 1, Range{0, 24}, Range{0, 18}, false},
                      Layout{0, 4, 3, Range{0, 24}, Range{0, 18}, false},
                      Layout{0, 3, 4, Range{0, 24}, Range{0, 18}, true},
                      Layout{4, 2, 4, Range{0, 24}, Range{0, 18}, false},
                      Layout{0, 12, 1, Range{0, 24}, Range{0, 18}, false},
                      Layout{0, 1, 12, Range{0, 24}, Range{0, 18}, true}));

TEST(DistMatrix, RedistributeToSubRegionFilters) {
  sim::Sim sim(4);
  auto a = random_csr(10, 10, 0.5, 5);
  Layout src{0, 2, 2, Range{0, 10}, Range{0, 10}, false};
  auto d = DistMatrix<double>::scatter(sim, a, src);
  Layout sub{0, 2, 2, Range{0, 10}, Range{3, 8}, false};
  auto r = redistribute(sim, d, sub);
  EXPECT_EQ(r.gather(sim), sparse::slice_cols(a, 3, 8));
}

TEST(DistMatrix, RedistributeSameLayoutIsFree) {
  sim::Sim sim(4);
  auto a = random_csr(12, 12, 0.4, 6);
  Layout l{0, 2, 2, Range{0, 12}, Range{0, 12}, false};
  auto d = DistMatrix<double>::scatter(sim, a, l);
  sim.ledger().reset();
  auto r = redistribute(sim, d, l);
  EXPECT_DOUBLE_EQ(sim.ledger().critical().words, 0.0);
  EXPECT_EQ(r.gather(sim), a);
}

/// The words one redistribution of `a` must charge, counted entry by entry:
/// the max over ranks of the words each source rank sends to another rank
/// and the words each target block receives (2 words per double entry).
double expected_words(const Csr<double>& a, const std::vector<Layout>& srcs,
                      const std::vector<Layout>& targets, int nranks) {
  std::vector<double> sent(static_cast<std::size_t>(nranks), 0.0);
  std::vector<std::vector<double>> got(targets.size());
  for (std::size_t t = 0; t < targets.size(); ++t) {
    got[t].assign(static_cast<std::size_t>(targets[t].nranks()), 0.0);
  }
  auto inside = [](const Layout& l, vid_t r, vid_t c) {
    return l.rows.contains(r) && l.cols.contains(c);
  };
  for (vid_t r = 0; r < a.nrows(); ++r) {
    for (vid_t c : a.row_cols(r)) {
      const Layout* src = nullptr;
      for (const Layout& l : srcs) {
        if (inside(l, r, c)) src = &l;
      }
      if (src == nullptr) continue;
      auto [si, sj] = src->owner(r, c);
      for (std::size_t t = 0; t < targets.size(); ++t) {
        if (!inside(targets[t], r, c)) continue;
        auto [ti, tj] = targets[t].owner(r, c);
        got[t][static_cast<std::size_t>(ti * targets[t].pc + tj)] += 2.0;
        if (targets[t].rank_at(ti, tj) != src->rank_at(si, sj)) {
          sent[static_cast<std::size_t>(src->rank_at(si, sj))] += 2.0;
        }
      }
    }
  }
  double words = *std::max_element(sent.begin(), sent.end());
  for (const auto& g : got) {
    words = std::max(words, *std::max_element(g.begin(), g.end()));
  }
  return words;
}

Csr<double> region_of(const Csr<double>& a, Range rows, Range cols) {
  return sparse::filter(a, [&](vid_t r, vid_t c, double) {
    return rows.contains(r) && cols.contains(c);
  });
}

TEST(Redistribute, OneSourceToSeveralTargets) {
  sim::Sim sim(16);
  auto a = random_csr(24, 18, 0.3, 12);
  const Layout src{0, 2, 2, Range{0, 24}, Range{0, 18}, false};
  auto d = DistMatrix<double>::scatter(sim, a, src);
  // Three column bands: on fresh ranks, on a 2x1 grid, and transposed on
  // ranks the source also uses (entries staying on a rank are not sent).
  const std::vector<Layout> targets{
      {4, 2, 2, Range{0, 24}, Range{0, 6}, false},
      {8, 2, 1, Range{0, 24}, Range{6, 12}, false},
      {0, 3, 2, Range{0, 24}, Range{12, 18}, true}};
  sim.ledger().reset();
  auto out = redistribute<double>(sim, {&d}, targets);
  ASSERT_EQ(out.size(), targets.size());
  for (std::size_t t = 0; t < targets.size(); ++t) {
    EXPECT_EQ(out[t].layout(), targets[t]);
    sim::Sim probe(16);
    EXPECT_EQ(out[t].gather(probe), region_of(a, targets[t].rows,
                                              targets[t].cols));
  }
  EXPECT_EQ(sim.ledger().critical().words,
            expected_words(a, {src}, targets, 16));
  EXPECT_GT(sim.ledger().critical().msgs, 0.0);
}

TEST(Redistribute, SeveralSourcesToOneTargetWithSubRegion) {
  sim::Sim sim(12);
  auto a = random_csr(24, 18, 0.35, 13);
  // Two sources tile the rows; the target holds only a sub-region of the
  // matrix, so every entry outside it is dropped.
  const Layout top{0, 2, 2, Range{0, 10}, Range{0, 18}, false};
  const Layout bottom{4, 1, 3, Range{10, 24}, Range{0, 18}, true};
  auto d0 = DistMatrix<double>::scatter(sim, a, top);
  auto d1 = DistMatrix<double>::scatter(sim, a, bottom);
  const Layout target{8, 2, 2, Range{3, 20}, Range{2, 15}, false};
  sim.ledger().reset();
  auto out = redistribute<double>(sim, {&d0, &d1}, {target});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].layout(), target);
  sim::Sim probe(12);
  EXPECT_EQ(out[0].gather(probe), region_of(a, target.rows, target.cols));
  EXPECT_EQ(sim.ledger().critical().words,
            expected_words(a, {top, bottom}, {target}, 12));
}

TEST(Redistribute, OverlappingSourcesOrTargetsThrow) {
  sim::Sim sim(8);
  auto a = random_csr(12, 12, 0.3, 14);
  auto d0 = DistMatrix<double>::scatter(
      sim, a, Layout{0, 2, 2, Range{0, 8}, Range{0, 12}, false});
  auto d1 = DistMatrix<double>::scatter(
      sim, a, Layout{4, 2, 2, Range{6, 12}, Range{0, 12}, false});
  const Layout whole{0, 2, 4, Range{0, 12}, Range{0, 12}, false};
  EXPECT_THROW(redistribute<double>(sim, {&d0, &d1}, {whole}), Error);
  const Layout left{0, 2, 2, Range{0, 12}, Range{0, 7}, false};
  const Layout right{4, 2, 2, Range{0, 12}, Range{5, 12}, false};
  EXPECT_THROW(redistribute<double>(sim, {&d0}, {left, right}), Error);
}

TEST(DistMatrix, EwiseUnionMatchesSequential) {
  sim::Sim sim(6);
  auto a = random_csr(15, 15, 0.3, 7);
  auto b = random_csr(15, 15, 0.3, 8);
  Layout l{0, 3, 2, Range{0, 15}, Range{0, 15}, false};
  auto da = DistMatrix<double>::scatter(sim, a, l);
  auto db = DistMatrix<double>::scatter(sim, b, l);
  auto dc = ewise_union<SumMonoid>(sim, da, db);
  EXPECT_EQ(dc.gather(sim), sparse::ewise_union<SumMonoid>(a, b));
}

TEST(DistMatrix, EwiseUnionLayoutMismatchThrows) {
  sim::Sim sim(4);
  auto a = random_csr(8, 8, 0.3, 9);
  Layout l1{0, 2, 2, Range{0, 8}, Range{0, 8}, false};
  Layout l2{0, 4, 1, Range{0, 8}, Range{0, 8}, false};
  auto da = DistMatrix<double>::scatter(sim, a, l1);
  auto db = DistMatrix<double>::scatter(sim, a, l2);
  EXPECT_THROW(ewise_union<SumMonoid>(sim, da, db), Error);
}

TEST(DistMatrix, FilterMatchesSequential) {
  sim::Sim sim(6);
  auto a = random_csr(12, 9, 0.4, 10);
  Layout l{0, 2, 3, Range{0, 12}, Range{0, 9}, false};
  auto d = DistMatrix<double>::scatter(sim, a, l);
  auto pred = [](vid_t r, vid_t c, double v) {
    return (r + c) % 2 == 0 && v > 20;
  };
  auto f = filter(sim, d, pred);
  EXPECT_EQ(f.gather(sim), sparse::filter(a, pred));
}

TEST(DistMatrix, EmptyBlocksWhenMoreRanksThanRows) {
  sim::Sim sim(8);
  auto a = random_csr(3, 3, 0.8, 11);
  Layout l{0, 8, 1, Range{0, 3}, Range{0, 3}, false};
  auto d = DistMatrix<double>::scatter(sim, a, l);
  EXPECT_EQ(d.gather(sim), a);
  // With 3 rows over 8 ranks, 5 ranks own empty row ranges (floor split
  // places them first).
  int empty = 0;
  for (int i = 0; i < 8; ++i) empty += d.block(i, 0).nrows() == 0;
  EXPECT_EQ(empty, 5);
  EXPECT_EQ(d.block(0, 0).nrows(), 0);
}

}  // namespace
}  // namespace mfbc::dist
