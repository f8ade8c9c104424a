// Tests for the sequential sparse kernels: construction, elementwise and
// structural ops, and the generalized SpGEMM against a dense reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "algebra/centpath.hpp"
#include "algebra/multpath.hpp"
#include "algebra/tropical.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/ops.hpp"
#include "sparse/spgemm.hpp"
#include "support/rng.hpp"

namespace mfbc::sparse {
namespace {

using algebra::BellmanFordAction;
using algebra::BrandesAction;
using algebra::Centpath;
using algebra::CentpathMonoid;
using algebra::kInfWeight;
using algebra::Multpath;
using algebra::MultpathMonoid;
using algebra::SumMonoid;
using algebra::TropicalMinMonoid;

Csr<double> random_csr(vid_t m, vid_t n, double density, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Coo<double> coo(m, n);
  for (vid_t i = 0; i < m; ++i) {
    for (vid_t j = 0; j < n; ++j) {
      if (rng.uniform01() < density) {
        coo.push(i, j, static_cast<double>(1 + rng.bounded(9)));
      }
    }
  }
  return Csr<double>::from_coo<SumMonoid>(std::move(coo));
}

/// Dense reference of the generalized product over (SumMonoid, multiply).
std::vector<double> dense_matmul(const Csr<double>& a, const Csr<double>& b) {
  std::vector<double> c(static_cast<std::size_t>(a.nrows()) *
                            static_cast<std::size_t>(b.ncols()),
                        0.0);
  for (vid_t i = 0; i < a.nrows(); ++i) {
    auto cols = a.row_cols(i);
    auto vals = a.row_vals(i);
    for (std::size_t x = 0; x < cols.size(); ++x) {
      auto bc = b.row_cols(cols[x]);
      auto bv = b.row_vals(cols[x]);
      for (std::size_t y = 0; y < bc.size(); ++y) {
        c[static_cast<std::size_t>(i) * static_cast<std::size_t>(b.ncols()) +
          static_cast<std::size_t>(bc[y])] += vals[x] * bv[y];
      }
    }
  }
  return c;
}

struct Times {
  double operator()(double a, double b) const { return a * b; }
};

TEST(Coo, SortAndCombineMergesDuplicates) {
  Coo<double> coo(3, 3);
  coo.push(1, 2, 1.0);
  coo.push(0, 0, 2.0);
  coo.push(1, 2, 3.0);
  coo.push(2, 1, -1.0);
  coo.push(2, 1, 1.0);  // cancels to the SumMonoid identity -> dropped
  coo.sort_and_combine<SumMonoid>();
  ASSERT_EQ(coo.nnz(), 2);
  EXPECT_EQ(coo.entries()[0], (CooEntry<double>{0, 0, 2.0}));
  EXPECT_EQ(coo.entries()[1], (CooEntry<double>{1, 2, 4.0}));
}

TEST(Coo, BoundsChecked) {
  Coo<double> coo(2, 2);
  EXPECT_NO_THROW(coo.push(1, 1, 1.0));
#ifndef NDEBUG
  EXPECT_THROW(coo.push(2, 0, 1.0), Error);
#endif
}

TEST(Csr, FromCooAndRoundTrip) {
  Coo<double> coo(4, 5);
  coo.push(0, 1, 1.0);
  coo.push(2, 0, 2.0);
  coo.push(2, 4, 3.0);
  coo.push(3, 3, 4.0);
  auto a = Csr<double>::from_coo<SumMonoid>(std::move(coo));
  EXPECT_EQ(a.nrows(), 4);
  EXPECT_EQ(a.ncols(), 5);
  EXPECT_EQ(a.nnz(), 4);
  EXPECT_EQ(a.row_nnz(2), 2);
  EXPECT_EQ(a.row_cols(2)[0], 0);
  EXPECT_EQ(a.row_cols(2)[1], 4);
  auto back = Csr<double>::from_coo<SumMonoid>(a.to_coo());
  EXPECT_EQ(a, back);
}

TEST(Csr, EmptyMatrix) {
  Csr<double> a(3, 7);
  EXPECT_EQ(a.nnz(), 0);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.row_nnz(2), 0);
}

TEST(Csr, InvalidConstructionThrows) {
  EXPECT_THROW(Csr<double>(2, 2, {0, 1}, {0}, {1.0}), Error);       // rowptr len
  EXPECT_THROW(Csr<double>(1, 2, {0, 2}, {0}, {1.0}), Error);       // nnz
  EXPECT_THROW(Csr<double>(1, 1, {0, 1}, {0}, {1.0, 2.0}), Error);  // col/val
}

TEST(Ops, EwiseUnionDisjointAndOverlap) {
  Coo<double> ca(2, 3), cb(2, 3);
  ca.push(0, 0, 1.0);
  ca.push(1, 2, 2.0);
  cb.push(0, 1, 3.0);
  cb.push(1, 2, 5.0);
  auto a = Csr<double>::from_coo<SumMonoid>(std::move(ca));
  auto b = Csr<double>::from_coo<SumMonoid>(std::move(cb));
  auto c = ewise_union<SumMonoid>(a, b);
  EXPECT_EQ(c.nnz(), 3);
  EXPECT_EQ(c.row_vals(0)[0], 1.0);
  EXPECT_EQ(c.row_vals(0)[1], 3.0);
  EXPECT_EQ(c.row_vals(1)[0], 7.0);
}

TEST(Ops, EwiseUnionDropsIdentity) {
  Coo<double> ca(1, 2), cb(1, 2);
  ca.push(0, 0, 4.0);
  cb.push(0, 0, -4.0);
  auto a = Csr<double>::from_coo<SumMonoid>(std::move(ca));
  auto b = Csr<double>::from_coo<SumMonoid>(std::move(cb));
  EXPECT_EQ(ewise_union<SumMonoid>(a, b).nnz(), 0);
}

TEST(Ops, EwiseUnionShapeMismatchThrows) {
  Csr<double> a(2, 2), b(2, 3);
  EXPECT_THROW(ewise_union<SumMonoid>(a, b), Error);
}

TEST(Ops, FilterByPredicate) {
  auto a = random_csr(6, 6, 0.5, 42);
  auto odd_cols = filter(a, [](vid_t, vid_t c, double) { return c % 2 == 1; });
  EXPECT_EQ(odd_cols.nrows(), a.nrows());
  nnz_t count = 0;
  for (vid_t r = 0; r < a.nrows(); ++r) {
    for (vid_t c : a.row_cols(r)) count += c % 2;
  }
  EXPECT_EQ(odd_cols.nnz(), count);
}

TEST(Ops, MapValuesChangesType) {
  auto a = random_csr(4, 4, 0.6, 3);
  auto m = map_values<Multpath>(
      a, [](vid_t, vid_t, double w) { return Multpath{w, 1.0}; });
  EXPECT_EQ(m.nnz(), a.nnz());
  for (vid_t r = 0; r < m.nrows(); ++r) {
    auto vals = m.row_vals(r);
    auto orig = a.row_vals(r);
    for (std::size_t i = 0; i < vals.size(); ++i) {
      EXPECT_EQ(vals[i].w, orig[i]);
      EXPECT_EQ(vals[i].m, 1.0);
    }
  }
}

TEST(Ops, TransposeInvolution) {
  auto a = random_csr(7, 5, 0.4, 11);
  auto t = transpose(a);
  EXPECT_EQ(t.nrows(), 5);
  EXPECT_EQ(t.ncols(), 7);
  EXPECT_EQ(transpose(t), a);
}

TEST(Ops, TransposeEntryCorrespondence) {
  auto a = random_csr(6, 6, 0.5, 13);
  auto t = transpose(a);
  for (vid_t r = 0; r < a.nrows(); ++r) {
    auto cols = a.row_cols(r);
    auto vals = a.row_vals(r);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      auto tc = t.row_cols(cols[i]);
      auto tv = t.row_vals(cols[i]);
      bool found = false;
      for (std::size_t j = 0; j < tc.size(); ++j) {
        if (tc[j] == r) {
          EXPECT_EQ(tv[j], vals[i]);
          found = true;
        }
      }
      EXPECT_TRUE(found);
    }
  }
}

TEST(Ops, SliceRowsMatchesFilter) {
  auto a = random_csr(10, 6, 0.4, 17);
  auto s = slice_rows(a, 3, 7);
  EXPECT_EQ(s.nrows(), 4);
  EXPECT_EQ(s.ncols(), 6);
  for (vid_t r = 0; r < 4; ++r) {
    ASSERT_EQ(s.row_nnz(r), a.row_nnz(r + 3));
    auto sc = s.row_cols(r);
    auto ac = a.row_cols(r + 3);
    for (std::size_t i = 0; i < sc.size(); ++i) EXPECT_EQ(sc[i], ac[i]);
  }
}

TEST(Ops, SliceColsKeepsShapeAndIndexSpace) {
  auto a = random_csr(8, 10, 0.4, 19);
  auto s = slice_cols(a, 2, 6);
  EXPECT_EQ(s.nrows(), a.nrows());
  EXPECT_EQ(s.ncols(), a.ncols());
  for (vid_t r = 0; r < s.nrows(); ++r) {
    for (vid_t c : s.row_cols(r)) {
      EXPECT_GE(c, 2);
      EXPECT_LT(c, 6);
    }
  }
}

TEST(Ops, EmbedRowsRoundTripsWithSlice) {
  auto a = random_csr(4, 5, 0.5, 23);
  auto e = embed_rows(a, 10, 3);
  EXPECT_EQ(e.nrows(), 10);
  EXPECT_EQ(e.nnz(), a.nnz());
  EXPECT_EQ(slice_rows(e, 3, 7), a);
  EXPECT_EQ(e.row_nnz(0), 0);
  EXPECT_EQ(e.row_nnz(9), 0);
}

class SpgemmRandom
    : public ::testing::TestWithParam<std::tuple<int, int, int, double>> {};

TEST_P(SpgemmRandom, MatchesDenseReference) {
  auto [m, k, n] = std::tuple{std::get<0>(GetParam()), std::get<1>(GetParam()),
                              std::get<2>(GetParam())};
  const double density = std::get<3>(GetParam());
  auto a = random_csr(m, k, density, 101 + static_cast<std::uint64_t>(m));
  auto b = random_csr(k, n, density, 202 + static_cast<std::uint64_t>(n));
  SpgemmStats st;
  auto c = spgemm<SumMonoid>(a, b, Times{}, &st);
  EXPECT_EQ(st.ops, spgemm_ops(a, b));
  auto ref = dense_matmul(a, b);
  for (vid_t i = 0; i < c.nrows(); ++i) {
    std::vector<double> row(static_cast<std::size_t>(n), 0.0);
    auto cols = c.row_cols(i);
    auto vals = c.row_vals(i);
    for (std::size_t x = 0; x < cols.size(); ++x) {
      row[static_cast<std::size_t>(cols[x])] = vals[x];
    }
    for (vid_t j = 0; j < n; ++j) {
      EXPECT_DOUBLE_EQ(
          row[static_cast<std::size_t>(j)],
          ref[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
              static_cast<std::size_t>(j)])
          << "at (" << i << "," << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SpgemmRandom,
    ::testing::Values(std::tuple{1, 1, 1, 1.0}, std::tuple{4, 4, 4, 0.5},
                      std::tuple{8, 3, 5, 0.4}, std::tuple{16, 16, 16, 0.2},
                      std::tuple{5, 20, 7, 0.3}, std::tuple{32, 8, 32, 0.1},
                      std::tuple{10, 10, 10, 0.0},
                      std::tuple{24, 24, 24, 0.9}));

TEST(Spgemm, RowOffsetSliceEquivalence) {
  // Multiplying against a row slice of B with b_row_offset must equal the
  // slice-extended product: contributions from k outside the slice vanish.
  auto a = random_csr(6, 12, 0.5, 31);
  auto b = random_csr(12, 6, 0.5, 37);
  auto full = spgemm<SumMonoid>(a, b, Times{});
  // Sum of the products against each of three k-slices == full product.
  Csr<double> acc(6, 6);
  for (vid_t lo = 0; lo < 12; lo += 4) {
    auto bs = slice_rows(b, lo, lo + 4);
    auto part = spgemm<SumMonoid>(a, bs, Times{}, nullptr, lo);
    acc = ewise_union<SumMonoid>(acc, part);
  }
  EXPECT_EQ(acc, full);
}

TEST(Spgemm, MultpathShortestPathSemantics) {
  // Two-hop relaxation on a diamond: s->a (1), s->b (1), a->t (1), b->t (1):
  // the product must find t at distance 2 with multiplicity 2.
  Coo<Multpath> fc(1, 4);
  fc.push(0, 1, Multpath{1.0, 1.0});  // a
  fc.push(0, 2, Multpath{1.0, 1.0});  // b
  auto f = Csr<Multpath>::from_coo<MultpathMonoid>(std::move(fc));
  Coo<double> ac(4, 4);
  ac.push(1, 3, 1.0);
  ac.push(2, 3, 1.0);
  auto adj = Csr<double>::from_coo<SumMonoid>(std::move(ac));
  auto g = spgemm<MultpathMonoid>(f, adj, algebra::BellmanFordAction{});
  ASSERT_EQ(g.nnz(), 1);
  EXPECT_EQ(g.row_cols(0)[0], 3);
  EXPECT_EQ(g.row_vals(0)[0], (Multpath{2.0, 2.0}));
}

TEST(Spgemm, InnerDimensionMismatchThrows) {
  Csr<double> a(2, 3), b(4, 2);
  EXPECT_THROW(spgemm<SumMonoid>(a, b, Times{}), Error);
}

// ---- Row emission: dense rows by occupancy scan, sparse rows by sort ----
//
// The kernel emits a row by scanning its occupancy bytes when the row touched
// more than 1/detail::kDenseRowFactor of the output width, and by sorting its
// touched list otherwise. These tests check both paths against an
// independent oracle, a dense fold in k order, on outputs of width 4096 whose
// rows touch every count from one column to the full width.

constexpr vid_t kEmitWidth = 4096;

/// Touched counts of the B rows for an output of `width` columns: every
/// density from one entry to the full width, packed around the threshold.
std::vector<vid_t> emission_row_sizes(vid_t width) {
  const auto edge = static_cast<vid_t>(static_cast<std::size_t>(width) /
                                       detail::kDenseRowFactor);
  std::vector<vid_t> sizes{1,         2,        5,         17,
                           edge - 1,  edge,     edge + 1,  width / 8,
                           width / 4, width / 2, 3 * width / 4,
                           width - 1, width};
  std::erase_if(sizes, [&](vid_t x) { return x < 1 || x > width; });
  return sizes;
}

/// B (width columns): each size of emission_row_sizes on a random column
/// subset, twice in a row — rows 2t and 2t+1 are identical — with weights
/// U{1..3}, so equal-weight ties are common.
Csr<double> emission_b(vid_t width, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<vid_t> perm(static_cast<std::size_t>(width));
  std::iota(perm.begin(), perm.end(), vid_t{0});
  std::vector<nnz_t> rowptr{0};
  std::vector<vid_t> col;
  std::vector<double> val;
  for (vid_t size : emission_row_sizes(width)) {
    for (vid_t x = 0; x < size; ++x) {  // partial Fisher–Yates
      const auto y = x + static_cast<vid_t>(rng.bounded(
                             static_cast<std::uint64_t>(width - x)));
      std::swap(perm[static_cast<std::size_t>(x)],
                perm[static_cast<std::size_t>(y)]);
    }
    std::vector<vid_t> cols(perm.begin(), perm.begin() + size);
    std::sort(cols.begin(), cols.end());
    std::vector<double> vals;
    for (vid_t x = 0; x < size; ++x) vals.push_back(rng.weight(1, 3));
    for (int twin = 0; twin < 2; ++twin) {
      col.insert(col.end(), cols.begin(), cols.end());
      val.insert(val.end(), vals.begin(), vals.end());
      rowptr.push_back(static_cast<nnz_t>(col.size()));
    }
  }
  const auto rows = static_cast<vid_t>(rowptr.size() - 1);
  return Csr<double>(rows, width, std::move(rowptr), std::move(col),
                     std::move(val));
}

/// A over value type TA with inner dimension `inner` (B's row count): an
/// empty row; each B row alone; each twin pair with opposite integer
/// coefficients (a SumMonoid product that cancels to the identity), alone
/// and plus one more row; then rows of 2..8 random B rows. `of(coef)` maps
/// an integer coefficient in ±[1..9] to a TA value.
template <typename TA, typename Of>
Csr<TA> emission_a(vid_t inner, std::uint64_t seed, Of of) {
  Xoshiro256 rng(seed);
  auto coef = [&] {
    const auto c = static_cast<int>(1 + rng.bounded(9));
    return rng.bounded(2) == 0 ? c : -c;
  };
  std::vector<std::vector<std::pair<vid_t, int>>> rows{{}};
  for (vid_t k = 0; k < inner; ++k) rows.push_back({{k, coef()}});
  for (vid_t k = 0; k + 1 < inner; k += 2) {
    const int c = coef();
    rows.push_back({{k, c}, {k + 1, -c}});
    const auto other = static_cast<vid_t>(
        rng.bounded(static_cast<std::uint64_t>(inner)));
    if (other != k && other != k + 1) {
      rows.push_back({{k, c}, {k + 1, -c}, {other, coef()}});
      std::sort(rows.back().begin(), rows.back().end());
    }
  }
  for (int r = 0; r < 24; ++r) {
    std::vector<vid_t> ks(static_cast<std::size_t>(inner));
    std::iota(ks.begin(), ks.end(), vid_t{0});
    const auto picks = static_cast<std::size_t>(2 + rng.bounded(7));
    for (std::size_t x = 0; x < picks; ++x) {
      std::swap(ks[x], ks[x + rng.bounded(ks.size() - x)]);
    }
    ks.resize(picks);
    std::sort(ks.begin(), ks.end());
    rows.emplace_back();
    for (vid_t k : ks) rows.back().push_back({k, coef()});
  }
  std::vector<nnz_t> rowptr{0};
  std::vector<vid_t> col;
  std::vector<TA> val;
  for (const auto& row : rows) {
    for (const auto& [k, c] : row) {
      col.push_back(k);
      val.push_back(of(c));
    }
    rowptr.push_back(static_cast<nnz_t>(col.size()));
  }
  return Csr<TA>(static_cast<vid_t>(rows.size()), inner, std::move(rowptr),
                 std::move(col), std::move(val));
}

/// The oracle: C(i,:) as a dense fold of f(A(i,k), B(k,:)) over A's row in k
/// order, starting from the identity, then every non-identity column in
/// index order. `touched` (optional) receives each row's count of columns
/// any product reached.
template <algebra::Monoid M, typename TA, typename TB, typename F>
Csr<typename M::value_type> dense_fold(const Csr<TA>& a, const Csr<TB>& b,
                                       F f, vid_t b_row_offset = 0,
                                       std::vector<vid_t>* touched = nullptr) {
  using TC = typename M::value_type;
  const auto width = static_cast<std::size_t>(b.ncols());
  std::vector<nnz_t> rowptr{0};
  std::vector<vid_t> col;
  std::vector<TC> val;
  for (vid_t i = 0; i < a.nrows(); ++i) {
    std::vector<TC> row(width, M::identity());
    std::vector<char> hit(width, 0);
    auto acs = a.row_cols(i);
    auto avs = a.row_vals(i);
    for (std::size_t t = 0; t < acs.size(); ++t) {
      const vid_t k = acs[t] - b_row_offset;
      if (k < 0 || k >= b.nrows()) continue;
      auto bcs = b.row_cols(k);
      auto bvs = b.row_vals(k);
      for (std::size_t u = 0; u < bcs.size(); ++u) {
        const auto j = static_cast<std::size_t>(bcs[u]);
        row[j] = M::combine(row[j], f(avs[t], bvs[u]));
        hit[j] = 1;
      }
    }
    for (std::size_t j = 0; j < width; ++j) {
      if (M::is_identity(row[j])) continue;
      col.push_back(static_cast<vid_t>(j));
      val.push_back(row[j]);
    }
    rowptr.push_back(static_cast<nnz_t>(col.size()));
    if (touched != nullptr) {
      touched->push_back(
          static_cast<vid_t>(std::count(hit.begin(), hit.end(), 1)));
    }
  }
  return Csr<TC>(a.nrows(), b.ncols(), std::move(rowptr), std::move(col),
                 std::move(val));
}

template <typename T>
void expect_strictly_ascending_rows(const Csr<T>& c) {
  for (vid_t i = 0; i < c.nrows(); ++i) {
    auto cols = c.row_cols(i);
    for (std::size_t x = 1; x < cols.size(); ++x) {
      ASSERT_LT(cols[x - 1], cols[x]) << "row " << i;
    }
  }
}

/// spgemm (on the calling thread's workspace) equals the dense fold, with
/// strictly ascending columns, on the whole of B and on a row slice of it.
template <algebra::Monoid M, typename TA, typename F>
void expect_matches_dense_fold(const Csr<TA>& a, const Csr<double>& b, F f) {
  const auto c = spgemm<M>(a, b, f);
  EXPECT_EQ(c, dense_fold<M>(a, b, f));
  expect_strictly_ascending_rows(c);
  const vid_t lo = 6, hi = b.nrows() - 4;
  const auto bs = slice_rows(b, lo, hi);
  const auto cs = spgemm<M>(a, bs, f, nullptr, lo);
  EXPECT_EQ(cs, dense_fold<M>(a, bs, f, lo));
  expect_strictly_ascending_rows(cs);
}

TEST(SpgemmEmission, SumDropsCancelledColumnsOnBothPaths) {
  const auto b = emission_b(kEmitWidth, 3);
  const auto a = emission_a<double>(b.nrows(), 4,
                                    [](int c) { return double(c); });
  // The rows touch every count from none to the full width, including
  // both sides of the dense/sparse threshold.
  std::vector<vid_t> touched;
  dense_fold<SumMonoid>(a, b, Times{}, 0, &touched);
  const auto edge = kEmitWidth / static_cast<vid_t>(detail::kDenseRowFactor);
  for (vid_t t : {vid_t{0}, vid_t{1}, edge, edge + 1, kEmitWidth}) {
    EXPECT_NE(std::find(touched.begin(), touched.end(), t), touched.end())
        << "no row touches exactly " << t << " columns";
  }
  expect_matches_dense_fold<SumMonoid>(a, b, Times{});
  // Row 1 + b.nrows() is the first twin pair with opposite coefficients:
  // one touched column, empty result. The last twin pair is full width.
  const auto c = spgemm<SumMonoid>(a, b, Times{});
  EXPECT_EQ(c.row_nnz(1 + b.nrows()), 0);
  vid_t full_cancel = -1;
  for (vid_t i = 0; i < a.nrows() && full_cancel < 0; ++i) {
    auto ks = a.row_cols(i);
    if (ks.size() == 2 && ks[0] == b.nrows() - 2) full_cancel = i;
  }
  ASSERT_GE(full_cancel, 0);
  EXPECT_EQ(b.row_nnz(b.nrows() - 1), kEmitWidth);
  EXPECT_EQ(c.row_nnz(full_cancel), 0);
}

TEST(SpgemmEmission, MultpathMatchesDenseFold) {
  const auto b = emission_b(kEmitWidth, 5);
  const auto a = emission_a<Multpath>(b.nrows(), 6, [](int c) {
    return Multpath{double(1 + std::abs(c) % 3), double(std::abs(c))};
  });
  expect_matches_dense_fold<MultpathMonoid>(a, b, BellmanFordAction{});
}

TEST(SpgemmEmission, CentpathMatchesDenseFold) {
  const auto b = emission_b(kEmitWidth, 7);
  const auto a = emission_a<Centpath>(b.nrows(), 8, [](int c) {
    return Centpath{double(20 + std::abs(c) % 3), double(c), -1.0};
  });
  expect_matches_dense_fold<CentpathMonoid>(a, b, BrandesAction{});
}

TEST(SpgemmEmission, OneWorkspaceAcrossMonoidsWidthsAndSlices) {
  // SumMonoid (identity 0) and TropicalMinMonoid (identity +inf) share
  // TC = double, so switching monoids must refill the accumulator; widths
  // shrink and grow so stale scratch past the logical width must not leak.
  SpgemmWorkspace<double> ws;
  struct Extend {
    double operator()(double x, double y) const { return x + y; }
  };
  std::uint64_t seed = 11;
  for (vid_t width : {kEmitWidth, vid_t{300}, kEmitWidth + 5, vid_t{4096}}) {
    const auto b = emission_b(width, seed++);
    const auto a = emission_a<double>(b.nrows(), seed++,
                                      [](int c) { return double(c); });
    const vid_t lo = 4;
    const auto bs = slice_rows(b, lo, b.nrows() - 2);
    const auto sum = spgemm<SumMonoid>(a, b, Times{}, nullptr, 0, &ws);
    EXPECT_EQ(sum, dense_fold<SumMonoid>(a, b, Times{}));
    const auto trop =
        spgemm<TropicalMinMonoid>(a, bs, Extend{}, nullptr, lo, &ws);
    EXPECT_EQ(trop, dense_fold<TropicalMinMonoid>(a, bs, Extend{}, lo));
    const auto sum_slice = spgemm<SumMonoid>(a, bs, Times{}, nullptr, lo, &ws);
    EXPECT_EQ(sum_slice, dense_fold<SumMonoid>(a, bs, Times{}, lo));
    expect_strictly_ascending_rows(sum);
    expect_strictly_ascending_rows(trop);
    expect_strictly_ascending_rows(sum_slice);
  }
}

TEST(SpgemmEmission, ThrowMidDenseRowThenNextMultiplyIsClean) {
  // The full-width B row alone: a dense row. The bridge throws halfway
  // through it, leaving the thread's scratch dirty; the next multiply on
  // this thread must refill it and match the oracle.
  const auto b = emission_b(kEmitWidth, 13);
  const vid_t full = b.nrows() - 1;
  ASSERT_EQ(b.row_nnz(full), kEmitWidth);
  Coo<double> one(1, b.nrows());
  one.push(0, full, 2.0);
  const auto a_dense = Csr<double>::from_coo<SumMonoid>(std::move(one));
  int calls = 0;
  auto throwing = [&](double x, double y) -> double {
    if (++calls == kEmitWidth / 2) throw std::runtime_error("bridge");
    return x * y;
  };
  EXPECT_THROW(spgemm<SumMonoid>(a_dense, b, throwing), std::runtime_error);
  EXPECT_EQ(calls, kEmitWidth / 2);
  const auto a = emission_a<double>(b.nrows(), 14,
                                    [](int c) { return double(c); });
  expect_matches_dense_fold<SumMonoid>(a, b, Times{});
}

}  // namespace
}  // namespace mfbc::sparse
