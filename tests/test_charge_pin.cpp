// Pins what one distributed multiply delivers and charges, per plan family.
//
// At p = 16 a fixed seeded frontier (on the near-square state grid) times a
// fixed seeded adjacency (on the 4×4 base grid) runs through dist::spgemm
// once per plan family — 1D A/B/C, 2D AB/AC/BC, 3D plans with p1 > 1, sync
// and async schedules, and a HomeCache hit — with the state grid as
// out_layout. Every delivered block must equal the matching slice of the
// sequential product, and the ledger's critical-path words, messages, comm
// seconds and compute seconds must equal the recorded values exactly. Any
// change to how operands are mapped, multiplied or delivered that moves a
// single charged word or second fails here.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "algebra/multpath.hpp"
#include "dist/spgemm_dist.hpp"
#include "sparse/ops.hpp"
#include "sparse/spgemm.hpp"
#include "support/rng.hpp"

namespace mfbc::dist {
namespace {

using algebra::BellmanFordAction;
using algebra::Multpath;
using algebra::MultpathMonoid;
using sparse::Coo;
using sparse::Csr;

constexpr int kP = 16;
constexpr vid_t kNb = 32;
constexpr vid_t kN = 96;

Csr<double> pin_adjacency() {
  Xoshiro256 rng(0x5eed1);
  Coo<double> coo(kN, kN);
  for (vid_t i = 0; i < kN; ++i) {
    for (vid_t j = 0; j < kN; ++j) {
      if (i != j && rng.uniform01() < 0.08) {
        coo.push(i, j, static_cast<double>(1 + rng.bounded(7)));
      }
    }
  }
  return Csr<double>::from_coo<algebra::SumMonoid>(std::move(coo));
}

Csr<Multpath> pin_frontier() {
  Xoshiro256 rng(0x5eed2);
  Coo<Multpath> coo(kNb, kN);
  for (vid_t i = 0; i < kNb; ++i) {
    for (vid_t j = 0; j < kN; ++j) {
      if (rng.uniform01() < 0.12) {
        coo.push(i, j,
                 Multpath{static_cast<double>(1 + rng.bounded(5)),
                          static_cast<double>(1 + rng.bounded(3))});
      }
    }
  }
  return Csr<Multpath>::from_coo<MultpathMonoid>(std::move(coo));
}

/// The block of `global` that grid position (i,j) of `l` owns, with local
/// rows and global columns.
template <typename T>
Csr<T> block_of(const Csr<T>& global, const Layout& l, int i, int j) {
  const Range rr = l.block_rows(i, j);
  const Range cr = l.block_cols(i, j);
  return sparse::slice_cols(sparse::slice_rows(global, rr.lo, rr.hi), cr.lo,
                            cr.hi);
}

/// Place `global` on `l` block by block, charging nothing.
template <typename T>
DistMatrix<T> place(const Csr<T>& global, const Layout& l) {
  DistMatrix<T> out(global.nrows(), global.ncols(), l);
  for (int i = 0; i < l.pr; ++i) {
    for (int j = 0; j < l.pc; ++j) out.block(i, j) = block_of(global, l, i, j);
  }
  return out;
}

struct PinCase {
  std::string name;
  Plan plan;
  int multiplies;  ///< > 1 runs repeat multiplies through one HomeCache
  double words, msgs, comm_seconds, compute_seconds;
};

Plan make_plan(int p1, int p2, int p3, Variant1D v1, Variant2D v2,
               Sched sched = Sched::kSync, int tile = 0) {
  Plan plan;
  plan.p1 = p1;
  plan.p2 = p2;
  plan.p3 = p3;
  plan.v1 = v1;
  plan.v2 = v2;
  plan.sched = sched;
  plan.tile = tile;
  return plan;
}

std::vector<PinCase> pin_cases() {
  using V1 = Variant1D;
  using V2 = Variant2D;
  // Ledger columns: critical-path words, msgs, comm seconds, compute
  // seconds, as hexadecimal literals so they compare bit for bit.
  return {
      {"OneD_A", make_plan(16, 1, 1, V1::kA, V2::kAB), 1,
       0x1.f6ap+11, 0x1p+5, 0x1.22ec2a2127aeep-14, 0x1.face5f4079ba3p-22},
      {"OneD_B", make_plan(16, 1, 1, V1::kB, V2::kAB), 1,
       0x1.3a1p+12, 0x1p+5, 0x1.28898c055c605p-14, 0x1.11cdddc3eafbep-21},
      {"OneD_C", make_plan(16, 1, 1, V1::kC, V2::kAB), 1,
       0x1.0bcp+14, 0x1p+5, 0x1.6c445476577dcp-14, 0x1.2a800ee1a2d06p-21},
      {"TwoD_AB", make_plan(1, 4, 4, V1::kA, V2::kAB), 1,
       0x1.9bp+10, 0x1p+5, 0x1.15a11e6a9ba1bp-14, 0x1.a34bd299f3e52p-20},
      {"TwoD_AC", make_plan(1, 4, 4, V1::kA, V2::kAC), 1,
       0x1.ec6p+11, 0x1.4p+5, 0x1.6592a352a25bbp-14, 0x1.1d1415944478cp-20},
      {"TwoD_BC", make_plan(1, 4, 4, V1::kA, V2::kBC), 1,
       0x1.0dcp+12, 0x1.4p+5, 0x1.67ae5f48b51fdp-14, 0x1.331714d5b63bap-20},
      {"TwoD_AC_2x8", make_plan(1, 2, 8, V1::kA, V2::kAC), 1,
       0x1.c4p+11, 0x1.6p+6, 0x1.7b35b6d19945bp-13, 0x1.009fd1dbc4255p-20},
      {"ThreeD_A_AB", make_plan(2, 2, 4, V1::kA, V2::kAB), 1,
       0x1.5b2p+11, 0x1.9p+5, 0x1.b2f5e3f5354e9p-14, 0x1.82029b8828a56p-20},
      {"ThreeD_B_AC", make_plan(2, 4, 2, V1::kB, V2::kAC), 1,
       0x1.2a2p+12, 0x1.9p+5, 0x1.be1b2e2ebc81p-14, 0x1.35c646b1fc4d2p-20},
      {"ThreeD_C_BC", make_plan(4, 2, 2, V1::kC, V2::kBC), 1,
       0x1.de7p+12, 0x1.2p+5, 0x1.58ccbc785d7b7p-14, 0x1.0cf8ea6aa00f9p-20},
      {"Async_TwoD_AB",
       make_plan(1, 4, 4, V1::kA, V2::kAB, Sched::kAsync, 1), 1,
       0x1.9bp+10, 0x1p+5, 0x1.116d3ac0f1217p-14, 0x1.a34bd299f3e52p-20},
      {"Async_ThreeD_B_AC",
       make_plan(2, 2, 4, V1::kB, V2::kAC, Sched::kAsync, 2), 1,
       0x1.b84p+11, 0x1.9p+5, 0x1.b72079586cb9ep-14, 0x1.034f03b80a36ep-20},
      {"Cached_TwoD_AB", make_plan(1, 4, 4, V1::kA, V2::kAB), 3,
       0x1.344p+12, 0x1.8p+6, 0x1.a071ad9fe9727p-13, 0x1.3a78ddf376ebep-18},
      {"Cached_ThreeD_B_AC", make_plan(4, 2, 2, V1::kB, V2::kAC), 3,
       0x1.1dp+13, 0x1.5p+6, 0x1.79d2a9db8623p-13, 0x1.882f27cf969a8p-19},
  };
}

void PrintTo(const PinCase& pc, std::ostream* os) { *os << pc.name; }

class SpgemmChargePin : public ::testing::TestWithParam<PinCase> {};

TEST_P(SpgemmChargePin, DeliveredBlocksAndLedgerAreExact) {
  const PinCase& pc = GetParam();
  const auto adj = pin_adjacency();
  const auto f = pin_frontier();
  const auto expect =
      sparse::spgemm<MultpathMonoid>(f, adj, BellmanFordAction{});

  const Layout base{0, 4, 4, Range{0, kN}, Range{0, kN}, false};
  const Layout sl{0, 4, 4, Range{0, kNb}, Range{0, kN}, false};
  const auto da = place(adj, base);
  const auto df = place(f, sl);

  sim::Sim sim(kP);
  HomeCache<double> cache;
  for (int rep = 0; rep < pc.multiplies; ++rep) {
    auto dc = spgemm<MultpathMonoid>(sim, pc.plan, df, da, BellmanFordAction{},
                                     sl, nullptr,
                                     pc.multiplies > 1 ? &cache : nullptr);
    ASSERT_EQ(dc.layout(), sl);
    for (int i = 0; i < sl.pr; ++i) {
      for (int j = 0; j < sl.pc; ++j) {
        EXPECT_EQ(dc.block(i, j), block_of(expect, sl, i, j))
            << "block (" << i << "," << j << ") of multiply " << rep;
      }
    }
  }
  const sim::Cost c = sim.ledger().critical();
  EXPECT_EQ(c.words, pc.words);
  EXPECT_EQ(c.msgs, pc.msgs);
  EXPECT_EQ(c.comm_seconds, pc.comm_seconds);
  EXPECT_EQ(c.compute_seconds, pc.compute_seconds);
}

INSTANTIATE_TEST_SUITE_P(
    Families, SpgemmChargePin, ::testing::ValuesIn(pin_cases()),
    [](const ::testing::TestParamInfo<PinCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace mfbc::dist
