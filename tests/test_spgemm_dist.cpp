// The distributed-SpGEMM correctness sweep: every plan in the §5.2 algorithm
// space (all 1D/2D/3D variants across all factorizations of several rank
// counts) must produce exactly the sequential Gustavson result — for the
// plain count semiring and for the multpath monoid with the Bellman-Ford
// action.
#include <gtest/gtest.h>

#include <string>

#include "algebra/multpath.hpp"
#include "algebra/tropical.hpp"
#include "dist/spgemm_dist.hpp"
#include "sparse/spgemm.hpp"
#include "support/rng.hpp"

namespace mfbc::dist {
namespace {

using algebra::BellmanFordAction;
using algebra::Multpath;
using algebra::MultpathMonoid;
using algebra::SumMonoid;
using sparse::Coo;
using sparse::Csr;

struct Times {
  double operator()(double a, double b) const { return a * b; }
};

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

Csr<Multpath> random_frontier(vid_t m, vid_t n, double density,
                              std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Coo<Multpath> coo(m, n);
  for (vid_t i = 0; i < m; ++i) {
    for (vid_t j = 0; j < n; ++j) {
      if (rng.uniform01() < density) {
        coo.push(i, j,
                 Multpath{static_cast<double>(1 + rng.bounded(5)),
                          static_cast<double>(1 + rng.bounded(3))});
      }
    }
  }
  return Csr<Multpath>::from_coo<MultpathMonoid>(std::move(coo));
}

struct PlanCase {
  int p;
  Plan plan;
};

std::vector<PlanCase> all_plan_cases() {
  std::vector<PlanCase> cases;
  for (int p : {1, 2, 3, 4, 6, 8, 12, 16}) {
    for (const Plan& plan : enumerate_plans(p)) {
      cases.push_back({p, plan});
    }
  }
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<PlanCase>& info) {
  std::string s = "p" + std::to_string(info.param.p) + "_" +
                  info.param.plan.to_string();
  for (char& c : s) {
    if (c == '-' || c == '[' || c == ']' || c == 'x' || c == ',') c = '_';
  }
  return s;
}

class DistSpgemmAllPlans : public ::testing::TestWithParam<PlanCase> {};

TEST_P(DistSpgemmAllPlans, CountSemiringMatchesSequential) {
  const auto& [p, plan] = GetParam();
  sim::Sim sim(p);
  // Rectangular shapes exercise the m/k/n slicing independently.
  const vid_t m = 21, k = 17, n = 25;
  auto a = random_csr(m, k, 0.35, 1000 + static_cast<std::uint64_t>(p));
  auto b = random_csr(k, n, 0.35, 2000 + static_cast<std::uint64_t>(p));
  Layout la{0, 1, std::max(1, p / 1), Range{0, m}, Range{0, k}, false};
  la = Layout{0, 1, p, Range{0, m}, Range{0, k}, false};
  Layout lb{0, p, 1, Range{0, k}, Range{0, n}, false};
  Layout lc{0, 1, p, Range{0, m}, Range{0, n}, false};
  auto da = DistMatrix<double>::scatter(sim, a, la);
  auto db = DistMatrix<double>::scatter(sim, b, lb);
  auto dc = spgemm<SumMonoid>(sim, plan, da, db, Times{}, lc);
  EXPECT_EQ(dc.gather(sim), sparse::spgemm<SumMonoid>(a, b, Times{}));
}

TEST_P(DistSpgemmAllPlans, MultpathMonoidMatchesSequential) {
  const auto& [p, plan] = GetParam();
  sim::Sim sim(p);
  const vid_t nb = 9, n = 23;
  auto f = random_frontier(nb, n, 0.3, 3000 + static_cast<std::uint64_t>(p));
  auto adj = random_csr(n, n, 0.2, 4000 + static_cast<std::uint64_t>(p));
  Layout lf{0, 1, p, Range{0, nb}, Range{0, n}, false};
  Layout la{0, p, 1, Range{0, n}, Range{0, n}, false};
  Layout lc{0, 1, p, Range{0, nb}, Range{0, n}, false};
  auto df = DistMatrix<Multpath>::scatter(sim, f, lf);
  auto da = DistMatrix<double>::scatter(sim, adj, la);
  auto dc =
      spgemm<MultpathMonoid>(sim, plan, df, da, BellmanFordAction{}, lc);
  EXPECT_EQ(dc.gather(sim),
            sparse::spgemm<MultpathMonoid>(f, adj, BellmanFordAction{}));
}

INSTANTIATE_TEST_SUITE_P(FullSpace, DistSpgemmAllPlans,
                         ::testing::ValuesIn(all_plan_cases()), case_name);

TEST(DistSpgemm, CommunicationIsChargedForMultiRankPlans) {
  sim::Sim sim(4);
  auto a = random_csr(16, 16, 0.4, 51);
  auto b = random_csr(16, 16, 0.4, 52);
  Layout l{0, 2, 2, Range{0, 16}, Range{0, 16}, false};
  auto da = DistMatrix<double>::scatter(sim, a, l);
  auto db = DistMatrix<double>::scatter(sim, b, l);
  sim.ledger().reset();
  Plan plan{1, 2, 2, Variant1D::kA, Variant2D::kAB};
  spgemm<SumMonoid>(sim, plan, da, db, Times{}, l);
  EXPECT_GT(sim.ledger().critical().words, 0.0);
  EXPECT_GT(sim.ledger().critical().msgs, 0.0);
}

TEST(DistSpgemm, HomeCacheAmortizesOperandMapping) {
  // First multiply pays for mapping B to its home; the second with the same
  // plan and cache must charge strictly less.
  sim::Sim sim1(4), sim2(4);
  auto a = random_csr(12, 40, 0.4, 61);
  auto b = random_csr(40, 40, 0.2, 62);
  Layout la{0, 1, 4, Range{0, 12}, Range{0, 40}, false};
  Layout lb{0, 2, 2, Range{0, 40}, Range{0, 40}, false};
  Plan plan{2, 2, 1, Variant1D::kB, Variant2D::kAB};

  auto run = [&](sim::Sim& sim, int times, HomeCache<double>* cache) {
    auto da = DistMatrix<double>::scatter(sim, a, la);
    auto db = DistMatrix<double>::scatter(sim, b, lb);
    sim.ledger().reset();
    for (int i = 0; i < times; ++i) {
      spgemm<SumMonoid>(sim, plan, da, db, Times{}, la, nullptr, cache);
    }
    return sim.ledger().critical().words;
  };
  HomeCache<double> cache;
  const double cached2 = run(sim1, 2, &cache);
  const double uncached2 = run(sim2, 2, nullptr);
  EXPECT_LT(cached2, uncached2);
}

TEST(DistSpgemm, RanksExceedingMachineThrow) {
  sim::Sim sim(2);
  auto a = random_csr(4, 4, 0.5, 71);
  Layout l{0, 1, 2, Range{0, 4}, Range{0, 4}, false};
  auto da = DistMatrix<double>::scatter(sim, a, l);
  Plan plan{1, 2, 2, Variant1D::kA, Variant2D::kAB};
  EXPECT_THROW(spgemm<SumMonoid>(sim, plan, da, da, Times{}, l), Error);
}

TEST(DistSpgemm, AutotunedExecutionMatchesSequential) {
  for (int p : {1, 4, 9}) {
    sim::Sim sim(p);
    auto a = random_csr(18, 18, 0.3, 81 + static_cast<std::uint64_t>(p));
    auto b = random_csr(18, 18, 0.3, 91 + static_cast<std::uint64_t>(p));
    auto [pr, pc] = std::pair{p == 1 ? 1 : 3, p == 1 ? 1 : p / 3};
    if (p == 4) std::tie(pr, pc) = std::pair{2, 2};
    Layout l{0, pr, pc, Range{0, 18}, Range{0, 18}, false};
    auto da = DistMatrix<double>::scatter(sim, a, l);
    auto db = DistMatrix<double>::scatter(sim, b, l);
    auto dc = spgemm_auto<SumMonoid>(sim, da, db, Times{}, l);
    EXPECT_EQ(dc.gather(sim), sparse::spgemm<SumMonoid>(a, b, Times{}))
        << "p=" << p;
  }
}

TEST(DistSpgemm, EmptyOperandsYieldEmptyResult) {
  sim::Sim sim(4);
  Csr<double> a(8, 8), b(8, 8);
  Layout l{0, 2, 2, Range{0, 8}, Range{0, 8}, false};
  auto da = DistMatrix<double>::scatter(sim, a, l);
  auto db = DistMatrix<double>::scatter(sim, b, l);
  Plan plan{1, 2, 2, Variant1D::kA, Variant2D::kBC};
  auto dc = spgemm<SumMonoid>(sim, plan, da, db, Times{}, l);
  EXPECT_EQ(dc.nnz(), 0);
}

}  // namespace
}  // namespace mfbc::dist
