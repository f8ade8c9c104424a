// Autotuner quality invariants (DESIGN.md §5): the §6.2 plan selection,
// driven by the §5.2 closed-form model, must land near the *measured*
// optimum of the plan space — the property that makes CTF-MFBC's automatic
// mapping competitive with hand-derived layouts (§7).
#include <gtest/gtest.h>

#include <limits>

#include "algebra/multpath.hpp"
#include "dist/spgemm_dist.hpp"
#include "graph/generators.hpp"
#include "sparse/ops.hpp"

namespace mfbc::dist {
namespace {

using algebra::BellmanFordAction;
using algebra::Multpath;
using algebra::MultpathMonoid;
using algebra::SumMonoid;

struct Measured {
  double comm_seconds = 0;
  double words = 0;
};

/// Execute one frontier×adjacency multiply under `plan`, measuring the
/// charged communication.
Measured measure_plan(int p, const Plan& plan, const sparse::Csr<Multpath>& f,
                      const sparse::Csr<double>& adj) {
  sim::Sim sim(p);
  Layout lf{0, 1, p, Range{0, f.nrows()}, Range{0, f.ncols()}, false};
  auto [pr, pc] = std::pair{1, p};
  for (int d = 1; d * d <= p; ++d) {
    if (p % d == 0) pr = d;
  }
  pc = p / pr;
  Layout la{0, pr, pc, Range{0, adj.nrows()}, Range{0, adj.ncols()}, false};
  auto df = DistMatrix<Multpath>::scatter(sim, f, lf);
  auto da = DistMatrix<double>::scatter(sim, adj, la);
  sim.ledger().reset();
  spgemm<MultpathMonoid>(sim, plan, df, da, BellmanFordAction{}, lf);
  const sim::Cost c = sim.ledger().critical();
  return {c.comm_seconds, c.words};
}

class AutotuneQuality : public ::testing::TestWithParam<int> {};

TEST_P(AutotuneQuality, ChosenPlanWithinSlackOfMeasuredBest) {
  const int p = GetParam();
  graph::Graph g = graph::erdos_renyi(512, 512 * 8, false, {},
                                      31 + static_cast<std::uint64_t>(p));
  // Frontier: 48 source rows of the adjacency as multpaths.
  sparse::Coo<Multpath> fc(48, g.n());
  for (graph::vid_t s = 0; s < 48; ++s) {
    auto cols = g.adj().row_cols(s);
    auto vals = g.adj().row_vals(s);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      fc.push(s, cols[i], Multpath{vals[i], 1.0});
    }
  }
  auto f = sparse::Csr<Multpath>::from_coo<MultpathMonoid>(std::move(fc));

  const sim::MachineModel mm;
  auto stats = MultiplyStats::estimated(
      f.nrows(), g.n(), g.n(), static_cast<double>(f.nnz()),
      static_cast<double>(g.adj().nnz()), sim::sparse_entry_words<Multpath>(),
      sim::sparse_entry_words<double>(), sim::sparse_entry_words<Multpath>());
  const Plan chosen = autotune(p, stats, mm);

  double best = std::numeric_limits<double>::infinity();
  for (const Plan& plan : enumerate_plans(p)) {
    best = std::min(best, measure_plan(p, plan, f, g.adj()).comm_seconds);
  }
  const double chosen_cost = measure_plan(p, chosen, f, g.adj()).comm_seconds;
  // The model is a guide, not an oracle: require the selection to be within
  // a 3x band of the measured optimum (in practice it is much closer).
  EXPECT_LE(chosen_cost, 3.0 * best)
      << "chosen " << chosen.to_string() << " costs " << chosen_cost
      << " vs best " << best;
}

INSTANTIATE_TEST_SUITE_P(Ranks, AutotuneQuality, ::testing::Values(4, 8, 16));

}  // namespace
}  // namespace mfbc::dist
