// Degree-aware partitioning sweep (docs/partitioning.md): for {ER, RMAT,
// power-law} graphs at p ∈ {16, 64, 256}, compare the plain block
// distribution against the degree-balanced ordering on (a) per-slot
// resident-nnz balance, (b) *measured* per-rank ops balance of a real
// distributed frontier×adjacency multiply, and (c) the §5.2 model's
// max-per-rank time once the measured imbalance factors price the compute
// term. ER is the control (random ids are already balanced, both
// distributions should tie); the skewed families are where kDegree pays.
//
// Exit status is the invariant: on every RMAT row the balanced distribution
// must not charge more modelled time than block — if it does, the
// partitioner or the imbalance plumbing is broken.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "benchsupport/harness.hpp"
#include "benchsupport/table.hpp"
#include "dist/batch_state.hpp"
#include "dist/partition.hpp"
#include "dist/procgrid.hpp"
#include "dist/spgemm_dist.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/prep.hpp"
#include "sparse/ops.hpp"
#include "support/strutil.hpp"
#include "telemetry/registry.hpp"

namespace {

using namespace mfbc;
using algebra::SumMonoid;
using graph::vid_t;

/// Count-propagation bridge: the multiply's work profile is all we measure.
struct KeepCount {
  double operator()(double c, graph::Weight) const { return c; }
};

/// Hub-heavy synthetic: the first few vertices take Zipf-like degrees
/// (deg(v) ≈ n/(8(v+1))), the rest a small constant — the worst case for
/// contiguous index-range placement, since every hub lands on rank 0's
/// slot. Ids are *not* shuffled; that skew is the point.
graph::Graph powerlaw(vid_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<graph::Edge> edges;
  for (vid_t v = 0; v < n; ++v) {
    const vid_t deg = v < 32 ? std::max<vid_t>(4, n / (8 * (v + 1))) : 4;
    for (vid_t e = 0; e < deg; ++e) {
      const vid_t u = static_cast<vid_t>(rng() % static_cast<std::uint64_t>(n));
      if (u != v) edges.push_back({v, u, 1.0});
    }
  }
  return graph::Graph::from_edges(n, edges, false, false);
}

/// Run one real distributed multiply — the first nb original sources'
/// adjacency rows against the full adjacency on a near-square p-rank grid —
/// and return the measured max/mean per-rank ops factor. `part` relabels
/// the graph (identity = block); the source *set* is the same either way.
double measured_ops_imbalance(const graph::Graph& g,
                              const dist::Partition& part, int p, vid_t nb) {
  const graph::Graph gp = part.identity() ? graph::Graph{} : part.apply(g);
  const graph::Graph& gu = part.identity() ? g : gp;
  const vid_t n = gu.n();
  nb = std::min(nb, n);
  sparse::Coo<double> fc(nb, n);
  for (vid_t s = 0; s < nb; ++s) {
    const vid_t row = part.identity() ? s : part.perm[static_cast<std::size_t>(s)];
    auto cols = gu.adj().row_cols(row);
    for (std::size_t i = 0; i < cols.size(); ++i) fc.push(s, cols[i], 1.0);
  }
  auto f = sparse::Csr<double>::from_coo<SumMonoid>(std::move(fc));

  sim::Sim sim(p, sim::MachineModel{});
  auto [pr, pc] = dist::near_square_grid(p);
  dist::Layout lf{0, 1, p, dist::Range{0, nb}, dist::Range{0, n}, false};
  dist::Layout la{0, pr, pc, dist::Range{0, n}, dist::Range{0, n}, false};
  auto df = dist::DistMatrix<double>::scatter(sim, f, lf);
  auto da = dist::DistMatrix<graph::Weight>::scatter(sim, gu.adj(), la);
  dist::Plan plan{1, pr, pc, dist::Variant1D::kA, dist::Variant2D::kAB};
  dist::DistSpgemmStats dst;
  dist::spgemm<SumMonoid>(sim, plan, df, da, KeepCount{}, lf, &dst);
  return dst.ops_imbalance(p);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  const bool small = args.small;
  const vid_t n = small ? 2048 : 8192;
  const vid_t nb = small ? 32 : 64;
  const std::vector<int> procs = small ? std::vector<int>{16, 64}
                                       : std::vector<int>{16, 64, 256};

  struct Family {
    std::string name;
    graph::Graph g;
  };
  graph::RmatParams rp;
  rp.scale = static_cast<int>(std::lround(std::log2(static_cast<double>(n))));
  rp.edge_factor = 8;
  // Raw generator order (no random relabel): the block distribution must
  // face the generator's natural hub clustering, as an ingested real graph
  // would.
  std::vector<Family> families;
  families.push_back(
      {"er", graph::erdos_renyi(n, static_cast<sparse::nnz_t>(n) * 8, false,
                                {}, 11)});
  families.push_back(
      {"rmat", graph::remove_isolated(graph::rmat(rp, 13))});
  families.push_back({"powerlaw", powerlaw(n, 17)});

  bench::Table tab({"graph", "p", "nnz_imb block", "nnz_imb degree",
                    "ops_imb block", "ops_imb degree", "model block (s)",
                    "model degree (s)", "winner"});
  bool rmat_ok = true;
  for (const Family& fam : families) {
    const graph::Graph& g = fam.g;
    for (int p : procs) {
      const dist::Partition part =
          dist::make_partition(g, dist::PartitionKind::kDegree, p);
      const double nnz_block =
          dist::max_mean_imbalance(dist::slot_loads(g, p));
      const double nnz_degree = part.balance.imbalance();
      const double ops_block =
          measured_ops_imbalance(g, dist::Partition{}, p, nb);
      const double ops_degree = measured_ops_imbalance(g, part, p, nb);

      // Price the same multiply shape under both distributions with the
      // *measured* imbalance factors — the honest version of the candidate
      // table --explain-plan prints.
      double fnnz = 0;
      for (vid_t s = 0; s < std::min(nb, g.n()); ++s) {
        fnnz += static_cast<double>(g.out_degree(s));
      }
      dist::MultiplyStats stats = dist::MultiplyStats::estimated(
          std::min(nb, g.n()), g.n(), g.n(), fnnz,
          static_cast<double>(g.adj().nnz()),
          sim::sparse_entry_words<double>(),
          sim::sparse_entry_words<graph::Weight>(),
          sim::sparse_entry_words<double>());
      stats.imb_block = ops_block;
      stats.imb_balanced = ops_degree;
      auto [pr, pc] = dist::near_square_grid(p);
      dist::Plan plan{1, pr, pc, dist::Variant1D::kA, dist::Variant2D::kAB};
      const sim::MachineModel mm;
      const double t_block = dist::model_cost(plan, stats, mm).total();
      plan.dist = dist::Dist::kBalanced;
      const double t_degree = dist::model_cost(plan, stats, mm).total();

      const bool degree_wins = t_degree <= t_block;
      if (fam.name == "rmat" && !degree_wins) rmat_ok = false;
      tab.add_row({fam.name, std::to_string(p), fixed(nnz_block, 3),
                   fixed(nnz_degree, 3), fixed(ops_block, 3),
                   fixed(ops_degree, 3), compact(t_block, 4),
                   compact(t_degree, 4), degree_wins ? "degree" : "block"});
      const std::string prefix =
          "bench_partition." + fam.name + ".p" + std::to_string(p);
      telemetry::gauge(prefix + ".ops_imb_block", ops_block);
      telemetry::gauge(prefix + ".ops_imb_degree", ops_degree);
    }
  }

  std::fputs(
      tab.render("Block vs degree-balanced distribution: measured per-rank "
                 "balance and modelled max-rank time")
          .c_str(),
      stdout);
  std::printf("\ndegree-balanced <= block modelled time on every RMAT row: "
              "%s\n",
              rmat_ok ? "yes" : "NO — PARTITIONER REGRESSION");
  std::puts("Expected: ER ties (random ids are pre-balanced); RMAT and "
            "powerlaw shrink\nops_imb toward 1.0 under degree packing, and "
            "the modelled time follows.");

  bench::maybe_write_csv(args, "partition_sweep", tab);
  bench::maybe_write_artifacts(args, "partition", {{"partition_sweep", &tab}});
  return rmat_ok ? 0 : 1;
}
