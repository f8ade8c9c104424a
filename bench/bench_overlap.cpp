// Overlap-credit sweep for the async-pipelined SpGEMM schedule
// (docs/SIMULATOR.md): for a frontier-shaped multiply on p = 16 ranks, run
// every 2D variant's async twin across overlap efficiency β ∈ {0, 0.5, 1}
// and prefetch tile ∈ {1, 2, 4}, printing the charged cost next to the §5.2
// model's prediction of the hidden broadcast time. The sync schedule is the
// β-independent baseline; the async columns may only subtract overlap
// credit, never add cost — the charge sequence (and so W, S, the results,
// and any fault schedule) is identical by construction.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "algebra/multpath.hpp"
#include "benchsupport/harness.hpp"
#include "benchsupport/table.hpp"
#include "dist/spgemm_dist.hpp"
#include "graph/generators.hpp"
#include "sparse/ops.hpp"
#include "support/strutil.hpp"
#include "telemetry/registry.hpp"

int main(int argc, char** argv) {
  using namespace mfbc;
  using algebra::BellmanFordAction;
  using algebra::Multpath;
  using algebra::MultpathMonoid;
  using algebra::SumMonoid;
  using dist::DistMatrix;
  using dist::Layout;
  using dist::Range;

  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  const bool small = args.small;
  const int p = 16;
  const graph::vid_t n = small ? 1024 : 4096;
  const graph::vid_t nb = small ? 32 : 128;

  graph::Graph g = graph::erdos_renyi(n, n * 8, false, {}, 7);
  sparse::Coo<Multpath> fc(nb, n);
  for (graph::vid_t s = 0; s < nb; ++s) {
    auto cols = g.adj().row_cols(s);
    auto vals = g.adj().row_vals(s);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      fc.push(s, cols[i], Multpath{vals[i], 1.0});
    }
  }
  auto f = sparse::Csr<Multpath>::from_coo<MultpathMonoid>(std::move(fc));

  auto stats = dist::MultiplyStats::estimated(
      nb, n, n, static_cast<double>(f.nnz()),
      static_cast<double>(g.adj().nnz()), sim::sparse_entry_words<Multpath>(),
      sim::sparse_entry_words<double>(), sim::sparse_entry_words<Multpath>());

  // Charged cost of one plan on a machine with the given overlap β.
  auto charged_run = [&](const dist::Plan& plan, double beta, double* saved,
                         std::uint64_t* windows) {
    sim::MachineModel mm;
    mm.overlap_beta = beta;
    sim::Sim sim(p, mm);
    Layout lf{0, 1, p, Range{0, nb}, Range{0, n}, false};
    Layout la{0, 4, 4, Range{0, n}, Range{0, n}, false};
    auto df = DistMatrix<Multpath>::scatter(sim, f, lf);
    auto da = DistMatrix<double>::scatter(sim, g.adj(), la);
    sim.ledger().reset();
    dist::spgemm<MultpathMonoid>(sim, plan, df, da, BellmanFordAction{}, lf);
    if (saved != nullptr) *saved = sim.overlap_saved_seconds();
    if (windows != nullptr) *windows = sim.overlap_windows();
    return sim.ledger().critical().total_seconds();
  };

  // β × tile × variant sweep on the 4×4 grid. The sync baseline per variant
  // is charged once (β cannot touch a sync schedule).
  bench::Table tab({"plan", "beta", "tile", "sync (s)", "async (s)",
                    "saved (s)", "windows", "model (s)", "model overlap (s)"});
  bool monotone_ok = true;
  for (dist::Variant2D v2 :
       {dist::Variant2D::kAB, dist::Variant2D::kAC, dist::Variant2D::kBC}) {
    dist::Plan sync;
    sync.p2 = 4;
    sync.p3 = 4;
    sync.v2 = v2;
    const double sync_s = charged_run(sync, 1.0, nullptr, nullptr);
    for (double beta : {0.0, 0.5, 1.0}) {
      for (int tile : {1, 2, 4}) {
        dist::Plan async = sync;
        async.sched = dist::Sched::kAsync;
        async.tile = tile;
        double saved = 0;
        std::uint64_t windows = 0;
        const double async_s = charged_run(async, beta, &saved, &windows);
        sim::MachineModel mm;
        mm.overlap_beta = beta;
        const dist::ModelCost mc = dist::model_cost(async, stats, mm);
        tab.add_row({async.to_string(), fixed(beta, 1), std::to_string(tile),
                     compact(sync_s, 4), compact(async_s, 4),
                     compact(saved, 4), std::to_string(windows),
                     compact(mc.total(), 4), compact(mc.overlap, 4)});
        if (async_s > sync_s) monotone_ok = false;
        const std::string prefix = "bench_overlap." + async.to_string() +
                                   ".beta" + fixed(beta, 1);
        telemetry::gauge(prefix + ".saved_seconds", saved);
      }
    }
  }
  std::fputs(tab.render("Overlap credit sweep on p=16: charged cost vs beta "
                        "x tile x 2D variant (async must never exceed sync)")
                 .c_str(),
             stdout);
  std::printf("\nasync <= sync on every row: %s\n",
              monotone_ok ? "yes" : "NO — OVERLAP CREDIT BUG");
  std::puts("Expected: saved grows with beta and shrinks with tile (fewer "
            "broadcasts posted\ninside each window); beta 0 charges exactly "
            "the sync schedule.");

  bench::maybe_write_csv(args, "overlap_sweep", tab);
  bench::maybe_write_artifacts(args, "overlap", {{"overlap_sweep", &tab}});
  return monotone_ok ? 0 : 1;
}
