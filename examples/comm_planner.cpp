// Communication planner — using the library's §5.2 cost models and §6.2
// autotuner as a standalone tool: given a multiplication's shape/sparsity
// and a machine, print the predicted best data decompositions across
// processor counts, and validate one of them against a real simulated run.
//
// This is the "design methodology is readily extensible" angle of the paper:
// the SpGEMM planning layer is useful beyond betweenness centrality (e.g.
// for multigrid restriction products, §5's motivating aside).
//
//   $ ./example_comm_planner [nnzA] [nnzB] [n]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "algebra/tropical.hpp"
#include "benchsupport/table.hpp"
#include "dist/spgemm_dist.hpp"
#include "graph/generators.hpp"
#include "support/strutil.hpp"

int main(int argc, char** argv) {
  using namespace mfbc;
  using algebra::SumMonoid;
  using dist::Layout;
  using dist::Range;

  const double nnz_a = argc > 1 ? std::atof(argv[1]) : 1e5;
  const double nnz_b = argc > 2 ? std::atof(argv[2]) : 4e6;
  const sparse::vid_t n = argc > 3 ? std::atol(argv[3]) : 1 << 14;

  const sim::MachineModel mm = sim::MachineModel::blue_waters();
  std::printf("machine: alpha=%.2g s, beta=%.2g s/word, %.2g s/op\n\n",
              mm.alpha, mm.beta, mm.seconds_per_op);

  // 1. Plan table across processor counts for a frontier-times-adjacency
  //    shaped multiply (rectangular, imbalanced operands).
  bench::Table tab({"p", "best plan", "model latency", "model bandwidth",
                    "model compute", "per-rank memory"});
  for (int p : {4, 16, 64, 256, 1024, 4096}) {
    auto stats = dist::MultiplyStats::estimated(512, n, n, nnz_a, nnz_b,
                                                /*words_a=*/3, /*words_b=*/2,
                                                /*words_c=*/3);
    dist::TuneOptions opts;
    const dist::Plan plan = dist::autotune(p, stats, mm, opts);
    const auto cost = dist::model_cost(plan, stats, mm);
    tab.add_row({std::to_string(p), plan.to_string(),
                 compact(cost.latency, 3) + " s",
                 compact(cost.bandwidth, 3) + " s",
                 compact(cost.compute, 3) + " s",
                 human_bytes(dist::model_memory_words(plan, stats) * 8)});
  }
  std::fputs(tab.render("Autotuned plans for a 512-row frontier times a "
                        "sparse adjacency")
                 .c_str(),
             stdout);

  // 2. Validate the p=16 prediction with an actual simulated execution.
  std::puts("\nValidating the p=16 plan against a simulated execution...");
  graph::Graph g = graph::erdos_renyi(
      1 << 11, static_cast<graph::nnz_t>(1 << 14), false, {}, 3);
  sim::Sim sim(16, mm);
  Layout lf{0, 1, 16, Range{0, 128}, Range{0, g.n()}, false};
  Layout la{0, 4, 4, Range{0, g.n()}, Range{0, g.n()}, false};
  auto fr = sparse::slice_rows(g.adj(), 0, 128);
  auto df = dist::DistMatrix<double>::scatter(sim, fr, lf);
  auto da = dist::DistMatrix<double>::scatter(sim, g.adj(), la);
  auto stats = dist::MultiplyStats::estimated(
      128, g.n(), g.n(), static_cast<double>(fr.nnz()),
      static_cast<double>(g.adj().nnz()), 2, 2, 2);
  const dist::Plan plan = dist::autotune(16, stats, mm);
  sim.ledger().reset();
  dist::spgemm<SumMonoid>(sim, plan, df, da,
                          [](double a, double b) { return a * b; }, lf);
  const sim::Cost c = sim.ledger().critical();
  const auto predicted = dist::model_cost(plan, stats, mm);
  std::printf("  plan %s: predicted %.3g s vs simulated %.3g s "
              "(%.0f msgs, %s moved)\n",
              plan.to_string().c_str(), predicted.total(), c.total_seconds(),
              c.msgs, human_bytes(c.words * 8).c_str());
  std::puts("  (the model guides mapping decisions; agreement within a small "
            "factor is what CTF's tuner needs)");
  return 0;
}
