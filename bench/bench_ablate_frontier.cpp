// Ablation: maximal frontier vs settled (Dijkstra) frontier — §4.2.3's
// argument for the MFBC design. Both strategies compute identical shortest
// paths with the same sparse kernels; what differs is how many
// bulk-synchronous multiplications (= global synchronizations, §1's "high
// synchronization costs") the traversal needs, versus how much relaxation
// work is wasted on later-overwritten entries.
#include <cstdio>
#include <string>

#include "apps/dijkstra_algebraic.hpp"
#include "benchsupport/harness.hpp"
#include "benchsupport/table.hpp"
#include "graph/generators.hpp"
#include "support/strutil.hpp"

int main(int argc, char** argv) {
  using namespace mfbc;
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  const bool small = args.small;
  const graph::vid_t n = small ? 512 : 2048;
  const graph::vid_t nb = small ? 8 : 16;

  bench::Table tab({"graph", "strategy", "iterations", "ops", "frontier nnz",
                    "ops overhead"});
  struct Case {
    const char* name;
    bool weighted;
    std::uint64_t wmax;
  };
  for (const Case& c : {Case{"unweighted", false, 1},
                        Case{"weights U{1..4}", true, 4},
                        Case{"weights U{1..100}", true, 100}}) {
    graph::Graph g = graph::erdos_renyi(n, n * 8, false,
                                        {c.weighted, 1, c.wmax}, 4242);
    std::vector<graph::vid_t> sources;
    for (graph::vid_t s = 0; s < nb; ++s) sources.push_back(s);

    apps::FrontierCost maximal, dijkstra;
    auto a = apps::sssp_batch(g, sources, &maximal);
    auto b = apps::sssp_batch_dijkstra(g, sources, &dijkstra);
    if (a != b) {
      std::fprintf(stderr, "MISMATCH between strategies on %s\n", c.name);
      return 1;
    }
    auto row = [&](const char* strat, const apps::FrontierCost& fc,
                   const apps::FrontierCost& base) {
      tab.add_row({c.name, strat, std::to_string(fc.iterations),
                   human_count(static_cast<double>(fc.total_ops)),
                   human_count(static_cast<double>(fc.frontier_nnz_total)),
                   fixed(static_cast<double>(fc.total_ops) /
                             static_cast<double>(base.total_ops),
                         2) + "x"});
    };
    row("maximal (MFBF)", maximal, dijkstra);
    row("settled (Dijkstra)", dijkstra, dijkstra);
  }
  std::fputs(tab.render("Frontier-strategy ablation (batched SSSP, " +
                        std::to_string(nb) + " sources): iterations = "
                        "bulk-synchronous multiplications")
                 .c_str(),
             stdout);
  std::puts("\nPaper claim (§4.2.3): the settled strategy needs up to n-1 "
            "multiplications\n(approaching one per distinct distance value), "
            "the maximal frontier needs only\namplified-diameter many — at "
            "the cost of a modest factor of repeated relaxations.");
  bench::maybe_write_csv(args, "ablate_frontier", tab);
  bench::maybe_write_artifacts(args, "ablate_frontier",
                               {{"ablate_frontier", &tab}});
  return 0;
}
