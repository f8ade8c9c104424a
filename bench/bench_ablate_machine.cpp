// Ablation: machine-parameter sensitivity of the §6.2 plan selection.
// CTF's mapping is model-driven, so the best decomposition depends on the
// machine: with expensive messages (high α) the tuner should collapse to
// few-collective 1D/replication plans; with expensive bandwidth (high β) it
// should spread operands over 2D/3D grids. This sweep varies α and β around
// the Blue-Waters-like defaults and reports the chosen plan and its
// simulated cost — the "automatically searches a space of distributed data
// decompositions" behavior under different architectures.
// The workload is A·A (the wedge-counting /
// multigrid shape): both operands heavy, so no single plan dominates on
// every axis and the choice genuinely depends on α/β.
#include <cstdio>
#include <string>

#include "algebra/tropical.hpp"
#include "benchsupport/harness.hpp"
#include "benchsupport/table.hpp"
#include "dist/spgemm_dist.hpp"
#include "graph/generators.hpp"
#include "sparse/ops.hpp"
#include "support/strutil.hpp"

int main(int argc, char** argv) {
  using namespace mfbc;
  using algebra::SumMonoid;
  using dist::DistMatrix;
  using dist::Layout;
  using dist::Range;

  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  const bool small = args.small;
  const int p = 16;
  const graph::vid_t n = small ? 1024 : 4096;

  graph::Graph g = graph::erdos_renyi(n, n * 8, false, {}, 7);
  const auto stats = dist::MultiplyStats::estimated(
      n, n, n, static_cast<double>(g.adj().nnz()),
      static_cast<double>(g.adj().nnz()), 2, 2, 2);

  struct MachineCase {
    const char* name;
    double alpha_scale;
    double beta_scale;
  };
  const MachineCase cases[] = {
      {"balanced (Blue-Waters-like)", 1, 1},
      {"latency-bound (100x alpha)", 100, 1},
      {"extreme latency (10000x alpha)", 10000, 1},
      {"bandwidth-bound (100x beta)", 1, 100},
      {"extreme bandwidth (10000x beta)", 1, 10000},
      {"fast network (alpha,beta / 100)", 0.01, 0.01},
  };

  bench::Table tab({"machine", "chosen plan", "measured W (words)",
                    "measured S (msgs)", "measured comm (sec)"});
  for (const MachineCase& c : cases) {
    sim::MachineModel mm;
    mm.alpha *= c.alpha_scale;
    mm.beta *= c.beta_scale;
    const dist::Plan plan = dist::autotune(p, stats, mm);
    sim::Sim sim(p, mm);
    Layout la{0, 4, 4, Range{0, n}, Range{0, n}, false};
    auto da = DistMatrix<double>::scatter(sim, g.adj(), la);
    sim.ledger().reset();
    dist::spgemm<SumMonoid>(sim, plan, da, da,
                            [](double a, double b) { return a * b; }, la);
    const sim::Cost cost = sim.ledger().critical();
    tab.add_row({c.name, plan.to_string(), compact(cost.words, 4),
                 fixed(cost.msgs, 0), compact(cost.comm_seconds, 3)});
  }
  std::fputs(tab.render("Machine-sensitivity of the autotuned plan "
                        "(A*A wedge shape, p=16)")
                 .c_str(),
             stdout);
  std::puts("\nExpected: latency-heavy machines push the tuner toward "
            "few-collective plans;\nbandwidth-heavy machines toward "
            "operand-splitting 2D/3D grids — the §6.2\nmodel adapting the "
            "decomposition to the architecture.");
  bench::maybe_write_csv(args, "ablate_machine", tab);
  bench::maybe_write_artifacts(args, "ablate_machine",
                               {{"ablate_machine", &tab}});
  return 0;
}
