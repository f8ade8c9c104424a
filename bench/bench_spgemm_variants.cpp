// Exercises the §5.2 SpGEMM algorithm space directly: for a frontier-shaped
// multiplication (sparse nb×n frontier times n×n adjacency) on p ranks,
// print the *measured* critical-path words/messages of every 1D/2D/3D
// variant shape next to the §5.2 model prediction, and mark the plan the
// §6.2 autotuner selects. This is the experiment behind the paper's claim
// that no single decomposition dominates — which operand is heaviest decides.
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "algebra/multpath.hpp"
#include "baseline/combblas_bc.hpp"
#include "benchsupport/harness.hpp"
#include "benchsupport/table.hpp"
#include "dist/spgemm_dist.hpp"
#include "graph/generators.hpp"
#include "mfbc/mfbc_dist.hpp"
#include "sparse/ops.hpp"
#include "support/parallel.hpp"
#include "support/strutil.hpp"
#include "telemetry/registry.hpp"
#include "tune/calibrate.hpp"

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
  // Frontier: rows 0..nb of the adjacency, as multpaths.
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
  const sim::MachineModel mm;
  // --schedule auto|async opens the plan space to the async-pipelined twins
  // (results stay bit-identical; only the charged cost moves).
  dist::TuneOptions topts;
  topts.allow_async = args.allow_async();
  const dist::Plan chosen = dist::autotune(p, stats, mm, topts);

  // Charged run of one plan on a fresh machine; scatter costs excluded.
  auto charged_run = [&](const dist::Plan& plan, sim::Cost* cost,
                         double* saved, std::uint64_t* windows) {
    sim::Sim sim(p, mm);
    Layout lf{0, 1, p, Range{0, nb}, Range{0, n}, false};
    Layout la{0, 4, 4, Range{0, n}, Range{0, n}, false};
    auto df = DistMatrix<Multpath>::scatter(sim, f, lf);
    auto da = DistMatrix<double>::scatter(sim, g.adj(), la);
    sim.ledger().reset();
    dist::spgemm<MultpathMonoid>(sim, plan, df, da, BellmanFordAction{}, lf);
    *cost = sim.ledger().critical();
    if (saved != nullptr) *saved = sim.overlap_saved_seconds();
    if (windows != nullptr) *windows = sim.overlap_windows();
  };

  bench::Table tab({"plan", "measured W (words)", "measured S (msgs)",
                    "model (sec)", "measured comm (sec)", "autotuned?"});
  for (const dist::Plan& plan : dist::enumerate_plans(p, topts)) {
    sim::Cost c;
    charged_run(plan, &c, nullptr, nullptr);
    tab.add_row({plan.to_string(), compact(c.words, 4), fixed(c.msgs, 0),
                 compact(dist::model_cost(plan, stats, mm).total(), 3),
                 compact(c.comm_seconds, 3),
                 plan.to_string() == chosen.to_string() ? "<== chosen" : ""});
  }
  std::fputs(tab.render("SpGEMM variant space on p=16: measured critical "
                        "path vs the section 5.2 model (frontier x adjacency)")
                 .c_str(),
             stdout);
  std::puts("\nExpected: variants that communicate the adjacency (the heavy "
            "operand) pay the\nmost; the autotuned plan sits at or near the "
            "measured minimum.");

  // ---- Sync vs async-pipelined schedule (docs/SIMULATOR.md) ----
  // Every 2D-level plan runs twice: the blocking schedule and its async
  // twin (tile 1 — every next-step broadcast posted inside the window).
  // Identical charge sequence, so W/S and the results are bit-identical;
  // the async column may only subtract overlap credit. The CI overlap-smoke
  // job parses this table and fails if any async total exceeds its sync
  // total.
  bench::Table ot({"plan", "sync (s)", "async(t1) (s)", "saved (s)",
                   "windows", "model overlap (s)"});
  for (const dist::Plan& plan : dist::enumerate_plans(p)) {
    if (!plan.has_2d()) continue;
    sim::Cost sc, ac;
    charged_run(plan, &sc, nullptr, nullptr);
    dist::Plan async = plan;
    async.sched = dist::Sched::kAsync;
    async.tile = 1;
    double saved = 0;
    std::uint64_t windows = 0;
    charged_run(async, &ac, &saved, &windows);
    ot.add_row({plan.to_string(), compact(sc.total_seconds(), 4),
                compact(ac.total_seconds(), 4), compact(saved, 4),
                std::to_string(windows),
                compact(dist::model_cost(async, stats, mm).overlap, 4)});
  }
  std::fputs(ot.render("Sync vs async pipelined schedule: charged cost per "
                       "2D plan (async must never exceed sync)")
                 .c_str(),
             stdout);

  // ---- Online re-planning vs a static plan (docs/autotuning.md) ----
  // Frontier-size trajectories shaped like BFS phases: the static planner
  // autotunes once on the first multiply's stats and reuses that plan; the
  // adaptive tuner re-plans each step from the measured frontier, switching
  // only when the modelled win clears the modelled re-mapping cost
  // (hysteresis). Charged cost of the multiplies is compared directly —
  // adaptive should never lose, and should win when the frontier varies.
  bench::Table rt({"scenario", "static (s)", "adaptive (s)", "ratio",
                   "re-plans", "switches", "holds"});
  {
    struct Scenario {
      const char* name;
      std::vector<graph::vid_t> rows;
    };
    const graph::vid_t big = small ? 512 : 2048;
    const std::vector<Scenario> scenarios = {
        {"constant", {nb, nb, nb, nb, nb, nb}},
        {"growing", {4, 16, 64, 256, big}},
        {"shrinking", {big, 256, 64, 16, 4}},
        {"spike", {32, 32, big, 32, 32}},
    };
    auto frontier_rows = [&](graph::vid_t k) {
      sparse::Coo<Multpath> c(k, n);
      for (graph::vid_t s = 0; s < k; ++s) {
        auto cols = g.adj().row_cols(s);
        auto vals = g.adj().row_vals(s);
        for (std::size_t i = 0; i < cols.size(); ++i) {
          c.push(s, cols[i], Multpath{vals[i], 1.0});
        }
      }
      return sparse::Csr<Multpath>::from_coo<MultpathMonoid>(std::move(c));
    };
    // Charged seconds of the multiply sequence (scatters excluded).
    auto run_seq = [&](const std::vector<graph::vid_t>& rows,
                       tune::Tuner* tuner) {
      sim::Sim sim(p, mm);
      Layout la{0, 4, 4, Range{0, n}, Range{0, n}, false};
      auto da = DistMatrix<double>::scatter(sim, g.adj(), la);
      dist::HomeCache<double> bcache;
      std::optional<tune::ScopedObserver> obs;
      if (tuner != nullptr) obs.emplace(&tuner->observer());
      dist::Plan static_plan;
      bool have_static = false;
      double total = 0;
      for (graph::vid_t k : rows) {
        auto f = frontier_rows(k);
        Layout lf{0, 1, p, Range{0, k}, Range{0, n}, false};
        auto df = DistMatrix<Multpath>::scatter(sim, f, lf);
        auto st = dist::MultiplyStats::estimated(
            k, n, n, static_cast<double>(f.nnz()),
            static_cast<double>(g.adj().nnz()),
            sim::sparse_entry_words<Multpath>(),
            sim::sparse_entry_words<double>(),
            sim::sparse_entry_words<Multpath>());
        dist::Plan plan;
        if (tuner != nullptr) {
          tune::PlanRequest req;
          req.stream = "bench";
          req.monoid = "multpath";
          req.ranks = p;
          req.stats = st;
          req.machine = mm;
          req.opts = topts;
          plan = tuner->plan(req);
        } else {
          if (!have_static) {
            static_plan = dist::autotune(p, st, mm, topts);
            have_static = true;
          }
          plan = static_plan;
        }
        const double before = sim.ledger().critical().total_seconds();
        dist::spgemm<MultpathMonoid>(sim, plan, df, da, BellmanFordAction{},
                                     lf, nullptr, &bcache);
        total += sim.ledger().critical().total_seconds() - before;
      }
      return total;
    };
    for (const Scenario& sc : scenarios) {
      const double stat = run_seq(sc.rows, nullptr);
      tune::Tuner tuner;  // uncalibrated, default hysteresis
      const double adapt = run_seq(sc.rows, &tuner);
      const double ratio = stat > 0 ? adapt / stat : 1.0;
      rt.add_row({sc.name, compact(stat, 4), compact(adapt, 4),
                  fixed(ratio, 3),
                  std::to_string(tuner.replans()),
                  std::to_string(tuner.plan_switches()),
                  std::to_string(tuner.hysteresis_holds())});
      telemetry::gauge(std::string("tune.scenario.") + sc.name + ".ratio",
                       ratio);
    }
  }
  std::fputs(rt.render("Online re-planning vs static autotune: charged "
                       "multiply cost over frontier trajectories")
                 .c_str(),
             stdout);

  // ---- Baseline engine: tuned vs untuned (baseline parity) ----
  // The CombBLAS-style engine runs the shared batch driver and, with a tuner
  // attached, re-plans every multiply over its square-grid 2D space
  // (streams baseline.forward / baseline.backward). The fixed SUMMA plan
  // seeds each stream's hysteresis, so the tuned run departs from the
  // untuned behavior only for a modelled win that clears the re-homing
  // cost — charged cost must never exceed the untuned run.
  bench::Table bt({"engine", "untuned (s)", "tuned (s)", "ratio", "re-plans",
                   "switches", "holds", "plans"});
  {
    auto run_baseline = [&](tune::Tuner* tuner,
                            baseline::CombBlasStats* stats) {
      sim::Sim sim(p, mm);
      baseline::CombBlasBc engine(sim, g);
      sim.ledger().reset();
      baseline::CombBlasOptions opts;
      opts.batch_size = nb;
      opts.tune.allow_async = args.allow_async();
      opts.tuner = tuner;
      for (graph::vid_t v = 0; v < 2 * nb; ++v) opts.sources.push_back(v);
      engine.run(opts, stats);
      return sim.ledger().critical().total_seconds();
    };
    baseline::CombBlasStats us, ts_;
    const double untuned = run_baseline(nullptr, &us);
    tune::Tuner tuner;  // uncalibrated, default hysteresis
    const double tuned = run_baseline(&tuner, &ts_);
    const double ratio = untuned > 0 ? tuned / untuned : 1.0;
    std::string plans;
    for (const std::string& pl : ts_.plans_used) {
      plans += (plans.empty() ? "" : " ") + pl;
    }
    bt.add_row({"combblas", compact(untuned, 4), compact(tuned, 4),
                fixed(ratio, 3), std::to_string(tuner.replans()),
                std::to_string(tuner.plan_switches()),
                std::to_string(tuner.hysteresis_holds()), plans});
    telemetry::gauge("tune.baseline.ratio", ratio);
  }
  std::fputs(bt.render("Baseline engine, tuned vs untuned: charged cost with "
                       "the fixed SUMMA plan seeding hysteresis (tuned must "
                       "never exceed 1.000)")
                 .c_str(),
             stdout);

  // ---- Shared-memory threads scaling ----
  // The virtual-rank block multiplies run on the execution pool; wall clock
  // of an end-to-end DistMfbc run at 1/2/4/8 pool threads measures how well
  // the per-rank work parallelizes on real cores. Results are bit-identical
  // across thread counts (the pool defers ledger charges to barriers), so
  // only the wall-clock column moves.
  bench::Table ts({"threads", "wall ms", "speedup", "ops/s"});
  {
    const graph::vid_t tn = small ? 256 : 512;
    graph::Graph tg = graph::erdos_renyi(tn, tn * 8, false, {}, 9);
    const int restore_threads = support::num_threads();
    double base_ms = 0;
    for (int t : {1, 2, 4, 8}) {
      support::set_threads(t);
      sim::Sim tsim(p);
      core::DistMfbc engine(tsim, tg);
      core::DistMfbcOptions opts;
      opts.batch_size = small ? 32 : 64;
      core::DistMfbcStats dstats;
      const auto t0 = std::chrono::steady_clock::now();
      auto lambda = engine.run(opts, &dstats);
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      if (t == 1) base_ms = ms;
      const double total_ops = static_cast<double>(dstats.forward.total_ops) +
                               static_cast<double>(dstats.backward.total_ops);
      const double speedup = ms > 0 ? base_ms / ms : 0;
      const double ops_per_s = ms > 0 ? total_ops / (ms / 1e3) : 0;
      ts.add_row({std::to_string(t), fixed(ms, 2), fixed(speedup, 2) + "x",
                  compact(ops_per_s, 4)});
      const std::string prefix =
          "spgemm_variants.threads." + std::to_string(t);
      telemetry::gauge(prefix + ".wall_ms", ms);
      telemetry::gauge(prefix + ".speedup", speedup);
      telemetry::gauge(prefix + ".ops_per_s", ops_per_s);
    }
    support::set_threads(restore_threads);
  }
  std::fputs(ts.render("Threads scaling: end-to-end DistMfbc wall clock vs "
                       "pool size (identical results)")
                 .c_str(),
             stdout);

  // Frontier-size distributions from the runs above, tails included.
  bench::Table ft = bench::histogram_table(
      {"mfbc.forward.frontier_nnz", "mfbc.backward.frontier_nnz"});
  std::fputs(ft.render("Frontier-size distributions (per iteration)").c_str(),
             stdout);

  bench::maybe_write_csv(args, "spgemm_variants", tab);
  bench::maybe_write_csv(args, "spgemm_variants_overlap", ot);
  bench::maybe_write_csv(args, "spgemm_variants_replanning", rt);
  bench::maybe_write_csv(args, "spgemm_variants_baseline", bt);
  bench::maybe_write_csv(args, "spgemm_variants_threads", ts);
  bench::maybe_write_csv(args, "spgemm_variants_frontiers", ft);
  bench::maybe_write_artifacts(args, "spgemm_variants",
                               {{"spgemm_variants", &tab},
                                {"spgemm_variants_overlap", &ot},
                                {"spgemm_variants_replanning", &rt},
                                {"spgemm_variants_baseline", &bt},
                                {"spgemm_variants_threads", &ts},
                                {"spgemm_variants_frontiers", &ft}});
  return 0;
}
