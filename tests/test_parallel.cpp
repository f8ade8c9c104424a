// The shared-memory execution engine and its determinism contract: the
// fixed-partition pool must visit every index exactly once, degrade to a
// plain serial loop for nested regions, and — the property the dist/mfbc
// kernels rely on — produce bit-identical results, stats, and ledger
// charges at every thread count. Also covers the reusable SpGEMM
// accumulator workspace and the output capacity hint.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <stdexcept>
#include <vector>

#include "algebra/multpath.hpp"
#include "algebra/tropical.hpp"
#include "dist/spgemm_dist.hpp"
#include "graph/generators.hpp"
#include "mfbc/mfbc_dist.hpp"
#include "sparse/ops.hpp"
#include "sparse/spgemm.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "telemetry/span.hpp"

namespace mfbc::support {
namespace {

using algebra::BellmanFordAction;
using algebra::Multpath;
using algebra::MultpathMonoid;
using algebra::SumMonoid;
using algebra::TropicalMinMonoid;
using sparse::Coo;
using sparse::Csr;
using sparse::nnz_t;
using sparse::vid_t;

struct Times {
  double operator()(double a, double b) const { return a * b; }
};

struct Extend {
  double operator()(double a, double b) const { return a + b; }
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

/// Restores the global pool size on scope exit so a failing test cannot
/// leak its thread count into the rest of the suite.
struct PoolSizeGuard {
  int saved = num_threads();
  ~PoolSizeGuard() { set_threads(saved); }
};

TEST(ThreadPool, VisitsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 5}) {
    ThreadPool pool(threads);
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                          std::size_t{3}, std::size_t{7}, std::size_t{64},
                          std::size_t{1000}}) {
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1)
            << "threads=" << threads << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(ThreadPool, FewerIndicesThanThreads) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(3, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, LowestChunkExceptionWins) {
  ThreadPool pool(4);
  // Chunks over [0,8) with 4 threads: [0,2) [2,4) [4,6) [6,8). Indices 3
  // and 6 throw from chunks 1 and 3; the caller must see chunk 1's error.
  try {
    pool.parallel_for(8, [](std::size_t i) {
      if (i == 3 || i == 6) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
    });
    FAIL() << "expected the worker exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 3");
  }
}

TEST(ThreadPool, PoolSurvivesAndReRunsAfterException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(
                   16, [](std::size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
  std::vector<std::atomic<int>> hits(16);
  pool.parallel_for(16, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedRegionsRunInlineAndRestoreTheFlag) {
  ThreadPool pool(4);
  EXPECT_FALSE(ThreadPool::in_parallel_region());
  std::atomic<int> inner_total{0};
  pool.parallel_for(4, [&](std::size_t) {
    EXPECT_TRUE(ThreadPool::in_parallel_region());
    pool.parallel_for(3, [&](std::size_t) { inner_total.fetch_add(1); });
    // Regression: the first nested region ending must not clear the
    // in-region flag of the still-running outer region — a second nested
    // call has to stay inline too, not resubmit to the busy pool.
    EXPECT_TRUE(ThreadPool::in_parallel_region());
    pool.parallel_for(2, [&](std::size_t) { inner_total.fetch_add(1); });
    EXPECT_TRUE(ThreadPool::in_parallel_region());
  });
  EXPECT_FALSE(ThreadPool::in_parallel_region());
  EXPECT_EQ(inner_total.load(), 4 * (3 + 2));
}

TEST(ThreadPool, SetThreadsResizesTheGlobalPool) {
  PoolSizeGuard guard;
  set_threads(3);
  EXPECT_EQ(num_threads(), 3);
  std::vector<std::atomic<int>> hits(10);
  parallel_for(10, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  set_threads(1);
  EXPECT_EQ(num_threads(), 1);
  parallel_for(10, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 2);
}

TEST(ThreadPool, UtilizationTracksBusyTimeAndRegions) {
  ThreadPool pool(3);
  ASSERT_EQ(pool.utilization().size(), 3u);

  // Enough work per index that busy_ns is comfortably above clock
  // resolution on every chunk.
  pool.parallel_for(300, [&](std::size_t i) {
    volatile double x = 0;
    for (int k = 0; k < 2000; ++k) x = x + static_cast<double>(k ^ i) * 0.5;
    // Nested regions run inline; they must not count as separate regions.
    pool.parallel_for(2, [](std::size_t) {});
  });

  const std::vector<ChunkUtilization> u = pool.utilization();
  std::uint64_t regions = 0;
  double busy = 0;
  for (const ChunkUtilization& c : u) {
    regions += c.regions;
    busy += c.busy_ns;
    EXPECT_GE(c.wait_ns, 0.0);
    EXPECT_EQ(c.total_ns(), c.busy_ns + c.wait_ns);
  }
  EXPECT_EQ(regions, 3u);  // one top-level region, every chunk had work
  EXPECT_GT(busy, 0.0);

  pool.reset_utilization();
  for (const ChunkUtilization& c : pool.utilization()) {
    EXPECT_EQ(c.busy_ns, 0.0);
    EXPECT_EQ(c.wait_ns, 0.0);
    EXPECT_EQ(c.regions, 0u);
  }
}

TEST(ThreadPool, SerialPoolAccruesUtilizationOnChunkZero) {
  ThreadPool pool(1);
  pool.parallel_for(64, [](std::size_t i) {
    volatile double x = 0;
    for (int k = 0; k < 500; ++k) x = x + static_cast<double>(k + i);
  });
  const std::vector<ChunkUtilization> u = pool.utilization();
  ASSERT_EQ(u.size(), 1u);
  EXPECT_EQ(u[0].regions, 1u);
  EXPECT_GT(u[0].busy_ns, 0.0);
  EXPECT_EQ(u[0].wait_ns, 0.0);  // nothing to wait for without workers
}

TEST(SpgemmWorkspace, ReuseAcrossCallsMatchesFreshAccumulators) {
  sparse::SpgemmWorkspace<Multpath> ws;
  for (std::uint64_t seed : {11, 12, 13}) {
    // Different shapes per call so the workspace both grows and shrinks
    // its logical width while staying physically monotone.
    const vid_t n = 16 + static_cast<vid_t>(seed % 3) * 17;
    auto f = random_frontier(7, n, 0.3, seed);
    auto a = random_csr(n, n, 0.25, seed + 100);
    sparse::SpgemmWorkspace<Multpath> fresh;
    sparse::SpgemmStats st_ws, st_fresh;
    auto with_ws = sparse::spgemm<MultpathMonoid>(f, a, BellmanFordAction{},
                                                  &st_ws, 0, &ws);
    auto with_fresh = sparse::spgemm<MultpathMonoid>(
        f, a, BellmanFordAction{}, &st_fresh, 0, &fresh);
    EXPECT_EQ(with_ws, with_fresh);
    EXPECT_EQ(st_ws.ops, st_fresh.ops);
  }
}

TEST(SpgemmWorkspace, RefillsWhenMonoidChangesOverSameValueType) {
  // SumMonoid (identity 0) and TropicalMinMonoid (identity +inf) share
  // TC = double: switching monoids over one workspace must give what a
  // fresh workspace gives, or stale identities poison the accumulation.
  sparse::SpgemmWorkspace<double> ws;
  auto a = random_csr(12, 20, 0.4, 21);
  auto b = random_csr(20, 24, 0.4, 22);
  auto fresh_sum = [&] {
    sparse::SpgemmWorkspace<double> fresh;
    return sparse::spgemm<SumMonoid>(a, b, Times{}, nullptr, 0, &fresh);
  };
  auto fresh_min = [&] {
    sparse::SpgemmWorkspace<double> fresh;
    return sparse::spgemm<TropicalMinMonoid>(a, b, Extend{}, nullptr, 0,
                                             &fresh);
  };
  EXPECT_EQ(sparse::spgemm<SumMonoid>(a, b, Times{}, nullptr, 0, &ws),
            fresh_sum());
  EXPECT_EQ(sparse::spgemm<TropicalMinMonoid>(a, b, Extend{}, nullptr, 0, &ws),
            fresh_min());
  EXPECT_EQ(sparse::spgemm<SumMonoid>(a, b, Times{}, nullptr, 0, &ws),
            fresh_sum());
}

TEST(Spgemm, CapacityHintBoundsOutputNnz) {
  for (std::uint64_t seed : {41, 42, 43}) {
    auto a = random_csr(14, 22, 0.3, seed);
    auto b = random_csr(22, 18, 0.3, seed + 7);
    const nnz_t hint = sparse::spgemm_capacity_hint(a, b);
    auto c = sparse::spgemm<SumMonoid>(a, b, Times{});
    EXPECT_GE(hint, c.nnz());
    EXPECT_LE(hint, static_cast<nnz_t>(a.nrows()) *
                        static_cast<nnz_t>(b.ncols()));
    // Row-sliced B (the SUMMA k-slice case).
    auto bs = sparse::slice_rows(b, 5, 17);
    const nnz_t slice_hint = sparse::spgemm_capacity_hint(a, bs, 5);
    auto cs = sparse::spgemm<SumMonoid>(a, bs, Times{}, nullptr, 5);
    EXPECT_GE(slice_hint, cs.nnz());
  }
}

// ---- The determinism contract: bit-identical at every thread count ----

struct DistRun {
  Csr<Multpath> c;
  sim::Cost crit;
  dist::DistSpgemmStats st;
};

DistRun run_dist_spgemm(int threads, const dist::Plan& plan, int p,
                        std::uint64_t seed) {
  using dist::DistMatrix;
  using dist::Layout;
  using dist::Range;
  set_threads(threads);
  sim::Sim sim(p);
  const vid_t nb = 9, n = 29;
  auto f = random_frontier(nb, n, 0.3, seed);
  auto a = random_csr(n, n, 0.2, seed + 1);
  Layout lf{0, 1, p, Range{0, nb}, Range{0, n}, false};
  Layout la{0, p > 1 ? 2 : 1, p > 1 ? p / 2 : 1, Range{0, n}, Range{0, n},
            false};
  auto df = DistMatrix<Multpath>::scatter(sim, f, lf);
  auto da = DistMatrix<double>::scatter(sim, a, la);
  sim.ledger().reset();
  DistRun out;
  auto dc = dist::spgemm<MultpathMonoid>(sim, plan, df, da,
                                         BellmanFordAction{}, lf, &out.st);
  out.c = dc.gather(sim);
  out.crit = sim.ledger().critical();
  return out;
}

TEST(Determinism, DistSpgemmBitIdenticalAcrossThreadCounts) {
  PoolSizeGuard guard;
  const std::vector<std::pair<int, dist::Plan>> cases = {
      {8, dist::Plan{1, 2, 4, dist::Variant1D::kA, dist::Variant2D::kAB}},
      {8, dist::Plan{1, 4, 2, dist::Variant1D::kA, dist::Variant2D::kAC}},
      {8, dist::Plan{1, 2, 4, dist::Variant1D::kA, dist::Variant2D::kBC}},
      {12, dist::Plan{3, 2, 2, dist::Variant1D::kB, dist::Variant2D::kAB}},
      {16, dist::Plan{2, 2, 4, dist::Variant1D::kC, dist::Variant2D::kAC}},
  };
  for (std::uint64_t seed : {70, 71, 72}) {
    for (const auto& [p, plan] : cases) {
      const DistRun serial = run_dist_spgemm(1, plan, p, seed);
      const DistRun parallel = run_dist_spgemm(4, plan, p, seed);
      EXPECT_EQ(parallel.c, serial.c)
          << "plan " << plan.to_string() << " seed " << seed;
      // Ledger charges are replayed in serial order at the barrier, so the
      // floating-point totals are exactly equal, not just close.
      EXPECT_EQ(parallel.crit.words, serial.crit.words);
      EXPECT_EQ(parallel.crit.msgs, serial.crit.msgs);
      EXPECT_EQ(parallel.crit.comm_seconds, serial.crit.comm_seconds);
      EXPECT_EQ(parallel.crit.compute_seconds, serial.crit.compute_seconds);
      EXPECT_EQ(parallel.crit.ops, serial.crit.ops);
      EXPECT_EQ(parallel.st.total_ops, serial.st.total_ops);
      EXPECT_EQ(parallel.st.max_rank_ops, serial.st.max_rank_ops);
    }
  }
}

struct MfbcRun {
  std::vector<double> lambda;
  sim::Cost crit;
  double fwd_ops = 0;
  double bwd_ops = 0;
};

MfbcRun run_mfbc(int threads, const graph::Graph& g, int p,
                 core::PlanMode mode) {
  set_threads(threads);
  sim::Sim sim(p);
  core::DistMfbc engine(sim, g);
  core::DistMfbcOptions opts;
  opts.batch_size = 16;
  opts.plan_mode = mode;
  if (mode == core::PlanMode::kFixedCa) opts.replication_c = 4;
  core::DistMfbcStats st;
  MfbcRun out;
  out.lambda = engine.run(opts, &st);
  out.crit = sim.ledger().critical();
  out.fwd_ops = st.forward.total_ops;
  out.bwd_ops = st.backward.total_ops;
  return out;
}

TEST(Determinism, DistMfbcBitIdenticalAcrossThreadCounts) {
  PoolSizeGuard guard;
  for (std::uint64_t seed : {5, 6, 7}) {
    Xoshiro256 rng(seed);
    const auto n = static_cast<graph::vid_t>(30 + rng.bounded(30));
    const bool directed = rng.bounded(2) == 0;
    graph::WeightSpec ws{rng.bounded(2) == 0, 1, 5};
    graph::Graph g = graph::erdos_renyi(
        n, static_cast<graph::nnz_t>(n) * 4, directed, ws, seed * 13 + 1);
    for (core::PlanMode mode :
         {core::PlanMode::kAuto, core::PlanMode::kFixedCa}) {
      const MfbcRun serial = run_mfbc(1, g, 16, mode);
      const MfbcRun parallel = run_mfbc(4, g, 16, mode);
      ASSERT_EQ(parallel.lambda.size(), serial.lambda.size());
      for (std::size_t v = 0; v < serial.lambda.size(); ++v) {
        ASSERT_EQ(parallel.lambda[v], serial.lambda[v])
            << "seed " << seed << " vertex " << v;
      }
      EXPECT_EQ(parallel.crit.words, serial.crit.words);
      EXPECT_EQ(parallel.crit.msgs, serial.crit.msgs);
      EXPECT_EQ(parallel.crit.comm_seconds, serial.crit.comm_seconds);
      EXPECT_EQ(parallel.crit.compute_seconds, serial.crit.compute_seconds);
      EXPECT_EQ(parallel.fwd_ops, serial.fwd_ops);
      EXPECT_EQ(parallel.bwd_ops, serial.bwd_ops);
    }
  }
}

TEST(Determinism, TransposeBitIdenticalAcrossThreadCounts) {
  PoolSizeGuard guard;
  // Over the parallel threshold (nnz >= 2^15) so the striped bucket pass
  // actually runs; the serial result is the reference.
  const Csr<double> a = random_csr(300, 400, 0.4, 91);
  ASSERT_GE(a.nnz(), static_cast<nnz_t>(1 << 15));
  set_threads(1);
  const Csr<double> serial = sparse::transpose(a);
  for (int t : {2, 4, 8}) {
    set_threads(t);
    EXPECT_EQ(sparse::transpose(a), serial) << t << " threads";
  }
}

TEST(Determinism, CooSortAndCombineBitIdenticalAcrossThreadCounts) {
  PoolSizeGuard guard;
  // Duplicate-heavy COO over the parallel-sort threshold: the stable sort
  // must leave duplicates in insertion order at every thread count, so the
  // floating-point left-folds combine in exactly the same order.
  auto build = [] {
    Xoshiro256 rng(17);
    Coo<double> coo(64, 64);
    for (int i = 0; i < (1 << 15); ++i) {
      coo.push(static_cast<vid_t>(rng.bounded(64)),
               static_cast<vid_t>(rng.bounded(64)), rng.uniform01() - 0.5);
    }
    return coo;
  };
  set_threads(1);
  Coo<double> serial = build();
  serial.sort_and_combine<SumMonoid>();
  for (int t : {2, 4, 8}) {
    set_threads(t);
    Coo<double> par = build();
    par.sort_and_combine<SumMonoid>();
    EXPECT_EQ(par.entries(), serial.entries()) << t << " threads";
  }
}

TEST(Determinism, ScatterGatherBitIdenticalAcrossThreadCounts) {
  PoolSizeGuard guard;
  const Csr<double> a = random_csr(300, 400, 0.4, 92);
  ASSERT_GE(a.nnz(), static_cast<nnz_t>(1 << 15));
  // Both grid orientations: the stripe decomposition follows row_splits().
  const std::vector<dist::Layout> layouts = {
      {0, 3, 4, dist::Range{0, 300}, dist::Range{0, 400}, false},
      {0, 3, 4, dist::Range{0, 300}, dist::Range{0, 400}, true},
  };
  for (const dist::Layout& l : layouts) {
    struct Run {
      dist::DistMatrix<double> d;
      Csr<double> back;
      sim::Cost crit;
    };
    auto run = [&](int threads) {
      set_threads(threads);
      sim::Sim sim(12);
      Run r;
      r.d = dist::DistMatrix<double>::scatter(sim, a, l);
      r.back = r.d.gather(sim);
      r.crit = sim.ledger().critical();
      return r;
    };
    const Run serial = run(1);
    EXPECT_EQ(serial.back, a);  // scatter/gather round-trips the matrix
    for (int t : {2, 4, 8}) {
      const Run par = run(t);
      EXPECT_TRUE(par.d == serial.d) << t << " threads";
      EXPECT_EQ(par.back, serial.back) << t << " threads";
      EXPECT_EQ(par.crit.words, serial.crit.words);
      EXPECT_EQ(par.crit.msgs, serial.crit.msgs);
      EXPECT_EQ(par.crit.comm_seconds, serial.crit.comm_seconds);
    }
  }
}

#if MFBC_TELEMETRY

TEST(ThreadPool, WorkerSpansNestUnderTheEnqueuingSpan) {
  PoolSizeGuard guard;
  set_threads(4);
  auto& col = telemetry::collector();
  col.clear();
  col.set_enabled(true);
  {
    telemetry::Span outer("outer");
    parallel_for(8, [](std::size_t) { telemetry::Span inner("inner"); });
  }
  col.set_enabled(false);
  const auto spans = col.finished();
  col.clear();

  std::int64_t outer_id = -1;
  std::map<std::int64_t, std::int64_t> parent_of;
  for (const auto& s : spans) {
    parent_of[s.id] = s.parent;
    if (s.name == "outer") outer_id = s.id;
  }
  ASSERT_GE(outer_id, 0);
  int inners = 0;
  for (const auto& s : spans) {
    if (s.name != "inner") continue;
    ++inners;
    // Walk up (possibly through a parallel.chunk span) to the root; the
    // enqueuing span must be an ancestor even across the thread hop.
    std::int64_t at = s.id;
    bool found = false;
    while (at >= 0) {
      if (at == outer_id) {
        found = true;
        break;
      }
      auto it = parent_of.find(at);
      at = it == parent_of.end() ? -1 : it->second;
    }
    EXPECT_TRUE(found) << "inner span " << s.id << " not under outer";
  }
  EXPECT_EQ(inners, 8);
}

#endif  // MFBC_TELEMETRY

}  // namespace
}  // namespace mfbc::support
