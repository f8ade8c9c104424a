// The async schedule (sim/async.hpp overlap windows, driven by the one 2D
// step loop dist::detail::spgemm_2d): overlap windows are a pure accounting
// credit, so every test here checks two sides of the same contract — the
// data path (results, W, S, fault schedules) is bit-identical between sync
// and async plans, and the charged cost of an async plan is componentwise
// never above its synchronous twin.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "algebra/multpath.hpp"
#include "dist/autotune.hpp"
#include "dist/spgemm_dist.hpp"
#include "graph/generators.hpp"
#include "mfbc/mfbc_dist.hpp"
#include "sim/comm.hpp"
#include "sparse/spgemm.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "tune/plan_cache.hpp"

namespace mfbc {
namespace {

using algebra::BellmanFordAction;
using algebra::Multpath;
using algebra::MultpathMonoid;
using algebra::SumMonoid;
using dist::DistMatrix;
using dist::Layout;
using dist::Plan;
using dist::Range;
using sparse::Coo;
using sparse::Csr;
using sparse::vid_t;

std::vector<int> all_ranks(int p) {
  std::vector<int> g(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) g[static_cast<std::size_t>(r)] = r;
  return g;
}

/// Bit-identical per-rank ledger state (the async contract is componentwise,
/// not just on the critical path).
void expect_same_ledger(const sim::Sim& a, const sim::Sim& b) {
  ASSERT_EQ(a.nranks(), b.nranks());
  for (int r = 0; r < a.nranks(); ++r) {
    const sim::Cost& ca = a.ledger().rank_cost(r);
    const sim::Cost& cb = b.ledger().rank_cost(r);
    EXPECT_EQ(ca.words, cb.words) << "rank " << r;
    EXPECT_EQ(ca.msgs, cb.msgs) << "rank " << r;
    EXPECT_EQ(ca.comm_seconds, cb.comm_seconds) << "rank " << r;
    EXPECT_EQ(ca.compute_seconds, cb.compute_seconds) << "rank " << r;
    EXPECT_EQ(ca.ops, cb.ops) << "rank " << r;
  }
}

/// Componentwise: every rank of `async` is at most its `sync` state, with
/// words/msgs/ops (the data path) exactly equal — overlap hides time only.
void expect_async_le_sync(const sim::Sim& async, const sim::Sim& sync) {
  ASSERT_EQ(async.nranks(), sync.nranks());
  for (int r = 0; r < async.nranks(); ++r) {
    const sim::Cost& ca = async.ledger().rank_cost(r);
    const sim::Cost& cs = sync.ledger().rank_cost(r);
    EXPECT_EQ(ca.words, cs.words) << "rank " << r;
    EXPECT_EQ(ca.msgs, cs.msgs) << "rank " << r;
    EXPECT_EQ(ca.ops, cs.ops) << "rank " << r;
    EXPECT_EQ(ca.compute_seconds, cs.compute_seconds) << "rank " << r;
    EXPECT_LE(ca.comm_seconds, cs.comm_seconds) << "rank " << r;
  }
}

// ---------------------------------------------------------------------------
// Overlap window unit tests

TEST(OverlapWindow, PostOutsideAnyWindowIsTheBlockingBroadcast) {
  sim::Sim a(4), b(4);
  const auto g = all_ranks(4);
  a.charge_bcast(g, 100);
  const sim::AsyncHandle h = b.post_bcast(g, 100);
  EXPECT_FALSE(h.valid());
  EXPECT_EQ(b.overlap_windows(), 0u);
  expect_same_ledger(a, b);
}

TEST(OverlapWindow, CreditIsBetaTimesMinOfPostedCommAndOverlappedCompute) {
  const auto g = all_ranks(4);
  // Critical-path deltas of the two charges, probed in isolation.
  sim::Sim probe_c(4), probe_k(4);
  probe_c.charge_bcast(g, 1000);
  const double d_comm = probe_c.ledger().critical().comm_seconds;
  probe_k.charge_compute(0, 5000);
  const double d_comp = probe_k.ledger().critical().compute_seconds;
  ASSERT_GT(d_comm, 0);
  ASSERT_GT(d_comp, 0);

  sim::Sim sync(4), async(4);
  sync.charge_bcast(g, 1000);
  sync.charge_compute(0, 5000);

  async.overlap_open(g, 0.5);
  const sim::AsyncHandle h = async.post_bcast(g, 1000);
  EXPECT_TRUE(h.valid());
  async.overlap_compute(0, 5000);
  async.overlap_wait(h);
  const double credit = async.overlap_close();

  EXPECT_DOUBLE_EQ(credit, 0.5 * std::min(d_comm, d_comp));
  EXPECT_EQ(async.overlap_windows(), 1u);
  EXPECT_DOUBLE_EQ(async.overlap_saved_seconds(), credit);
  expect_async_le_sync(async, sync);
  // Every rank paid the broadcast, so the clamp is inactive and the credit
  // lands in full on each of them.
  for (int r = 0; r < 4; ++r) {
    EXPECT_DOUBLE_EQ(async.ledger().rank_cost(r).comm_seconds,
                     sync.ledger().rank_cost(r).comm_seconds - credit);
  }
}

TEST(OverlapWindow, BetaZeroChargesExactlyTheSyncSchedule) {
  const auto g = all_ranks(4);
  sim::Sim sync(4), async(4);
  sync.charge_bcast(g, 500);
  sync.charge_compute(1, 900);

  async.overlap_open(g, 0.0);
  async.post_bcast(g, 500);
  async.overlap_compute(1, 900);
  EXPECT_EQ(async.overlap_close(), 0.0);
  EXPECT_EQ(async.overlap_saved_seconds(), 0.0);
  expect_same_ledger(async, sync);
}

TEST(OverlapWindow, CreditClampsToCommAccruedInsideTheWindow) {
  const auto g = all_ranks(4);
  sim::Sim async(4);
  // Communication charged before the window must survive the credit even
  // when the overlapped compute dwarfs the posted comm.
  async.charge_bcast(g, 800);
  const double at_open = async.ledger().rank_cost(0).comm_seconds;
  async.overlap_open(g, 1.0);
  async.post_bcast(g, 10);
  async.overlap_compute(0, 1e9);  // min() picks the posted comm
  const double credit = async.overlap_close();
  EXPECT_GT(credit, 0);
  for (int r = 0; r < 4; ++r) {
    // beta = 1 and compute >> comm: the full posted comm is refunded, and
    // the clamp stops exactly at the window-open snapshot.
    EXPECT_DOUBLE_EQ(async.ledger().rank_cost(r).comm_seconds, at_open);
  }
}

TEST(OverlapWindow, WaitsAreOrderFreeAndOptional) {
  const auto g = all_ranks(4);
  auto run = [&](bool in_order) {
    sim::Sim s(4);
    s.overlap_open(g, 1.0);
    sim::AsyncHandle h1 = s.post_bcast(g, 100);
    sim::AsyncHandle h2 = s.post_bcast(g, 200);
    sim::AsyncHandle h3 = s.post_bcast(g, 300);
    s.overlap_compute(2, 4000);
    if (in_order) {
      s.overlap_wait(h1);
      s.overlap_wait(h2);
      s.overlap_wait(h3);
    } else {
      s.overlap_wait(h3);
      s.overlap_wait(h1);
      // h2 never waited: close() completes stragglers.
    }
    return std::make_pair(s.overlap_close(), s.ledger().critical());
  };
  const auto [credit_a, crit_a] = run(true);
  const auto [credit_b, crit_b] = run(false);
  EXPECT_EQ(credit_a, credit_b);
  EXPECT_EQ(crit_a.comm_seconds, crit_b.comm_seconds);
  EXPECT_EQ(crit_a.words, crit_b.words);
  EXPECT_EQ(crit_a.msgs, crit_b.msgs);
}

TEST(OverlapWindow, AbandonedWindowsEarnNothing) {
  const auto g = all_ranks(4);
  sim::Sim sync(4), async(4);
  sync.charge_bcast(g, 400);
  sync.charge_compute(0, 700);

  async.overlap_open(g, 1.0);
  async.post_bcast(g, 400);
  async.overlap_compute(0, 700);
  async.overlap_abandon_all();  // FaultError unwound mid-window

  EXPECT_EQ(async.overlap_depth(), 0);
  EXPECT_EQ(async.overlap_windows(), 0u);
  EXPECT_EQ(async.overlap_saved_seconds(), 0.0);
  expect_same_ledger(async, sync);
}

TEST(OverlapWindow, NestedWindowsAccountInnermostFirst) {
  const auto g = all_ranks(4);
  sim::Sim s(4);
  s.overlap_open(g, 1.0);
  EXPECT_EQ(s.overlap_depth(), 1);
  s.overlap_open(g, 1.0);
  EXPECT_EQ(s.overlap_depth(), 2);
  s.post_bcast(g, 100);
  s.overlap_compute(0, 5000);
  EXPECT_GT(s.overlap_close(), 0);  // inner window earned its credit
  EXPECT_EQ(s.overlap_depth(), 1);
  EXPECT_EQ(s.overlap_close(), 0.0);  // outer saw nothing
  EXPECT_EQ(s.overlap_depth(), 0);
}

TEST(SimMemory, ResidentHighwaterTracksPerRankDeltas) {
  sim::Sim s(4);
  EXPECT_EQ(s.resident_highwater_words(), 0.0);
  s.note_resident(0, 100);
  EXPECT_EQ(s.resident_highwater_words(), 100.0);
  s.note_resident(1, 250);
  EXPECT_EQ(s.resident_highwater_words(), 250.0);
  s.note_resident(1, -300);  // release clamps at zero...
  s.note_resident(0, 50);
  EXPECT_EQ(s.resident_highwater_words(), 250.0);  // ...highwater stays
}

// ---------------------------------------------------------------------------
// Plan space, model, and persistence

TEST(AsyncPlans, AsyncTwinsFollowTheUnchangedSyncPrefix) {
  const int p = 16;
  const std::vector<Plan> sync = dist::enumerate_plans(p);
  dist::TuneOptions opts;
  opts.allow_async = true;
  const std::vector<Plan> all = dist::enumerate_plans(p, opts);
  ASSERT_GT(all.size(), sync.size());
  for (std::size_t i = 0; i < sync.size(); ++i) {
    EXPECT_EQ(all[i], sync[i]) << "sync prefix changed at " << i;
  }
  std::size_t twins = 0, sync_2d = 0;
  for (const Plan& plan : sync) {
    if (plan.has_2d()) ++sync_2d;
  }
  for (std::size_t i = sync.size(); i < all.size(); ++i) {
    const Plan& plan = all[i];
    EXPECT_TRUE(plan.is_async());
    EXPECT_TRUE(plan.has_2d());
    EXPECT_TRUE(plan.tile == 1 || plan.tile == 4) << plan.to_string();
    ++twins;
  }
  // One twin per (2D-level sync plan, tile) with the default {1, 4} menu.
  EXPECT_EQ(twins, 2 * sync_2d);
}

TEST(AsyncPlans, ModelCreditsOverlapAndChargesInFlightMemory) {
  auto stats = dist::MultiplyStats::estimated(128, 4096, 4096, 1024, 32768,
                                              2, 2, 2);
  sim::MachineModel mm;
  Plan sync;
  sync.p2 = 4;
  sync.p3 = 4;
  sync.v2 = dist::Variant2D::kAC;
  Plan async = sync;
  async.sched = dist::Sched::kAsync;
  async.tile = 1;

  const dist::ModelCost ms = dist::model_cost(sync, stats, mm);
  const dist::ModelCost ma = dist::model_cost(async, stats, mm);
  EXPECT_EQ(ms.overlap, 0.0);
  EXPECT_GT(ma.overlap, 0.0);
  EXPECT_LT(ma.total(), ms.total());
  // Prefetched slices are in flight next to the working set.
  EXPECT_GE(dist::model_memory_words(async, stats),
            dist::model_memory_words(sync, stats));

  sim::MachineModel flat = mm;
  flat.overlap_beta = 0;
  EXPECT_EQ(dist::model_cost(async, stats, flat).overlap, 0.0);
  EXPECT_DOUBLE_EQ(dist::model_cost(async, stats, flat).total(), ms.total());
}

TEST(AsyncPlans, AutotuneKeepsSyncUnlessStrictlyCheaper) {
  auto stats = dist::MultiplyStats::estimated(128, 4096, 4096, 1024, 32768,
                                              2, 2, 2);
  dist::TuneOptions opts;
  opts.allow_async = true;
  // No overlap efficiency, no credit: the sync plan ties every async twin
  // and the tie goes to the earlier (sync) candidate.
  sim::MachineModel flat;
  flat.overlap_beta = 0;
  EXPECT_FALSE(dist::autotune(16, stats, flat, opts).is_async());
  // Full overlap efficiency: the winner can only improve on the sync choice.
  sim::MachineModel mm;
  const Plan sync_best = dist::autotune(16, stats, mm);
  const Plan best = dist::autotune(16, stats, mm, opts);
  EXPECT_LE(dist::model_cost(best, stats, mm).total(),
            dist::model_cost(sync_best, stats, mm).total());
}

TEST(AsyncPlans, PlanJsonRoundTripsTheScheduleDimension) {
  Plan async;
  async.p2 = 4;
  async.p3 = 2;
  async.v2 = dist::Variant2D::kBC;
  async.sched = dist::Sched::kAsync;
  async.tile = 4;
  EXPECT_EQ(tune::plan_from_json(tune::plan_to_json(async)), async);

  Plan sync;
  sync.p2 = 2;
  sync.p3 = 4;
  const telemetry::Json j = tune::plan_to_json(sync);
  // Pre-schedule profiles have no sched/tile keys; parsing must default
  // them to sync.
  EXPECT_EQ(j.dump().find("sched"), std::string::npos);
  EXPECT_EQ(tune::plan_from_json(j), sync);
}

TEST(AsyncPlans, PlanKeySeparatesSyncAndAsyncRequests) {
  tune::PlanKey a, b;
  a.monoid = b.monoid = "multpath";
  a.ranks = b.ranks = 16;
  b.schedule = 1;
  EXPECT_FALSE(a == b);
  EXPECT_TRUE(a < b || b < a);
  EXPECT_NE(a.to_string(), b.to_string());
}

// ---------------------------------------------------------------------------
// Pipelined SpGEMM: bit-identical results, never-worse cost

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

/// One multiply under `plan` on a fresh p-rank machine; when `spec` is
/// non-empty the injector is enabled after the scatters, so fault charge
/// indices address the multiply itself.
struct SpgemmRun {
  Csr<Multpath> c;
  sim::Sim sim;
  sim::FaultCounters counters;
  std::vector<sim::FaultInjector::TracePoint> trace;
  std::uint64_t charge_points = 0;

  SpgemmRun(int p, const Plan& plan, const std::string& spec = {})
      : sim(p) {
    const vid_t nb = 9, n = 23;
    auto f = random_frontier(nb, n, 0.3, 77);
    auto adj = random_csr(n, n, 0.2, 88);
    Layout lf{0, 1, p, Range{0, nb}, Range{0, n}, false};
    Layout la{0, p, 1, Range{0, n}, Range{0, n}, false};
    auto df = DistMatrix<Multpath>::scatter(sim, f, lf);
    auto da = DistMatrix<double>::scatter(sim, adj, la);
    sim.ledger().reset();
    if (!spec.empty()) sim.enable_faults(sim::FaultSpec::parse(spec));
    auto dc = dist::spgemm<MultpathMonoid>(sim, plan, df, da,
                                           BellmanFordAction{}, lf);
    c = dc.gather(sim);
    if (const sim::FaultInjector* fi = sim.faults()) {
      counters = fi->counters();
      trace = fi->trace();
      charge_points = fi->charge_points();
    }
  }
};

TEST(PipelinedSpgemm, MatchesSyncBitIdenticallyAndNeverCostsMore) {
  for (int p : {4, 16}) {
    for (const Plan& plan : dist::enumerate_plans(p)) {
      if (!plan.has_2d()) continue;
      SpgemmRun sync(p, plan);
      for (int tile : {1, 2}) {
        Plan async = plan;
        async.sched = dist::Sched::kAsync;
        async.tile = tile;
        SpgemmRun run(p, async);
        ASSERT_EQ(run.c, sync.c)
            << async.to_string() << " on p=" << p << " changed the result";
        expect_async_le_sync(run.sim, sync.sim);
        EXPECT_GT(run.sim.overlap_windows(), 0u) << async.to_string();
      }
    }
  }
}

TEST(PipelinedSpgemm, ThreadCountInvariant) {
  struct PoolSizeGuard {
    int saved = support::num_threads();
    ~PoolSizeGuard() { support::set_threads(saved); }
  } guard;
  Plan async;
  async.p2 = 4;
  async.p3 = 4;
  async.v2 = dist::Variant2D::kAC;
  async.sched = dist::Sched::kAsync;
  async.tile = 1;
  support::set_threads(1);
  SpgemmRun ref(16, async);
  const sim::Cost ref_crit = ref.sim.ledger().critical();
  for (int t : {2, 4}) {
    support::set_threads(t);
    SpgemmRun run(16, async);
    ASSERT_EQ(run.c, ref.c) << "threads=" << t;
    const sim::Cost crit = run.sim.ledger().critical();
    EXPECT_EQ(crit.words, ref_crit.words) << "threads=" << t;
    EXPECT_EQ(crit.msgs, ref_crit.msgs) << "threads=" << t;
    EXPECT_EQ(crit.comm_seconds, ref_crit.comm_seconds) << "threads=" << t;
    EXPECT_EQ(crit.compute_seconds, ref_crit.compute_seconds)
        << "threads=" << t;
  }
}

TEST(PipelinedSpgemm, FaultScheduleIsPureInSeedAndChargeIndex) {
  // An async plan posts broadcasts inside overlap windows and prefetches
  // the next step's slices — but charges in the exact sync order, so the
  // injector sees the same charge indices, same groups, and fires the same
  // faults. Every 2D shape is pinned: the kAC/kBC reductions and non-square
  // grids interleave with the posted broadcasts differently from kAB.
  for (int p : {4, 16}) {
    for (const Plan& plan : dist::enumerate_plans(p)) {
      if (!plan.has_2d()) continue;
      SpgemmRun sync(p, plan, "trace");
      ASSERT_GT(sync.charge_points, 0u) << plan.to_string();
      for (int tile : {1, 2}) {
        Plan async = plan;
        async.sched = dist::Sched::kAsync;
        async.tile = tile;
        SpgemmRun run(p, async, "trace");
        EXPECT_EQ(run.charge_points, sync.charge_points) << async.to_string();
        ASSERT_EQ(run.trace.size(), sync.trace.size()) << async.to_string();
        for (std::size_t i = 0; i < sync.trace.size(); ++i) {
          EXPECT_EQ(run.trace[i], sync.trace[i])
              << async.to_string() << " on p=" << p << ", charge point " << i;
        }
        EXPECT_EQ(run.c, sync.c) << async.to_string();
      }
    }
  }
}

TEST(PipelinedSpgemm, TransientFaultsPlayOutIdentically) {
  const std::string spec = "transient:0.3,retries:6,seed:9";
  for (const Plan& plan : dist::enumerate_plans(4)) {
    if (!plan.has_2d()) continue;
    Plan async = plan;
    async.sched = dist::Sched::kAsync;
    async.tile = 1;
    SpgemmRun sync(4, plan, spec);
    SpgemmRun run(4, async, spec);
    ASSERT_GT(sync.counters.injected, 0u) << plan.to_string();
    EXPECT_EQ(run.counters.injected, sync.counters.injected);
    EXPECT_EQ(run.counters.injected_transient,
              sync.counters.injected_transient);
    EXPECT_EQ(run.counters.recovered, sync.counters.recovered);
    ASSERT_EQ(run.c, sync.c) << async.to_string();
    expect_async_le_sync(run.sim, sync.sim);
  }
}

// ---------------------------------------------------------------------------
// End to end: rank failure during an overlap window

/// 2D-only, async-capable tuning options so DistMfbc's planner lands on an
/// async-pipelined plan (its modelled overlap credit makes it strictly
/// cheaper than the sync 2D shapes).
dist::TuneOptions async_2d_options() {
  dist::TuneOptions t;
  t.allow_1d = false;
  t.allow_3d = false;
  t.allow_async = true;
  t.async_tiles = {1};
  return t;
}

std::vector<double> run_mfbc(const graph::Graph& g, int p,
                             const std::string& spec, bool allow_async,
                             sim::FaultCounters* counters = nullptr,
                             int* batch_retries = nullptr,
                             std::uint64_t* charge_points = nullptr,
                             std::uint64_t* windows = nullptr) {
  sim::Sim sim(p);
  core::DistMfbc engine(sim, g);
  if (!spec.empty()) sim.enable_faults(sim::FaultSpec::parse(spec));
  core::DistMfbcOptions opts;
  opts.batch_size = 8;
  opts.tune = async_2d_options();
  opts.tune.allow_async = allow_async;
  core::DistMfbcStats st;
  auto lambda = engine.run(opts, &st);
  if (const sim::FaultInjector* fi = sim.faults()) {
    if (counters != nullptr) *counters = fi->counters();
    if (charge_points != nullptr) *charge_points = fi->charge_points();
  }
  if (batch_retries != nullptr) *batch_retries = st.batch_retries;
  if (windows != nullptr) *windows = sim.overlap_windows();
  return lambda;
}

TEST(AsyncRecovery, RankFailureInsideAWindowRollsBackBitIdentically) {
  const graph::Graph g = graph::erdos_renyi(40, 160, false, {}, 99);
  const int p = 4;

  // Fault-free async reference; the plan space is arranged so the engine
  // really runs pipelined multiplies.
  std::uint64_t windows = 0;
  const std::vector<double> ref =
      run_mfbc(g, p, "", /*allow_async=*/true, nullptr, nullptr, nullptr,
               &windows);
  ASSERT_GT(windows, 0u) << "async plan was never selected";
  // The schedule axis must not move a single bit of the centralities.
  const std::vector<double> ref_sync = run_mfbc(g, p, "", false);
  ASSERT_EQ(ref, ref_sync);

  // Count the multiply's charge points, then kill a rank mid-run — inside
  // the windowed region of some pipelined multiply.
  std::uint64_t points = 0;
  run_mfbc(g, p, "rank@1000000000", true, nullptr, nullptr, &points);
  ASSERT_GT(points, 4u);
  const std::string spec = "rank@" + std::to_string(points / 2) + ":1";

  sim::FaultCounters async_counters, sync_counters;
  int async_retries = 0, sync_retries = 0;
  const std::vector<double> async_lambda =
      run_mfbc(g, p, spec, true, &async_counters, &async_retries);
  const std::vector<double> sync_lambda =
      run_mfbc(g, p, spec, false, &sync_counters, &sync_retries);

  EXPECT_EQ(async_counters.injected_rank, 1u);
  EXPECT_GE(async_retries, 1);
  // Identical charge order => the same charge index kills the same rank in
  // both schedules, and both recoveries land on the same checkpoint.
  EXPECT_EQ(async_counters.injected, sync_counters.injected);
  EXPECT_EQ(async_retries, sync_retries);
  ASSERT_EQ(async_lambda.size(), ref.size());
  for (std::size_t v = 0; v < ref.size(); ++v) {
    ASSERT_EQ(async_lambda[v], ref[v]) << "vertex " << v;
    ASSERT_EQ(sync_lambda[v], ref[v]) << "vertex " << v;
  }
}

}  // namespace
}  // namespace mfbc
