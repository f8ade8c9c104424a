// Partitioning + heterogeneous-profile pins (docs/partitioning.md):
// the degree ordering is a bijection that respects the equal-count slot
// capacities and beats the block split on skewed graphs; relabeled
// engine runs reproduce the unpermuted centrality across thread counts,
// fault schedules, and both communication schedules; per-rank profiles
// price hand-computable costs and collapse to the legacy scalars exactly
// when uniform; and the plan space / plan cache carry the distribution
// dimension without disturbing historical entries.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "algebra/multpath.hpp"
#include "baseline/combblas_bc.hpp"
#include "dist/autotune.hpp"
#include "dist/cost_model.hpp"
#include "dist/partition.hpp"
#include "dist/procgrid.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "mfbc/mfbc_dist.hpp"
#include "sim/comm.hpp"
#include "sim/faults.hpp"
#include "sim/machine.hpp"
#include "support/parallel.hpp"
#include "tune/plan_cache.hpp"

namespace mfbc {
namespace {

using graph::Graph;
using graph::vid_t;

constexpr int kRanks = 4;
constexpr vid_t kBatch = 8;
constexpr double kRelTol = 1e-9;

/// Restores the global pool size on scope exit.
struct PoolSizeGuard {
  int saved = support::num_threads();
  ~PoolSizeGuard() { support::set_threads(saved); }
};

/// Hub-heavy graph in generator order: low ids take large degrees, so the
/// contiguous block split concentrates nonzeros on the first slot.
Graph hub_graph(vid_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<graph::Edge> edges;
  for (vid_t v = 0; v < n; ++v) {
    const vid_t deg = v < 8 ? n / (v + 2) : 2;
    for (vid_t e = 0; e < deg; ++e) {
      const vid_t u = static_cast<vid_t>(rng() % static_cast<std::uint64_t>(n));
      if (u != v) edges.push_back({v, u, 1.0});
    }
  }
  return Graph::from_edges(n, edges, false, false);
}

void expect_close(const std::vector<double>& got,
                  const std::vector<double>& ref, const std::string& label) {
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t v = 0; v < ref.size(); ++v) {
    EXPECT_NEAR(got[v], ref[v], kRelTol * (1.0 + ref[v]))
        << label << ", vertex " << v;
  }
}

void expect_bits(const std::vector<double>& got,
                 const std::vector<double>& ref, const std::string& label) {
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t v = 0; v < ref.size(); ++v) {
    EXPECT_EQ(got[v], ref[v]) << label << ", vertex " << v;
  }
}

std::vector<double> run_mfbc(const Graph& g, dist::PartitionKind kind,
                             const std::string& spec, bool async = false) {
  sim::Sim sim(kRanks);
  core::DistMfbc engine(sim, g, dist::make_partition(g, kind, kRanks));
  // Faults go live after construction so the one-time graph distribution
  // consumes no charge indices and schedules address the algorithm itself.
  if (!spec.empty()) sim.enable_faults(sim::FaultSpec::parse(spec));
  core::DistMfbcOptions opts;
  opts.batch_size = kBatch;
  opts.tune.allow_async = async;
  return engine.run(opts);
}

std::vector<double> run_combblas(const Graph& g, dist::PartitionKind kind,
                                 const std::string& spec) {
  sim::Sim sim(kRanks);
  baseline::CombBlasBc engine(sim, g,
                              dist::make_partition(g, kind, kRanks));
  if (!spec.empty()) sim.enable_faults(sim::FaultSpec::parse(spec));
  baseline::CombBlasOptions opts;
  opts.batch_size = kBatch;
  return engine.run(opts);
}

// ---------------------------------------------------------------------------
// Partition structure.

TEST(Partition, DegreeOrderingIsBijectionOnSlotCapacities) {
  const Graph g = hub_graph(97, 3);
  const auto kind = dist::PartitionKind::kDegree;
  const dist::Partition part = dist::make_partition(g, kind, kRanks);
  ASSERT_FALSE(part.identity());
  ASSERT_EQ(part.perm.size(), static_cast<std::size_t>(g.n()));
  std::vector<char> seen(part.perm.size(), 0);
  for (std::size_t old = 0; old < part.perm.size(); ++old) {
    const vid_t nw = part.perm[old];
    ASSERT_GE(nw, 0);
    ASSERT_LT(nw, g.n());
    EXPECT_FALSE(seen[static_cast<std::size_t>(nw)]);
    seen[static_cast<std::size_t>(nw)] = 1;
    EXPECT_EQ(part.inv[static_cast<std::size_t>(nw)],
              static_cast<vid_t>(old));
  }
}

TEST(Partition, BalancedOrderingsBeatBlockOnHubGraph) {
  const Graph g = hub_graph(128, 5);
  const double block =
      dist::max_mean_imbalance(dist::slot_loads(g, kRanks));
  ASSERT_GT(block, 1.3) << "hub graph should skew the block split";
  const auto kind = dist::PartitionKind::kDegree;
  const dist::Partition part = dist::make_partition(g, kind, kRanks);
  EXPECT_LT(part.balance.imbalance(), block)
      << dist::partition_kind_name(kind);
  // The recomputed loads of the relabeled graph agree with the packer's
  // own bookkeeping.
  const double measured =
      dist::max_mean_imbalance(dist::slot_loads(part.apply(g), kRanks));
  EXPECT_NEAR(measured, part.balance.imbalance(), 1e-12);
}

TEST(Partition, DegeneratesAreIdentity) {
  const Graph g = hub_graph(40, 7);
  EXPECT_TRUE(
      dist::make_partition(g, dist::PartitionKind::kBlock, kRanks).identity());
  EXPECT_TRUE(
      dist::make_partition(g, dist::PartitionKind::kDegree, 1).identity());
  EXPECT_TRUE(
      dist::make_partition(Graph{}, dist::PartitionKind::kDegree, kRanks)
          .identity());
  // Identity partitions pass data through untouched.
  const dist::Partition id;
  const std::vector<double> scores = {3.0, 1.0, 2.0};
  EXPECT_EQ(id.unpermute(scores), scores);
  const std::vector<vid_t> src = {2, 0, 1};
  EXPECT_EQ(id.map_sources(src), src);
}

TEST(Partition, MapSourcesAndUnpermuteInvertEachOther) {
  const Graph g = hub_graph(64, 9);
  const dist::Partition part =
      dist::make_partition(g, dist::PartitionKind::kDegree, kRanks);
  const std::vector<vid_t> sources = {5, 0, 63, 17};
  const std::vector<vid_t> mapped = part.map_sources(sources);
  ASSERT_EQ(mapped.size(), sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(mapped[i], part.perm[static_cast<std::size_t>(sources[i])]);
  }
  // scores[new] = new  ==>  unpermute(scores)[old] = perm[old].
  std::vector<double> scores(static_cast<std::size_t>(g.n()));
  for (std::size_t i = 0; i < scores.size(); ++i) {
    scores[i] = static_cast<double>(i);
  }
  const std::vector<double> un = part.unpermute(scores);
  for (std::size_t old = 0; old < un.size(); ++old) {
    EXPECT_EQ(un[old], static_cast<double>(part.perm[old]));
  }
}

TEST(Partition, SlotWeightsAttractLoadToFasterSlots) {
  const Graph g = hub_graph(96, 11);
  dist::PartitionOptions opts;
  opts.slot_weights = {4.0, 1.0};
  const dist::Partition part =
      dist::make_partition(g, dist::PartitionKind::kDegree, 2, opts);
  const std::vector<double> loads = dist::slot_loads(part.apply(g), 2);
  ASSERT_EQ(loads.size(), 2u);
  EXPECT_GT(loads[0], loads[1])
      << "the 4x-weighted slot should carry more degree";
}

// ---------------------------------------------------------------------------
// words_of (satellite fix): fractional wire sizes for sub-word types.

TEST(Partition, WordsOfIsFractionalForSubWordTypes) {
  EXPECT_EQ(sim::words_of<double>(), 1.0);
  EXPECT_EQ(sim::words_of<float>(), 0.5);
  EXPECT_EQ(sim::words_of<std::uint8_t>(), 0.125);
  EXPECT_EQ(sim::words_of<std::uint32_t>(), 0.5);
  EXPECT_EQ(sim::words_of<algebra::Multpath>(), 2.0);
  EXPECT_EQ(sim::sparse_entry_words<float>(), 1.5);
  EXPECT_EQ(sim::sparse_entry_words<double>(), 2.0);
}

// ---------------------------------------------------------------------------
// Engine round trips: relabeled runs reproduce the unpermuted centrality.

class PartitionIdentity : public ::testing::TestWithParam<std::uint64_t> {};

// Weighted graphs: random integer weights make shortest-path structure
// essentially tie-free, so the relabeled run must reproduce the unpermuted
// bits exactly, for every thread count and fault schedule. (Unweighted
// graphs regroup tied-path sums under relabeling — see
// EnginesMatchUnpermutedWithinTolerance.)
TEST_P(PartitionIdentity, MfbcBitIdenticalOnWeightedGraphs) {
  const Graph g =
      graph::erdos_renyi(44, 150, false, {true, 1, 100}, GetParam() * 2);
  PoolSizeGuard guard;
  support::set_threads(1);
  const std::vector<double> ref =
      run_mfbc(g, dist::PartitionKind::kBlock, "");
  const std::vector<std::string> schedules = {"", "transient@3", "rank@5:1"};
  for (const int threads : {1, 2, 4}) {
    support::set_threads(threads);
    for (const std::string& spec : schedules) {
      const auto kind = dist::PartitionKind::kDegree;
      expect_bits(run_mfbc(g, kind, spec), ref,
                  std::string(dist::partition_kind_name(kind)) +
                      ", threads=" + std::to_string(threads) + ", faults='" +
                      spec + "'");
    }
  }
  // The async-pipelined schedule moves the same values, so the relabeled
  // async run reproduces the same bits too.
  support::set_threads(2);
  expect_bits(run_mfbc(g, dist::PartitionKind::kDegree, "", /*async=*/true),
              ref, "degree async");
}

// Unweighted graphs: tied shortest-path sums regroup under relabeling, so
// cross-partition comparisons get the same 1e-9 relative contract the
// cross-engine differential tests use. Both engines, with and without
// faults.
TEST_P(PartitionIdentity, EnginesMatchUnpermutedWithinTolerance) {
  const Graph g = graph::erdos_renyi(44, 150, false, {}, GetParam() * 2 + 1);
  PoolSizeGuard guard;
  support::set_threads(1);
  const std::vector<double> ref_mfbc =
      run_mfbc(g, dist::PartitionKind::kBlock, "");
  const std::vector<double> ref_comb =
      run_combblas(g, dist::PartitionKind::kBlock, "");
  for (const int threads : {1, 4}) {
    support::set_threads(threads);
    for (const std::string& spec : {std::string(), std::string("rank@5:1")}) {
      const auto kind = dist::PartitionKind::kDegree;
      const std::string label =
          std::string(dist::partition_kind_name(kind)) +
          ", threads=" + std::to_string(threads) + ", faults='" + spec + "'";
      expect_close(run_mfbc(g, kind, spec), ref_mfbc, "mfbc " + label);
      expect_close(run_combblas(g, kind, spec), ref_comb,
                   "combblas " + label);
    }
  }
  // Within one partition kind the engine contract is unchanged: thread
  // count must not change a bit.
  support::set_threads(1);
  const std::vector<double> deg1 =
      run_mfbc(g, dist::PartitionKind::kDegree, "");
  support::set_threads(4);
  expect_bits(run_mfbc(g, dist::PartitionKind::kDegree, ""), deg1,
              "degree threads 1 vs 4");
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionIdentity, ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------------
// Heterogeneous rank profiles.

TEST(MachineProfile, AccessorsPinHandComputedValues) {
  sim::MachineModel mm;
  sim::apply_profile_spec(mm, "1xaccel", kRanks);
  ASSERT_TRUE(mm.heterogeneous());
  ASSERT_EQ(mm.profiles.size(), static_cast<std::size_t>(kRanks));
  EXPECT_EQ(mm.rank_seconds_per_op(0), mm.seconds_per_op / 16.0);
  EXPECT_EQ(mm.rank_seconds_per_op(1), mm.seconds_per_op);
  EXPECT_EQ(mm.rank_memory_words(0), mm.memory_words / 4.0);
  const std::vector<int> mixed = {0, 1};
  const std::vector<int> cpus = {1, 2, 3};
  EXPECT_EQ(mm.group_alpha(mixed), mm.alpha * 4.0);
  EXPECT_EQ(mm.group_alpha(cpus), mm.alpha);
  EXPECT_EQ(mm.group_beta(mixed), mm.beta);
  EXPECT_EQ(mm.max_alpha(), mm.alpha * 4.0);
  EXPECT_EQ(mm.max_beta(), mm.beta);
  EXPECT_EQ(mm.max_seconds_per_op(), mm.seconds_per_op);
  EXPECT_EQ(mm.min_memory_words(), mm.memory_words / 4.0);
  // 1 accel (s/16) + 3 cpu (s): harmonic = 4 / (16/s + 3/s) = 4s/19.
  EXPECT_DOUBLE_EQ(mm.harmonic_seconds_per_op(),
                   4.0 * mm.seconds_per_op / 19.0);
}

TEST(MachineProfile, UniformProfilesReproduceLegacyExactly) {
  sim::MachineModel legacy;
  sim::MachineModel uniform;
  sim::apply_profile_spec(uniform, "4xcpu", kRanks);
  ASSERT_TRUE(uniform.heterogeneous());
  EXPECT_EQ(uniform.max_alpha(), legacy.alpha);
  EXPECT_EQ(uniform.max_beta(), legacy.beta);
  EXPECT_EQ(uniform.max_seconds_per_op(), legacy.seconds_per_op);
  EXPECT_EQ(uniform.harmonic_seconds_per_op(), legacy.seconds_per_op);
  EXPECT_EQ(uniform.min_memory_words(), legacy.memory_words);

  // The §5.2 model prices every plan bitwise identically.
  dist::MultiplyStats stats = dist::MultiplyStats::estimated(
      64, 4096, 4096, 3e4, 3e4, 2.0, 2.0, 2.0);
  for (const dist::Plan& plan : dist::enumerate_plans(kRanks)) {
    const dist::ModelCost a = dist::model_cost(plan, stats, legacy);
    const dist::ModelCost b = dist::model_cost(plan, stats, uniform);
    EXPECT_EQ(a.total(), b.total()) << plan.to_string();
    EXPECT_EQ(a.compute, b.compute) << plan.to_string();
  }

  // The simulated machine charges bitwise identically.
  const std::vector<int> all = {0, 1, 2, 3};
  sim::Sim sa(kRanks, legacy);
  sim::Sim sb(kRanks, uniform);
  for (sim::Sim* s : {&sa, &sb}) {
    s->charge_compute(2, 12345.0);
    s->charge_allreduce(all, 700.0);
    s->charge_bcast(all, 64.0);
  }
  EXPECT_EQ(sa.ledger().critical().compute_seconds,
            sb.ledger().critical().compute_seconds);
  EXPECT_EQ(sa.ledger().critical().comm_seconds,
            sb.ledger().critical().comm_seconds);
}

TEST(MachineProfile, HeterogeneousChargingPricesPerRankRates) {
  sim::MachineModel mm;
  sim::apply_profile_spec(mm, "1xaccel", 2);
  {
    sim::Sim sim(2, mm);
    sim.charge_compute(0, 1e6);  // the accelerator rank
    EXPECT_DOUBLE_EQ(sim.ledger().critical().compute_seconds,
                     1e6 * mm.seconds_per_op / 16.0);
  }
  {
    sim::Sim sim(2, mm);
    sim.charge_compute(1, 1e6);  // the cpu rank
    EXPECT_DOUBLE_EQ(sim.ledger().critical().compute_seconds,
                     1e6 * mm.seconds_per_op);
  }
  // A collective spanning both classes completes at the slowest member's
  // link: same words/msgs, α priced at the accel's 4x.
  const std::vector<int> both = {0, 1};
  sim::MachineModel slow_legacy;
  slow_legacy.alpha *= 4.0;
  sim::Sim het(2, mm);
  sim::Sim ref(2, slow_legacy);
  het.charge_allreduce(both, 500.0);
  ref.charge_allreduce(both, 500.0);
  EXPECT_EQ(het.ledger().critical().comm_seconds,
            ref.ledger().critical().comm_seconds);
}

TEST(CostModel, HeterogeneousComputeTermUsesMaxOrHarmonicRate) {
  sim::MachineModel mm;
  sim::apply_profile_spec(mm, "1xaccel", kRanks);
  dist::MultiplyStats stats = dist::MultiplyStats::estimated(
      64, 4096, 4096, 3e4, 3e4, 2.0, 2.0, 2.0);
  stats.imb_block = 3.0;
  stats.imb_balanced = 1.2;
  dist::Plan plan{1, 2, 2, dist::Variant1D::kA, dist::Variant2D::kAB};
  // Block: equal split, the slowest rank binds — (ops/p)·imb_block·max_spo.
  const double block_compute = dist::model_cost(plan, stats, mm).compute;
  EXPECT_DOUBLE_EQ(block_compute, (stats.ops / kRanks) * stats.imb_block *
                                      mm.max_seconds_per_op());
  // Balanced: capacity-weighted split — (ops/p)·imb_balanced·harmonic_spo.
  plan.dist = dist::Dist::kBalanced;
  const double bal_compute = dist::model_cost(plan, stats, mm).compute;
  EXPECT_DOUBLE_EQ(bal_compute, (stats.ops / kRanks) * stats.imb_balanced *
                                    mm.harmonic_seconds_per_op());
  EXPECT_LT(bal_compute, block_compute);
}

// ---------------------------------------------------------------------------
// Plan space and plan cache.

TEST(Autotune, PartitionTwinsAppendAfterTheBaseEnumeration) {
  dist::TuneOptions base;
  const std::vector<dist::Plan> plain = dist::enumerate_plans(kRanks, base);
  dist::TuneOptions twin = base;
  twin.allow_partition = true;
  const std::vector<dist::Plan> doubled = dist::enumerate_plans(kRanks, twin);
  ASSERT_EQ(doubled.size(), 2 * plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(doubled[i], plain[i]) << "base prefix must be unchanged";
    dist::Plan flipped = plain[i];
    flipped.dist = dist::Dist::kBalanced;
    EXPECT_EQ(doubled[plain.size() + i], flipped);
  }
  // A balanced-partition request stamps every candidate.
  dist::TuneOptions bal = base;
  bal.partition = dist::Dist::kBalanced;
  for (const dist::Plan& plan : dist::enumerate_plans(kRanks, bal)) {
    EXPECT_TRUE(plan.is_balanced());
  }
}

TEST(PlanCacheJson, PlanAndKeyRoundTripTheDistField) {
  dist::Plan plan{1, 2, 2, dist::Variant1D::kA, dist::Variant2D::kBC};
  plan.dist = dist::Dist::kBalanced;
  const dist::Plan back = tune::plan_from_json(tune::plan_to_json(plan));
  EXPECT_EQ(back, plan);
  EXPECT_NE(plan.to_string().find("+bal"), std::string::npos);
  // Sync block plans keep the historical name and JSON shape.
  dist::Plan legacy{1, 2, 2, dist::Variant1D::kA, dist::Variant2D::kBC};
  EXPECT_EQ(legacy.to_string().find("+bal"), std::string::npos);
  EXPECT_EQ(tune::plan_to_json(legacy).find("dist"), nullptr);

  tune::PlanKey key;
  key.monoid = "multpath";
  key.m = 64;
  key.k = key.n = 4096;
  key.ranks = kRanks;
  key.partition = 3;
  EXPECT_NE(key.to_string().find(":d3"), std::string::npos);
  tune::PlanCache cache;
  cache.insert(key, plan);
  tune::PlanCache loaded;
  loaded.load_json(cache.to_json());
  const auto hit = loaded.find(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, plan);
  // A different partition axis is a different key.
  tune::PlanKey other = key;
  other.partition = 0;
  EXPECT_FALSE(loaded.find(other).has_value());
}

}  // namespace
}  // namespace mfbc
