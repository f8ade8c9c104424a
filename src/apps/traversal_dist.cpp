#include "apps/traversal_dist.hpp"

#include "dist/batch_state.hpp"
#include "dist/ddense.hpp"
#include "dist/spgemm_dist.hpp"
#include "support/error.hpp"

namespace mfbc::apps {

namespace {

using algebra::kInfWeight;
using algebra::TropicalMinMonoid;
using algebra::TropicalTimes;
using dist::DistMatrix;
using dist::Layout;
using dist::Range;

}  // namespace

std::vector<Weight> sssp_batch_dist(sim::Sim& sim, const Graph& g,
                                    std::span<const vid_t> sources) {
  const vid_t n = g.n();
  const auto nb = static_cast<vid_t>(sources.size());
  const int p = sim.nranks();
  auto [pr, pc] = dist::near_square_grid(p);
  const Layout sl{0, pr, pc, Range{0, nb}, Range{0, n}, false};
  const Layout base{0, pr, pc, Range{0, n}, Range{0, n}, false};

  auto adj = DistMatrix<Weight>::scatter(sim, g.adj(), base);
  dist::HomeCache<Weight> cache;

  // Accumulated distances live densely per rank block (the O(n·n_b/p)
  // state footprint), in the same layout the products are delivered on.
  dist::DistDenseMatrix<Weight> state(nb, n, sl, kInfWeight);
  auto at = [&](vid_t s, vid_t v) -> Weight& { return state.at(s, v); };

  // Initial frontier: sources at distance 0, placed on the state grid.
  DistMatrix<Weight> frontier;
  {
    auto bins = dist::empty_bins<Weight>(sl, n);
    for (vid_t s = 0; s < nb; ++s) {
      const vid_t src = sources[static_cast<std::size_t>(s)];
      MFBC_CHECK(src >= 0 && src < n, "source out of range");
      at(s, src) = 0.0;
      auto [bi, bj] = sl.owner(s, src);
      bins[static_cast<std::size_t>(bi * pc + bj)].push(
          s - sl.block_rows(bi, bj).lo, src, 0.0);
    }
    frontier = dist::from_blocks(nb, n, sl, std::move(bins));
  }

  std::vector<int> all_ranks(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) all_ranks[static_cast<std::size_t>(r)] = r;

  while (frontier.nnz() > 0) {
    auto stats = dist::MultiplyStats::estimated(
        nb, n, n, static_cast<double>(frontier.nnz()),
        static_cast<double>(adj.nnz()), 2, 2, 2);
    const dist::Plan plan = dist::autotune(p, stats, sim.model());
    DistMatrix<Weight> product = dist::spgemm<TropicalMinMonoid>(
        sim, plan, frontier, adj, TropicalTimes{}, sl, nullptr, &cache);
    auto bins = dist::empty_bins<Weight>(sl, n);
    for (int i = 0; i < pr; ++i) {
      for (int j = 0; j < pc; ++j) {
        const Range rows = sl.block_rows(i, j);
        const auto& blk = product.block(i, j);
        auto& bin = bins[static_cast<std::size_t>(i * pc + j)];
        for (vid_t lr = 0; lr < blk.nrows(); ++lr) {
          auto cols = blk.row_cols(lr);
          auto vals = blk.row_vals(lr);
          for (std::size_t x = 0; x < cols.size(); ++x) {
            if (vals[x] < at(rows.lo + lr, cols[x])) {
              at(rows.lo + lr, cols[x]) = vals[x];
              bin.push(lr, cols[x], vals[x]);
            }
          }
        }
        sim.charge_compute(sl.rank_at(i, j),
                           static_cast<double>(blk.nnz()));
      }
    }
    frontier = dist::from_blocks(nb, n, sl, std::move(bins));
    sim.charge_allreduce(all_ranks, 1.0);
  }
  // Final answer gathered to the caller.
  return state.gather(sim);
}

std::vector<double> harmonic_closeness_dist(sim::Sim& sim, const Graph& g,
                                            const ClosenessOptions& opts) {
  MFBC_CHECK(opts.batch_size >= 1, "batch size must be positive");
  const vid_t n = g.n();
  std::vector<vid_t> sources = opts.sources;
  if (sources.empty()) {
    sources.resize(static_cast<std::size_t>(n));
    for (vid_t v = 0; v < n; ++v) sources[static_cast<std::size_t>(v)] = v;
  }
  std::vector<int> all_ranks(static_cast<std::size_t>(sim.nranks()));
  for (int r = 0; r < sim.nranks(); ++r) {
    all_ranks[static_cast<std::size_t>(r)] = r;
  }
  std::vector<double> closeness(sources.size(), 0.0);
  for (std::size_t lo = 0; lo < sources.size();
       lo += static_cast<std::size_t>(opts.batch_size)) {
    const std::size_t hi = std::min(
        sources.size(), lo + static_cast<std::size_t>(opts.batch_size));
    std::span<const vid_t> batch(sources.data() + lo, hi - lo);
    const auto dist = sssp_batch_dist(sim, g, batch);
    for (std::size_t s = 0; s < batch.size(); ++s) {
      double h = 0;
      for (vid_t v = 0; v < n; ++v) {
        const Weight d =
            dist[s * static_cast<std::size_t>(n) + static_cast<std::size_t>(v)];
        if (v != batch[s] && d > 0 && d < kInfWeight) h += 1.0 / d;
      }
      closeness[lo + s] = h;
    }
  }
  // Per-source scores are summed with one reduction over all ranks.
  sim.charge_reduce(all_ranks, static_cast<double>(closeness.size()));
  return closeness;
}

}  // namespace mfbc::apps
