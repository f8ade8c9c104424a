#include "apps/traversal.hpp"

#include <algorithm>

#include "sparse/ops.hpp"
#include "sparse/spgemm.hpp"
#include "support/error.hpp"

namespace mfbc::apps {

namespace {

using algebra::kInfWeight;
using algebra::TropicalMinMonoid;
using algebra::TropicalTimes;
using sparse::Csr;
using sparse::CsrBuilder;

/// Shared maximal-frontier relaxation loop over the tropical monoid: each
/// iteration multiplies the sparse frontier by the adjacency (or unit
/// adjacency) matrix and keeps strictly improving entries. `cost`, when
/// given, receives the iteration and work counters.
std::vector<Weight> relax_batch(const Graph& g,
                                std::span<const vid_t> sources,
                                bool unit_weights, FrontierCost* cost) {
  const vid_t n = g.n();
  const auto nb = static_cast<vid_t>(sources.size());
  std::vector<Weight> dist(
      static_cast<std::size_t>(nb) * static_cast<std::size_t>(n), kInfWeight);
  auto at = [&](vid_t s, vid_t v) -> Weight& {
    return dist[static_cast<std::size_t>(s) * static_cast<std::size_t>(n) +
                static_cast<std::size_t>(v)];
  };

  const Csr<Weight>* adj = &g.adj();
  Csr<Weight> unit;
  if (unit_weights && g.weighted()) {
    unit = sparse::map_values<Weight>(
        g.adj(), [](vid_t, vid_t, Weight) { return 1.0; });
    adj = &unit;
  }

  // Initial frontier: the sources at distance 0.
  CsrBuilder<Weight> init(nb, n);
  for (vid_t s = 0; s < nb; ++s) {
    const vid_t src = sources[static_cast<std::size_t>(s)];
    MFBC_CHECK(src >= 0 && src < n, "source out of range");
    at(s, src) = 0.0;
    init.push(s, src, 0.0);
  }
  Csr<Weight> frontier = std::move(init).build();

  while (frontier.nnz() > 0) {
    sparse::SpgemmStats st;
    Csr<Weight> product = sparse::spgemm<TropicalMinMonoid>(
        frontier, *adj, TropicalTimes{}, &st);
    if (cost != nullptr) {
      cost->iterations += 1;
      cost->total_ops += st.ops;
      cost->frontier_nnz_total += frontier.nnz();
    }
    CsrBuilder<Weight> next(nb, n);
    for (vid_t s = 0; s < nb; ++s) {
      auto cols = product.row_cols(s);
      auto vals = product.row_vals(s);
      for (std::size_t i = 0; i < cols.size(); ++i) {
        if (vals[i] < at(s, cols[i])) {
          at(s, cols[i]) = vals[i];
          next.push(s, cols[i], vals[i]);
        }
      }
    }
    frontier = std::move(next).build();
  }
  return dist;
}

}  // namespace

std::vector<Weight> bfs_hops(const Graph& g, vid_t source) {
  const vid_t src[] = {source};
  return relax_batch(g, src, /*unit_weights=*/true, nullptr);
}

std::vector<Weight> sssp(const Graph& g, vid_t source) {
  const vid_t src[] = {source};
  return relax_batch(g, src, /*unit_weights=*/false, nullptr);
}

std::vector<Weight> sssp_batch(const Graph& g, std::span<const vid_t> sources,
                               FrontierCost* cost) {
  return relax_batch(g, sources, /*unit_weights=*/false, cost);
}

std::vector<vid_t> connected_component_labels(const Graph& g) {
  const vid_t n = g.n();
  // Min-label monoid over vertex ids; identity = n (no label).
  struct MinLabel {
    // value_type must be set per instantiation; vid_t labels with sentinel.
    using value_type = vid_t;
    static value_type identity() {
      return std::numeric_limits<vid_t>::max();
    }
    static value_type combine(value_type a, value_type b) {
      return std::min(a, b);
    }
    static bool is_identity(value_type a) {
      return a == std::numeric_limits<vid_t>::max();
    }
  };
  struct KeepLabel {
    vid_t operator()(vid_t label, Weight) const { return label; }
  };

  // Symmetric adjacency for weak connectivity.
  Csr<Weight> sym = sparse::ewise_union<TropicalMinMonoid>(
      g.adj(), sparse::transpose(g.adj()));

  std::vector<vid_t> label(static_cast<std::size_t>(n));
  for (vid_t v = 0; v < n; ++v) label[static_cast<std::size_t>(v)] = v;

  // Frontier: 1×n row of labels, initially every vertex proposing its own.
  CsrBuilder<vid_t> init(1, n);
  for (vid_t v = 0; v < n; ++v) init.push(0, v, v);
  Csr<vid_t> frontier = std::move(init).build();

  while (frontier.nnz() > 0) {
    Csr<vid_t> product = sparse::spgemm<MinLabel>(frontier, sym, KeepLabel{});
    CsrBuilder<vid_t> next(1, n);
    auto cols = product.row_cols(0);
    auto vals = product.row_vals(0);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      auto& cur = label[static_cast<std::size_t>(cols[i])];
      if (vals[i] < cur) {
        cur = vals[i];
        next.push(0, cols[i], vals[i]);
      }
    }
    frontier = std::move(next).build();
  }
  return label;
}

std::vector<double> harmonic_closeness(const Graph& g,
                                       const ClosenessOptions& opts) {
  MFBC_CHECK(opts.batch_size >= 1, "batch size must be positive");
  const vid_t n = g.n();
  std::vector<vid_t> sources = opts.sources;
  if (sources.empty()) {
    sources.resize(static_cast<std::size_t>(n));
    for (vid_t v = 0; v < n; ++v) sources[static_cast<std::size_t>(v)] = v;
  }
  std::vector<double> closeness(sources.size(), 0.0);
  for (std::size_t lo = 0; lo < sources.size();
       lo += static_cast<std::size_t>(opts.batch_size)) {
    const std::size_t hi = std::min(
        sources.size(), lo + static_cast<std::size_t>(opts.batch_size));
    std::span<const vid_t> batch(sources.data() + lo, hi - lo);
    const auto dist = sssp_batch(g, batch);
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
  return closeness;
}

}  // namespace mfbc::apps
