// Algebraic graph algorithms beyond betweenness centrality.
//
// The paper argues its "design methodology is readily extensible to other
// graph problems" (§8) and introduces the formalism with the algebraic BFS
// example (§2.3). This module makes that concrete: BFS, single-source and
// batched shortest paths, connected components, and harmonic closeness
// centrality, all expressed as frontier loops over the same generalized
// SpGEMM kernels the MFBC implementation uses — each with its own monoid.
#pragma once

#include <span>
#include <vector>

#include "algebra/tropical.hpp"
#include "graph/graph.hpp"

namespace mfbc::apps {

using algebra::Weight;
using graph::Graph;
using graph::vid_t;

/// §2.3's algebraic BFS: hop distances from `source` via iterated products
/// over the tropical monoid with unit edge weights (−1 encoded as ∞ in the
/// Weight domain is avoided — unreachable vertices return kInfWeight).
std::vector<Weight> bfs_hops(const Graph& g, vid_t source);

/// Single-source shortest paths via the maximal-frontier Bellman-Ford loop
/// (MFBF without multiplicities): weights from the graph, ∞ if unreachable.
std::vector<Weight> sssp(const Graph& g, vid_t source);

/// Work counters of a frontier loop, for comparing frontier strategies
/// (bench_ablate_frontier).
struct FrontierCost {
  int iterations = 0;          ///< bulk-synchronous multiplications
  sparse::nnz_t total_ops = 0; ///< nonzero products over all iterations
  sparse::nnz_t frontier_nnz_total = 0;
};

/// Batched shortest paths with maximal frontiers (every entry whose distance
/// improved relaxes next): row s holds distances from sources[s] (dense
/// nb×n, row-major). This is the T matrix of MFBF restricted to weights.
/// `cost` (optional) receives the iteration/work counters.
std::vector<Weight> sssp_batch(const Graph& g, std::span<const vid_t> sources,
                               FrontierCost* cost = nullptr);

/// Connected components by min-label propagation over the (min, keep-label)
/// monoid pair: returns, per vertex, the smallest vertex id in its
/// (weakly-)connected component. Directed graphs are treated as undirected
/// (label propagation follows both edge directions).
std::vector<vid_t> connected_component_labels(const Graph& g);

struct ClosenessOptions {
  vid_t batch_size = 64;
  /// Sources to evaluate; empty = all vertices.
  std::vector<vid_t> sources;
};

/// Harmonic closeness centrality h(s) = Σ_{v≠s} 1/τ(s,v), computed in
/// batches through the MFBF machinery. Harmonic (rather than classic)
/// closeness is used so disconnected graphs are well-defined; unreachable
/// pairs contribute 0.
std::vector<double> harmonic_closeness(const Graph& g,
                                       const ClosenessOptions& opts = {});

}  // namespace mfbc::apps
