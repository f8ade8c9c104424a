// Algebraic Dijkstra — the frontier-selection strategy MFBC argues against.
//
// §4.2.3: "this scheme is much faster than using Dijkstra's algorithm to
// compute shortest-paths, since it requires the same number of iterations as
// Bellman Ford (Dijkstra's algorithm requires n − 1 matrix multiplications)."
//
// A matrix-formulated Dijkstra may only relax vertices whose distance is
// *settled* (provably final): per iteration, the unsettled vertices holding
// the minimum tentative distance. That keeps the work optimal but serializes
// the traversal — the frontier per iteration is tiny and the iteration count
// approaches the number of distinct distance values (up to n−1), each one a
// bulk-synchronous matrix multiplication. MFBF instead relaxes the *maximal*
// frontier (every vertex whose information changed), completing in
// amplified-diameter iterations at the price of some repeated relaxations.
//
// This module implements the settled-frontier scheme with the same sparse
// kernels so the two strategies' iteration/operation counts are directly
// comparable (bench_ablate_frontier reproduces the paper's argument).
#pragma once

#include <span>
#include <vector>

#include "apps/traversal.hpp"

namespace mfbc::apps {

/// Batched shortest paths with settled (Dijkstra) frontiers. Results equal
/// sssp_batch(); `cost` (optional) receives the iteration/work counters, the
/// same ones sssp_batch reports for the maximal-frontier strategy.
std::vector<Weight> sssp_batch_dijkstra(const Graph& g,
                                        std::span<const vid_t> sources,
                                        FrontierCost* cost = nullptr);

}  // namespace mfbc::apps
