// Synthetic graph generators used by the evaluation (paper §7):
//   * Erdős–Rényi / uniform random graphs [22] for weak scaling (§7.3),
//   * R-MAT power-law graphs [14] for strong scaling (§7.2),
// each in unweighted and weighted (integer weights in [wmin, wmax]) form.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "graph/graph.hpp"

namespace mfbc::graph {

struct WeightSpec {
  bool weighted = false;
  std::uint64_t wmin = 1;
  std::uint64_t wmax = 100;  ///< paper's weighted R-MAT uses U{1..100}
};

/// Uniform random graph with exactly m distinct edges (G(n,m) model).
/// Matches the paper's "every edge exists with a uniform probability"
/// workloads, parameterized by edge count for exact weak-scaling control.
Graph erdos_renyi(vid_t n, nnz_t m, bool directed, WeightSpec ws,
                  std::uint64_t seed);

/// The N,M of a command-line `--er N,M` flag, checked against erdos_renyi's
/// preconditions (N >= 2, M at most 0.8 of the possible edges). A bad value
/// throws mfbc::Error reading "--er: <reason>" (see require_flag).
std::pair<vid_t, nnz_t> parse_er_flag(const std::string& text, bool directed);

/// Uniform random graph from an edge-percentage f = 100·m/n² as used in the
/// edge-weak-scaling experiment (Fig. 2(a)).
Graph erdos_renyi_percent(vid_t n, double f_percent, bool directed,
                          WeightSpec ws, std::uint64_t seed);

struct RmatParams {
  int scale = 14;            ///< n = 2^scale before cleanup
  double edge_factor = 8.0;  ///< average degree E (m ≈ E·n)
  double a = 0.57, b = 0.19, c = 0.19;  ///< R-MAT quadrant probabilities
  bool directed = false;
  WeightSpec weights;
};

/// R-MAT recursive power-law generator [14]; duplicate edges are merged, so
/// the realized m is slightly below edge_factor·n (as in the reference
/// generator).
Graph rmat(const RmatParams& params, std::uint64_t seed);

}  // namespace mfbc::graph
