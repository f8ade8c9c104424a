#include "graph/generators.hpp"

#include <unordered_set>
#include <vector>

#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/strutil.hpp"

namespace mfbc::graph {

namespace {

/// Pack an edge into one u64 for dedup sets (n < 2^32 is enforced by the
/// generators; the library's CSR itself has no such limit).
std::uint64_t pack(vid_t u, vid_t v) {
  return (static_cast<std::uint64_t>(u) << 32) | static_cast<std::uint32_t>(v);
}

Weight draw_weight(Xoshiro256& rng, const WeightSpec& ws) {
  return ws.weighted ? rng.weight(ws.wmin, ws.wmax) : 1.0;
}

/// The most edges erdos_renyi draws: 0.8 of the n(n-1) (directed) or
/// n(n-1)/2 (undirected) possible ones, so rejection sampling stays fast.
double max_er_edges(vid_t n, bool directed) {
  return 0.8 * static_cast<double>(n) * static_cast<double>(n - 1) /
         (directed ? 1 : 2);
}

}  // namespace

Graph erdos_renyi(vid_t n, nnz_t m, bool directed, WeightSpec ws,
                  std::uint64_t seed) {
  MFBC_CHECK(n >= 2, "erdos_renyi requires n >= 2");
  MFBC_CHECK(n < (vid_t{1} << 32), "generator limit: n < 2^32");
  MFBC_CHECK(static_cast<double>(m) <= max_er_edges(n, directed),
             "requested edge count too close to complete graph");
  Xoshiro256 rng(seed);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(static_cast<std::size_t>(m) * 2);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(m));
  while (static_cast<nnz_t>(edges.size()) < m) {
    vid_t u = static_cast<vid_t>(rng.bounded(static_cast<std::uint64_t>(n)));
    vid_t v = static_cast<vid_t>(rng.bounded(static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    // For undirected graphs canonicalize so {u,v} is drawn once.
    if (!directed && u > v) std::swap(u, v);
    if (!seen.insert(pack(u, v)).second) continue;
    edges.push_back({u, v, draw_weight(rng, ws)});
  }
  return Graph::from_edges(n, edges, directed, ws.weighted);
}

std::pair<vid_t, nnz_t> parse_er_flag(const std::string& text,
                                      bool directed) {
  const std::vector<std::string> nm = split(text, ',');
  require_flag(nm.size() == 2, "--er", "expects N,M");
  const vid_t n = parse_int(nm[0], "--er N", (vid_t{1} << 32) - 1);
  const nnz_t m = parse_int(nm[1], "--er M");
  require_flag(n >= 2, "--er", "N must be at least 2");
  require_flag(static_cast<double>(m) <= max_er_edges(n, directed), "--er",
               "M must be at most 0.8 of the " +
                   std::string(directed ? "N(N-1)" : "N(N-1)/2") +
                   " possible edges");
  return {n, m};
}

Graph erdos_renyi_percent(vid_t n, double f_percent, bool directed,
                          WeightSpec ws, std::uint64_t seed) {
  MFBC_CHECK(f_percent > 0, "edge percentage must be positive");
  const auto m = static_cast<nnz_t>(f_percent / 100.0 * static_cast<double>(n) *
                                    static_cast<double>(n) /
                                    (directed ? 1.0 : 2.0));
  return erdos_renyi(n, std::max<nnz_t>(m, n), directed, ws, seed);
}

Graph rmat(const RmatParams& params, std::uint64_t seed) {
  MFBC_CHECK(params.scale >= 1 && params.scale < 31, "rmat scale out of range");
  const double d = 1.0 - params.a - params.b - params.c;
  MFBC_CHECK(params.a > 0 && params.b > 0 && params.c > 0 && d > 0,
             "rmat quadrant probabilities must be positive and sum below 1");
  const vid_t n = vid_t{1} << params.scale;
  const auto target =
      static_cast<nnz_t>(params.edge_factor * static_cast<double>(n));
  Xoshiro256 rng(seed);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(static_cast<std::size_t>(target) * 2);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(target));
  // Standard R-MAT: drop one edge per recursive quadrant descent; duplicates
  // are merged, giving the usual sub-linear realized density.
  nnz_t attempts = 0;
  const nnz_t max_attempts = target * 4;
  while (static_cast<nnz_t>(edges.size()) < target && attempts < max_attempts) {
    ++attempts;
    vid_t u = 0, v = 0;
    for (int bit = params.scale - 1; bit >= 0; --bit) {
      const double r = rng.uniform01();
      if (r < params.a) {
        // top-left: no bits set
      } else if (r < params.a + params.b) {
        v |= vid_t{1} << bit;
      } else if (r < params.a + params.b + params.c) {
        u |= vid_t{1} << bit;
      } else {
        u |= vid_t{1} << bit;
        v |= vid_t{1} << bit;
      }
    }
    if (u == v) continue;
    vid_t cu = u, cv = v;
    if (!params.directed && cu > cv) std::swap(cu, cv);
    if (!seen.insert(pack(cu, cv)).second) continue;
    edges.push_back({cu, cv, draw_weight(rng, params.weights)});
  }
  return Graph::from_edges(n, edges, params.directed, params.weights.weighted);
}

}  // namespace mfbc::graph
