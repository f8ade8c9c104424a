#include "apps/dijkstra_algebraic.hpp"

#include <algorithm>
#include <limits>

#include "sparse/spgemm.hpp"
#include "support/error.hpp"

namespace mfbc::apps {

namespace {

using algebra::kInfWeight;
using algebra::TropicalMinMonoid;
using algebra::TropicalTimes;
using sparse::Csr;
using sparse::CsrBuilder;

struct State {
  vid_t nb = 0;
  vid_t n = 0;
  std::vector<Weight> dist;

  State(vid_t nb_, vid_t n_) : nb(nb_), n(n_) {
    dist.assign(static_cast<std::size_t>(nb) * static_cast<std::size_t>(n),
                kInfWeight);
  }
  Weight& at(vid_t s, vid_t v) {
    return dist[static_cast<std::size_t>(s) * static_cast<std::size_t>(n) +
                static_cast<std::size_t>(v)];
  }
};

}  // namespace

std::vector<Weight> sssp_batch_dijkstra(const Graph& g,
                                        std::span<const vid_t> sources,
                                        FrontierCost* cost) {
  const vid_t n = g.n();
  const auto nb = static_cast<vid_t>(sources.size());
  State st(nb, n);
  std::vector<std::vector<char>> settled(
      static_cast<std::size_t>(nb),
      std::vector<char>(static_cast<std::size_t>(n), 0));
  for (vid_t s = 0; s < nb; ++s) {
    MFBC_CHECK(sources[static_cast<std::size_t>(s)] >= 0 &&
                   sources[static_cast<std::size_t>(s)] < n,
               "source out of range");
    st.at(s, sources[static_cast<std::size_t>(s)]) = 0.0;
  }

  // Per iteration: settle, for every batch row, the unsettled vertices at
  // that row's minimum tentative distance, and relax exactly their edges
  // with one generalized product.
  while (true) {
    CsrBuilder<Weight> settle(nb, n);
    for (vid_t s = 0; s < nb; ++s) {
      Weight lo = kInfWeight;
      for (vid_t v = 0; v < n; ++v) {
        if (!settled[static_cast<std::size_t>(s)][static_cast<std::size_t>(v)]) {
          lo = std::min(lo, st.at(s, v));
        }
      }
      if (lo == kInfWeight) continue;
      for (vid_t v = 0; v < n; ++v) {
        if (!settled[static_cast<std::size_t>(s)][static_cast<std::size_t>(v)] &&
            st.at(s, v) == lo) {
          settled[static_cast<std::size_t>(s)][static_cast<std::size_t>(v)] = 1;
          settle.push(s, v, lo);
        }
      }
    }
    if (settle.nnz() == 0) break;
    Csr<Weight> frontier = std::move(settle).build();
    sparse::SpgemmStats sst;
    Csr<Weight> product = sparse::spgemm<TropicalMinMonoid>(
        frontier, g.adj(), TropicalTimes{}, &sst);
    if (cost != nullptr) {
      cost->iterations += 1;
      cost->total_ops += sst.ops;
      cost->frontier_nnz_total += frontier.nnz();
    }
    for (vid_t s = 0; s < nb; ++s) {
      auto cols = product.row_cols(s);
      auto vals = product.row_vals(s);
      for (std::size_t i = 0; i < cols.size(); ++i) {
        if (vals[i] < st.at(s, cols[i])) st.at(s, cols[i]) = vals[i];
      }
    }
  }
  return st.dist;
}

}  // namespace mfbc::apps
