#include "mfbc/mfbc_seq.hpp"

#include <algorithm>

#include "sparse/ops.hpp"
#include "sparse/spgemm.hpp"
#include "support/error.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"

namespace mfbc::core {

namespace {

using algebra::BellmanFordAction;
using algebra::BrandesAction;
using algebra::Centpath;
using algebra::CentpathMonoid;
using algebra::kInfWeight;
using algebra::Multpath;
using algebra::MultpathMonoid;
using sparse::Csr;
using sparse::CsrBuilder;

std::size_t flat(vid_t s, vid_t n, vid_t v) {
  return static_cast<std::size_t>(s) * static_cast<std::size_t>(n) +
         static_cast<std::size_t>(v);
}

}  // namespace

PathMatrix mfbf(const Graph& g, std::span<const vid_t> sources,
                FrontierTrace* trace) {
  const vid_t n = g.n();
  const auto nb = static_cast<vid_t>(sources.size());
  telemetry::Span phase_span("mfbc.mfbf");
  phase_span.attr("nb", static_cast<std::int64_t>(nb));
  PathMatrix t;
  t.nb = nb;
  t.n = n;
  t.sources.assign(sources.begin(), sources.end());
  t.dist.assign(static_cast<std::size_t>(nb) * static_cast<std::size_t>(n),
                kInfWeight);
  t.mult.assign(static_cast<std::size_t>(nb) * static_cast<std::size_t>(n), 0.0);

  // Line 1–2 of Algorithm 1: T(s,v) := (A(s̄(s),v), 1), frontier := T.
  CsrBuilder<Multpath> init(nb, n);
  for (vid_t s = 0; s < nb; ++s) {
    const vid_t src = sources[static_cast<std::size_t>(s)];
    MFBC_CHECK(src >= 0 && src < n, "source vertex out of range");
    auto cols = g.adj().row_cols(src);
    auto vals = g.adj().row_vals(src);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      t.dist[flat(s, n, cols[i])] = vals[i];
      t.mult[flat(s, n, cols[i])] = 1.0;
      init.push(s, cols[i], Multpath{vals[i], 1.0});
    }
  }
  Csr<Multpath> frontier = std::move(init).build();

  // Lines 3–7: relax the maximal frontier until no path information changes.
  while (frontier.nnz() > 0) {
    telemetry::Span iter_span("mfbc.mfbf.multiply");
    iter_span.attr("frontier_nnz", static_cast<std::int64_t>(frontier.nnz()));
    telemetry::observe("mfbc.seq.forward.frontier_nnz",
                       static_cast<double>(frontier.nnz()));
    sparse::SpgemmStats st;
    Csr<Multpath> product = sparse::spgemm<MultpathMonoid>(
        frontier, g.adj(), BellmanFordAction{}, &st);
    if (trace != nullptr) {
      trace->frontier_nnz.push_back(frontier.nnz());
      trace->product_nnz.push_back(product.nnz());
      trace->total_ops += st.ops;
    }
    CsrBuilder<Multpath> next(nb, n);
    for (vid_t s = 0; s < nb; ++s) {
      const vid_t src = t.sources[static_cast<std::size_t>(s)];
      auto cols = product.row_cols(s);
      auto vals = product.row_vals(s);
      for (std::size_t i = 0; i < cols.size(); ++i) {
        const vid_t v = cols[i];
        if (v == src) continue;  // never relax back into the source
        const Multpath& mp = vals[i];
        const std::size_t at = flat(s, n, v);
        if (mp.w < t.dist[at]) {
          // strictly better path set replaces T (line 5's ⊕)
          t.dist[at] = mp.w;
          t.mult[at] = mp.m;
          next.push(s, v, mp);
        } else if (mp.w == t.dist[at]) {
          // equal-weight paths of one more edge: accumulate multiplicities;
          // the frontier carries only the *new* paths (line 6 keeps entries
          // whose weight is not worse and multiplicity nonzero).
          t.mult[at] += mp.m;
          next.push(s, v, Multpath{mp.w, mp.m});
        }
        // mp.w > t.dist[at]: discarded, line 6 sets it to (∞, 0)
      }
    }
    frontier = std::move(next).build();
  }
  return t;
}

FactorMatrix mfbr(const Graph& g, const sparse::Csr<Weight>& at,
                  const PathMatrix& t, FrontierTrace* trace) {
  const vid_t n = g.n();
  const vid_t nb = t.nb;
  MFBC_CHECK(at.nrows() == n && at.ncols() == n,
             "transpose adjacency has wrong shape");
  telemetry::Span phase_span("mfbc.mfbr");
  phase_span.attr("nb", static_cast<std::int64_t>(nb));
  FactorMatrix z;
  z.nb = nb;
  z.n = n;
  z.zeta.assign(static_cast<std::size_t>(nb) * static_cast<std::size_t>(n), 0.0);

  // Lines 1–2 of Algorithm 2: count each vertex's successors in the
  // shortest-path DAG (u is a successor of v iff τ(s,u) = τ(s,v) + w(v,u)).
  // The paper computes this via Z ⊗ (Z •⟨⊗,g⟩ Aᵀ); the explicit sweep below
  // is the same arithmetic evaluated directly.
  std::vector<double> counter(
      static_cast<std::size_t>(nb) * static_cast<std::size_t>(n), 0.0);
  for (vid_t v = 0; v < n; ++v) {
    auto cols = g.adj().row_cols(v);
    auto vals = g.adj().row_vals(v);
    for (vid_t s = 0; s < nb; ++s) {
      const Weight dv = t.d(s, v);
      if (dv == kInfWeight) continue;
      double c = 0;
      for (std::size_t i = 0; i < cols.size(); ++i) {
        if (t.d(s, cols[i]) == dv + vals[i]) c += 1.0;
      }
      counter[flat(s, n, v)] = c;
    }
  }

  // Lines 3–4: the initial frontier is the set of leaves (counter zero).
  std::vector<unsigned char> done(
      static_cast<std::size_t>(nb) * static_cast<std::size_t>(n), 0);
  CsrBuilder<Centpath> init(nb, n);
  for (vid_t s = 0; s < nb; ++s) {
    const vid_t src = t.sources[static_cast<std::size_t>(s)];
    done[flat(s, n, src)] = 1;  // the root never joins a frontier
    for (vid_t v = 0; v < n; ++v) {
      if (v == src || t.d(s, v) == kInfWeight) continue;
      if (counter[flat(s, n, v)] == 0.0) {
        done[flat(s, n, v)] = 1;
        init.push(s, v, Centpath{t.d(s, v), 1.0 / t.m(s, v), -1.0});
      }
    }
  }
  Csr<Centpath> frontier = std::move(init).build();

  // Lines 5–12: back-propagate centrality factors along Aᵀ; a vertex joins
  // the frontier exactly once, when its last successor has reported.
  while (frontier.nnz() > 0) {
    telemetry::Span iter_span("mfbc.mfbr.multiply");
    iter_span.attr("frontier_nnz", static_cast<std::int64_t>(frontier.nnz()));
    telemetry::observe("mfbc.seq.backward.frontier_nnz",
                       static_cast<double>(frontier.nnz()));
    sparse::SpgemmStats st;
    Csr<Centpath> product = sparse::spgemm<CentpathMonoid>(
        frontier, at, BrandesAction{}, &st);
    if (trace != nullptr) {
      trace->frontier_nnz.push_back(frontier.nnz());
      trace->product_nnz.push_back(product.nnz());
      trace->total_ops += st.ops;
    }
    CsrBuilder<Centpath> next(nb, n);
    for (vid_t s = 0; s < nb; ++s) {
      const vid_t src = t.sources[static_cast<std::size_t>(s)];
      auto cols = product.row_cols(s);
      auto vals = product.row_vals(s);
      for (std::size_t i = 0; i < cols.size(); ++i) {
        const vid_t v = cols[i];
        const Centpath& cp = vals[i];
        const std::size_t at_sv = flat(s, n, v);
        // Only contributions matching τ(s,v) come from true successors; the
        // ⊗ monoid keeps the maximum weight, which cannot exceed τ(s,v) by
        // the triangle inequality, so a mismatch means "no valid term".
        if (t.d(s, v) == kInfWeight || cp.w != t.d(s, v)) continue;
        z.zeta[at_sv] += cp.p;
        counter[at_sv] += cp.c;  // cp.c = −(number of reporting successors)
        if (!done[at_sv] && counter[at_sv] == 0.0) {
          done[at_sv] = 1;
          if (v != src) {
            next.push(s, v,
                      Centpath{t.d(s, v), 1.0 / t.m(s, v) + z.zeta[at_sv], -1.0});
          }
        }
      }
    }
    frontier = std::move(next).build();
  }
  return z;
}

std::vector<double> mfbc(const Graph& g, const MfbcOptions& opts,
                         MfbcStats* stats) {
  MFBC_CHECK(opts.batch_size >= 1, "batch size must be positive");
  const vid_t n = g.n();
  std::vector<vid_t> sources = opts.sources;
  if (sources.empty()) {
    sources.resize(static_cast<std::size_t>(n));
    for (vid_t v = 0; v < n; ++v) sources[static_cast<std::size_t>(v)] = v;
  }
  const sparse::Csr<Weight> at = sparse::transpose(g.adj());
  std::vector<double> lambda(static_cast<std::size_t>(n), 0.0);
  for (std::size_t lo = 0; lo < sources.size(); lo += static_cast<std::size_t>(opts.batch_size)) {
    const std::size_t hi =
        std::min(sources.size(), lo + static_cast<std::size_t>(opts.batch_size));
    std::span<const vid_t> batch(sources.data() + lo, hi - lo);
    telemetry::Span batch_span("mfbc.batch");
    batch_span.attr("nb", static_cast<std::int64_t>(hi - lo));
    FrontierTrace* fwd = stats != nullptr ? &stats->forward : nullptr;
    FrontierTrace* bwd = stats != nullptr ? &stats->backward : nullptr;
    PathMatrix t = mfbf(g, batch, fwd);
    FactorMatrix z = mfbr(g, at, t, bwd);
    // Line 5 of Algorithm 3: λ(v) += Σ_s ζ(s,v)·σ̄(s,v).
    for (vid_t s = 0; s < t.nb; ++s) {
      const vid_t src = t.sources[static_cast<std::size_t>(s)];
      for (vid_t v = 0; v < n; ++v) {
        if (v == src || t.d(s, v) == kInfWeight) continue;
        lambda[static_cast<std::size_t>(v)] += z.z(s, v) * t.m(s, v);
      }
    }
    if (stats != nullptr) ++stats->batches;
  }
  return lambda;
}

}  // namespace mfbc::core
