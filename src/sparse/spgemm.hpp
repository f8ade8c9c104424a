// Generalized sparse matrix–matrix multiplication  C = A •⟨⊕,f⟩ B
// (paper §3): output element C(i,j) = ⊕_k f(A(i,k), B(k,j)) over a
// commutative monoid (D_C, ⊕) and bridge function f : D_A × D_B → D_C.
// The paper's §6.1 CTF kernel Z["ij"] = f(A["ik"], B["kj"]) is
// spgemm<Monoid>(A, B, f).
//
// The kernel is Gustavson's row-wise algorithm with a sparse accumulator:
// optimal O(ops(A,B)) work, which is what the paper's cost model assumes for
// the local block multiplies (§5.1: "all the considered algorithms have an
// optimal computation cost").
//
// The `b_row_offset` parameter lets a caller multiply against a row *slice*
// of a conceptually larger B without materializing a huge rowptr: row k of
// the conceptual matrix lives at row (k - b_row_offset) of the passed slice,
// and k outside the slice contributes nothing. The distributed SUMMA-style
// algorithms use this to multiply k-dimension slices (§5.2.2).
//
// Callers that multiply many blocks with the same output width (the
// distributed variants run O(p^1.5) block multiplies per SpGEMM) pass a
// SpgemmWorkspace so the dense accumulator arrays are allocated once per
// thread instead of once per call.
#pragma once

#include <algorithm>
#include <typeinfo>
#include <vector>

#include "algebra/concepts.hpp"
#include "sparse/csr.hpp"

namespace mfbc::sparse {

/// Work counters for one multiplication; ops matches the paper's
/// ops(A,B) = number of nonzero elementary products.
struct SpgemmStats {
  nnz_t ops = 0;
};

/// Reusable dense-accumulator scratch for spgemm over value type TC.
///
/// The kernel's invariant is that acc/occupied are clean (identity / 0) on
/// exit from every call, so reuse across calls only requires growing to the
/// widest output seen. Two different monoids can share TC with *different*
/// identity values (SumMonoid and TropicalMinMonoid are both double), so the
/// workspace remembers which monoid last filled it and refills when the
/// monoid changes.
template <typename TC>
class SpgemmWorkspace {
 public:
  /// Grow (and, on monoid change, refill) the scratch for outputs of width
  /// `ncols` accumulated under monoid M.
  template <algebra::Monoid M>
  void prepare(vid_t ncols) {
    static_assert(std::is_same_v<typename M::value_type, TC>,
                  "workspace value type must match the monoid's");
    const std::type_info* tag = &typeid(M);
    const auto n = static_cast<std::size_t>(ncols);
    if (monoid_ != tag) {
      acc_.assign(std::max(n, acc_.size()), M::identity());
      occupied_.assign(acc_.size(), 0);
      monoid_ = tag;
    } else if (acc_.size() < n) {
      acc_.resize(n, M::identity());
      occupied_.resize(n, 0);
    }
    touched_.clear();
  }

  /// Mark the scratch dirty so the next prepare() refills it. The kernel
  /// calls this when an exception unwinds mid-row (the clean-on-exit
  /// invariant no longer holds).
  void invalidate() { monoid_ = nullptr; }

  std::vector<TC>& acc() { return acc_; }
  std::vector<unsigned char>& occupied() { return occupied_; }
  std::vector<vid_t>& touched() { return touched_; }

 private:
  std::vector<TC> acc_;
  std::vector<unsigned char> occupied_;
  std::vector<vid_t> touched_;
  const std::type_info* monoid_ = nullptr;  ///< monoid that filled acc_
};

/// The calling thread's workspace for value type TC (one per pool thread —
/// safe because parallel regions never migrate a task between threads).
template <typename TC>
SpgemmWorkspace<TC>& tls_spgemm_workspace() {
  thread_local SpgemmWorkspace<TC> ws;
  return ws;
}

/// Upper bound on nnz(C) for reserving the output arrays: per output row,
/// the row's elementary-product count capped at the output width. One cheap
/// O(nnz(A)) pass — no accumulation.
template <typename TA, typename TB>
nnz_t spgemm_capacity_hint(const Csr<TA>& a, const Csr<TB>& b,
                           vid_t b_row_offset = 0) {
  const nnz_t width = static_cast<nnz_t>(b.ncols());
  nnz_t total = 0;
  for (vid_t i = 0; i < a.nrows(); ++i) {
    nnz_t row_ops = 0;
    for (vid_t k : a.row_cols(i)) {
      const vid_t kb = k - b_row_offset;
      if (kb >= 0 && kb < b.nrows()) row_ops += b.row_nnz(kb);
    }
    total += std::min(row_ops, width);
  }
  return total;
}

namespace detail {

/// Gustavson core over caller-provided scratch. acc/occupied must be clean
/// (identity / 0) on entry and are clean again on normal exit.
template <algebra::Monoid M, typename TA, typename TB, typename F>
Csr<typename M::value_type> spgemm_core(const Csr<TA>& a, const Csr<TB>& b,
                                        F& f, vid_t b_row_offset, nnz_t& ops,
                                        std::vector<typename M::value_type>& acc,
                                        std::vector<unsigned char>& occupied,
                                        std::vector<vid_t>& touched) {
  using TC = typename M::value_type;
  const vid_t ncols = b.ncols();

  std::vector<nnz_t> rowptr(static_cast<std::size_t>(a.nrows()) + 1, 0);
  std::vector<vid_t> out_col;
  std::vector<TC> out_val;
  {
    const nnz_t hint = spgemm_capacity_hint(a, b, b_row_offset);
    out_col.reserve(static_cast<std::size_t>(hint));
    out_val.reserve(static_cast<std::size_t>(hint));
  }

  for (vid_t i = 0; i < a.nrows(); ++i) {
    auto acs = a.row_cols(i);
    auto avs = a.row_vals(i);
    touched.clear();
    for (std::size_t t = 0; t < acs.size(); ++t) {
      const vid_t k = acs[t] - b_row_offset;
      if (k < 0 || k >= b.nrows()) continue;
      auto bcs = b.row_cols(k);
      auto bvs = b.row_vals(k);
      const TA& av = avs[t];
      for (std::size_t u = 0; u < bcs.size(); ++u) {
        const vid_t j = bcs[u];
        TC prod = f(av, bvs[u]);
        ++ops;
        auto ju = static_cast<std::size_t>(j);
        if (!occupied[ju]) {
          occupied[ju] = 1;
          touched.push_back(j);
          acc[ju] = std::move(prod);
        } else {
          acc[ju] = M::combine(acc[ju], prod);
        }
      }
    }
    std::sort(touched.begin(), touched.end());
    for (vid_t j : touched) {
      auto ju = static_cast<std::size_t>(j);
      if (!M::is_identity(acc[ju])) {
        out_col.push_back(j);
        out_val.push_back(std::move(acc[ju]));
      }
      occupied[ju] = 0;
      acc[ju] = M::identity();
    }
    rowptr[static_cast<std::size_t>(i) + 1] = static_cast<nnz_t>(out_col.size());
  }
  return Csr<TC>(a.nrows(), ncols, std::move(rowptr), std::move(out_col),
                 std::move(out_val));
}

}  // namespace detail

template <algebra::Monoid M, typename TA, typename TB, typename F>
Csr<typename M::value_type> spgemm(const Csr<TA>& a, const Csr<TB>& b, F f,
                                   SpgemmStats* stats = nullptr,
                                   vid_t b_row_offset = 0,
                                   SpgemmWorkspace<typename M::value_type>* ws =
                                       nullptr) {
  using TC = typename M::value_type;
  // B may be a row slice of the conceptual inner dimension (possibly the
  // whole of it); slices must lie inside [0, a.ncols()).
  MFBC_CHECK(b_row_offset >= 0 && b_row_offset + b.nrows() <= a.ncols(),
             "spgemm B slice out of the inner-dimension range");

  const vid_t ncols = b.ncols();
  nnz_t ops = 0;
  Csr<TC> c;
  if (ws != nullptr) {
    ws->template prepare<M>(ncols);
    try {
      c = detail::spgemm_core<M>(a, b, f, b_row_offset, ops, ws->acc(),
                                 ws->occupied(), ws->touched());
    } catch (...) {
      ws->invalidate();
      throw;
    }
  } else {
    std::vector<TC> acc(static_cast<std::size_t>(ncols), M::identity());
    std::vector<unsigned char> occupied(static_cast<std::size_t>(ncols), 0);
    std::vector<vid_t> touched;
    c = detail::spgemm_core<M>(a, b, f, b_row_offset, ops, acc, occupied,
                               touched);
  }
  if (stats != nullptr) stats->ops += ops;
  return c;
}

/// Count ops(A,B) without computing the product (used by cost models and by
/// the load-balance assertions in tests).
template <typename TA, typename TB>
nnz_t spgemm_ops(const Csr<TA>& a, const Csr<TB>& b, vid_t b_row_offset = 0) {
  nnz_t ops = 0;
  for (vid_t i = 0; i < a.nrows(); ++i) {
    for (vid_t k : a.row_cols(i)) {
      const vid_t kb = k - b_row_offset;
      if (kb >= 0 && kb < b.nrows()) ops += b.row_nnz(kb);
    }
  }
  return ops;
}

}  // namespace mfbc::sparse
