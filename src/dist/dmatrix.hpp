// Distributed sparse matrix over the simulated machine (paper §6.2).
//
// A DistMatrix<T> tiles the region described by its Layout across virtual
// ranks; each block is a Csr with *local* row indices (relative to the
// block's global row range) and *global* column indices. Global columns keep
// the SUMMA-style k-slice loops free of reindexing; local rows keep per-block
// rowptr arrays small.
//
// All collective data movement (scatter, gather, redistribution) goes
// through sim::Sim so that words and messages are charged to the
// critical-path ledger exactly where the bytes move. The three share one
// assembly kernel, detail::assemble: a target block counts its entries in
// the source blocks that overlap it, then pulls them row by row, in
// ascending column order, into a sparse::CsrBuilder — no COO bins, no sort,
// no merging monoid. Blocks hold distinct entries, so moving them never has
// anything to combine.
#pragma once

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <utility>
#include <vector>

#include "dist/procgrid.hpp"
#include "sim/comm.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/ops.hpp"
#include "support/parallel.hpp"

namespace mfbc::dist {

using sparse::Csr;
using sparse::CsrBuilder;
using sparse::nnz_t;

namespace detail {

/// One source block of a data movement: block rows start at global row
/// `rows.lo`, its entries lie in global columns `cols`, and `rank` holds it.
template <typename T>
struct Piece {
  const Csr<T>* blk;
  Range rows;
  Range cols;
  int rank;
};

inline bool overlaps(Range a, Range b) {
  return std::max(a.lo, b.lo) < std::min(a.hi, b.hi);
}

/// Push the entries of `pieces` inside rows × cols into `out` (at row
/// gr - row0): count each piece's share first, so `out` allocates once, then
/// place them row by row. `pieces` must hold disjoint regions and be sorted
/// by ascending column range, so each row arrives in column order. When
/// `sent` is given, it receives (rank, entries) for every piece held by a
/// rank other than `dst_rank` that contributed entries.
template <typename T>
void assemble(const std::vector<Piece<T>>& pieces, Range rows, Range cols,
              vid_t row0, CsrBuilder<T>& out,
              std::vector<std::pair<int, nnz_t>>* sent = nullptr,
              int dst_rank = -1) {
  std::vector<const Piece<T>*> hits;
  for (const Piece<T>& pc : pieces) {
    if (overlaps(pc.rows, rows) && overlaps(pc.cols, cols)) hits.push_back(&pc);
  }
  // The [lo, hi) positions of global row gr of `pc` that lie inside cols.
  auto slice = [&](const Piece<T>& pc, vid_t gr) {
    auto c = pc.blk->row_cols(gr - pc.rows.lo);
    std::size_t lo = 0, hi = c.size();
    if (pc.cols.lo < cols.lo) {
      lo = static_cast<std::size_t>(
          std::lower_bound(c.begin(), c.end(), cols.lo) - c.begin());
    }
    if (pc.cols.hi > cols.hi) {
      hi = static_cast<std::size_t>(
          std::lower_bound(c.begin(), c.end(), cols.hi) - c.begin());
    }
    return std::pair{lo, hi};
  };
  std::vector<nnz_t> taken(hits.size(), 0);
  for (std::size_t h = 0; h < hits.size(); ++h) {
    const vid_t lo = std::max(rows.lo, hits[h]->rows.lo);
    const vid_t hi = std::min(rows.hi, hits[h]->rows.hi);
    for (vid_t gr = lo; gr < hi; ++gr) {
      auto [a, b] = slice(*hits[h], gr);
      taken[h] += static_cast<nnz_t>(b - a);
    }
  }
  out.reserve(out.nnz() +
              std::accumulate(taken.begin(), taken.end(), nnz_t{0}));
  for (vid_t gr = rows.lo; gr < rows.hi; ++gr) {
    for (const Piece<T>* pc : hits) {
      if (!pc->rows.contains(gr)) continue;
      auto [a, b] = slice(*pc, gr);
      auto c = pc->blk->row_cols(gr - pc->rows.lo);
      auto v = pc->blk->row_vals(gr - pc->rows.lo);
      for (std::size_t x = a; x < b; ++x) out.push(gr - row0, c[x], v[x]);
    }
  }
  if (sent == nullptr) return;
  for (std::size_t h = 0; h < hits.size(); ++h) {
    if (hits[h]->rank != dst_rank && taken[h] > 0) {
      sent->emplace_back(hits[h]->rank, taken[h]);
    }
  }
}

}  // namespace detail

template <typename T>
class DistMatrix {
 public:
  DistMatrix() = default;

  /// Empty matrix with the given global shape tiled per `layout`.
  DistMatrix(vid_t nrows, vid_t ncols, Layout layout)
      : nrows_(nrows), ncols_(ncols), layout_(layout) {
    MFBC_CHECK(layout.rows.lo >= 0 && layout.rows.hi <= nrows &&
                   layout.cols.lo >= 0 && layout.cols.hi <= ncols,
               "layout region exceeds matrix shape");
    blocks_.reserve(static_cast<std::size_t>(layout.nranks()));
    for (int i = 0; i < layout.pr; ++i) {
      for (int j = 0; j < layout.pc; ++j) {
        blocks_.emplace_back(layout.block_rows(i, j).size(), ncols);
      }
    }
  }

  /// Distribute a sequentially held matrix from a root rank (CTF's bulk
  /// synchronous Tensor::write). Entries outside the layout region are not
  /// represented. Charges a scatter whose payload is the root's full matrix
  /// (§5.1: max words owned at start or end).
  static DistMatrix scatter(sim::Sim& sim, const Csr<T>& global,
                            Layout layout) {
    DistMatrix out(global.nrows(), global.ncols(), layout);
    const std::vector<detail::Piece<T>> root{
        {&global, Range{0, global.nrows()}, Range{0, global.ncols()}, -1}};
    // Blocks are independent, so they assemble in parallel.
    support::parallel_for(out.blocks_.size(), [&](std::size_t b) {
      const int i = static_cast<int>(b) / layout.pc;
      const int j = static_cast<int>(b) % layout.pc;
      const Range rr = layout.block_rows(i, j);
      CsrBuilder<T> blk(rr.size(), global.ncols());
      detail::assemble(root, rr, layout.block_cols(i, j), rr.lo, blk);
      out.blocks_[b] = std::move(blk).build();
    });
    sim.charge_scatter(layout.ranks(), static_cast<double>(global.nnz()) *
                                           sim::sparse_entry_words<T>());
    return out;
  }

  /// Collect the matrix onto one rank (CTF's Tensor::read). Charges a gather
  /// with the full matrix as payload.
  Csr<T> gather(sim::Sim& sim) const {
    CsrBuilder<T> out(nrows_, ncols_);
    detail::assemble(pieces(), layout_.rows, layout_.cols, 0, out);
    sim.charge_gather(layout_.ranks(),
                      static_cast<double>(nnz()) * sim::sparse_entry_words<T>());
    return std::move(out).build();
  }

  /// This matrix's blocks as data-movement sources, sorted by ascending
  /// column range.
  std::vector<detail::Piece<T>> pieces() const {
    std::vector<detail::Piece<T>> out;
    out.reserve(blocks_.size());
    for (int i = 0; i < layout_.pr; ++i) {
      for (int j = 0; j < layout_.pc; ++j) {
        out.push_back({&block(i, j), layout_.block_rows(i, j),
                       layout_.block_cols(i, j), layout_.rank_at(i, j)});
      }
    }
    std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.cols.lo < b.cols.lo;
    });
    return out;
  }

  vid_t nrows() const { return nrows_; }
  vid_t ncols() const { return ncols_; }
  const Layout& layout() const { return layout_; }

  Csr<T>& block(int i, int j) {
    return blocks_[static_cast<std::size_t>(i * layout_.pc + j)];
  }
  const Csr<T>& block(int i, int j) const {
    return blocks_[static_cast<std::size_t>(i * layout_.pc + j)];
  }

  nnz_t nnz() const {
    nnz_t total = 0;
    for (const auto& b : blocks_) total += b.nnz();
    return total;
  }

  nnz_t max_block_nnz() const {
    nnz_t mx = 0;
    for (const auto& b : blocks_) mx = std::max(mx, b.nnz());
    return mx;
  }

  friend bool operator==(const DistMatrix& a, const DistMatrix& b) {
    return a.nrows_ == b.nrows_ && a.ncols_ == b.ncols_ &&
           a.layout_ == b.layout_ && a.blocks_ == b.blocks_;
  }

 private:
  vid_t nrows_ = 0;
  vid_t ncols_ = 0;
  Layout layout_;
  std::vector<Csr<T>> blocks_;
};

/// One CsrBuilder per grid position of `l` (row-major grid order), sized to
/// the position's block: the frontier algorithms push each iteration's
/// rank-local state updates into them, in row order, and hand them to
/// from_blocks.
template <typename T>
std::vector<CsrBuilder<T>> empty_bins(const Layout& l, vid_t ncols) {
  std::vector<CsrBuilder<T>> bins;
  bins.reserve(static_cast<std::size_t>(l.nranks()));
  for (int i = 0; i < l.pr; ++i) {
    for (int j = 0; j < l.pc; ++j) {
      bins.emplace_back(l.block_rows(i, j).size(), ncols);
    }
  }
  return bins;
}

/// Assemble a DistMatrix from per-block builders (one per grid position, in
/// row-major grid order). Purely local.
template <typename T>
DistMatrix<T> from_blocks(vid_t nrows, vid_t ncols, const Layout& l,
                          std::vector<CsrBuilder<T>> bins) {
  MFBC_CHECK(bins.size() == static_cast<std::size_t>(l.nranks()),
             "one builder per grid position required");
  DistMatrix<T> out(nrows, ncols, l);
  for (int i = 0; i < l.pr; ++i) {
    for (int j = 0; j < l.pc; ++j) {
      out.block(i, j) =
          std::move(bins[static_cast<std::size_t>(i * l.pc + j)]).build();
    }
  }
  return out;
}

/// Move the entries of `sources` onto the `targets` layouts with one
/// personalized all-to-all (§6.2's sparse-to-sparse redistribution kernel).
///
/// The sources must share one global shape and tile disjoint regions, as
/// must the targets; an entry outside every target is dropped. Entries are
/// moved, never combined. The all-to-all spans the union of source and
/// target ranks and is charged the max over ranks of the words sent
/// (entries leaving their rank) and received (every entry of a target
/// block, counting ones it already held — conservative). A single source
/// already on a single target is returned as is, free.
template <typename T>
std::vector<DistMatrix<T>> redistribute(
    sim::Sim& sim, const std::vector<const DistMatrix<T>*>& sources,
    const std::vector<Layout>& targets) {
  MFBC_CHECK(!sources.empty(), "redistribute needs a source");
  const vid_t nrows = sources[0]->nrows();
  const vid_t ncols = sources[0]->ncols();
  auto disjoint = [](const Layout& a, const Layout& b) {
    return !detail::overlaps(a.rows, b.rows) ||
           !detail::overlaps(a.cols, b.cols);
  };
  std::vector<detail::Piece<T>> pieces;
  std::vector<int> group;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const DistMatrix<T>& src = *sources[s];
    MFBC_CHECK(src.nrows() == nrows && src.ncols() == ncols,
               "redistribute sources must share one shape");
    for (std::size_t u = 0; u < s; ++u) {
      MFBC_CHECK(disjoint(src.layout(), sources[u]->layout()),
                 "redistribute sources must tile disjoint regions");
    }
    for (const auto& pc : src.pieces()) pieces.push_back(pc);
    for (int r : src.layout().ranks()) group.push_back(r);
  }
  for (std::size_t t = 0; t < targets.size(); ++t) {
    for (std::size_t u = 0; u < t; ++u) {
      MFBC_CHECK(disjoint(targets[t], targets[u]),
                 "redistribute targets must tile disjoint regions");
    }
    for (int r : targets[t].ranks()) group.push_back(r);
  }
  if (sources.size() == 1 && targets.size() == 1 &&
      sources[0]->layout() == targets[0]) {
    return {*sources[0]};  // already in place: free
  }
  std::stable_sort(pieces.begin(), pieces.end(),
                   [](const auto& a, const auto& b) {
                     return a.cols.lo < b.cols.lo;
                   });

  // Every target block assembles independently; the per-block send counts
  // are summed afterwards in block order.
  struct Slot {
    std::size_t target;
    int i, j;
  };
  std::vector<Slot> slots;
  std::vector<DistMatrix<T>> out;
  out.reserve(targets.size());
  for (std::size_t t = 0; t < targets.size(); ++t) {
    out.emplace_back(nrows, ncols, targets[t]);
    for (int i = 0; i < targets[t].pr; ++i) {
      for (int j = 0; j < targets[t].pc; ++j) slots.push_back({t, i, j});
    }
  }
  std::vector<std::vector<std::pair<int, nnz_t>>> sent(slots.size());
  support::parallel_for(slots.size(), [&](std::size_t k) {
    const Slot& sl = slots[k];
    const Layout& tl = targets[sl.target];
    const Range rr = tl.block_rows(sl.i, sl.j);
    CsrBuilder<T> blk(rr.size(), ncols);
    detail::assemble(pieces, rr, tl.block_cols(sl.i, sl.j), rr.lo, blk,
                     &sent[k], tl.rank_at(sl.i, sl.j));
    out[sl.target].block(sl.i, sl.j) = std::move(blk).build();
  });

  const double w = sim::sparse_entry_words<T>();
  double max_words = 0;
  std::vector<nnz_t> send(static_cast<std::size_t>(sim.nranks()), 0);
  for (std::size_t k = 0; k < slots.size(); ++k) {
    const Slot& sl = slots[k];
    max_words = std::max(
        max_words,
        static_cast<double>(out[sl.target].block(sl.i, sl.j).nnz()) * w);
    for (auto [r, n] : sent[k]) send[static_cast<std::size_t>(r)] += n;
  }
  for (nnz_t n : send) {
    max_words = std::max(max_words, static_cast<double>(n) * w);
  }
  std::sort(group.begin(), group.end());
  group.erase(std::unique(group.begin(), group.end()), group.end());
  sim.charge_alltoall(group, max_words);
  return out;
}

/// One source onto one target layout (see above).
template <typename T>
DistMatrix<T> redistribute(sim::Sim& sim, const DistMatrix<T>& src,
                           const Layout& target) {
  return std::move(redistribute<T>(sim, {&src}, {target}).front());
}

/// Elementwise a ⊕ b for identically laid out matrices: purely local.
template <algebra::Monoid M>
DistMatrix<typename M::value_type> ewise_union(
    sim::Sim& sim, const DistMatrix<typename M::value_type>& a,
    const DistMatrix<typename M::value_type>& b) {
  using T = typename M::value_type;
  MFBC_CHECK(a.layout() == b.layout(), "ewise_union layouts must match");
  MFBC_CHECK(a.nrows() == b.nrows() && a.ncols() == b.ncols(),
             "ewise_union shape mismatch");
  DistMatrix<T> out(a.nrows(), a.ncols(), a.layout());
  for (int i = 0; i < a.layout().pr; ++i) {
    for (int j = 0; j < a.layout().pc; ++j) {
      out.block(i, j) = sparse::ewise_union<M>(a.block(i, j), b.block(i, j));
      sim.charge_compute(
          a.layout().rank_at(i, j),
          static_cast<double>(a.block(i, j).nnz() + b.block(i, j).nnz()));
    }
  }
  return out;
}

/// Blockwise filter (CTF's sparsify); purely local.
template <typename T, typename Pred>
DistMatrix<T> filter(sim::Sim& sim, const DistMatrix<T>& a, Pred pred) {
  DistMatrix<T> out(a.nrows(), a.ncols(), a.layout());
  for (int i = 0; i < a.layout().pr; ++i) {
    for (int j = 0; j < a.layout().pc; ++j) {
      const Range rr = a.layout().block_rows(i, j);
      out.block(i, j) = sparse::filter(
          a.block(i, j),
          [&](vid_t r, vid_t c, const T& v) { return pred(rr.lo + r, c, v); });
      sim.charge_compute(a.layout().rank_at(i, j),
                         static_cast<double>(a.block(i, j).nnz()));
    }
  }
  return out;
}

}  // namespace mfbc::dist
