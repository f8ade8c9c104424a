// Coordinate-format sparse matrix: the input format for entries that may
// repeat a position.
//
// COO holds graph ingest, mutation and generator output, whose duplicate
// entries Csr::from_coo combines through a monoid after one stable sort;
// the compute kernels run on CSR (see csr.hpp). Entries already distinct and
// in row order skip COO and go through sparse::CsrBuilder. This mirrors CTF,
// which stores index–value pairs for input and converts to CSR for
// multiplication (paper §6.2).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "algebra/concepts.hpp"
#include "sparse/types.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"

namespace mfbc::sparse {

template <typename T>
struct CooEntry {
  vid_t row = 0;
  vid_t col = 0;
  T val{};

  friend bool operator==(const CooEntry&, const CooEntry&) = default;
};

template <typename T>
class Coo {
 public:
  Coo() = default;
  Coo(vid_t nrows, vid_t ncols) : nrows_(nrows), ncols_(ncols) {
    MFBC_CHECK(nrows >= 0 && ncols >= 0, "matrix dims must be non-negative");
  }

  vid_t nrows() const { return nrows_; }
  vid_t ncols() const { return ncols_; }
  nnz_t nnz() const { return static_cast<nnz_t>(entries_.size()); }

  void reserve(nnz_t n) { entries_.reserve(static_cast<std::size_t>(n)); }

  void push(vid_t r, vid_t c, T v) {
    MFBC_DCHECK(r >= 0 && r < nrows_ && c >= 0 && c < ncols_,
                "COO entry out of bounds");
    entries_.push_back({r, c, std::move(v)});
  }

  std::vector<CooEntry<T>>& entries() { return entries_; }
  const std::vector<CooEntry<T>>& entries() const { return entries_; }

  /// Sort entries into row-major order and merge duplicates through the
  /// monoid M. Entries that merge to the monoid identity are dropped.
  ///
  /// The sort is stable, so duplicates combine in insertion order; large
  /// inputs sort chunk-parallel (stable chunk sorts + stable pairwise
  /// merges), which yields the exact permutation of a global stable sort
  /// and therefore bit-identical output at every thread count.
  template <algebra::Monoid M>
  void sort_and_combine() {
    const auto less = [](const CooEntry<T>& a, const CooEntry<T>& b) {
      return a.row != b.row ? a.row < b.row : a.col < b.col;
    };
    const std::size_t n = entries_.size();
    const int nt = support::num_threads();
    if (support::ThreadPool::in_parallel_region() || nt <= 1 ||
        n < kParallelSortThreshold) {
      std::stable_sort(entries_.begin(), entries_.end(), less);
    } else {
      const std::size_t chunks = static_cast<std::size_t>(nt);
      std::vector<std::size_t> bounds(chunks + 1);
      for (std::size_t c = 0; c <= chunks; ++c) bounds[c] = n * c / chunks;
      support::parallel_for(chunks, [&](std::size_t c) {
        std::stable_sort(entries_.begin() + static_cast<std::ptrdiff_t>(
                                                bounds[c]),
                         entries_.begin() + static_cast<std::ptrdiff_t>(
                                                bounds[c + 1]),
                         less);
      });
      for (std::size_t width = 1; width < chunks; width *= 2) {
        const std::size_t pairs = chunks / (2 * width) +
                                  (chunks % (2 * width) > width ? 1 : 0);
        support::parallel_for(pairs, [&](std::size_t p) {
          const std::size_t lo = 2 * width * p;
          const std::size_t mid = lo + width;
          const std::size_t hi = std::min(lo + 2 * width, chunks);
          std::inplace_merge(
              entries_.begin() + static_cast<std::ptrdiff_t>(bounds[lo]),
              entries_.begin() + static_cast<std::ptrdiff_t>(bounds[mid]),
              entries_.begin() + static_cast<std::ptrdiff_t>(bounds[hi]),
              less);
        });
      }
    }
    std::size_t out = 0;
    for (std::size_t i = 0; i < entries_.size();) {
      std::size_t j = i + 1;
      T acc = entries_[i].val;
      while (j < entries_.size() && entries_[j].row == entries_[i].row &&
             entries_[j].col == entries_[i].col) {
        acc = M::combine(acc, entries_[j].val);
        ++j;
      }
      if (!M::is_identity(acc)) {
        entries_[out] = {entries_[i].row, entries_[i].col, std::move(acc)};
        ++out;
      }
      i = j;
    }
    entries_.resize(out);
  }

 private:
  /// Below this the chunk-merge machinery costs more than it saves.
  static constexpr std::size_t kParallelSortThreshold = 1u << 14;

  vid_t nrows_ = 0;
  vid_t ncols_ = 0;
  std::vector<CooEntry<T>> entries_;
};

}  // namespace mfbc::sparse
