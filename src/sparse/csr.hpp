// Compressed-sparse-row matrix, the compute format of the library, and
// CsrBuilder, the one way to assemble one from entries.
//
// A Csr<T> is immutable once built (kernels return fresh matrices); this
// keeps the distributed layer's block bookkeeping simple and makes sharing
// blocks across simulated ranks safe.
//
// A block is assembled one of two ways. Entries that are already distinct
// and arrive in row-major order (frontier sweeps, redistribution, scatter,
// gather) go through CsrBuilder, which checks the order and never sorts.
// Entries that may repeat a position (graph ingest, mutation, generators)
// go through Csr::from_coo, which sorts and combines them through a monoid
// first.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "algebra/concepts.hpp"
#include "sparse/coo.hpp"
#include "sparse/types.hpp"
#include "support/error.hpp"

namespace mfbc::sparse {

template <typename T>
class Csr {
 public:
  Csr() : rowptr_(1, 0) {}

  /// Empty matrix of the given shape.
  Csr(vid_t nrows, vid_t ncols)
      : nrows_(nrows), ncols_(ncols),
        rowptr_(static_cast<std::size_t>(nrows) + 1, 0) {
    MFBC_CHECK(nrows >= 0 && ncols >= 0, "matrix dims must be non-negative");
  }

  /// Build from raw arrays (must already be a valid CSR structure with
  /// column indices sorted within each row).
  Csr(vid_t nrows, vid_t ncols, std::vector<nnz_t> rowptr,
      std::vector<vid_t> col, std::vector<T> val)
      : nrows_(nrows), ncols_(ncols), rowptr_(std::move(rowptr)),
        col_(std::move(col)), val_(std::move(val)) {
    MFBC_CHECK(rowptr_.size() == static_cast<std::size_t>(nrows_) + 1,
               "rowptr size mismatch");
    MFBC_CHECK(col_.size() == val_.size(), "col/val size mismatch");
    MFBC_CHECK(rowptr_.back() == static_cast<nnz_t>(col_.size()),
               "rowptr/nnz mismatch");
  }

  /// Build from COO; duplicates are merged through monoid M and identity
  /// entries dropped.
  template <algebra::Monoid M>
  static Csr from_coo(Coo<T> coo);

  vid_t nrows() const { return nrows_; }
  vid_t ncols() const { return ncols_; }
  nnz_t nnz() const { return rowptr_.back(); }
  bool empty() const { return nnz() == 0; }

  std::span<const nnz_t> rowptr() const { return rowptr_; }
  std::span<const vid_t> col() const { return col_; }
  std::span<const T> val() const { return val_; }
  std::span<T> val_mut() { return val_; }

  /// Column indices of row r.
  std::span<const vid_t> row_cols(vid_t r) const {
    return std::span<const vid_t>(col_).subspan(
        static_cast<std::size_t>(rowptr_[static_cast<std::size_t>(r)]),
        static_cast<std::size_t>(row_nnz(r)));
  }

  /// Values of row r.
  std::span<const T> row_vals(vid_t r) const {
    return std::span<const T>(val_).subspan(
        static_cast<std::size_t>(rowptr_[static_cast<std::size_t>(r)]),
        static_cast<std::size_t>(row_nnz(r)));
  }

  nnz_t row_nnz(vid_t r) const {
    MFBC_DCHECK(r >= 0 && r < nrows_, "row out of range");
    return rowptr_[static_cast<std::size_t>(r) + 1] -
           rowptr_[static_cast<std::size_t>(r)];
  }

  /// Convert back to COO (a combining rebuild's input).
  Coo<T> to_coo() const {
    Coo<T> out(nrows_, ncols_);
    out.reserve(nnz());
    for (vid_t r = 0; r < nrows_; ++r) {
      auto cols = row_cols(r);
      auto vals = row_vals(r);
      for (std::size_t i = 0; i < cols.size(); ++i) {
        out.push(r, cols[i], vals[i]);
      }
    }
    return out;
  }

  friend bool operator==(const Csr& a, const Csr& b) {
    return a.nrows_ == b.nrows_ && a.ncols_ == b.ncols_ &&
           a.rowptr_ == b.rowptr_ && a.col_ == b.col_ && a.val_ == b.val_;
  }

 private:
  vid_t nrows_ = 0;
  vid_t ncols_ = 0;
  std::vector<nnz_t> rowptr_;
  std::vector<vid_t> col_;
  std::vector<T> val_;
};

/// Row-major CSR assembly from distinct entries that arrive in order: rows
/// ascending, columns strictly ascending within a row. The order is checked
/// on every push, so build() needs no sort; an entry out of range, out of
/// order or repeating a position throws mfbc::Error.
template <typename T>
class CsrBuilder {
 public:
  CsrBuilder(vid_t nrows, vid_t ncols)
      : nrows_(nrows), ncols_(ncols),
        rowptr_(static_cast<std::size_t>(nrows) + 1, 0) {
    MFBC_CHECK(nrows >= 0 && ncols >= 0, "matrix dims must be non-negative");
  }

  void reserve(nnz_t n) {
    col_.reserve(static_cast<std::size_t>(n));
    val_.reserve(static_cast<std::size_t>(n));
  }

  void push(vid_t r, vid_t c, T v) {
    if (r < last_row_ || (r == last_row_ && c <= last_col_) || r >= nrows_ ||
        c < 0 || c >= ncols_) {
      reject(r, c);
    }
    last_row_ = r;
    last_col_ = c;
    rowptr_[static_cast<std::size_t>(r) + 1]++;
    col_.push_back(c);
    val_.push_back(std::move(v));
  }

  nnz_t nnz() const { return static_cast<nnz_t>(col_.size()); }

  Csr<T> build() && {
    for (std::size_t i = 1; i < rowptr_.size(); ++i) {
      rowptr_[i] += rowptr_[i - 1];
    }
    return Csr<T>(nrows_, ncols_, std::move(rowptr_), std::move(col_),
                  std::move(val_));
  }

 private:
  [[noreturn]] void reject(vid_t r, vid_t c) const {
    const std::string at =
        "(" + std::to_string(r) + "," + std::to_string(c) + ")";
    if (r < 0 || r >= nrows_ || c < 0 || c >= ncols_) {
      throw Error("CsrBuilder: entry " + at + " outside a " +
                  std::to_string(nrows_) + "x" + std::to_string(ncols_) +
                  " matrix");
    }
    const std::string last = "(" + std::to_string(last_row_) + "," +
                             std::to_string(last_col_) + ")";
    throw Error("CsrBuilder: entry " + at +
                (r == last_row_ && c == last_col_ ? " repeats its position"
                                                  : " arrives after " + last) +
                "; entries must be distinct and in row-major order");
  }

  vid_t nrows_, ncols_;
  vid_t last_row_ = 0;
  vid_t last_col_ = -1;  ///< (0,-1) before the first push
  std::vector<nnz_t> rowptr_;
  std::vector<vid_t> col_;
  std::vector<T> val_;
};

template <typename T>
template <algebra::Monoid M>
Csr<T> Csr<T>::from_coo(Coo<T> coo) {
  coo.template sort_and_combine<M>();
  CsrBuilder<T> out(coo.nrows(), coo.ncols());
  out.reserve(coo.nnz());
  for (auto& e : coo.entries()) out.push(e.row, e.col, std::move(e.val));
  return std::move(out).build();
}

}  // namespace mfbc::sparse
