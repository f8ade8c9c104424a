// Distributed generalized SpGEMM over the simulated machine — the paper's
// §5.2 algorithm space, executed faithfully:
//
//   * 1D variants A/B/C: replicate one matrix (or reduce C) across all ranks;
//   * 2D variants AB/AC/BC: lcm(pr,pc)-step broadcast/reduce schedules on a
//     pr×pc grid (the CTF scheme: "CTF uses lcm(pr,pc) broadcasts/reductions");
//   * 3D variants (X,YZ): the nine nestings of a 1D variant over p1 layers
//     with a 2D variant on each layer's p2×p3 grid.
//
// Every variant really moves the block data between virtual-rank slots and
// charges the α–β ledger at each collective, so measured critical-path costs
// come out of execution rather than out of the model. The §5.2 closed forms
// live in cost_model.hpp and are used only for *plan selection* (§6.2), as
// in CTF.
//
// Operand mapping and result delivery both go through dist::redistribute,
// the one sparse all-to-all: operands are split onto the layers' homes (or
// placed on layer 0 and broadcast), and the layers' results are gathered
// onto `out_layout`. An operand or result already on its home is used in
// place — by pointer or by move, never copied — and a HomeCache hands out
// references to the copies it holds.
//
// All variants compute bit-identical results to sparse::spgemm for the
// commutative monoids used in this library (verified by the test suite).
#pragma once

#include <algorithm>
#include <deque>
#include <numeric>
#include <optional>
#include <vector>

#include "algebra/centpath.hpp"
#include "algebra/multpath.hpp"
#include "dist/autotune.hpp"
#include "dist/cost_model.hpp"
#include "dist/dmatrix.hpp"
#include "sim/async.hpp"
#include "sim/charge_log.hpp"
#include "sim/faults.hpp"
#include "sparse/spgemm.hpp"
#include "support/parallel.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "tune/observer.hpp"

namespace mfbc::dist {

/// Measured execution counters for one distributed multiply.
struct DistSpgemmStats {
  double total_ops = 0;     ///< Σ over ranks of nonzero products
  double max_rank_ops = 0;  ///< exact max over ranks (tracked via rank_ops)
  /// Per-virtual-rank nonzero products, indexed by absolute rank id and
  /// sized lazily to the highest rank that charged. The basis of the
  /// dist.imbalance.ops gauge and bench_partition's measured imbalance.
  std::vector<double> rank_ops;

  /// Record `ops` charged against `rank` (called by the 2D step loop for
  /// each block multiply).
  void note_rank_ops(int rank, double ops) {
    const auto r = static_cast<std::size_t>(rank);
    if (r >= rank_ops.size()) rank_ops.resize(r + 1, 0.0);
    rank_ops[r] += ops;
    max_rank_ops = std::max(max_rank_ops, rank_ops[r]);
  }

  /// Fold another multiply's (or layer's) counters in. Layer grids own
  /// disjoint absolute rank ranges, so per-rank vectors add elementwise.
  void merge(const DistSpgemmStats& other) {
    total_ops += other.total_ops;
    if (other.rank_ops.size() > rank_ops.size()) {
      rank_ops.resize(other.rank_ops.size(), 0.0);
    }
    for (std::size_t r = 0; r < other.rank_ops.size(); ++r) {
      rank_ops[r] += other.rank_ops[r];
      max_rank_ops = std::max(max_rank_ops, rank_ops[r]);
    }
  }

  /// Max/mean per-rank ops over a fleet of `p` ranks (ranks that never
  /// charged count as zeros in the mean); 1.0 when nothing was charged.
  double ops_imbalance(int p) const {
    if (p <= 0 || total_ops <= 0.0) return 1.0;
    return max_rank_ops / (total_ops / static_cast<double>(p));
  }
};

/// ABFT checksum contribution of one result entry (docs/fault_tolerance.md).
/// The sum of these values over a distributed product is invariant under the
/// communication schedule, so recomputing it after delivery exposes corrupted
/// payloads: multiplicities add on ties for multpath (multiplicity-sum),
/// centrality factors add for centpath (factor-sum); other monoids fall back
/// to counting entries.
template <typename M>
struct AbftChecksum {
  static double value(const typename M::value_type&) { return 1.0; }
};
template <>
struct AbftChecksum<algebra::MultpathMonoid> {
  static double value(const algebra::Multpath& x) { return x.m; }
};
template <>
struct AbftChecksum<algebra::CentpathMonoid> {
  static double value(const algebra::Centpath& x) { return x.p; }
};

/// Repair every transfer the injector has flagged dirty since the last
/// check: re-issue the corrupted collective (a fresh charge point — the
/// repair can itself fault) and redo the dependent merge work, one op per
/// re-sent word spread over the group. All cost books as fault overhead.
inline void abft_repair_pending(sim::Sim& sim) {
  sim::FaultInjector* fi = sim.faults();
  if (fi == nullptr || !fi->corruption_pending()) return;
  auto rs = sim.recovery_scope();
  for (const auto& cor : fi->drain_corruptions()) {
    telemetry::Span fix("recovery.retransfer");
    fi->count_detected(sim::FaultKind::kCorruption);
    sim.charge_retransfer(cor.group, cor.words, cor.msgs);
    const double ops =
        cor.words / static_cast<double>(std::max<std::size_t>(
                        cor.group.size(), 1));
    for (int r : cor.group) sim.charge_compute(r, ops);
    fi->count_recovered(sim::FaultKind::kCorruption);
  }
}

/// ABFT pass over a delivered product: each holding rank folds its block's
/// checksum (charged compute), the per-rank partials combine in a one-word
/// allreduce, and any corruption flagged since the last check is repaired.
/// A no-op unless fault injection is enabled with a spec that can corrupt.
template <algebra::Monoid M, typename T>
void abft_verify(sim::Sim& sim, const DistMatrix<T>& c) {
  sim::FaultInjector* fi = sim.faults();
  if (fi == nullptr || !fi->abft_enabled()) return;
  telemetry::Span span("recovery.abft");
  telemetry::count("faults.abft.checks");
  {
    auto rs = sim.recovery_scope();
    const Layout& l = c.layout();
    double checksum = 0;
    for (int i = 0; i < l.pr; ++i) {
      for (int j = 0; j < l.pc; ++j) {
        const auto& blk = c.block(i, j);
        for (const T& v : blk.val()) checksum += AbftChecksum<M>::value(v);
        sim.charge_compute(l.rank_at(i, j), static_cast<double>(blk.nnz()));
      }
    }
    const std::vector<int> ranks = l.ranks();
    sim.charge_allreduce(ranks, 1.0);
    if (span.active()) span.attr("checksum", checksum);
  }
  abft_repair_pending(sim);
}

namespace detail {

/// Home layouts of the three 2D variants (§5.2.2) for a layer grid at
/// `rank0` with shape p2×p3 and operand regions Rm×Rk (A), Rk×Rn (B).
struct Homes {
  Layout a, b, c;
};

inline Homes homes_2d(Variant2D v2, int rank0, int p2, int p3, Range rm,
                      Range rk, Range rn) {
  Homes h;
  h.c = Layout{rank0, p2, p3, rm, rn, false};
  switch (v2) {
    case Variant2D::kAB:
      h.a = Layout{rank0, p2, p3, rm, rk, false};
      h.b = Layout{rank0, p2, p3, rk, rn, false};
      break;
    case Variant2D::kAC:
      // Stationary B: A lives transposed (m split by p3, k split by p2) so
      // its k-split matches B's row split.
      h.a = Layout{rank0, p2, p3, rm, rk, true};
      h.b = Layout{rank0, p2, p3, rk, rn, false};
      break;
    case Variant2D::kBC:
      // Stationary A: B lives transposed (k split by p3, n split by p2).
      h.a = Layout{rank0, p2, p3, rm, rk, false};
      h.b = Layout{rank0, p2, p3, rk, rn, true};
      break;
  }
  return h;
}

/// Replicate a layer-resident matrix onto its sibling layers: one broadcast
/// per grid position across the p1 same-position ranks (§5.2.3's 1D
/// replication of X given from a p2×p3 distribution). `layouts[0]` is
/// `layer0`'s own layout; the copies for layouts[1..] are returned.
template <typename T>
std::vector<DistMatrix<T>> replicate_layers(sim::Sim& sim,
                                            const DistMatrix<T>& layer0,
                                            const std::vector<Layout>& layouts) {
  const Layout& l0 = layer0.layout();
  MFBC_CHECK(!layouts.empty() && layouts[0] == l0,
             "layout 0 must be layer 0's own");
  std::vector<DistMatrix<T>> out;
  out.reserve(layouts.size() - 1);
  for (std::size_t l = 1; l < layouts.size(); ++l) {
    const Layout& lt = layouts[l];
    MFBC_CHECK(lt.pr == l0.pr && lt.pc == l0.pc && lt.rows == l0.rows &&
                   lt.cols == l0.cols && lt.transposed == l0.transposed,
               "replica layouts must match layer 0 up to rank offset");
    DistMatrix<T> copy(layer0.nrows(), layer0.ncols(), lt);
    for (int i = 0; i < lt.pr; ++i) {
      for (int j = 0; j < lt.pc; ++j) copy.block(i, j) = layer0.block(i, j);
    }
    out.push_back(std::move(copy));
  }
  if (layouts.size() > 1) {
    for (int i = 0; i < l0.pr; ++i) {
      for (int j = 0; j < l0.pc; ++j) {
        std::vector<int> group;
        group.reserve(layouts.size());
        for (const Layout& lt : layouts) group.push_back(lt.rank_at(i, j));
        sim.charge_bcast(group, static_cast<double>(layer0.block(i, j).nnz()) *
                                    sim::sparse_entry_words<T>());
      }
    }
  }
  return out;
}

/// An operand mapped onto the per-layer home layouts of a plan. `at[l]` is
/// layer l's operand: the caller's matrix itself where it already sits on
/// that home, else a copy moved there and owned by `moved[l]` (or, once
/// adopted, by a HomeCache).
template <typename T>
struct Homed {
  std::vector<DistMatrix<T>> moved;
  std::vector<const DistMatrix<T>*> at;
};

/// Map `m` onto `homes` (one per layer): split across the layers' disjoint
/// regions with one all-to-all, or — for the operand the 1D variant
/// replicates, and for a single layer — placed on layer 0 and broadcast to
/// the rest. A layer-0 operand already home is used in place, free.
template <typename T>
Homed<T> map_home(sim::Sim& sim, const DistMatrix<T>& m,
                  const std::vector<Layout>& homes, bool replicate) {
  Homed<T> h;
  h.at.resize(homes.size());
  if (homes.size() > 1 && !replicate) {
    h.moved = redistribute<T>(sim, {&m}, homes);
    for (std::size_t l = 0; l < homes.size(); ++l) h.at[l] = &h.moved[l];
    return h;
  }
  h.moved.resize(homes.size());
  h.at[0] = &m;
  if (m.layout() != homes[0]) {
    h.moved[0] = redistribute(sim, m, homes[0]);
    h.at[0] = &h.moved[0];
  }
  auto copies = replicate_layers(sim, *h.at[0], homes);
  for (std::size_t l = 1; l < homes.size(); ++l) {
    h.moved[l] = std::move(copies[l - 1]);
    h.at[l] = &h.moved[l];
  }
  return h;
}

/// One layer's 2D multiply: operands must already sit on homes_2d layouts.
///
/// Both schedules run this one loop over the lcm(p2,p3) steps whose split
/// range is non-empty. Each step builds its slices (unless the previous
/// step prefetched them), charges the broadcasts not posted yet, then runs
/// its multiplies and reductions. A sync plan stops there and holds one
/// step's slices at a time. An async plan wraps the multiplies in an
/// overlap window (sim/async.hpp) and, before the window closes, prefetches
/// the next step's slices and posts ceil(count/tile) of their broadcasts
/// inside it. A posted broadcast charges the same group and payload at the
/// same position of the charge sequence as a plain one, so results, fault
/// schedules and ABFT checksums are bit-identical between the schedules;
/// only the charged cost differs, by the windows' overlap credits.
///
/// Charger is duck-typed over sim::Sim and sim::ChargeLog: the outer 3D
/// driver runs layers concurrently, handing each layer a private ChargeLog
/// that it replays into the real Sim in layer order at the barrier.
///
/// Within a layer the per-(i,j) block multiplies of each step run on the
/// thread pool; charges and stats are deferred into per-index slots and
/// applied in the serial iteration order after each region, so ledger state
/// and stats sums are bit-identical to the serial schedule.
template <algebra::Monoid M, typename Charger, typename TA, typename TB,
          typename F>
DistMatrix<typename M::value_type> spgemm_2d(Charger& sim, const Plan& plan,
                                             const DistMatrix<TA>& a,
                                             const DistMatrix<TB>& b, F f,
                                             DistSpgemmStats* st) {
  using TC = typename M::value_type;
  const Variant2D v2 = plan.v2;
  const Range rm = a.layout().rows;
  const Range rk = a.layout().cols;
  const Range rn = b.layout().cols;
  MFBC_CHECK(b.layout().rows == rk, "2D spgemm inner region mismatch");
  const int rank0 = a.layout().rank0;
  const int p2 = a.layout().pr;
  const int p3 = a.layout().pc;
  MFBC_CHECK(b.layout().rank0 == rank0 && b.layout().pr == p2 &&
                 b.layout().pc == p3,
             "operands must share the layer grid");
  const Layout cl = Layout{rank0, p2, p3, rm, rn, false};
  DistMatrix<TC> c(a.nrows(), b.ncols(), cl);
  // A single-rank layer has nothing to overlap, so it charges as sync.
  const bool pipelined = plan.is_async() && p2 * p3 > 1;

  auto charge_multiply = [&](int rank, const sparse::SpgemmStats& s,
                             nnz_t union_touched) {
    const double ops =
        static_cast<double>(s.ops) + static_cast<double>(union_touched);
    // Tagged as overlapped work on an async plan; the ledger effect equals
    // charge_compute.
    if (pipelined) {
      sim.overlap_compute(rank, ops);
    } else {
      sim.charge_compute(rank, ops);
    }
    if (st != nullptr) {
      st->total_ops += static_cast<double>(s.ops);
      st->note_rank_ops(rank, static_cast<double>(s.ops));
    }
  };

  if (p2 * p3 == 1) {
    // Degenerate single-rank layer: one local Gustavson multiply.
    sparse::SpgemmStats s;
    c.block(0, 0) = sparse::spgemm<M>(a.block(0, 0), b.block(0, 0), f, &s,
                                      /*b_row_offset=*/rk.lo);
    charge_multiply(rank0, s, 0);
    return c;
  }

  const int steps = std::lcm(p2, p3);
  // The dimension the steps split: k for kAB, m for kAC, n for kBC. A step
  // whose piece is empty moves and charges nothing.
  const Range split_base = v2 == Variant2D::kAB   ? rk
                           : v2 == Variant2D::kAC ? rm
                                                  : rn;
  std::vector<int> active;
  active.reserve(static_cast<std::size_t>(steps));
  for (int step = 0; step < steps; ++step) {
    if (split_range(split_base, steps, step).size() > 0) active.push_back(step);
  }

  // The broadcast slices of one step: slices of A go along grid rows (kAB,
  // kAC), slices of B along grid columns (kAB, kBC).
  std::vector<Csr<TA>> a_slice;
  std::vector<Csr<TB>> b_slice;

  // Slice construction is pure per grid row/column; the broadcast charges
  // depend only on the slice sizes, so they are applied afterwards in the
  // serial order.
  auto build_slices = [&](int step) {
    const Range r = split_range(split_base, steps, step);
    a_slice.clear();
    b_slice.clear();
    if (v2 != Variant2D::kBC) {
      // kAB: a k-slice of A; kAC: an m-slice of A, which lives transposed
      // (m split by p3).
      const int ja = step / (steps / p3);
      const Range a_rows = a.layout().block_rows(0, ja);
      a_slice.resize(static_cast<std::size_t>(p2));
      support::parallel_for(static_cast<std::size_t>(p2), [&](std::size_t i) {
        const auto& blk = a.block(static_cast<int>(i), ja);
        a_slice[i] = v2 == Variant2D::kAB
                         ? sparse::slice_cols(blk, r.lo, r.hi)
                         : sparse::slice_rows(blk, r.lo - a_rows.lo,
                                              r.hi - a_rows.lo);
      });
    }
    if (v2 != Variant2D::kAC) {
      // kAB: a k-slice of B; kBC: an n-slice of B, which lives transposed
      // (n split by p2).
      const int ib = step / (steps / p2);
      const Range b_rows = b.layout().block_rows(ib, 0);
      b_slice.resize(static_cast<std::size_t>(p3));
      support::parallel_for(static_cast<std::size_t>(p3), [&](std::size_t j) {
        const auto& blk = b.block(ib, static_cast<int>(j));
        b_slice[j] = v2 == Variant2D::kAB
                         ? sparse::slice_rows(blk, r.lo - b_rows.lo,
                                              r.hi - b_rows.lo)
                         : sparse::slice_cols(blk, r.lo, r.hi);
      });
    }
  };

  // Charge broadcasts [from, to) of the held slices: A along grid rows
  // first, then B along grid columns. Non-null `handles` posts them into
  // the open window; group, payload and fault point are the same either way.
  auto charge_bcasts = [&](int from, int to,
                           std::vector<sim::AsyncHandle>* handles) {
    const int na = static_cast<int>(a_slice.size());
    for (int x = from; x < to; ++x) {
      std::vector<int> group;
      double words = 0;
      if (x < na) {
        group = cl.row_group(x);
        words =
            static_cast<double>(a_slice[static_cast<std::size_t>(x)].nnz()) *
            sim::sparse_entry_words<TA>();
      } else {
        group = cl.col_group(x - na);
        words = static_cast<double>(
                    b_slice[static_cast<std::size_t>(x - na)].nnz()) *
                sim::sparse_entry_words<TB>();
      }
      if (handles != nullptr) {
        handles->push_back(sim.post_bcast(group, words));
      } else {
        sim.charge_bcast(group, words);
      }
    }
  };

  // The step's multiplies and the reductions that consume them.
  auto run_step = [&](int step) {
    const Range r = split_range(split_base, steps, step);
    switch (v2) {
      case Variant2D::kAB: {
        // Stationary C: every (i,j) multiply updates a distinct C block;
        // charges replay in (i,j) lexicographic order — the serial
        // schedule — at the barrier.
        struct MulDeferred {
          sparse::SpgemmStats s;
          nnz_t touched = 0;
        };
        std::vector<MulDeferred> deferred(static_cast<std::size_t>(p2 * p3));
        support::parallel_for(
            static_cast<std::size_t>(p2 * p3), [&](std::size_t t) {
              const int i = static_cast<int>(t) / p3;
              const int j = static_cast<int>(t) % p3;
              auto partial = sparse::spgemm<M>(
                  a_slice[static_cast<std::size_t>(i)],
                  b_slice[static_cast<std::size_t>(j)], f, &deferred[t].s,
                  /*b_row_offset=*/r.lo);
              deferred[t].touched = partial.nnz() + c.block(i, j).nnz();
              c.block(i, j) = sparse::ewise_union<M>(c.block(i, j), partial);
            });
        for (int i = 0; i < p2; ++i) {
          for (int j = 0; j < p3; ++j) {
            const MulDeferred& d =
                deferred[static_cast<std::size_t>(i * p3 + j)];
            charge_multiply(cl.rank_at(i, j), d.s, d.touched);
          }
        }
        break;
      }
      case Variant2D::kAC: {
        // Stationary B: reduce the step's m-slice of C along grid columns.
        // Parallel over grid columns; each column keeps its inner reduction
        // serial in ascending i so the ⊕ order (and thus any floating-point
        // sum) matches the serial schedule exactly. C blocks written per
        // column are distinct (ic fixed, j varies).
        const int ic = step / (steps / p2);  // C rows split by p2
        struct ColDeferred {
          std::vector<sparse::SpgemmStats> s;
          std::vector<nnz_t> touched;
          nnz_t reduced_nnz = 0;
        };
        std::vector<ColDeferred> deferred(static_cast<std::size_t>(p3));
        support::parallel_for(
            static_cast<std::size_t>(p3), [&](std::size_t jt) {
              const int j = static_cast<int>(jt);
              ColDeferred& d = deferred[jt];
              d.s.resize(static_cast<std::size_t>(p2));
              d.touched.resize(static_cast<std::size_t>(p2));
              Csr<TC> reduced(r.size(), b.ncols());
              for (int i = 0; i < p2; ++i) {
                const Range b_rows = b.layout().block_rows(i, j);
                auto partial = sparse::spgemm<M>(
                    a_slice[static_cast<std::size_t>(i)], b.block(i, j), f,
                    &d.s[static_cast<std::size_t>(i)],
                    /*b_row_offset=*/b_rows.lo);
                d.touched[static_cast<std::size_t>(i)] = partial.nnz();
                reduced = sparse::ewise_union<M>(reduced, partial);
              }
              d.reduced_nnz = reduced.nnz();
              const Range c_rows = cl.block_rows(ic, j);
              auto embedded = sparse::embed_rows(reduced, c_rows.size(),
                                                 r.lo - c_rows.lo);
              c.block(ic, j) = sparse::ewise_union<M>(c.block(ic, j), embedded);
            });
        for (int j = 0; j < p3; ++j) {
          const ColDeferred& d = deferred[static_cast<std::size_t>(j)];
          for (int i = 0; i < p2; ++i) {
            charge_multiply(cl.rank_at(i, j), d.s[static_cast<std::size_t>(i)],
                            d.touched[static_cast<std::size_t>(i)]);
          }
          // The reduction consumes this step's multiplies — dependent work,
          // charged plainly (never posted, never credited).
          sim.charge_reduce(cl.col_group(j),
                            static_cast<double>(d.reduced_nnz) *
                                sim::sparse_entry_words<TC>());
        }
        break;
      }
      case Variant2D::kBC: {
        // Stationary A: reduce the step's n-slice of C along grid rows.
        // Parallel over grid rows, mirroring kAC: serial inner j reduction
        // per row, distinct C blocks (i varies, jc fixed).
        const int ib = step / (steps / p2);  // B transposed: n split by p2
        const int jc = step / (steps / p3);  // C cols split by p3
        struct RowDeferred {
          std::vector<sparse::SpgemmStats> s;
          std::vector<nnz_t> touched;
          nnz_t reduced_nnz = 0;
        };
        std::vector<RowDeferred> deferred(static_cast<std::size_t>(p2));
        support::parallel_for(
            static_cast<std::size_t>(p2), [&](std::size_t it) {
              const int i = static_cast<int>(it);
              RowDeferred& d = deferred[it];
              d.s.resize(static_cast<std::size_t>(p3));
              d.touched.resize(static_cast<std::size_t>(p3));
              Csr<TC> reduced(cl.block_rows(i, 0).size(), b.ncols());
              for (int j = 0; j < p3; ++j) {
                const Range b_rows = b.layout().block_rows(ib, j);
                auto partial = sparse::spgemm<M>(
                    a.block(i, j), b_slice[static_cast<std::size_t>(j)], f,
                    &d.s[static_cast<std::size_t>(j)],
                    /*b_row_offset=*/b_rows.lo);
                d.touched[static_cast<std::size_t>(j)] = partial.nnz();
                reduced = sparse::ewise_union<M>(reduced, partial);
              }
              d.reduced_nnz = reduced.nnz();
              c.block(i, jc) = sparse::ewise_union<M>(c.block(i, jc), reduced);
            });
        for (int i = 0; i < p2; ++i) {
          const RowDeferred& d = deferred[static_cast<std::size_t>(i)];
          for (int j = 0; j < p3; ++j) {
            charge_multiply(cl.rank_at(i, j), d.s[static_cast<std::size_t>(j)],
                            d.touched[static_cast<std::size_t>(j)]);
          }
          sim.charge_reduce(cl.row_group(i),
                            static_cast<double>(d.reduced_nnz) *
                                sim::sparse_entry_words<TC>());
        }
        break;
      }
    }
  };

  const int tile = plan.prefetch_tile();
  int posted = 0;  // broadcasts of the held slices posted in the last window
  for (std::size_t idx = 0; idx < active.size(); ++idx) {
    if (idx == 0 || !pipelined) build_slices(active[idx]);
    // Step 0's broadcasts cannot hide behind anything; a later step's
    // un-posted suffix charges directly after the previous window closes.
    charge_bcasts(posted, static_cast<int>(a_slice.size() + b_slice.size()),
                  nullptr);
    if (!pipelined) {
      run_step(active[idx]);
      continue;
    }
    std::vector<sim::AsyncHandle> handles;
    sim.overlap_open(cl.ranks(), -1.0);
    run_step(active[idx]);
    posted = 0;
    if (idx + 1 < active.size()) {
      // Prefetch: construct the next step's slices while this step's
      // multiplies are (simulated-)in-flight, and post ceil(count/tile) of
      // their broadcasts inside the window.
      build_slices(active[idx + 1]);
      const int count = static_cast<int>(a_slice.size() + b_slice.size());
      posted = (count + tile - 1) / tile;
      charge_bcasts(0, posted, &handles);
    }
    for (const sim::AsyncHandle& h : handles) sim.overlap_wait(h);
    sim.overlap_close();
  }
  return c;
}

}  // namespace detail

/// Cache of operand copies keyed by home layout.
///
/// CTF amortizes the mapping of a reused operand "over (up to d) sparse
/// matrix multiplications and over the n²/cm batches, since A is always the
/// same adjacency matrix" (proof of Thm 5.1). A HomeCache passed to spgemm
/// realizes that amortization: the first multiply with a given plan pays the
/// redistribution/replication of B, subsequent multiplies use the copies in
/// place, free. References stay valid until clear().
template <typename T>
class HomeCache {
 public:
  const DistMatrix<T>* find(const Layout& l) const {
    for (const auto& [layout, m] : entries_) {
      if (layout == l) return &m;
    }
    return nullptr;
  }

  const DistMatrix<T>& insert(Layout l, DistMatrix<T> m) {
    entries_.emplace_back(std::move(l), std::move(m));
    return entries_.back().second;
  }

  void clear() { entries_.clear(); }

 private:
  std::deque<std::pair<Layout, DistMatrix<T>>> entries_;
};

/// Distributed C = A •⟨⊕,f⟩ B following `plan`; the result is delivered on
/// `out_layout`. Operands may be on any layout — they are remapped to the
/// plan's home layouts first (CTF's mapping step), with every move charged.
template <algebra::Monoid M, typename TA, typename TB, typename F>
DistMatrix<typename M::value_type> spgemm(sim::Sim& sim, const Plan& plan,
                                          const DistMatrix<TA>& a,
                                          const DistMatrix<TB>& b, F f,
                                          Layout out_layout,
                                          DistSpgemmStats* st = nullptr,
                                          HomeCache<TB>* b_cache = nullptr) {
  using TC = typename M::value_type;
  MFBC_CHECK(a.ncols() == b.nrows(), "spgemm inner dimension mismatch");
  MFBC_CHECK(plan.total_ranks() <= sim.nranks(),
             "plan uses more ranks than the simulated machine has");

  // One telemetry span per distributed multiply: plan, operand/result nnz,
  // and the ledger's critical-path delta over the multiply. The delta attrs
  // are only computed when a trace is being recorded.
  telemetry::Span tele_span("dist.spgemm");
  telemetry::count("dist.spgemm.calls");
  std::optional<sim::Cost> tele_before;
  if (tele_span.active()) {
    tele_span.attr("plan", plan.to_string());
    tele_span.attr("nnz_a", static_cast<std::int64_t>(a.nnz()));
    tele_span.attr("nnz_b", static_cast<std::int64_t>(b.nnz()));
    tele_before = sim.ledger().critical();
  }
  // Observation hook (tune/observer.hpp): while an observer is installed,
  // every multiply records its plan, the §5.2 prediction on the *actual*
  // operand nnz, and the measured critical-path delta. Measured ops need the
  // stats struct even when the caller didn't ask for one.
  tune::Observer* obs = tune::active_observer();
  std::optional<sim::Cost> obs_before;
  DistSpgemmStats obs_stats_storage;
  double obs_ops_before = 0;
  if (obs != nullptr) {
    obs_before = sim.ledger().critical();
    if (st == nullptr) st = &obs_stats_storage;
    obs_ops_before = st->total_ops;
  }
  auto tele_finish = [&](DistMatrix<TC> c) {
    abft_verify<M>(sim, c);
    if (tele_before.has_value()) {
      const sim::Cost now = sim.ledger().critical();
      tele_span.attr("nnz_c", static_cast<std::int64_t>(c.nnz()));
      tele_span.attr("crit_words_delta", now.words - tele_before->words);
      tele_span.attr("crit_msgs_delta", now.msgs - tele_before->msgs);
      tele_span.attr("crit_seconds_delta",
                     now.total_seconds() - tele_before->total_seconds());
    }
    if (obs != nullptr && obs_before.has_value()) {
      const sim::Cost now = sim.ledger().critical();
      tune::Observation o;
      o.plan = plan;
      o.nnz_a = static_cast<double>(a.nnz());
      o.nnz_b = static_cast<double>(b.nnz());
      o.nnz_c = static_cast<double>(c.nnz());
      o.ops = st->total_ops - obs_ops_before;
      const auto est = MultiplyStats::estimated(
          a.nrows(), a.ncols(), b.ncols(), o.nnz_a, o.nnz_b,
          sim::sparse_entry_words<TA>(), sim::sparse_entry_words<TB>(),
          sim::sparse_entry_words<TC>());
      o.est_ops = est.ops;
      o.est_nnz_c = est.nnz_c;
      o.predicted = model_cost(plan, est, sim.model());
      o.measured.words = now.words - obs_before->words;
      o.measured.msgs = now.msgs - obs_before->msgs;
      o.measured.comm_seconds = now.comm_seconds - obs_before->comm_seconds;
      o.measured.compute_seconds =
          now.compute_seconds - obs_before->compute_seconds;
      o.measured.ops = now.ops - obs_before->ops;
      obs->record(std::move(o));
    }
    return c;
  };
  const Range rm = a.layout().rows;
  const Range rk = a.layout().cols;
  const Range rn = b.layout().cols;
  MFBC_CHECK(b.layout().rows == rk, "operand inner regions must match");

  const int p1 = plan.p1, p2 = plan.p2, p3 = plan.p3;
  const int layer_sz = p2 * p3;

  // Per-layer operand regions and home layouts.
  std::vector<Layout> a_homes, b_homes;
  a_homes.reserve(static_cast<std::size_t>(p1));
  b_homes.reserve(static_cast<std::size_t>(p1));
  for (int l = 0; l < p1; ++l) {
    Range lrm = rm, lrk = rk, lrn = rn;
    if (p1 > 1) {
      switch (plan.v1) {
        case Variant1D::kA: lrn = split_range(rn, p1, l); break;
        case Variant1D::kB: lrm = split_range(rm, p1, l); break;
        case Variant1D::kC: lrk = split_range(rk, p1, l); break;
      }
    }
    auto h = detail::homes_2d(plan.v2, l * layer_sz, p2, p3, lrm, lrk, lrn);
    a_homes.push_back(h.a);
    b_homes.push_back(h.b);
  }

  // B-side mapping, amortized through the cache: a layer hits when B already
  // sits on its home or the cache holds a copy there. When every layer hits,
  // the mapping is free; otherwise B is mapped (charged) and the moved
  // copies are handed to the cache.
  detail::Homed<TB> bh;
  if (b_cache != nullptr) {
    for (const Layout& h : b_homes) {
      const DistMatrix<TB>* hit = b.layout() == h ? &b : b_cache->find(h);
      if (hit == nullptr) {
        bh.at.clear();
        break;
      }
      bh.at.push_back(hit);
    }
  }
  if (bh.at.empty()) {
    bh = detail::map_home(sim, b, b_homes, plan.v1 == Variant1D::kB);
    if (b_cache != nullptr) {
      for (std::size_t l = 0; l < b_homes.size(); ++l) {
        if (bh.at[l] == &bh.moved[l]) {
          bh.at[l] = &b_cache->insert(b_homes[l], std::move(bh.moved[l]));
        }
      }
    }
  }
  const detail::Homed<TA> ah =
      detail::map_home(sim, a, a_homes, plan.v1 == Variant1D::kA);

  // Layers are independent rank groups; run them concurrently, each charging
  // into a private ChargeLog replayed into the Sim in layer order at the
  // barrier (per-layer stats merge in the same order). Nested regions inside
  // spgemm_2d run inline on the layer's worker thread.
  std::vector<DistMatrix<TC>> cs(static_cast<std::size_t>(p1));
  std::vector<sim::ChargeLog> layer_logs(static_cast<std::size_t>(p1));
  std::vector<DistSpgemmStats> layer_stats(static_cast<std::size_t>(p1));
  support::parallel_for(static_cast<std::size_t>(p1), [&](std::size_t l) {
    cs[l] = detail::spgemm_2d<M>(layer_logs[l], plan, *ah.at[l], *bh.at[l], f,
                                 st != nullptr ? &layer_stats[l] : nullptr);
  });
  for (std::size_t l = 0; l < static_cast<std::size_t>(p1); ++l) {
    layer_logs[l].replay(sim);
    // Layers address disjoint absolute rank ranges, so merging their
    // per-rank vectors gives the exact fleet-wide max — no approximation.
    if (st != nullptr) st->merge(layer_stats[l]);
  }

  if (p1 > 1 && plan.v1 == Variant1D::kC) {
    // Sparse-reduce the full-shape partial Cs across layers onto layer 0.
    DistMatrix<TC>& c0 = cs[0];
    for (int l = 1; l < p1; ++l) {
      for (int i = 0; i < p2; ++i) {
        for (int j = 0; j < p3; ++j) {
          c0.block(i, j) = sparse::ewise_union<M>(
              c0.block(i, j), cs[static_cast<std::size_t>(l)].block(i, j));
        }
      }
    }
    for (int i = 0; i < p2; ++i) {
      for (int j = 0; j < p3; ++j) {
        std::vector<int> group;
        group.reserve(static_cast<std::size_t>(p1));
        for (int l = 0; l < p1; ++l) {
          group.push_back(cs[static_cast<std::size_t>(l)].layout().rank_at(i, j));
        }
        sim.charge_reduce(group, static_cast<double>(c0.block(i, j).nnz()) *
                                     sim::sparse_entry_words<TC>());
      }
    }
    cs.resize(1);
  }
  // Deliver: a single part already on out_layout moves out as is, free.
  if (cs.size() == 1 && cs[0].layout() == out_layout) {
    return tele_finish(std::move(cs[0]));
  }
  std::vector<const DistMatrix<TC>*> parts;
  for (const auto& c : cs) parts.push_back(&c);
  return tele_finish(
      std::move(redistribute<TC>(sim, parts, {out_layout}).front()));
}

/// Convenience overload: autotune the plan (§6.2) from the §5.2 estimates,
/// then execute. `p` is the number of ranks to use (defaults to all).
template <algebra::Monoid M, typename TA, typename TB, typename F>
DistMatrix<typename M::value_type> spgemm_auto(
    sim::Sim& sim, const DistMatrix<TA>& a, const DistMatrix<TB>& b, F f,
    Layout out_layout, const TuneOptions& opts = {},
    DistSpgemmStats* st = nullptr) {
  auto stats = MultiplyStats::estimated(
      a.nrows(), a.ncols(), b.ncols(), static_cast<double>(a.nnz()),
      static_cast<double>(b.nnz()), sim::sparse_entry_words<TA>(),
      sim::sparse_entry_words<TB>(),
      sim::sparse_entry_words<typename M::value_type>());
  const Plan plan = autotune(sim.nranks(), stats, sim.model(), opts);
  return spgemm<M>(sim, plan, a, b, f, out_layout, st);
}

}  // namespace mfbc::dist
