// Degree-aware load-balanced partitioning (docs/partitioning.md).
//
// The distributed layers place vertex v by index range: rank slot s owns the
// contiguous ids split_range({0, n}, p, s). That convention is load-balanced
// only when nonzeros are spread uniformly over ids — the §5.2 assumption that
// random relabeling provides *in expectation*. On power-law inputs the
// variance is enormous: a handful of hub vertices dominate the nonzero count,
// and whichever slot draws them becomes the max-rank compute bottleneck.
//
// This module computes vertex *orderings* that pack total degree evenly into
// the equal-count slots, so the unchanged index-range machinery (Layout,
// DistMatrix::scatter, SpGEMM block placement) sees balanced blocks. The
// permutation is applied once at ingest (graph relabel, same rebuild as the
// §5.2 random preconditioner), sources are mapped through it positionally,
// and centrality output is inverse-permuted — the engines' results are
// bit-identical to the unpermuted run (tropical min and path counts are
// order-exact under relabeling; see docs/partitioning.md for the tie-sum
// caveat on cross-engine comparisons).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace mfbc::dist {

/// How vertex ids map onto rank slots.
///   kBlock  — identity order, contiguous index ranges (the legacy layout).
///   kDegree — LPT greedy bin-packing of vertices by total degree, heaviest
///             first, into equal-count slots (best balance, no locality).
enum class PartitionKind { kBlock, kDegree };

/// Parse "block" | "degree"; nullopt on anything else.
std::optional<PartitionKind> partition_kind_of(const std::string& name);
const char* partition_kind_name(PartitionKind kind);

/// Balance of the per-slot total-degree loads a partition achieved.
struct PartitionBalance {
  double max_load = 0.0;
  double mean_load = 0.0;
  /// Max/mean per-slot load factor; 1.0 is perfect, and 1.0 for degenerate
  /// (empty) partitions so it can multiply a cost term directly.
  double imbalance() const {
    return mean_load > 0.0 ? max_load / mean_load : 1.0;
  }
};

struct PartitionOptions {
  /// Optional per-slot capacity weights (e.g. relative flop rates of a
  /// heterogeneous fleet): a slot with weight w attracts load ∝ w. Empty =
  /// uniform. Size must equal `parts` when non-empty.
  std::vector<double> slot_weights;
};

/// A computed vertex ordering. `perm` is empty for identity partitions
/// (kBlock, parts <= 1, empty graphs) so the no-op case costs nothing.
struct Partition {
  PartitionKind kind = PartitionKind::kBlock;
  int parts = 1;
  std::vector<graph::vid_t> perm;  ///< new_id = perm[old_id]; empty = identity
  std::vector<graph::vid_t> inv;   ///< old_id = inv[new_id]
  PartitionBalance balance;        ///< slot loads under this ordering

  bool identity() const { return perm.empty(); }

  /// Relabel the graph into partition order (returns a copy of `g` when
  /// identity). Engines own the returned graph for the run's lifetime.
  graph::Graph apply(const graph::Graph& g) const;

  /// Map source ids into partition order, preserving list order (batch
  /// composition and λ accumulation order must not depend on the labels).
  std::vector<graph::vid_t> map_sources(
      std::span<const graph::vid_t> sources) const;

  /// Undo the relabeling on a per-vertex result: out[old] = scores[perm[old]].
  std::vector<double> unpermute(std::span<const double> scores) const;
};

/// Compute a partition of `g`'s vertices into `parts` equal-count slots.
Partition make_partition(const graph::Graph& g, PartitionKind kind, int parts,
                         const PartitionOptions& opts = {});

/// Per-slot total-degree (out + in) loads of `g` under the plain contiguous
/// index-range split — the block-distribution baseline the balanced
/// orderings are measured against.
std::vector<double> slot_loads(const graph::Graph& g, int parts);

/// Max/mean of a load vector (1.0 when empty or all-zero).
double max_mean_imbalance(std::span<const double> loads);

}  // namespace mfbc::dist
