#include "dist/partition.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <queue>
#include <utility>

#include "dist/procgrid.hpp"
#include "graph/prep.hpp"
#include "support/error.hpp"

namespace mfbc::dist {

using graph::vid_t;

namespace {

/// Per-vertex work proxy: total (out + in) degree. Both sides matter — a hub
/// row is heavy in A-slices and its column twin is heavy in the transposed
/// operand of the backward sweep.
std::vector<double> degree_loads(const graph::Graph& g) {
  std::vector<double> load(static_cast<std::size_t>(g.n()), 0.0);
  const auto& adj = g.adj();
  for (vid_t r = 0; r < adj.nrows(); ++r) {
    load[static_cast<std::size_t>(r)] += static_cast<double>(adj.row_nnz(r));
  }
  for (vid_t c : adj.col()) load[static_cast<std::size_t>(c)] += 1.0;
  return load;
}

std::vector<double> checked_weights(const PartitionOptions& opts, int parts) {
  if (opts.slot_weights.empty()) {
    return std::vector<double>(static_cast<std::size_t>(parts), 1.0);
  }
  MFBC_CHECK(static_cast<int>(opts.slot_weights.size()) == parts,
             "partition slot_weights must cover every slot");
  for (double w : opts.slot_weights) {
    MFBC_CHECK(w > 0.0, "partition slot_weights must be positive");
  }
  return opts.slot_weights;
}

/// Equal-count slot capacities: slot s holds exactly the number of ids in
/// split_range piece s, so the relabeled graph's contiguous index ranges
/// coincide with the slots and every existing Layout stays valid.
std::vector<vid_t> slot_capacities(vid_t n, int parts) {
  std::vector<vid_t> cap(static_cast<std::size_t>(parts), 0);
  for (int s = 0; s < parts; ++s) {
    cap[static_cast<std::size_t>(s)] = split_range({0, n}, parts, s).size();
  }
  return cap;
}

/// Deterministic "least effective load first" slot picker with lazy-stale
/// heap entries (loads only grow, so stale entries surface early and are
/// skipped). Ties break toward the lower slot index.
class SlotHeap {
 public:
  SlotHeap(std::vector<vid_t> capacity, const std::vector<double>& weights)
      : capacity_(std::move(capacity)),
        weights_(weights),
        eff_(weights.size(), 0.0) {
    for (int s = 0; s < static_cast<int>(weights_.size()); ++s) {
      if (capacity_[static_cast<std::size_t>(s)] > 0) heap_.push({0.0, s});
    }
  }

  /// Slot that should receive the next item.
  int pick() {
    for (;;) {
      MFBC_CHECK(!heap_.empty(), "partition: slot capacity exhausted early");
      auto [load, s] = heap_.top();
      heap_.pop();
      if (capacity_[static_cast<std::size_t>(s)] <= 0) continue;
      if (load != eff_[static_cast<std::size_t>(s)]) continue;  // stale
      return s;
    }
  }

  /// Record `count` ids of total `load` placed on slot `s`.
  void place(int s, vid_t count, double load) {
    capacity_[static_cast<std::size_t>(s)] -= count;
    eff_[static_cast<std::size_t>(s)] +=
        load / weights_[static_cast<std::size_t>(s)];
    if (capacity_[static_cast<std::size_t>(s)] > 0) {
      heap_.push({eff_[static_cast<std::size_t>(s)], s});
    }
  }

  const std::vector<double>& effective_loads() const { return eff_; }

 private:
  std::vector<vid_t> capacity_;
  std::vector<double> weights_;
  std::vector<double> eff_;
  std::priority_queue<std::pair<double, int>,
                      std::vector<std::pair<double, int>>,
                      std::greater<std::pair<double, int>>>
      heap_;
};

/// LPT bin-packing of single vertices, heaviest degree first.
std::vector<std::vector<vid_t>> pack_degree(const std::vector<double>& load,
                                            SlotHeap& slots, int parts) {
  std::vector<vid_t> order(load.size());
  std::iota(order.begin(), order.end(), vid_t{0});
  std::stable_sort(order.begin(), order.end(), [&](vid_t a, vid_t b) {
    return load[static_cast<std::size_t>(a)] > load[static_cast<std::size_t>(b)];
  });
  std::vector<std::vector<vid_t>> members(static_cast<std::size_t>(parts));
  for (vid_t v : order) {
    const int s = slots.pick();
    members[static_cast<std::size_t>(s)].push_back(v);
    slots.place(s, 1, load[static_cast<std::size_t>(v)]);
  }
  return members;
}

}  // namespace

std::optional<PartitionKind> partition_kind_of(const std::string& name) {
  if (name == "block") return PartitionKind::kBlock;
  if (name == "degree") return PartitionKind::kDegree;
  return std::nullopt;
}

const char* partition_kind_name(PartitionKind kind) {
  switch (kind) {
    case PartitionKind::kBlock: return "block";
    case PartitionKind::kDegree: return "degree";
  }
  return "block";
}

graph::Graph Partition::apply(const graph::Graph& g) const {
  if (identity()) return g;
  MFBC_CHECK(perm.size() == static_cast<std::size_t>(g.n()),
             "partition was computed for a different graph");
  return graph::relabel(g, perm);
}

std::vector<vid_t> Partition::map_sources(
    std::span<const vid_t> sources) const {
  std::vector<vid_t> out(sources.begin(), sources.end());
  if (identity()) return out;
  for (vid_t& s : out) {
    MFBC_CHECK(s >= 0 && s < static_cast<vid_t>(perm.size()),
               "source vertex outside the partitioned graph");
    s = perm[static_cast<std::size_t>(s)];
  }
  return out;
}

std::vector<double> Partition::unpermute(std::span<const double> scores) const {
  if (identity()) return std::vector<double>(scores.begin(), scores.end());
  MFBC_CHECK(scores.size() == perm.size(),
             "unpermute: score vector size does not match the partition");
  std::vector<double> out(scores.size());
  for (std::size_t old = 0; old < perm.size(); ++old) {
    out[old] = scores[static_cast<std::size_t>(perm[old])];
  }
  return out;
}

Partition make_partition(const graph::Graph& g, PartitionKind kind, int parts,
                         const PartitionOptions& opts) {
  Partition part;
  part.kind = kind;
  part.parts = std::max(parts, 1);
  const vid_t n = g.n();
  if (kind == PartitionKind::kBlock || part.parts <= 1 || n == 0) {
    // Identity: the block baseline's balance is still worth reporting.
    const auto loads = slot_loads(g, part.parts);
    const double total = std::accumulate(loads.begin(), loads.end(), 0.0);
    part.balance.mean_load = loads.empty() ? 0.0 : total / loads.size();
    part.balance.max_load =
        loads.empty() ? 0.0 : *std::max_element(loads.begin(), loads.end());
    return part;
  }

  const std::vector<double> load = degree_loads(g);
  const std::vector<double> weights = checked_weights(opts, part.parts);
  SlotHeap slots(slot_capacities(n, part.parts), weights);
  std::vector<std::vector<vid_t>> members =
      pack_degree(load, slots, part.parts);

  // Slot s's members take the new ids of split_range piece s, in ascending
  // old-id order inside the slot (locality within the slot costs nothing and
  // keeps the ordering deterministic).
  part.perm.assign(static_cast<std::size_t>(n), 0);
  part.inv.assign(static_cast<std::size_t>(n), 0);
  for (int s = 0; s < part.parts; ++s) {
    auto& m = members[static_cast<std::size_t>(s)];
    std::sort(m.begin(), m.end());
    const Range r = split_range({0, n}, part.parts, s);
    MFBC_CHECK(static_cast<vid_t>(m.size()) == r.size(),
               "partition packed a slot past its id-range capacity");
    vid_t next = r.lo;
    for (vid_t old : m) {
      part.perm[static_cast<std::size_t>(old)] = next;
      part.inv[static_cast<std::size_t>(next)] = old;
      ++next;
    }
  }

  const auto& eff = slots.effective_loads();
  part.balance.mean_load =
      std::accumulate(eff.begin(), eff.end(), 0.0) / eff.size();
  part.balance.max_load = *std::max_element(eff.begin(), eff.end());
  return part;
}

std::vector<double> slot_loads(const graph::Graph& g, int parts) {
  parts = std::max(parts, 1);
  const std::vector<double> load = degree_loads(g);
  std::vector<double> out(static_cast<std::size_t>(parts), 0.0);
  for (int s = 0; s < parts; ++s) {
    const Range r = split_range({0, g.n()}, parts, s);
    for (vid_t v = r.lo; v < r.hi; ++v) {
      out[static_cast<std::size_t>(s)] += load[static_cast<std::size_t>(v)];
    }
  }
  return out;
}

double max_mean_imbalance(std::span<const double> loads) {
  if (loads.empty()) return 1.0;
  const double total = std::accumulate(loads.begin(), loads.end(), 0.0);
  const double mean = total / static_cast<double>(loads.size());
  if (mean <= 0.0) return 1.0;
  return *std::max_element(loads.begin(), loads.end()) / mean;
}

}  // namespace mfbc::dist
