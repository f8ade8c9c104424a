// Small ranking utilities shared by the examples, the CLI, and downstream
// users: top-k selection and rank-overlap diagnostics for comparing
// approximate against exact centrality orderings.
#pragma once

#include <cstddef>
#include <vector>

namespace mfbc::core {

struct RankedVertex {
  std::size_t vertex = 0;
  double score = 0;
};

/// The k highest-scoring vertices, in descending score order (ties broken
/// by vertex id for determinism). k is clamped to the score count. Throws
/// mfbc::Error naming the first vertex whose score is NaN or ±inf.
std::vector<RankedVertex> top_k(const std::vector<double>& scores,
                                std::size_t k);

/// |top-k(a) ∩ top-k(b)| / k — the overlap statistic used to judge pivot
/// sampling quality (1.0 = identical top-k sets).
double top_k_overlap(const std::vector<double>& a,
                     const std::vector<double>& b, std::size_t k);

}  // namespace mfbc::core
