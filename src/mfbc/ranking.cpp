#include "mfbc/ranking.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "support/error.hpp"

namespace mfbc::core {

std::vector<RankedVertex> top_k(const std::vector<double>& scores,
                                std::size_t k) {
  k = std::min(k, scores.size());
  std::vector<RankedVertex> all(scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    // A NaN breaks the strict weak order the sort needs, and an overflowed
    // ±inf outranks every real score: neither may be ranked beside them.
    if (!std::isfinite(scores[i])) {
      throw Error("non-finite score " + std::to_string(scores[i]) +
                  " at vertex v" + std::to_string(i) +
                  "; refusing to rank");
    }
    all[i] = {i, scores[i]};
  }
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(k),
                    all.end(), [](const RankedVertex& a, const RankedVertex& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.vertex < b.vertex;
                    });
  all.resize(k);
  return all;
}

double top_k_overlap(const std::vector<double>& a,
                     const std::vector<double>& b, std::size_t k) {
  MFBC_CHECK(a.size() == b.size(), "score vectors must have equal length");
  MFBC_CHECK(k >= 1, "k must be positive");
  k = std::min(k, a.size());
  auto ta = top_k(a, k);
  auto tb = top_k(b, k);
  std::vector<std::size_t> va, vb;
  for (const auto& r : ta) va.push_back(r.vertex);
  for (const auto& r : tb) vb.push_back(r.vertex);
  std::sort(va.begin(), va.end());
  std::sort(vb.begin(), vb.end());
  std::vector<std::size_t> both;
  std::set_intersection(va.begin(), va.end(), vb.begin(), vb.end(),
                        std::back_inserter(both));
  return static_cast<double>(both.size()) / static_cast<double>(k);
}

}  // namespace mfbc::core
