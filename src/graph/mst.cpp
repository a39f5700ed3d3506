#include "graph/mst.hpp"

#include <limits>
#include <numeric>

namespace pacor::graph {

std::vector<WeightedEdge> manhattanMst(std::span<const geom::Point> points) {
  std::vector<WeightedEdge> tree;
  const std::size_t n = points.size();
  if (n < 2) return tree;
  tree.reserve(n - 1);

  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> best(n, kInf);
  std::vector<std::size_t> from(n, 0);
  std::vector<bool> inTree(n, false);

  inTree[0] = true;
  for (std::size_t j = 1; j < n; ++j) {
    best[j] = geom::manhattan(points[0], points[j]);
    from[j] = 0;
  }
  for (std::size_t added = 1; added < n; ++added) {
    std::size_t pick = n;
    std::int64_t pickCost = kInf;
    for (std::size_t j = 0; j < n; ++j) {
      if (!inTree[j] && best[j] < pickCost) {
        pickCost = best[j];
        pick = j;
      }
    }
    inTree[pick] = true;
    tree.push_back({from[pick], pick, pickCost});
    for (std::size_t j = 0; j < n; ++j) {
      if (inTree[j]) continue;
      const std::int64_t c = geom::manhattan(points[pick], points[j]);
      if (c < best[j]) {
        best[j] = c;
        from[j] = pick;
      }
    }
  }
  return tree;
}

std::int64_t totalCost(std::span<const WeightedEdge> edges) {
  return std::accumulate(edges.begin(), edges.end(), std::int64_t{0},
                         [](std::int64_t acc, const WeightedEdge& e) { return acc + e.cost; });
}

}  // namespace pacor::graph
