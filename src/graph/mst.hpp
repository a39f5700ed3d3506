#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geom/point.hpp"

namespace pacor::graph {

/// Undirected edge between vertex indices with a cost.
struct WeightedEdge {
  std::size_t a = 0;
  std::size_t b = 0;
  std::int64_t cost = 0;

  friend bool operator==(const WeightedEdge&, const WeightedEdge&) = default;
};

/// Prim MST over the complete Manhattan-distance graph of `points`
/// (O(n^2), exact; n is a cluster size, tens at most). Returns n-1 edges.
/// This fixes the connection topology for MST-based cluster routing
/// (paper Sec. 3, "MST-based cluster routing").
std::vector<WeightedEdge> manhattanMst(std::span<const geom::Point> points);

/// Total cost of an edge set.
std::int64_t totalCost(std::span<const WeightedEdge> edges);

}  // namespace pacor::graph
