// Tests for the mutable MinCostFlow API (setCapacity / disableNode /
// enableNode / overlay edges / resetFlow / truncateEdges) and the
// EscapeFlowSession built on it. The core property throughout: after any
// sequence of zero-flow edits, a warm resetFlow() + run() must produce
// exactly the same Result and the same per-edge flows as a *fresh* solver
// constructed with the same effective capacities -- bit-identity is what
// lets the pipeline serve every rip-up round from one persistent session
// without moving the golden solution hashes.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "chip/generator.hpp"
#include "escape_session_check.hpp"
#include "graph/min_cost_flow.hpp"

namespace pacor::graph {
namespace {

struct Edge {
  std::size_t u, v;
  std::int64_t cap, cost;
};

/// Random sparse instance with node 0 as source and n-1 as sink.
std::vector<Edge> makeEdges(std::mt19937& rng, std::size_t nodes) {
  std::vector<Edge> edges;
  const std::size_t m = 10 + rng() % 20;
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t u = rng() % nodes;
    std::size_t v = rng() % nodes;
    if (u == v) v = (v + 1) % nodes;
    edges.push_back({u, v, static_cast<std::int64_t>(1 + rng() % 4),
                     static_cast<std::int64_t>(rng() % 10)});
  }
  // Guarantee some source/sink adjacency so instances are non-trivial.
  edges.push_back({0, 1 + rng() % (nodes - 1), 2, 1});
  edges.push_back({rng() % (nodes - 1), nodes - 1, 2, 1});
  return edges;
}

/// Fresh solver over the *effective* state of `mutated`: same edges in the
/// same insertion order, capacity 0 where an endpoint is disabled.
MinCostFlow freshEquivalent(const MinCostFlow& mutated,
                            const std::vector<Edge>& edges) {
  MinCostFlow fresh(mutated.nodeCount());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const std::int64_t cap = mutated.nodeDisabled(edges[e].u) ||
                                     mutated.nodeDisabled(edges[e].v)
                                 ? 0
                                 : mutated.capacityOf(e);
    fresh.addEdge(edges[e].u, edges[e].v, cap, edges[e].cost);
  }
  return fresh;
}

/// Solves the (already reset) mutated solver warm and `fresh` cold.
void expectSameSolve(MinCostFlow& mutated, MinCostFlow& fresh,
                     std::size_t edgeCount, std::size_t s, std::size_t t,
                     const char* context) {
  const MinCostFlow::Result warm = mutated.run(s, t);
  const MinCostFlow::Result cold = fresh.run(s, t);
  EXPECT_EQ(warm.flow, cold.flow) << context;
  EXPECT_EQ(warm.cost, cold.cost) << context;
  for (std::size_t e = 0; e < edgeCount; ++e)
    EXPECT_EQ(mutated.flowOn(e), fresh.flowOn(e)) << context << " edge " << e;
}

class IncrementalEdits : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalEdits, RandomEditSequenceMatchesFreshSolver) {
  std::mt19937 rng(static_cast<std::uint32_t>(GetParam()) * 7919u + 13u);
  const std::size_t nodes = 6 + rng() % 6;
  const std::vector<Edge> edges = makeEdges(rng, nodes);
  const std::size_t s = 0, t = nodes - 1;

  MinCostFlow solver(nodes);
  for (const Edge& e : edges) solver.addEdge(e.u, e.v, e.cap, e.cost);
  solver.run(s, t);  // the first edit follows a solve, as in a session

  for (int step = 0; step < 12; ++step) {
    // Edits are legal at zero flow only: back to it, then one to three
    // edits before the next solve.
    solver.resetFlow();
    for (std::uint32_t k = 1 + rng() % 3; k > 0; --k) {
      switch (rng() % 3) {
        case 0: {  // capacity change (grow or shrink, possibly to zero)
          const std::size_t e = rng() % edges.size();
          solver.setCapacity(e, static_cast<std::int64_t>(rng() % 5));
          break;
        }
        case 1: {  // disable an interior node
          solver.disableNode(1 + rng() % (nodes - 2));
          break;
        }
        default: {  // re-enable an interior node
          solver.enableNode(1 + rng() % (nodes - 2));
          break;
        }
      }
    }
    MinCostFlow fresh = freshEquivalent(solver, edges);
    expectSameSolve(solver, fresh, edges.size(), s, t,
                    ("step " + std::to_string(step)).c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEdits, ::testing::Range(0, 25));

TEST(IncrementalFlow, DisabledNodeCarriesNoFlowUntilReenabled) {
  MinCostFlow f(4);
  f.addEdge(0, 1, 1, 1);
  f.addEdge(1, 3, 1, 1);
  f.addEdge(0, 2, 1, 5);
  f.addEdge(2, 3, 1, 5);
  EXPECT_EQ(f.run(0, 3).flow, 2);

  f.resetFlow();
  EXPECT_EQ(f.totalFlowUnits(), 0);
  f.disableNode(1);
  EXPECT_TRUE(f.nodeDisabled(1));
  EXPECT_EQ(f.run(0, 3).flow, 1);  // only the expensive path remains
  EXPECT_EQ(f.flowOn(0), 0);

  f.resetFlow();
  f.enableNode(1);
  EXPECT_FALSE(f.nodeDisabled(1));
  const auto r = f.run(0, 3);
  EXPECT_EQ(r.flow, 2);
  EXPECT_EQ(r.cost, 12);
}

TEST(IncrementalFlow, OverlayEdgesBehaveLikePreBuildEdges) {
  // Build a frozen base, add per-round edges post-freeze, and compare
  // against a fresh solver that received every edge before its build.
  std::mt19937 rng(42);
  for (int round = 0; round < 10; ++round) {
    const std::size_t nodes = 6 + rng() % 4;
    const std::vector<Edge> base = makeEdges(rng, nodes);
    MinCostFlow warm(nodes);
    for (const Edge& e : base) warm.addEdge(e.u, e.v, e.cap, e.cost);
    warm.freeze();

    std::vector<Edge> all = base;
    for (int extra = 0; extra < 4; ++extra) {
      const std::size_t u = rng() % nodes;
      const std::size_t v = u == nodes - 1 ? 0 : u + 1;
      const Edge e{u, v, static_cast<std::int64_t>(1 + rng() % 3),
                   static_cast<std::int64_t>(rng() % 6)};
      warm.addEdge(e.u, e.v, e.cap, e.cost);
      all.push_back(e);
    }

    MinCostFlow cold(nodes);
    for (const Edge& e : all) cold.addEdge(e.u, e.v, e.cap, e.cost);
    expectSameSolve(warm, cold, all.size(), 0, nodes - 1, "overlay round");
  }
}

TEST(IncrementalFlow, TruncateEdgesDropsPerRoundSuffix) {
  MinCostFlow f(4);
  f.addEdge(0, 1, 1, 1);
  f.addEdge(1, 3, 1, 1);
  const std::size_t persistent = f.edgeCount();
  f.freeze();

  for (int round = 0; round < 5; ++round) {
    // Per-round edges: a second parallel path through node 2.
    f.resetFlow();
    f.addEdge(0, 2, 1, 0);
    f.addEdge(2, 3, 1, 0);
    EXPECT_EQ(f.run(0, 3).flow, 2);
    f.resetFlow();
    f.truncateEdges(persistent);
    EXPECT_EQ(f.edgeCount(), persistent);
    // Without the per-round edges only the persistent path remains.
    EXPECT_EQ(f.run(0, 3).flow, 1);
  }
}

}  // namespace
}  // namespace pacor::graph

namespace pacor {
namespace {

/// Session-level bit-identity: every warm round of one EscapeFlowSession
/// -- across escape rip-ups, obstacle adds, plain-cluster splits and tap
/// widening -- equals a fresh session built on a copy of the same state.
TEST(IncrementalEscape, WarmRoundsMatchFreshSessionsOnStressDesigns) {
  for (const std::uint32_t seed : {2u, 5u, 7u}) {
    const chip::Chip chip = chip::generateChip(chip::stressParams(seed));
    int warmRounds = 0;
    EXPECT_EQ(escapecheck::checkSessionRounds(chip, seed, 6, &warmRounds), "")
        << "stress seed " << seed;
    EXPECT_GT(warmRounds, 0) << "stress seed " << seed;
  }
}

/// The pipeline serves its rip-up rounds from one session.
TEST(IncrementalEscape, PipelineReusesOneSessionAcrossRounds) {
  const chip::Chip chip = chip::generateChip(chip::stressParams(2));
  const auto r = core::routeChip(chip);
  EXPECT_EQ(r.metrics.getInt("escape.flow.cold_builds"), 1);
  EXPECT_GT(r.metrics.getInt("escape.flow.persistent_arcs"), 0);
  EXPECT_EQ(r.metrics.getInt("escape.flow.warm_rounds"),
            r.metrics.getInt("escape.rounds") - 1);
}

}  // namespace
}  // namespace pacor
