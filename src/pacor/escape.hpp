#pragma once

#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/min_cost_flow.hpp"
#include "grid/obstacle_map.hpp"
#include "pacor/work.hpp"

namespace pacor::core {

/// Outcome of one simultaneous escape-routing pass.
struct EscapeOutcome {
  int requested = 0;
  int routedCount = 0;
  std::vector<std::size_t> failed;  ///< indices into the cluster span
  std::int64_t flowCost = 0;        ///< total channel length of escape paths
  /// Seconds spent building the flow network (or, for a warm session
  /// round, applying the per-round delta) and solving it. Measured
  /// unconditionally so the pipeline can report cumulative flow time as
  /// time.escape_flow_{build,run}_s metrics without a trace session.
  double flowBuildSeconds = 0.0;
  double flowRunSeconds = 0.0;
  /// Solver-effort counters for this pass (Dijkstra passes, augmentations,
  /// queue traffic, ...), surfaced as `escape.flow.*` metrics and the
  /// `search.escape` block of bench_routing.
  graph::MinCostFlow::Counters flowCounters;
};

/// Simultaneous escape routing of all internally-routed clusters to the
/// control pins via the paper's min-cost flow formulation (Sec. 5):
/// routing cells are node-split with unit capacity (constraint 12 -- no
/// crossings), each cluster feeds flow out of its tap cells (constraints
/// 6/10: the Steiner root for matched trees, the middle point for matched
/// pairs, any tree cell for plain clusters), non-pin boundary cells are
/// blocked (constraint 8), and every control pin accepts at most one path.
/// Min-cost max-flow realizes the beta-dominant objective exactly:
/// maximize the routed count, then minimize total channel length.
///
/// Successful clusters get escapePath (tap ... pin) committed into
/// `obstacles` and their pin assigned. Already-escaped clusters (pin >= 0)
/// are left untouched and their pins stay reserved.
///
/// A one-round EscapeFlowSession: callers that escape repeatedly against
/// one design (the pipeline's rip-up rounds) hold a session instead.
EscapeOutcome escapeRoute(const chip::Chip& chip, grid::ObstacleMap& obstacles,
                          std::span<WorkCluster*> clusters);

/// Persistent escape-flow solver that survives across pipeline rip-up
/// rounds. Constructed once per design, it lays down the full node-split
/// flow network over *every* cell (blocked cells are disabled nodes, so
/// their arcs are zero-capacity rather than absent) plus one sink arc per
/// control pin, freezes that as the solver's CSR, and then serves each
/// escape round by applying deltas:
///
///  * cells whose occupancy changed since the last round (committed escape
///    paths, rip-ups, re-routed trees) are disabled/enabled in place;
///  * pin arcs are re-priced to 1/0 as pins are consumed or released;
///  * per-round cluster supply and tap arcs go to the solver's overlay and
///    are truncated again at the start of the next round;
///  * every edit happens at zero flow (MinCostFlow::resetFlow() first), and
///    the solve itself is a fresh run() on the edited network -- no node
///    renumbering, no arc re-insertion, no CSR rebuild.
///
/// The delta rules keep the positive-capacity arc set, and its per-node
/// scan order, equal to that of a session built fresh on the round's
/// obstacle map: zero-capacity arcs relax exactly like absent arcs,
/// overlay arcs scan after a node's CSR arcs (their insertion-order
/// position), and cluster virtual nodes are renumbered per round in
/// pending order. A warm round is therefore bit-identical to a cold one;
/// only the build work disappears.
class EscapeFlowSession {
 public:
  /// Snapshots the current obstacle state; later rounds diff against it.
  EscapeFlowSession(const chip::Chip& chip, grid::ObstacleMap& obstacles);

  /// True when this session's frozen network can serve `chip`: same grid
  /// cell count, identical control pins, and no more valves than the
  /// network was sized for. Callers holding a session across requests
  /// (serve::DesignContext, RouteResources::escapeSession) reset the
  /// session when this turns false -- valve moves and obstacle edits keep
  /// it true, pin or grid edits do not.
  bool compatibleWith(const chip::Chip& chip) const noexcept;

  /// Re-targets the session at another request's chip + obstacle map
  /// (compatibleWith must hold). The next route() call diffs the free
  /// mirror against the new map -- exactly the per-round occupancy-diff
  /// path -- so a rebound session stays bit-identical to a session built
  /// fresh on the new map.
  void rebind(const chip::Chip& chip, grid::ObstacleMap& obstacles);

  /// One escape pass over the given clusters against the session's
  /// obstacle map (see escapeRoute() for the contract).
  EscapeOutcome route(std::span<WorkCluster*> clusters);

  /// Warm-restart counters for the `escape.flow.*` metrics.
  struct Stats {
    int coldBuilds = 0;       ///< full network constructions (1 per session)
    int rounds = 0;           ///< route() calls served
    int warmRounds = 0;       ///< rounds after the first (delta-applied)
    std::int64_t warmDeltaCells = 0;  ///< cells toggled across warm rounds
    std::int64_t warmDeltaArcs = 0;   ///< overlay arcs added across warm rounds
    std::int64_t persistentArcs = 0;  ///< arcs in the frozen network
  };
  const Stats& stats() const { return stats_; }

 private:
  const chip::Chip* chip_;
  grid::ObstacleMap* obstacles_;
  graph::MinCostFlow flow_;
  std::size_t valveCapacity_ = 0;  ///< cluster-node slots in the network
  std::size_t clusterBase_ = 0;
  std::size_t source_ = 0;
  std::size_t sink_ = 0;
  std::size_t persistentEdges_ = 0;
  std::vector<std::size_t> splitEdge_;  ///< per cell
  std::vector<std::pair<std::int32_t, std::int32_t>> stepArc_;  ///< per edge
  std::vector<std::size_t> pinEdge_;    ///< per chip pin index
  std::vector<std::uint8_t> freeMirror_;  ///< last-synced isFree() per cell
  std::vector<std::int32_t> nextCell_;    ///< decompose scratch, kept at -1
  std::unordered_map<Point, chip::PinId> pinAt_;
  Stats stats_;
  double ctorSeconds_ = 0.0;  ///< charged to the first round's build time
  bool firstRound_ = true;
};

/// Sequential greedy baseline for the same problem: clusters escape one at
/// a time via multi-target A* to the nearest free pin, each committed path
/// becoming an obstacle for the rest. This is what the paper's min-cost
/// flow formulation replaces -- the greedy order can block later clusters
/// and pick globally suboptimal pins; used by the escape ablation bench.
EscapeOutcome escapeRouteSequential(const chip::Chip& chip,
                                    grid::ObstacleMap& obstacles,
                                    std::span<WorkCluster*> clusters);

}  // namespace pacor::core
