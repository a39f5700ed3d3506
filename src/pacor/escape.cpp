#include "pacor/escape.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <unordered_set>

#include "graph/min_cost_flow.hpp"
#include "route/astar.hpp"
#include "trace/trace.hpp"

namespace pacor::core {
namespace {

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

EscapeOutcome escapeRoute(const chip::Chip& chip, grid::ObstacleMap& obstacles,
                          std::span<WorkCluster*> clusters) {
  return EscapeFlowSession(chip, obstacles).route(clusters);
}

EscapeFlowSession::EscapeFlowSession(const chip::Chip& chip,
                                     grid::ObstacleMap& obstacles)
    : chip_(&chip),
      obstacles_(&obstacles),
      flow_(static_cast<std::size_t>(2 * obstacles.grid().cellCount()) +
            chip.valves.size() + 2),
      valveCapacity_(chip.valves.size()) {
  trace::Span spanBuild("escape.flow_build", "escape", trace::Level::kCluster);
  const auto buildT0 = std::chrono::steady_clock::now();
  const grid::Grid& g = obstacles_->grid();
  // Size the Dial bucket span from the grid diameter: step costs are unit
  // and tap biases at most two Manhattan diameters, so a few diameters
  // cover every label this network produces. Small dies get a small
  // bucket array; FPVA-scale dies keep O(1) pushes instead of degrading
  // to the overflow heap. Longer labels would still solve correctly.
  flow_.setBucketSpan(graph::MinCostFlow::recommendedBucketSpan(
      4 * (static_cast<std::int64_t>(g.width()) + g.height())));
  const auto cellCount = static_cast<std::size_t>(g.cellCount());
  clusterBase_ = 2 * cellCount;
  // One virtual cluster node per pending cluster, renumbered every round in
  // pending order; clusters never outnumber valves, so valves.size() slots
  // always suffice and source/sink ids stay fixed across rounds.
  source_ = clusterBase_ + chip_->valves.size();
  sink_ = source_ + 1;

  freeMirror_.resize(cellCount);
  for (std::size_t c = 0; c < cellCount; ++c)
    freeMirror_[c] = obstacles_->isFree(g.point(static_cast<std::int32_t>(c))) ? 1 : 0;

  // Persistent network over every cell, in per-node insertion order:
  // node split in(c) -> out(c) (capacity 1, constraint 12), adjacency
  // out(c) -> in(q) at one cost unit per grid step, then the pin arc
  // out(pin) -> sink (one cluster per pin). Blocked cells are handled
  // below by disabling their in-node, which zero-caps the split arc and
  // every adjacency arc into the cell -- a blocked tail's out-node is
  // unreachable because its own split arc is closed.
  splitEdge_.resize(cellCount);
  for (std::size_t c = 0; c < cellCount; ++c)
    splitEdge_[c] = flow_.addEdge(2 * c, 2 * c + 1, 1, 0);
  for (std::size_t c = 0; c < cellCount; ++c) {
    const Point p = g.point(static_cast<std::int32_t>(c));
    g.forNeighbors(p, [&](Point q) {
      const auto qi = static_cast<std::size_t>(g.index(q));
      const std::size_t e = flow_.addEdge(2 * c + 1, 2 * qi, 1, 1);
      if (stepArc_.size() <= e) stepArc_.resize(e + 1, {-1, -1});
      stepArc_[e] = {static_cast<std::int32_t>(c), static_cast<std::int32_t>(qi)};
    });
  }
  pinEdge_.reserve(chip_->pins.size());
  for (const chip::ControlPin& pin : chip_->pins) {
    const auto c = static_cast<std::size_t>(g.index(pin.pos));
    pinEdge_.push_back(flow_.addEdge(2 * c + 1, sink_, 1, 0));
    pinAt_.emplace(pin.pos, pin.id);
  }
  persistentEdges_ = flow_.edgeCount();
  ++stats_.coldBuilds;
  stats_.persistentArcs = static_cast<std::int64_t>(2 * persistentEdges_);

  flow_.freeze();
  for (std::size_t c = 0; c < cellCount; ++c)
    if (freeMirror_[c] == 0) flow_.disableNode(2 * c);

  nextCell_.assign(cellCount, -1);
  spanBuild.arg("cells", static_cast<std::int64_t>(cellCount));
  spanBuild.arg("arcs", stats_.persistentArcs);
  ctorSeconds_ = secondsSince(buildT0);
}

bool EscapeFlowSession::compatibleWith(const chip::Chip& chip) const noexcept {
  if (chip.valves.size() > valveCapacity_) return false;
  if (static_cast<std::size_t>(chip.routingGrid.cellCount()) != freeMirror_.size())
    return false;
  if (chip.pins.size() != pinEdge_.size()) return false;
  for (const chip::ControlPin& pin : chip.pins) {
    const auto it = pinAt_.find(pin.pos);
    if (it == pinAt_.end() || it->second != pin.id) return false;
  }
  return true;
}

void EscapeFlowSession::rebind(const chip::Chip& chip, grid::ObstacleMap& obstacles) {
  chip_ = &chip;
  obstacles_ = &obstacles;
  // Nothing else: the next route() already resets the flow, truncates the
  // overlay, and diffs freeMirror_ against the new map's occupancy -- the
  // same path every warm round takes within one request.
}

EscapeOutcome EscapeFlowSession::route(std::span<WorkCluster*> clusters) {
  EscapeOutcome outcome;
  const grid::Grid& g = obstacles_->grid();

  std::vector<std::size_t> pendingIdx;
  for (std::size_t i = 0; i < clusters.size(); ++i)
    if (clusters[i]->internallyRouted && clusters[i]->pin < 0) pendingIdx.push_back(i);
  outcome.requested = static_cast<int>(pendingIdx.size());
  if (pendingIdx.empty()) return outcome;

  ++stats_.rounds;
  const bool warm = !firstRound_;
  firstRound_ = false;
  if (warm) ++stats_.warmRounds;

  trace::Span spanDelta("escape.flow_delta", "escape", trace::Level::kCluster);
  const auto deltaT0 = std::chrono::steady_clock::now();

  // Per-round counters: reset before the warm repair so the round's
  // outcome records its own resetFlow arc touches.
  flow_.resetCounters();

  // Back to the persistent zero-flow network: repair the arcs the last
  // solve touched and drop its per-round cluster arcs.
  flow_.resetFlow();
  flow_.truncateEdges(persistentEdges_);

  // Cell occupancy deltas since the last round.
  std::int64_t deltaCells = 0;
  for (std::size_t c = 0; c < freeMirror_.size(); ++c) {
    const bool free = obstacles_->isFree(g.point(static_cast<std::int32_t>(c)));
    if (free == (freeMirror_[c] != 0)) continue;
    freeMirror_[c] = free ? 1 : 0;
    ++deltaCells;
    if (free)
      flow_.enableNode(2 * c);
    else
      flow_.disableNode(2 * c);
  }

  // Pin arcs: open iff the pin is unconsumed and its cell is free.
  std::unordered_set<Point> takenPins;
  for (const WorkCluster* wc : clusters)
    if (wc->pin >= 0) takenPins.insert(chip_->pin(wc->pin).pos);
  for (std::size_t i = 0; i < chip_->pins.size(); ++i) {
    const Point pos = chip_->pins[i].pos;
    const bool open = !takenPins.contains(pos) && obstacles_->isFree(pos);
    flow_.setCapacity(pinEdge_[i], open ? 1 : 0);
  }

  // Per-round cluster supplies and tap fanout, on the overlay: source ->
  // cluster (capacity 1), cluster -> in(f) for every free neighbor f of a
  // tap cell (cost 1: the step off the tree). Wide-tap clusters (matched
  // trees whose root was walled in) may attach anywhere, but every cell of
  // asymmetry must later be paid in detour length -- the attach arc is
  // priced with the distance from the root to bias toward near-root
  // attachments. The fanout map's iteration order decides tap-arc
  // insertion order.
  std::vector<std::size_t> supplyEdge(pendingIdx.size());
  std::vector<std::vector<std::size_t>> tapArcs(pendingIdx.size());
  std::vector<std::int32_t> tapArcCell;  // by (edge id - persistentEdges_)
  for (std::size_t k = 0; k < pendingIdx.size(); ++k) {
    const WorkCluster& wc = *clusters[pendingIdx[k]];
    supplyEdge[k] = flow_.addEdge(source_, clusterBase_ + k, 1, 0);
    std::unordered_map<Point, std::int64_t> fanout;
    for (const Point tap : wc.tapCells) {
      const std::int64_t bias = wc.wideTap ? 2 * geom::manhattan(tap, wc.tap) : 0;
      g.forNeighbors(tap, [&](Point q) {
        if (!obstacles_->isFree(q)) return;
        const auto [it, fresh] = fanout.emplace(q, bias);
        if (!fresh) it->second = std::min(it->second, bias);
      });
    }
    for (const auto& [f, bias] : fanout) {
      const std::size_t e = flow_.addEdge(
          clusterBase_ + k, static_cast<std::size_t>(2 * g.index(f)), 1, 1 + bias);
      tapArcs[k].push_back(e);
      const std::size_t slot = e - persistentEdges_;
      if (tapArcCell.size() <= slot) tapArcCell.resize(slot + 1, -1);
      tapArcCell[slot] = g.index(f);
    }
  }
  const auto deltaArcs =
      static_cast<std::int64_t>(2 * (flow_.edgeCount() - persistentEdges_));
  if (warm) {
    stats_.warmDeltaCells += deltaCells;
    stats_.warmDeltaArcs += deltaArcs;
  }
  spanDelta.arg("pending", static_cast<std::int64_t>(pendingIdx.size()));
  spanDelta.arg("delta_cells", deltaCells);
  spanDelta.arg("delta_arcs", deltaArcs);
  spanDelta.close();
  // The one-time network build is charged to the first round, warm
  // rounds pay only their delta.
  outcome.flowBuildSeconds = secondsSince(deltaT0) + (warm ? 0.0 : ctorSeconds_);

  trace::Span spanRun("escape.flow_run", "escape", trace::Level::kCluster);
  const auto runT0 = std::chrono::steady_clock::now();
  const auto result = flow_.run(source_, sink_,
                                static_cast<std::int64_t>(pendingIdx.size()));
  outcome.routedCount = static_cast<int>(result.flow);
  outcome.flowCost = result.cost;
  outcome.flowRunSeconds = secondsSince(runT0);
  outcome.flowCounters = flow_.counters();
  spanRun.arg("routed", result.flow);
  spanRun.close();

  trace::Span spanDecompose("escape.decompose", "escape", trace::Level::kCluster);

  // Decompose per-cluster unit flows into escape paths. Flow edges are
  // found through the solver's dirty list (O(touched)); every entry of
  // nextCell_ written here is consumed by a path walk below (unit paths
  // cover all adjacency flow), so the array stays -1 across rounds.
  flow_.forEachPositiveFlowEdge([&](std::size_t e, std::int64_t) {
    if (e < stepArc_.size() && stepArc_[e].first >= 0)
      nextCell_[static_cast<std::size_t>(stepArc_[e].first)] = stepArc_[e].second;
  });

  for (std::size_t k = 0; k < pendingIdx.size(); ++k) {
    WorkCluster& wc = *clusters[pendingIdx[k]];
    if (flow_.flowOn(supplyEdge[k]) == 0) {
      outcome.failed.push_back(pendingIdx[k]);
      continue;
    }
    std::int32_t first = -1;
    for (const std::size_t e : tapArcs[k])
      if (flow_.flowOn(e) > 0) {
        first = tapArcCell[e - persistentEdges_];
        break;
      }

    route::Path path;
    // Anchor the path at an adjacent tap cell of this cluster.
    const Point firstPoint = g.point(first);
    Point anchor = wc.tapCells.front();
    for (const Point tap : wc.tapCells)
      if (geom::manhattan(tap, firstPoint) == 1) {
        anchor = tap;
        break;
      }
    path.push_back(anchor);
    for (std::int32_t c = first;;) {
      path.push_back(g.point(c));
      const std::int32_t n = nextCell_[static_cast<std::size_t>(c)];
      if (n < 0) break;
      nextCell_[static_cast<std::size_t>(c)] = -1;  // consume
      c = n;
    }

    wc.escapePath = path;
    wc.pin = pinAt_.at(path.back());
    // The anchor cell already belongs to the cluster; occupy the rest.
    obstacles_->occupy(std::span<const Point>(path.data() + 1, path.size() - 1),
                      wc.net);
  }

  return outcome;
}

EscapeOutcome escapeRouteSequential(const chip::Chip& chip,
                                    grid::ObstacleMap& obstacles,
                                    std::span<WorkCluster*> clusters) {
  trace::Span span("escape.sequential", "escape", trace::Level::kCluster);
  EscapeOutcome outcome;

  std::unordered_set<Point> takenPins;
  for (const WorkCluster* wc : clusters)
    if (wc->pin >= 0) takenPins.insert(chip.pin(wc->pin).pos);
  std::unordered_map<Point, chip::PinId> pinAt;
  for (const chip::ControlPin& pin : chip.pins) pinAt.emplace(pin.pos, pin.id);

  for (std::size_t i = 0; i < clusters.size(); ++i) {
    WorkCluster& wc = *clusters[i];
    if (!wc.internallyRouted || wc.pin >= 0) continue;
    ++outcome.requested;

    route::AStarRequest req;
    req.sources = wc.tapCells;
    for (const chip::ControlPin& pin : chip.pins)
      if (!takenPins.contains(pin.pos) && obstacles.isFree(pin.pos))
        req.targets.push_back(pin.pos);
    req.net = wc.net;
    const auto found = route::aStarRoute(obstacles, req);
    if (!found.success) {
      outcome.failed.push_back(i);
      continue;
    }
    wc.escapePath = found.path;
    wc.pin = pinAt.at(found.path.back());
    takenPins.insert(found.path.back());
    obstacles.occupy(found.path, wc.net);
    ++outcome.routedCount;
    outcome.flowCost += route::pathLength(found.path);
  }
  return outcome;
}

}  // namespace pacor::core
