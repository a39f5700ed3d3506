#pragma once

// Multi-round escape-session differential, shared by incremental_flow_test
// and pacor_fuzz property (d). One EscapeFlowSession serves every escape
// round of a routeChip call by editing its persistent network in place;
// the property is that a warm round is invisible: after each warm
// route(), the pins, escape paths, (routed, cost) optimum and committed
// occupancy equal those of a fresh session built on a copy of the same
// obstacle map and clusters. Between rounds a seeded editor applies the
// same kinds of change the pipeline's rip-up loop and an ECO request make:
// escape rip-ups, obstacle adds, plain-cluster splits and tap widening.

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "chip/chip.hpp"
#include "pacor/cluster_routing.hpp"
#include "pacor/clustering.hpp"
#include "pacor/escape.hpp"
#include "pacor/mst_routing.hpp"
#include "pacor/pipeline.hpp"

namespace pacor::escapecheck {

/// Clusters and occupancy as the pipeline hands them to its escape stage:
/// clustering, length-matching routing and MST routing (stages 1-3).
struct PreEscapeState {
  grid::ObstacleMap obstacles;
  std::vector<core::WorkCluster> clusters;
  grid::NetId nextNet = 0;
};

inline PreEscapeState prepareEscape(const chip::Chip& chip) {
  PreEscapeState st{core::makeRoutingObstacleTemplate(chip), {}, 0};
  for (core::ClusterSpec& spec : core::clusterValves(chip)) {
    core::WorkCluster wc;
    wc.spec = std::move(spec);
    wc.net = st.nextNet++;
    for (const chip::ValveId v : wc.spec.valves) {
      const geom::Point cell = chip.valve(v).pos;
      st.obstacles.occupy(std::span<const geom::Point>(&cell, 1), wc.net);
    }
    st.clusters.push_back(std::move(wc));
  }
  std::vector<core::WorkCluster*> lm;
  for (core::WorkCluster& wc : st.clusters)
    if (wc.wantsMatching() && wc.spec.valves.size() >= 2) lm.push_back(&wc);
  core::routeLengthMatchingClusters(chip, core::pacorDefaultConfig(), st.obstacles, lm);
  st.clusters = core::routeClustersStage(chip, st.obstacles, std::move(st.clusters),
                                         [&st] { return st.nextNet++; });
  return st;
}

inline std::vector<core::WorkCluster*> pointersTo(std::vector<core::WorkCluster>& clusters) {
  std::vector<core::WorkCluster*> ptrs;
  for (core::WorkCluster& wc : clusters) ptrs.push_back(&wc);
  return ptrs;
}

/// First difference between a warm and a fresh escape round; empty when
/// they agree byte for byte.
inline std::string diffRounds(const core::EscapeOutcome& warm,
                              const core::EscapeOutcome& fresh,
                              const std::vector<core::WorkCluster>& warmClusters,
                              const std::vector<core::WorkCluster>& freshClusters,
                              const grid::ObstacleMap& warmObs,
                              const grid::ObstacleMap& freshObs) {
  if (warm.requested != fresh.requested || warm.routedCount != fresh.routedCount ||
      warm.flowCost != fresh.flowCost || warm.failed != fresh.failed)
    return "outcome (requested, routed, cost, failed) differs: routed " +
           std::to_string(warm.routedCount) + " vs " + std::to_string(fresh.routedCount) +
           ", cost " + std::to_string(warm.flowCost) + " vs " +
           std::to_string(fresh.flowCost);
  for (std::size_t i = 0; i < warmClusters.size(); ++i) {
    if (warmClusters[i].pin != freshClusters[i].pin)
      return "cluster " + std::to_string(i) + " pin differs";
    if (warmClusters[i].escapePath != freshClusters[i].escapePath)
      return "cluster " + std::to_string(i) + " escape path differs";
  }
  const grid::Grid& g = warmObs.grid();
  for (std::int32_t c = 0; c < g.cellCount(); ++c)
    if (warmObs.owner(g.point(c)) != freshObs.owner(g.point(c)))
      return "occupancy differs at cell " + std::to_string(c);
  return {};
}

/// One seeded edit between rounds. Every edit first rips up some escapes
/// (as the rip-up loop does), so the next round has demand to route.
inline void editBetweenRounds(const chip::Chip& chip, PreEscapeState& st,
                              std::mt19937& rng) {
  const bool ripAll = rng() % 2 == 0;
  for (core::WorkCluster& wc : st.clusters) {
    if (wc.pin < 0 || (!ripAll && rng() % 3 != 0)) continue;
    if (wc.escapePath.size() > 1)
      st.obstacles.releasePath(std::span<const geom::Point>(wc.escapePath.data() + 1,
                                                            wc.escapePath.size() - 1),
                               wc.net);
    wc.escapePath.clear();
    wc.pin = -1;
  }

  const grid::Grid& g = st.obstacles.grid();
  switch (rng() % 3) {
    case 0: {  // obstacle adds on free interior cells
      std::unordered_set<geom::Point> pinCells;
      for (const chip::ControlPin& pin : chip.pins) pinCells.insert(pin.pos);
      for (int k = 0, tries = 0; k < 8 && tries < 1000; ++tries) {
        const geom::Point p = g.point(static_cast<std::int32_t>(
            rng() % static_cast<std::uint32_t>(g.cellCount())));
        if (!st.obstacles.isFree(p) || pinCells.contains(p)) continue;
        st.obstacles.addObstacle(p);
        ++k;
      }
      break;
    }
    case 1: {  // split a plain multi-valve cluster in two
      std::vector<std::size_t> plain;
      for (std::size_t i = 0; i < st.clusters.size(); ++i)
        if (!st.clusters[i].lmStructured && st.clusters[i].spec.valves.size() >= 2)
          plain.push_back(i);
      if (plain.empty()) break;
      const auto victim =
          st.clusters.begin() + static_cast<std::ptrdiff_t>(plain[rng() % plain.size()]);
      core::WorkCluster wc = std::move(*victim);
      st.clusters.erase(victim);
      st.obstacles.release(wc.net);
      const std::size_t half = wc.spec.valves.size() / 2;
      for (int part = 0; part < 2; ++part) {
        core::WorkCluster sub;
        const auto mid = wc.spec.valves.begin() + static_cast<std::ptrdiff_t>(half);
        sub.spec.valves.assign(part == 0 ? wc.spec.valves.begin() : mid,
                               part == 0 ? mid : wc.spec.valves.end());
        sub.net = st.nextNet++;
        for (const chip::ValveId v : sub.spec.valves) {
          const geom::Point cell = chip.valve(v).pos;
          st.obstacles.occupy(std::span<const geom::Point>(&cell, 1), sub.net);
        }
        for (core::WorkCluster& p : core::routeWithDeclustering(
                 chip, st.obstacles, std::move(sub), [&st] { return st.nextNet++; }))
          st.clusters.push_back(std::move(p));
      }
      break;
    }
    default: {  // widen a matched tree's tap to every tree cell
      std::vector<std::size_t> matched;
      for (std::size_t i = 0; i < st.clusters.size(); ++i)
        if (st.clusters[i].lmStructured && !st.clusters[i].wideTap &&
            !st.clusters[i].treePaths.empty())
          matched.push_back(i);
      if (matched.empty()) break;
      core::WorkCluster& wc = st.clusters[matched[rng() % matched.size()]];
      std::unordered_set<geom::Point> cells;
      for (const route::Path& p : wc.treePaths) cells.insert(p.begin(), p.end());
      wc.tapCells.assign(cells.begin(), cells.end());
      std::sort(wc.tapCells.begin(), wc.tapCells.end());
      wc.wideTap = true;
      break;
    }
  }
}

/// Runs `rounds` escape rounds of one warm session on `chip`, editing the
/// state between rounds, and checks each round against a fresh session.
/// Returns the first mismatch ("round N: ..."), or empty when every round
/// agreed. `warmRounds` receives the number of rounds the session served
/// warm.
inline std::string checkSessionRounds(const chip::Chip& chip, std::uint32_t seed,
                                      int rounds, int* warmRounds = nullptr) {
  std::mt19937 rng(seed);
  PreEscapeState st = prepareEscape(chip);
  core::EscapeFlowSession session(chip, st.obstacles);
  for (int round = 0; round < rounds; ++round) {
    grid::ObstacleMap freshObs = st.obstacles;
    std::vector<core::WorkCluster> freshClusters = st.clusters;

    auto warmPtrs = pointersTo(st.clusters);
    const core::EscapeOutcome warm = session.route(warmPtrs);
    auto freshPtrs = pointersTo(freshClusters);
    const core::EscapeOutcome fresh =
        core::EscapeFlowSession(chip, freshObs).route(freshPtrs);

    if (const std::string d = diffRounds(warm, fresh, st.clusters, freshClusters,
                                         st.obstacles, freshObs);
        !d.empty())
      return "round " + std::to_string(round) + ": " + d;
    editBetweenRounds(chip, st, rng);
  }
  if (warmRounds != nullptr) *warmRounds = session.stats().warmRounds;
  return {};
}

}  // namespace pacor::escapecheck
