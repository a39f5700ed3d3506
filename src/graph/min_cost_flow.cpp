#include "graph/min_cost_flow.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

namespace pacor::graph {

MinCostFlow::MinCostFlow(std::size_t nodeCount)
    : nodes_(nodeCount, Node{0, 0, -1, 0, 0, 0}),
      nodeBits_(std::max<unsigned>(1, std::bit_width(nodeCount))) {}

void MinCostFlow::heapPush(std::vector<std::uint64_t>& heap, std::uint64_t key) {
  std::size_t i = heap.size();
  heap.push_back(key);
  while (i > 0) {
    const std::size_t p = (i - 1) >> 2;
    if (heap[p] <= key) break;
    heap[i] = heap[p];
    i = p;
  }
  heap[i] = key;
}

std::uint64_t MinCostFlow::heapPop(std::vector<std::uint64_t>& heap) {
  const std::uint64_t top = heap.front();
  const std::uint64_t last = heap.back();
  heap.pop_back();
  const std::size_t n = heap.size();
  if (n > 0) {
    std::size_t i = 0;
    for (;;) {
      const std::size_t c = 4 * i + 1;
      if (c >= n) break;
      std::size_t m = c;
      const std::size_t hi = std::min(c + 4, n);
      for (std::size_t j = c + 1; j < hi; ++j)
        if (heap[j] < heap[m]) m = j;
      if (last <= heap[m]) break;
      heap[i] = heap[m];
      i = m;
    }
    heap[i] = last;
  }
  return top;
}

void MinCostFlow::bmInsert(std::size_t v) {
  const std::size_t w0 = v >> 6;
  const std::uint64_t bit = std::uint64_t{1} << (v & 63);
  if ((bmL0_[w0] & bit) != 0) return;  // idempotent: dedups same-distance pushes
  bmL0_[w0] |= bit;
  bmL1_[w0 >> 6] |= std::uint64_t{1} << (w0 & 63);
  bmL2_[w0 >> 12] |= std::uint64_t{1} << ((w0 >> 6) & 63);
  ++bmCount_;
}

std::size_t MinCostFlow::bmPopMin() {
  std::size_t w2 = 0;
  while (bmL2_[w2] == 0) ++w2;
  const std::size_t w1 =
      (w2 << 6) + static_cast<std::size_t>(std::countr_zero(bmL2_[w2]));
  const std::size_t w0 =
      (w1 << 6) + static_cast<std::size_t>(std::countr_zero(bmL1_[w1]));
  const std::size_t v =
      (w0 << 6) + static_cast<std::size_t>(std::countr_zero(bmL0_[w0]));
  bmL0_[w0] &= bmL0_[w0] - 1;
  if (bmL0_[w0] == 0) {
    bmL1_[w1] &= ~(std::uint64_t{1} << (w0 & 63));
    if (bmL1_[w1] == 0) bmL2_[w2] &= ~(std::uint64_t{1} << (w1 & 63));
  }
  --bmCount_;
  return v;
}

void MinCostFlow::bmClearAll() {
  for (std::size_t w2 = 0; w2 < bmL2_.size(); ++w2) {
    std::uint64_t m2 = bmL2_[w2];
    while (m2 != 0) {
      const std::size_t w1 =
          (w2 << 6) + static_cast<std::size_t>(std::countr_zero(m2));
      std::uint64_t m1 = bmL1_[w1];
      while (m1 != 0) {
        bmL0_[(w1 << 6) + static_cast<std::size_t>(std::countr_zero(m1))] = 0;
        m1 &= m1 - 1;
      }
      bmL1_[w1] = 0;
      m2 &= m2 - 1;
    }
    bmL2_[w2] = 0;
  }
  bmCount_ = 0;
}

std::size_t MinCostFlow::addEdge(std::size_t u, std::size_t v, std::int64_t capacity,
                                 std::int64_t cost) {
  assert(u < nodes_.size() && v < nodes_.size());
  assert(capacity >= 0 && cost >= 0);
  assert(cost <= std::numeric_limits<std::int32_t>::max());
  const std::size_t id = baseCap_.size();
  arcFrom_.push_back(static_cast<std::int32_t>(u));
  arcTo_.push_back(static_cast<std::int32_t>(v));
  arcCap_.push_back(capacity);
  arcCost_.push_back(cost);
  arcFrom_.push_back(static_cast<std::int32_t>(v));
  arcTo_.push_back(static_cast<std::int32_t>(u));
  arcCap_.push_back(0);
  arcCost_.push_back(-cost);
  baseCap_.push_back(capacity);
  if (csrBuilt_) {
    assert(atZeroFlow() && "overlay edges are zero-flow edits");
    linkOverlayArc(2 * id);
    linkOverlayArc(2 * id + 1);
  }
  return id;
}

void MinCostFlow::linkOverlayArc(std::size_t arcId) {
  if (ovHead_.empty()) {
    ovHead_.assign(nodes_.size(), -1);
    ovTail_.assign(nodes_.size(), -1);
  }
  const std::size_t j = arcId - builtArcs_;
  if (ovNext_.size() <= j) {
    ovNext_.resize(j + 1);
    ovPrev_.resize(j + 1);
  }
  const auto u = static_cast<std::size_t>(arcFrom_[arcId]);
  // Sticky "may have overlay arcs" marker in the node's own (hot, already
  // loaded) record: the Dijkstra settle loop reads it instead of a random
  // ovHead_ lookup per settle. Conservative -- truncateEdges leaves it set,
  // and a stale marker just re-checks ovHead_ once.
  nodes_[u].pad |= 1;
  ovNext_[j] = -1;
  ovPrev_[j] = ovTail_[u];
  if (ovTail_[u] == -1)
    ovHead_[u] = static_cast<std::int32_t>(arcId);
  else
    ovNext_[static_cast<std::size_t>(ovTail_[u]) - builtArcs_] =
        static_cast<std::int32_t>(arcId);
  ovTail_[u] = static_cast<std::int32_t>(arcId);
}

std::int64_t MinCostFlow::capOfArc(std::size_t arcId) const {
  // Caps move into csrArc_ once the CSR exists; overlay arcs (and all arcs
  // before the build) keep theirs in arcCap_.
  return csrBuilt_ && arcId < builtArcs_
             ? csrArc_[static_cast<std::size_t>(arcPos_[arcId])].cap
             : arcCap_[arcId];
}

void MinCostFlow::setArcResidual(std::size_t arcId, std::int64_t cap) {
  if (csrBuilt_ && arcId < builtArcs_)
    csrArc_[static_cast<std::size_t>(arcPos_[arcId])].cap = cap;
  else
    arcCap_[arcId] = cap;
}

std::int64_t MinCostFlow::zeroFlowCap(std::size_t arcId) const {
  if (arcEndpointDisabled(arcId)) return 0;
  return (arcId & 1) != 0 ? 0 : baseCap_[arcId >> 1];
}

void MinCostFlow::ensureCsr() {
  if (csrBuilt_) return;
  csrBuilt_ = true;
  builtArcs_ = arcFrom_.size();

  const std::size_t n = nodes_.size();
  // Counting sort of arc ids by source node: per-node arcs end up in
  // increasing arc id = chronological order, the order the old adjacency
  // lists iterated in.
  csrStart_.assign(n + 1, 0);
  for (const std::int32_t u : arcFrom_) ++csrStart_[static_cast<std::size_t>(u) + 1];
  for (std::size_t u = 0; u < n; ++u) csrStart_[u + 1] += csrStart_[u];
  arcPos_.resize(builtArcs_);
  std::vector<std::size_t> fill(csrStart_.begin(), csrStart_.end() - 1);
  for (std::size_t a = 0; a < builtArcs_; ++a)
    arcPos_[a] = static_cast<std::int32_t>(fill[static_cast<std::size_t>(arcFrom_[a])]++);

  csrArc_.resize(builtArcs_);
  csrRev_.resize(builtArcs_);
  csrArcId_.resize(builtArcs_);
  for (std::size_t a = 0; a < builtArcs_; ++a) {
    const auto k = static_cast<std::size_t>(arcPos_[a]);
    csrArc_[k] = {arcCap_[a], arcTo_[a], static_cast<std::int32_t>(arcCost_[a])};
    csrRev_[k] = arcPos_[a ^ 1];
    csrArcId_[k] = static_cast<std::int32_t>(a);
  }

  for (Node& node : nodes_) node.distStamp = node.doneStamp = 0;
  epoch_ = 0;
}

namespace {

/// Visits every arc out of `node` in scan order (CSR arcs, then overlay
/// chain); stops early when `fn` returns true.
template <typename Fn>
void forEachArcFromImpl(const std::vector<std::size_t>& csrStart,
                        const std::vector<std::int32_t>& csrArcId, bool csrBuilt,
                        const std::vector<std::int32_t>& ovHead,
                        const std::vector<std::int32_t>& ovNext,
                        std::size_t builtArcs, std::size_t node, Fn&& fn) {
  if (csrBuilt) {
    const std::size_t end = csrStart[node + 1];
    for (std::size_t k = csrStart[node]; k < end; ++k)
      if (fn(static_cast<std::size_t>(csrArcId[k]))) return;
  }
  if (!ovHead.empty()) {
    for (std::int32_t a = ovHead[node]; a != -1;
         a = ovNext[static_cast<std::size_t>(a) - builtArcs])
      if (fn(static_cast<std::size_t>(a))) return;
  }
}

}  // namespace

// Topology edits below run only at zero flow, where every potential is
// zero: a changed capacity then cannot expose a negative reduced cost,
// and no flow has to be cancelled or rerouted around the edit.

void MinCostFlow::setCapacity(std::size_t edgeId, std::int64_t capacity) {
  assert(edgeId < baseCap_.size());
  assert(capacity >= 0);
  assert(atZeroFlow() && "setCapacity is a zero-flow edit");
  ensureCsr();
  baseCap_[edgeId] = capacity;
  if (!arcEndpointDisabled(2 * edgeId)) setArcResidual(2 * edgeId, capacity);
}

void MinCostFlow::disableNode(std::size_t node) {
  assert(node < nodes_.size());
  assert(atZeroFlow() && "disableNode is a zero-flow edit");
  ensureCsr();
  if (disabled_.empty()) disabled_.assign(nodes_.size(), 0);
  if (disabled_[node] != 0) return;
  disabled_[node] = 1;
  // Zero every incident arc: the node's own arcs plus their reverses cover
  // each incident edge exactly once.
  forEachArcFromImpl(csrStart_, csrArcId_, csrBuilt_, ovHead_, ovNext_, builtArcs_,
                     node, [&](std::size_t a) {
                       setArcResidual(a, 0);
                       setArcResidual(a ^ 1, 0);
                       return false;
                     });
}

void MinCostFlow::enableNode(std::size_t node) {
  assert(node < nodes_.size());
  assert(atZeroFlow() && "enableNode is a zero-flow edit");
  ensureCsr();
  if (disabled_.empty() || disabled_[node] == 0) return;
  disabled_[node] = 0;
  forEachArcFromImpl(csrStart_, csrArcId_, csrBuilt_, ovHead_, ovNext_, builtArcs_,
                     node, [&](std::size_t a) {
                       // Arcs to a still-disabled neighbor stay closed; the
                       // rest return to their zero-flow capacity.
                       if (!nodeDisabled(static_cast<std::size_t>(arcTo_[a]))) {
                         setArcResidual(a, zeroFlowCap(a));
                         setArcResidual(a ^ 1, zeroFlowCap(a ^ 1));
                       }
                       return false;
                     });
}

void MinCostFlow::resetFlow() {
  counters_.warmArcTouches += dirtyCsr_.size() + dirtyOv_.size();
  for (const std::int32_t k : dirtyCsr_)
    csrArc_[static_cast<std::size_t>(k)].cap =
        zeroFlowCap(static_cast<std::size_t>(csrArcId_[static_cast<std::size_t>(k)]));
  for (const std::int32_t a : dirtyOv_)
    arcCap_[static_cast<std::size_t>(a)] = zeroFlowCap(static_cast<std::size_t>(a));
  dirtyCsr_.clear();
  dirtyOv_.clear();
  for (Node& node : nodes_) node.potential = 0;
  flowUnits_ = 0;
}

void MinCostFlow::truncateEdges(std::size_t edgeCount) {
  assert(edgeCount <= baseCap_.size());
  const std::size_t keepArcs = 2 * edgeCount;
  if (csrBuilt_) {
    assert(keepArcs >= builtArcs_ && "only overlay edges can be truncated");
    assert(atZeroFlow() && "truncateEdges is a zero-flow edit");
    for (std::size_t a = arcFrom_.size(); a > keepArcs;) {
      --a;
      // Dropping the suffix in reverse insertion order means each dropped
      // arc is currently the tail of its node's overlay chain.
      const auto u = static_cast<std::size_t>(arcFrom_[a]);
      const std::size_t j = a - builtArcs_;
      assert(ovTail_[u] == static_cast<std::int32_t>(a));
      const std::int32_t prev = ovPrev_[j];
      ovTail_[u] = prev;
      if (prev == -1)
        ovHead_[u] = -1;
      else
        ovNext_[static_cast<std::size_t>(prev) - builtArcs_] = -1;
    }
    ovNext_.resize(keepArcs - builtArcs_);
    ovPrev_.resize(keepArcs - builtArcs_);
  }
  arcFrom_.resize(keepArcs);
  arcTo_.resize(keepArcs);
  arcCap_.resize(keepArcs);
  arcCost_.resize(keepArcs);
  baseCap_.resize(edgeCount);
}

std::int64_t MinCostFlow::remainingSinkCapacity(std::size_t t) const {
  // Residual capacity of every arc INTO t = the partners of t's outgoing
  // arcs (arcs come in 2e/2e+1 pairs). Every augmenting path is simple
  // and ends on one such arc, so each routed unit consumes exactly one
  // unit of this sum: zero remaining capacity proves no augmenting path
  // exists, making the skip exactly equivalent to running a failing pass.
  std::int64_t cap = 0;
  forEachArcFromImpl(csrStart_, csrArcId_, csrBuilt_, ovHead_, ovNext_, builtArcs_,
                     t, [&](std::size_t a) {
                       cap += capOfArc(a ^ 1);
                       return false;
                     });
  return cap;
}

MinCostFlow::Result MinCostFlow::run(std::size_t s, std::size_t t,
                                     std::int64_t maxFlow) {
  ensureCsr();
  Result result;

  // Lazy queue storage. Bucket array is distance-indexed (bucketSpan_
  // slots); the bitmap covers node ids and represents the ACTIVE bucket.
  if (useBucketQueue_) {
    if (buckets_.size() < static_cast<std::size_t>(bucketSpan_))
      buckets_.resize(static_cast<std::size_t>(bucketSpan_));
    const std::size_t words = (nodes_.size() + 63) / 64;
    if (bmL0_.size() < words) {
      bmL0_.assign(words, 0);
      bmL1_.assign((words + 63) / 64, 0);
      bmL2_.assign((bmL1_.size() + 63) / 64, 0);
      bmCount_ = 0;
    }
  }
  const std::uint64_t nodeMask = (std::uint64_t{1} << nodeBits_) - 1;

  // Effort tallies live in registers inside the hot loop and flush to
  // counters_ once per run().
  std::uint64_t nBucketPushes = 0, nHeapPushes = 0, nQueuePops = 0, nSettles = 0;

  // Push/pop over the combined Dial-bucket + overflow-heap queue. The
  // pop sequence reproduces the packed-heap comparator order exactly:
  //   - every bucketed dist is < bucketSpan_ <= every heap dist, so the
  //     heap drains strictly after the buckets;
  //   - buckets drain in increasing dist (activeDist_ is monotone within
  //     a pass) and the active bucket's bitmap pops in node-id order,
  //     matching the (dist << nodeBits_) | node key order;
  //   - stale queue entries (node improved after an earlier push) pop at
  //     their original dist and are skipped by doneStamp, as in the heap.
  // Same-dist pushes during settling (the zero-reduced-cost plateau the
  // sink cut exists for) are O(1) bit-sets instead of heap sift-ups.
  const auto queuePush = [&](std::int64_t nd, std::size_t v) {
    if (useBucketQueue_ && nd < bucketSpan_) {
      ++nBucketPushes;
      if (nd == activeDist_) {
        bmInsert(v);
      } else {
        auto& bucket = buckets_[static_cast<std::size_t>(nd)];
        if (bucket.empty()) usedBuckets_.push_back(static_cast<std::int32_t>(nd));
        bucket.push_back(static_cast<std::int32_t>(v));
        if (nd > bucketHi_) bucketHi_ = nd;
      }
    } else {
      ++nHeapPushes;
      heapPush(heap_, (static_cast<std::uint64_t>(nd) << nodeBits_) |
                          static_cast<std::uint64_t>(v));
    }
  };
  const auto queuePop = [&](std::size_t& u, std::int64_t& d) -> bool {
    if (useBucketQueue_) {
      if (bmCount_ != 0) {
        u = bmPopMin();
        d = activeDist_;
        ++nQueuePops;
        return true;
      }
      // Advance the cursor to the next non-empty bucket and promote it to
      // the bitmap. The scan segments are disjoint across a pass
      // (activeDist_ only grows), so the total scan cost is O(bucketSpan_)
      // per pass, dominated by the relaxation work.
      while (activeDist_ < bucketHi_) {
        ++activeDist_;
        auto& bucket = buckets_[static_cast<std::size_t>(activeDist_)];
        if (bucket.empty()) continue;
        for (const std::int32_t x : bucket) bmInsert(static_cast<std::size_t>(x));
        bucket.clear();
        u = bmPopMin();
        d = activeDist_;
        ++nQueuePops;
        return true;
      }
    }
    if (heap_.empty()) return false;
    const std::uint64_t top = heapPop(heap_);
    u = static_cast<std::size_t>(top & nodeMask);
    d = static_cast<std::int64_t>(top >> nodeBits_);
    ++nQueuePops;
    return true;
  };

  // Remaining residual capacity into the sink bounds every future
  // augmentation one-for-one, so hitting zero proves the next Dijkstra
  // pass would fail -- skip it. The skipped pass has no observable
  // effect (a failing pass never updates potentials), so default-mode
  // output is unchanged.
  std::int64_t sinkCap = s != t ? remainingSinkCapacity(t)
                                : std::numeric_limits<std::int64_t>::max();

  while (result.flow < maxFlow) {
    if (sinkCap <= 0) {
      ++counters_.earlyExits;
      break;
    }
    // Dijkstra on reduced costs. "Clearing" dist/done is an epoch bump;
    // unlabeled == stamp mismatch.
    if (epoch_ == std::numeric_limits<std::uint32_t>::max()) {
      for (Node& node : nodes_) node.distStamp = node.doneStamp = 0;
      epoch_ = 0;
    }
    ++epoch_;
    ++counters_.dijkstraPasses;
    heap_.clear();
    settled_.clear();
    const std::size_t dbWords = (nodes_.size() + 63) / 64;
    if (doneBits_.size() < dbWords) doneBits_.resize(dbWords);
    std::fill_n(doneBits_.begin(), dbWords, 0);
    if (useBucketQueue_) {
      // A sink cut can abandon queued entries; clearing touches only the
      // buckets and bitmap words actually used last pass.
      if (bmCount_ != 0) bmClearAll();
      for (const std::int32_t b : usedBuckets_)
        buckets_[static_cast<std::size_t>(b)].clear();
      usedBuckets_.clear();
      activeDist_ = 0;
      bucketHi_ = -1;
    }
    nodes_[s].dist = 0;
    nodes_[s].prevArc = -1;
    nodes_[s].distStamp = epoch_;
    queuePush(0, s);
    // Once the sink is labeled at B, an entry pushed with key > B can
    // never settle: pops are monotone and the sink cut fires at the first
    // pop with d >= sink.dist <= B. Skipping those pushes (the label
    // write still happens, so later comparisons are unchanged) prunes the
    // plateau boundary without touching the settle sequence. Strictly
    // greater only -- entries AT the bound (the sink's own included) must
    // stay queued so the cut always fires.
    std::int64_t sinkBound = std::numeric_limits<std::int64_t>::max();
    bool reachedSink = false;
    std::int64_t sinkDist = 0;
    std::size_t u = 0;
    std::int64_t d = 0;
    while (queuePop(u, d)) {
      // Sink cut: once the sink's label equals the queue minimum, no
      // strict improvement at or below that key is possible (arc costs
      // are non-negative), so the sink's predecessor chain is already
      // final -- settling the remaining equal-key nodes first, as a
      // (distance, node-id) queue would, cannot change the augmenting
      // path or any label below the sink distance. Stopping here skips
      // the zero-reduced-cost plateau that Johnson potentials create
      // around the previous shortest-path tree. Checking after the pop
      // is equivalent to checking against the queue front: the popped
      // key IS the front, and the consumed entry would be discarded at
      // the next pass reset anyway.
      if (nodes_[t].distStamp == epoch_ && nodes_[t].dist <= d) {
        reachedSink = true;
        sinkDist = nodes_[t].dist;
        break;
      }
      if ((doneBits_[u >> 6] >> (u & 63)) & 1) continue;
      doneBits_[u >> 6] |= std::uint64_t{1} << (u & 63);
      nodes_[u].doneStamp = epoch_;
      settled_.push_back(static_cast<std::int32_t>(u));
      ++nSettles;
      const std::int64_t potU = nodes_[u].potential;
      const std::size_t end = csrStart_[u + 1];
      for (std::size_t k = csrStart_[u]; k < end; ++k) {
        const CsrArc& arc = csrArc_[k];
        // The relax loop is bound by the random Node load below; hide it
        // behind the current iteration by prefetching the next arc's head.
        // Zero-cap arcs (unused reverse residuals, about half the CSR) are
        // skipped below and not worth the prefetch bandwidth.
        if (k + 1 < end && csrArc_[k + 1].cap > 0)
          __builtin_prefetch(&nodes_[static_cast<std::size_t>(csrArc_[k + 1].to)]);
        if (arc.cap <= 0) continue;
        const auto v = static_cast<std::size_t>(arc.to);
        if ((doneBits_[v >> 6] >> (v & 63)) & 1) continue;
        Node& node = nodes_[v];
        const std::int64_t nd = d + arc.cost + potU - node.potential;
        assert(nd >= d && "reduced cost must be non-negative");
        if (node.distStamp != epoch_ || nd < node.dist) {
          node.dist = nd;
          node.prevArc = static_cast<std::int32_t>(k);
          node.distStamp = epoch_;
          if (v == t) sinkBound = nd;
          if (nd <= sinkBound) queuePush(nd, v);
        }
      }
      // Overlay arcs (added after the CSR build) scan after the node's CSR
      // arcs -- exactly their per-node insertion-order position, so the
      // relaxation sequence matches a solver handed these arcs up front.
      // Gated on the node-local marker so overlay-free nodes (almost all
      // of them) skip the ovHead_ load entirely.
      if ((nodes_[u].pad & 1) != 0) {
        for (std::int32_t oa = ovHead_[u]; oa != -1;
             oa = ovNext_[static_cast<std::size_t>(oa) - builtArcs_]) {
          const auto a = static_cast<std::size_t>(oa);
          if (arcCap_[a] <= 0) continue;
          const auto v = static_cast<std::size_t>(arcTo_[a]);
          if ((doneBits_[v >> 6] >> (v & 63)) & 1) continue;
          Node& node = nodes_[v];
          const std::int64_t nd = d + arcCost_[a] + potU - node.potential;
          assert(nd >= d && "reduced cost must be non-negative");
          if (node.distStamp != epoch_ || nd < node.dist) {
            node.dist = nd;
            node.prevArc = -static_cast<std::int32_t>(a) - 2;
            node.distStamp = epoch_;
            if (v == t) sinkBound = nd;
            if (nd <= sinkBound) queuePush(nd, v);
          }
        }
      }
    }
    if (!reachedSink) break;  // no augmenting path

    // Potential update with early termination: every node whose true
    // distance is below dist[t] is settled (pops are monotone), so
    // clamping all other labels -- including unlabeled nodes -- to
    // dist[t] keeps every residual reduced cost non-negative. The clamped
    // update adds dist[t] uniformly to every node; a uniform shift cancels
    // out of every reduced cost (only potential differences are ever
    // read), so it can be dropped entirely. What remains is the relative
    // correction dist[v] - dist[t] on settled nodes -- any labeled-but-
    // unsettled node has dist >= dist[t] once the sink cut fires, hence
    // zero correction.
    // sinkDist == 0 means every settled label is 0 too (pops are
    // monotone), making the correction below a no-op -- skip the sweep.
    // Otherwise settled_ is in pop order, so labels are non-decreasing:
    // stop at the first dist >= sinkDist instead of scanning the rest.
    if (sinkDist > 0) {
      for (const std::int32_t v : settled_) {
        Node& node = nodes_[static_cast<std::size_t>(v)];
        if (node.dist >= sinkDist) break;
        node.potential += node.dist - sinkDist;
      }
    }
    settled_.clear();

    // Bottleneck along the path. prevArc holds CSR positions (>= 0, tail
    // reachable via the reverse arc) or overlay arc ids encoded as
    // -(arc + 2) (tail stored directly in the ingest arrays).
    std::int64_t push = maxFlow - result.flow;
    for (std::size_t v = t; v != s;) {
      const std::int32_t code = nodes_[v].prevArc;
      if (code >= 0) {
        const auto k = static_cast<std::size_t>(code);
        push = std::min(push, csrArc_[k].cap);
        v = static_cast<std::size_t>(csrArc_[static_cast<std::size_t>(csrRev_[k])].to);
      } else {
        const auto a = static_cast<std::size_t>(-code - 2);
        push = std::min(push, arcCap_[a]);
        v = static_cast<std::size_t>(arcFrom_[a]);
      }
    }
    for (std::size_t v = t; v != s;) {
      const std::int32_t code = nodes_[v].prevArc;
      if (code >= 0) {
        const auto k = static_cast<std::size_t>(code);
        const auto r = static_cast<std::size_t>(csrRev_[k]);
        csrArc_[k].cap -= push;
        csrArc_[r].cap += push;
        result.cost += push * csrArc_[k].cost;
        dirtyCsr_.push_back(code);
        dirtyCsr_.push_back(csrRev_[k]);
        v = static_cast<std::size_t>(csrArc_[r].to);
      } else {
        const auto a = static_cast<std::size_t>(-code - 2);
        arcCap_[a] -= push;
        arcCap_[a ^ 1] += push;
        result.cost += push * arcCost_[a];
        dirtyOv_.push_back(static_cast<std::int32_t>(a));
        dirtyOv_.push_back(static_cast<std::int32_t>(a ^ 1));
        v = static_cast<std::size_t>(arcFrom_[a]);
      }
    }
    ++counters_.augmentations;
    result.flow += push;
    flowUnits_ += push;
    sinkCap -= push;
  }
  counters_.bucketPushes += nBucketPushes;
  counters_.heapPushes += nHeapPushes;
  counters_.queuePops += nQueuePops;
  counters_.settles += nSettles;
  return result;
}

std::int64_t MinCostFlow::flowOn(std::size_t edgeId) const {
  if (!disabled_.empty() && arcEndpointDisabled(2 * edgeId)) return 0;
  return baseCap_[edgeId] - capOfArc(2 * edgeId);
}

std::int64_t MinCostFlow::residual(std::size_t edgeId) const {
  return capOfArc(2 * edgeId);
}

}  // namespace pacor::graph
