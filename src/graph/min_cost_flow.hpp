#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace pacor::graph {

/// Successive-shortest-path min-cost max-flow with Dijkstra + Johnson
/// potentials. Integral capacities and non-negative costs.
///
/// This replaces the paper's Gurobi LP for the escape-routing formulation
/// (Sec. 5): the constraint matrix there is a network-flow matrix, hence
/// totally unimodular, so the LP optimum is attained at an integral
/// vertex — which is exactly what this solver computes. Maximizing the
/// routed-path count with the beta-dominant reward term is equivalent to
/// the lexicographic (max flow, then min cost) objective realized by
/// min-cost *max*-flow.
///
/// Layout is chosen for the Dijkstra inner loop: arcs live in CSR order
/// (to / cost / cap arrays indexed by CSR position, reverse arc reachable
/// through a position xref), and all per-node search state shares one
/// 32-byte record so relaxing a neighbor touches a single cache line.
/// That state is generation-stamped instead of refilled, so one
/// augmentation costs O(heap work + path length), not O(nodes). The pop
/// sequence of the Dijkstra heap is the comparator-determined order over
/// (distance, node) pairs — distance ties break toward the smaller node
/// id — so results are identical to the original adjacency-list
/// implementation, augmenting path for augmenting path.
///
/// ## Mutable-solver API (incremental sessions)
///
/// Beyond the classic build-once/run-once usage, the solver is a mutable
/// object that one escape session reuses across rip-up rounds:
///
///  * The CSR is built exactly once (at the first run or mutation). Edges
///    added afterwards land in a small *overlay* adjacency that is scanned
///    after a node's CSR arcs -- which is exactly the position they would
///    occupy under per-node insertion order, so a solver that received the
///    same edges pre-build relaxes arcs in the same sequence and computes
///    the same flow, augmenting path for augmenting path.
///  * resetFlow() returns the network to its zero-flow state in
///    O(arcs touched by augmentation), not O(arcs), via a dirty list, and
///    clears the Johnson potentials.
///  * Topology edits -- setCapacity, disableNode, enableNode, and adding
///    overlay edges -- are *zero-flow edits*: legal before the first run()
///    or after resetFlow(), and asserted. At zero flow every potential is
///    zero and every arc cost is non-negative, so an edit can never leave a
///    negative reduced cost behind and the potentials need no repair. A
///    re-solve from that state reproduces a cold solver's augmentation
///    sequence bit-for-bit, which keeps session results byte-identical to
///    a freshly built network.
///  * truncateEdges drops a suffix of overlay edges (the per-round arcs of
///    a session), also at zero flow.
///
/// ## Open list: Dial buckets with a heap fallback
///
/// Reduced costs under Johnson potentials are small non-negative integers
/// on the escape networks (unit grid steps plus bounded tap biases), so
/// the default open list is a Dial/bucket queue: labels below the bucket
/// span (setBucketSpan; callers size it from the grid diameter) go to
/// per-distance buckets, and the *active* bucket is drained through
/// a three-level bitmap over node ids, so the frequent case — a zero-
/// reduced-cost plateau flooding one bucket — pops in O(1) word scans
/// instead of heap sifts. Labels at or beyond the span overflow into
/// the packed 4-ary heap and drain strictly after every bucket (all
/// bucket distances are smaller), so the settle sequence is *exactly* the
/// lexicographic (distance, node) order of the pure-heap implementation,
/// stale entries included: default-mode results stay bit-identical, and
/// setBucketQueue(false) selects the pure heap for A/B tests and
/// benchmarks.
class MinCostFlow {
 public:
  explicit MinCostFlow(std::size_t nodeCount);

  std::size_t nodeCount() const noexcept { return nodes_.size(); }

  /// Number of edges added so far; edge ids are dense in [0, edgeCount()).
  std::size_t edgeCount() const noexcept { return baseCap_.size(); }

  /// Adds a directed edge u -> v. Returns an edge id usable with flowOn().
  /// Edges added after the first run/mutation go to the overlay (no CSR
  /// rebuild); they behave as if inserted at the same point pre-build.
  /// Adding an overlay edge is a zero-flow edit.
  std::size_t addEdge(std::size_t u, std::size_t v, std::int64_t capacity,
                      std::int64_t cost);

  struct Result {
    std::int64_t flow = 0;
    std::int64_t cost = 0;
  };

  /// Cumulative solver-effort counters across run() calls; the
  /// escape metrics (`escape.flow.*`) and bench_min_cost_flow read these.
  struct Counters {
    std::uint64_t dijkstraPasses = 0;  ///< label passes started
    std::uint64_t augmentations = 0;   ///< augmenting paths applied
    std::uint64_t bucketPushes = 0;    ///< open-list inserts into Dial buckets
    std::uint64_t heapPushes = 0;      ///< open-list inserts into the 4-ary heap
    std::uint64_t queuePops = 0;       ///< open-list pops, stale entries included
    std::uint64_t settles = 0;         ///< nodes settled across all passes
    std::uint64_t earlyExits = 0;      ///< passes skipped by the sink-capacity cut
    std::uint64_t warmArcTouches = 0;  ///< arcs repaired by resetFlow()
  };
  const Counters& counters() const noexcept { return counters_; }
  void resetCounters() noexcept { counters_ = {}; }

  /// Selects the open list: Dial buckets (default) or the pure packed
  /// heap. Both settle in the identical (distance, node) order; the knob
  /// exists for differential tests and the solver microbenchmark.
  void setBucketQueue(bool on) noexcept { useBucketQueue_ = on; }
  bool bucketQueue() const noexcept { return useBucketQueue_; }

  /// Bounds of the Dial bucket span (distance labels below the span go to
  /// buckets; at or above it, to the overflow heap). The floor keeps the
  /// bucket path meaningful, the ceiling bounds the bucket array itself.
  static constexpr std::int64_t kMinBucketSpan = std::int64_t{1} << 6;
  static constexpr std::int64_t kMaxBucketSpan = std::int64_t{1} << 20;
  static constexpr std::int64_t kDefaultBucketSpan = std::int64_t{1} << 14;

  /// Sets the Dial bucket span, clamped to [kMinBucketSpan,
  /// kMaxBucketSpan]. Any span yields the identical settle order (labels
  /// past the span overflow into the heap, which drains strictly after
  /// every bucket); the knob trades bucket-array memory against how much
  /// of the distance range enjoys O(1) pushes. Call between solves.
  void setBucketSpan(std::int64_t span) noexcept {
    bucketSpan_ = std::max(kMinBucketSpan, std::min(span, kMaxBucketSpan));
  }
  std::int64_t bucketSpan() const noexcept { return bucketSpan_; }

  /// Span recommendation covering distance labels up to
  /// `maxExpectedDistance` (e.g. a few grid diameters for an escape
  /// network): the next power of two above it, clamped to the span
  /// bounds. Labels beyond the estimate still solve correctly via the
  /// overflow heap.
  static std::int64_t recommendedBucketSpan(std::int64_t maxExpectedDistance) noexcept {
    std::int64_t span = kMinBucketSpan;
    while (span <= maxExpectedDistance && span < kMaxBucketSpan) span <<= 1;
    return span;
  }

  /// Builds the CSR over the edges added so far (normally deferred to the
  /// first run or mutation). Every edge added afterwards goes to the
  /// overlay; a session calls this once after laying down its persistent
  /// network so truncateEdges() can drop per-round edges later.
  void freeze() { ensureCsr(); }

  /// Sends up to `maxFlow` units from s to t along successively cheapest
  /// augmenting paths. May be called repeatedly; flow accumulates.
  Result run(std::size_t s, std::size_t t,
             std::int64_t maxFlow = std::int64_t{1} << 60);

  /// Flow currently on edge `edgeId` (as returned by addEdge).
  std::int64_t flowOn(std::size_t edgeId) const;

  /// Residual capacity of edge `edgeId`.
  std::int64_t residual(std::size_t edgeId) const;

  /// Current base capacity of edge `edgeId` (as set by addEdge/setCapacity).
  std::int64_t capacityOf(std::size_t edgeId) const { return baseCap_[edgeId]; }

  /// Total s->t units currently routed in the network.
  std::int64_t totalFlowUnits() const noexcept { return flowUnits_; }

  /// Changes the capacity of `edgeId`. A zero-flow edit.
  void setCapacity(std::size_t edgeId, std::int64_t capacity);

  /// Disables `node`: zeroes the residual capacity of every incident arc,
  /// so no augmenting path can use it. Idempotent; a zero-flow edit.
  void disableNode(std::size_t node);

  /// Re-enables `node`: restores the base capacity of every incident arc
  /// whose other endpoint is not itself disabled. Idempotent; a zero-flow
  /// edit.
  void enableNode(std::size_t node);

  bool nodeDisabled(std::size_t node) const {
    return !disabled_.empty() && disabled_[node] != 0;
  }

  /// Returns the network to its zero-flow state and clears the Johnson
  /// potentials. Cost is proportional to the number of arcs the previous
  /// solves touched, not the size of the graph.
  void resetFlow();

  /// Drops every edge with id >= `edgeCount` (a suffix). The dropped
  /// edges must be overlay edges (added after the CSR build), and the
  /// network must be at zero flow (call resetFlow() first). This is how a
  /// session discards its per-round arcs while keeping the persistent
  /// network.
  void truncateEdges(std::size_t edgeCount);

  /// Visits every edge that currently carries flow, in O(arcs touched by
  /// augmentation) instead of O(edges): calls fn(edgeId, flow). An edge
  /// may be visited more than once (the dirty list is not deduplicated);
  /// callers must be idempotent per edge.
  template <typename Fn>
  void forEachPositiveFlowEdge(Fn&& fn) const {
    const auto visit = [&](std::size_t arcId) {
      if ((arcId & 1) != 0) return;  // forward arcs only
      const std::size_t e = arcId >> 1;
      const std::int64_t f = flowOn(e);
      if (f > 0) fn(e, f);
    };
    for (const std::int32_t k : dirtyCsr_)
      visit(static_cast<std::size_t>(csrArcId_[static_cast<std::size_t>(k)]));
    for (const std::int32_t a : dirtyOv_) visit(static_cast<std::size_t>(a));
  }

 private:
  void ensureCsr();
  std::int64_t capOfArc(std::size_t arcId) const;
  void setArcResidual(std::size_t arcId, std::int64_t cap);
  std::int64_t zeroFlowCap(std::size_t arcId) const;
  bool arcEndpointDisabled(std::size_t arcId) const {
    return nodeDisabled(static_cast<std::size_t>(arcFrom_[arcId])) ||
           nodeDisabled(static_cast<std::size_t>(arcTo_[arcId]));
  }
  std::int64_t remainingSinkCapacity(std::size_t t) const;
  /// True when no flow is routed and no arc deviates from its zero-flow
  /// residual: the only state in which topology edits are legal.
  bool atZeroFlow() const noexcept {
    return flowUnits_ == 0 && dirtyCsr_.empty() && dirtyOv_.empty();
  }

  // Edge ingest order; arc a = 2 * edge + (backward ? 1 : 0). arcCap_ is
  // authoritative for overlay arcs (and for all arcs until the CSR is
  // built); CSR arcs keep their live residual in csrArc_.
  std::vector<std::int32_t> arcFrom_;
  std::vector<std::int32_t> arcTo_;
  std::vector<std::int64_t> arcCap_;
  std::vector<std::int64_t> arcCost_;
  std::vector<std::int64_t> baseCap_;  ///< per edge; mutable via setCapacity

  // CSR adjacency: node u's arcs are CSR positions csrStart_[u] ..
  // csrStart_[u+1), in arc-id (= insertion) order. The Dijkstra-hot arc
  // fields share one 16-byte record so scanning a node's arcs is a single
  // stream; arc costs are capped at 32 bits (checked in addEdge).
  struct CsrArc {
    std::int64_t cap;  ///< residual capacity (mutable state)
    std::int32_t to;
    std::int32_t cost;
  };
  static_assert(sizeof(CsrArc) == 16);
  std::vector<std::size_t> csrStart_;
  std::vector<CsrArc> csrArc_;           ///< per CSR position
  std::vector<std::int32_t> csrRev_;     ///< CSR position of the reverse arc
  std::vector<std::int32_t> arcPos_;     ///< arc id -> CSR position
  std::vector<std::int32_t> csrArcId_;   ///< CSR position -> arc id
  std::size_t builtArcs_ = 0;
  bool csrBuilt_ = false;

  // Overlay adjacency for arcs added after the CSR build: doubly-linked
  // per-node chains in insertion order, scanned after a node's CSR arcs.
  // Indexed by (arcId - builtArcs_).
  std::vector<std::int32_t> ovNext_;
  std::vector<std::int32_t> ovPrev_;
  std::vector<std::int32_t> ovHead_;  ///< per node; lazily sized
  std::vector<std::int32_t> ovTail_;  ///< per node; lazily sized
  void linkOverlayArc(std::size_t arcId);

  // Per-node search state; dist/prevArc valid when distStamp == epoch_.
  // prevArc encodes a CSR position (>= 0) or an overlay arc id a as
  // -(a + 2); -1 is the no-predecessor sentinel.
  struct alignas(32) Node {
    std::int64_t dist;
    std::int64_t potential;
    std::int32_t prevArc;
    std::uint32_t distStamp;
    std::uint32_t doneStamp;
    std::uint32_t pad;
  };
  static_assert(sizeof(Node) == 32);  // over-aligned: never straddles cache lines
  std::vector<Node> nodes_;
  std::uint32_t epoch_ = 0;

  std::vector<std::uint8_t> disabled_;  ///< per node; lazily sized

  // Arcs whose residual diverged from the zero-flow value because of
  // augmentation; resetFlow() repairs exactly these. Entries may repeat
  // (restoration is idempotent).
  std::vector<std::int32_t> dirtyCsr_;  ///< CSR positions
  std::vector<std::int32_t> dirtyOv_;   ///< overlay arc ids
  std::int64_t flowUnits_ = 0;

  // Open list, heap part: a 4-ary heap of keys packed as
  // (distance << nodeBits_) | node. Packed comparison is exactly the
  // lexicographic (distance, node) order of a pair heap — distance ties
  // break toward the smaller node id — and any correct priority queue
  // pops the comparator minimum, so the settle sequence is independent of
  // heap arity and layout. In bucket mode the heap holds only the
  // overflow (distance >= kBucketSpan), which drains after every bucket.
  unsigned nodeBits_ = 1;
  std::vector<std::uint64_t> heap_;
  std::vector<std::int32_t> settled_;  ///< pop order, for the potential update
  /// Per-pass mirror of `doneStamp == epoch_`, one bit per node. The
  /// relax loop checks this 17-KB-per-134k-nodes bitset (L1/L2-resident)
  /// before touching the 32-byte Node record, so arcs into already-
  /// settled nodes -- roughly half of a grid pass's relaxations -- skip
  /// the random Node load entirely. Cleared at the start of every pass.
  std::vector<std::uint64_t> doneBits_;
  static void heapPush(std::vector<std::uint64_t>& heap, std::uint64_t key);
  static std::uint64_t heapPop(std::vector<std::uint64_t>& heap);

  // Open list, Dial part: per-distance buckets of node ids below
  // bucketSpan_. The bucket being drained ("active") lives in a
  // three-level bitmap over node ids, so pop-min is a handful of word
  // scans and inserting into the active distance (zero-reduced-cost
  // relaxations) is three bit-sets. Future distances append to plain
  // vectors; usedBuckets_ lets a pass that ends on the sink cut clear
  // only what it touched.
  std::int64_t bucketSpan_ = kDefaultBucketSpan;
  bool useBucketQueue_ = true;
  std::vector<std::vector<std::int32_t>> buckets_;
  std::vector<std::int32_t> usedBuckets_;
  std::int64_t activeDist_ = 0;  ///< distance held by the bitmap
  std::int64_t bucketHi_ = -1;   ///< highest non-empty future bucket
  std::vector<std::uint64_t> bmL0_, bmL1_, bmL2_;
  std::size_t bmCount_ = 0;
  void bmInsert(std::size_t v);
  std::size_t bmPopMin();
  void bmClearAll();

  Counters counters_;
};

}  // namespace pacor::graph
