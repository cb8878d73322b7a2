// Throughput-mode multi-query engines: K concurrent time queries over one
// graph, relaxed through a shared function-grouped frontier
// (docs/architecture.md "Throughput execution").
//
// A single query's settle rarely offers the AVX2 kernels more than a
// handful of TTF lanes (BENCH_batch.json's micro table: the vector kernels
// only clearly win from ~32 lanes). The paper's workloads, though, are
// streams and matrices of queries — so instead of vectorizing inside one
// search, MultiQueryTimeEngineT advances K searches in lockstep rounds:
//
//   1. pop    — every active lane settles one node exactly as its
//               per-query engine would (same stale-pop protocol, same
//               target stop, same accounting);
//   2. gather — each lane streams its settled node's out-block, runs the
//               per-query `dist <= key` pre-test, and appends surviving
//               (word, pop-key, head) tuples to the SharedFrontier;
//   3. eval   — the frontier answers all K lanes' pending edges with a few
//               wide kernel calls (same-function runs via arrival_tn, the
//               mixed residue via one arrival_ptn — relax_batch.hpp);
//   4. commit — lanes commit their slots back in lane order, each slot in
//               edge order, re-running the dist bound — byte-for-byte the
//               per-query batch commit pass.
//
// Determinism: lanes share only read-only graph state; a lane's dist/
// parent/queue advance exclusively in its own pop and commit steps, and
// the kernels are bit-identical to scalar evaluation. Every lane's
// results AND QueryStats therefore equal a standalone TimeQueryT run of
// the same query, in every RelaxMode and queue policy
// (tests/multi_query_test.cpp proves this differentially).
//
// RelaxMode semantics: kInterleaved runs each lane's full per-query
// interleaved settle inline (the A/B baseline — no batching at all).
// kBatch, the default, settles wide fans through the per-lane
// single-entry-time batch path (one arrivals_by_words call at the lane's
// pop key — byte-identical to the per-query engines' batch relax) and
// narrow fans inline. kBatchAlways routes every settle through the
// cross-lane SharedFrontier rounds above. Measured: on the core search
// the per-lane path wins — a fan at one entry time is cheaper to
// evaluate than the same edges regrouped across lanes with mixed entry
// times — so cross-lane batching earns its keep where entry times are
// unavoidably mixed and the order is queue-less: the overlay engine's
// settle_contracted_batch down-sweep (one arrival_tn call per down-edge
// spanning the whole batch).
//
// All lane state (per-lane epoch arrays, queues) and the frontier are
// workspace-resident: a warm run_batch() of the same shape allocates
// nothing (the session test's operator-new guard covers it).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "algo/counters.hpp"
#include "algo/queue_policy.hpp"
#include "algo/relax_batch.hpp"
#include "algo/workspace.hpp"
#include "graph/overlay_graph.hpp"
#include "graph/td_graph.hpp"
#include "timetable/timetable.hpp"
#include "util/epoch_array.hpp"

namespace pconn {

/// One query of a batch; target kInvalidStation runs one-to-all.
struct BatchQuery {
  StationId source = kInvalidStation;
  Time departure = 0;
  StationId target = kInvalidStation;
};

/// Lanes run in lockstep tiles of this many queries (each tile to
/// completion before the next starts). Round-robining a whole 64-lane
/// batch streams every lane's labels and heap through the cache once per
/// round; a tile keeps the round working set L2-sized while the frontier
/// still sees enough lanes to form same-function runs. The overlay
/// down-sweep is unaffected — it always spans the full batch.
constexpr std::size_t kLaneTile = 16;

/// Flat-graph multi-query engine; definitions in multi_query.cpp
/// instantiate the two shipped queue policies.
template <typename Queue = TimeBinaryQueue>
class MultiQueryTimeEngineT {
 public:
  MultiQueryTimeEngineT(const Timetable& tt, const TdGraph& g,
                        QueryWorkspace* ws = nullptr);

  /// Runs all queries to completion. Results stay valid until the next
  /// run; lane q of the accessors below corresponds to queries[q].
  void run(std::span<const BatchQuery> queries);

  std::size_t num_queries() const { return num_queries_; }
  Time arrival_at(std::size_t q, StationId s) const {
    return lanes_[q]->dist.get(g_.station_node(s));
  }
  Time arrival_at_node(std::size_t q, NodeId v) const {
    return lanes_[q]->dist.get(v);
  }
  NodeId parent(std::size_t q, NodeId v) const {
    return lanes_[q]->parent.get(v);
  }
  const QueryStats& stats(std::size_t q) const { return lanes_[q]->stats; }

  /// Lane-occupancy accounting of the shared eval stage: one record per
  /// kernel call, its width as the size. mean_gather() is the mean eval
  /// lane count bench_multiquery reports and CI gates (>= 32).
  const BatchStats& batch_stats() const { return batch_stats_; }

  void set_relax_mode(RelaxMode m) { relax_.mode = m; }
  RelaxMode relax_mode() const { return relax_.mode; }
  void set_relax_options(RelaxOptions r) { relax_ = r; }
  const RelaxOptions& relax_options() const { return relax_; }

  /// Arrival-only mode: skips the per-improvement parent writes (a second
  /// EpochArray store per label). parent(q, v) is meaningless after a run
  /// with tracking off. Distances, stats, and determinism are unchanged —
  /// the parent array is write-only during a run. The session's
  /// distance_table_batch waves run with tracking off (the matrix API
  /// returns only times); run_batch always re-enables it.
  void set_track_parents(bool on) { track_parents_ = on; }
  bool track_parents() const { return track_parents_; }

  /// Multi-target stop for table workloads: each lane stops as soon as
  /// every station in `targets` is settled (their distances are final at
  /// that point; the tail of the search can only touch other nodes). The
  /// single-target BatchQuery stop generalizes, but only the table API
  /// knows ALL its read-back columns up front — per-query engines can
  /// stop at one target at most. Arrivals at the stop targets (and at
  /// every node settled before the last of them) are unchanged; arrivals
  /// elsewhere are unspecified after an early stop. Cleared by
  /// clear_stop_targets(); a BatchQuery target still stops its lane first
  /// if it settles earlier.
  void set_stop_targets(std::span<const StationId> targets);
  void clear_stop_targets();

 private:
  struct Lane {
    explicit Lane(ScratchAlloc alloc)
        : heap(alloc), dist(alloc), parent(alloc) {}
    Queue heap;
    EpochArray<Time> dist;
    EpochArray<NodeId> parent;
    QueryStats stats;
    NodeId src = kInvalidNode;
    NodeId target_node = kInvalidNode;
    NodeId settled_node = kInvalidNode;  // node settled this round
    Time key = 0;                        // its pop key
    std::uint32_t seg_begin = 0;         // this round's frontier slots
    std::uint32_t seg_end = 0;
    std::uint32_t targets_left = 0;  // stop-set stations not yet settled
    bool done = false;
  };

  void ensure_lanes(std::size_t k);
  /// Runs one lane to completion with the per-query engine's fused
  /// pop/relax loop (kInterleaved and kBatch: lanes share no relax state,
  /// so each is exactly a TimeQueryT run over lane-sharded label state —
  /// outlining the per-settle steps measurably cost ~6-10% on the flat
  /// station-table workload vs the per-query loop). flatten: this TU
  /// instantiates eight engine variants, which exhausts the inliner's
  /// budget right here — without the attribute, TtfPool::eval and the
  /// heap push stay out-of-line calls in the hottest loop (a measured
  /// ~4-5% per-settle tax the per-query engine, compiled alone in its own
  /// TU, does not pay).
  [[gnu::flatten]] void run_lane(Lane& lane);
  /// Pops one settleable node for the lane (per-query protocol); marks the
  /// lane done on heap exhaustion or target settle.
  void pop_step(Lane& lane);
  /// Gather phase of the cross-lane shared-frontier mode (kBatchAlways).
  void gather(Lane& lane);
  /// Commit phase: the per-query batch commit pass over the lane's slots.
  void commit(Lane& lane);

  const Timetable& tt_;
  const TdGraph& g_;
  QueryWorkspace* ws_;
  std::vector<std::unique_ptr<Lane>> lanes_;  // grown to the max K seen
  std::vector<std::uint32_t, ArenaAllocator<std::uint32_t>> active_;
  SharedFrontier frontier_;
  RelaxBatch batch_;  // per-lane wide-fan gather/eval scratch
  RelaxOptions relax_;
  BatchStats batch_stats_;
  std::size_t num_queries_ = 0;
  bool track_parents_ = true;
  // Multi-target stop set: per-node flags (only stop-target nodes set),
  // kept empty outside set_stop_targets()/clear_stop_targets() brackets.
  std::vector<std::uint8_t, ArenaAllocator<std::uint8_t>> stop_flags_;
  std::uint32_t stop_count_ = 0;
};

using MultiQueryTimeEngine = MultiQueryTimeEngineT<>;

/// Overlay-routed variant: the same lockstep rounds over the contraction
/// overlay's core (algo/overlay_query.hpp). Each lane replicates
/// OverlayTimeQueryT exactly — the dedicated board-discounted source loop
/// runs inline (all modes, like the per-query engine), core settles feed
/// the shared frontier. This is where cross-query function grouping pays
/// twice: core fans are wide AND queries converge on the same shortcut
/// TTFs, so same-function arrival_tn runs dominate the eval stage.
template <typename Queue = TimeBinaryQueue>
class MultiQueryOverlayTimeEngineT {
 public:
  MultiQueryOverlayTimeEngineT(const Timetable& tt, const TdGraph& g,
                               const OverlayGraph& ov,
                               QueryWorkspace* ws = nullptr);

  void run(std::span<const BatchQuery> queries);

  /// Extends lane q's full (no-target) run to every contracted node — the
  /// per-query rank-descending down-sweep, per lane. After it,
  /// arrival_at_node(q, v) matches the flat engine at ALL nodes.
  void settle_contracted(std::size_t q);

  /// The cross-lane down-sweep: settle_contracted for EVERY lane at once
  /// (all lanes must be full runs). The sweep order is fixed and
  /// queue-less, so the lanes become the vector dimension: labels are
  /// transposed into node-major rows and every down-edge is answered for
  /// all K lanes with one arrival_tn call (one metadata load per edge,
  /// K entry times) — the widest, steadiest kernel feed in the engine;
  /// call widths land in batch_stats(). Per-lane results and accounting
  /// are byte-identical to K settle_contracted(q) calls: same edge order,
  /// same strict-min tie-breaking, bit-identical kernels. After the
  /// sweep, the accessors below serve labels straight from the node-major
  /// matrix (no scatter back into the lanes' arrays) until the next run.
  void settle_contracted_batch();

  std::size_t num_queries() const { return num_queries_; }
  Time arrival_at(std::size_t q, StationId s) const {
    return arrival_at_node(q, ov_.station_node(s));
  }
  Time arrival_at_node(std::size_t q, NodeId v) const {
    if (swept_) return trans_dist_[std::size_t{v} * kp_ + q];
    return lanes_[q]->dist.get(v);
  }
  NodeId parent(std::size_t q, NodeId v) const {
    if (swept_) {
      const std::uint32_t i = ov_.down_pos(v);
      if (i != OverlayGraph::kNoDownPos) {
        const NodeId p = sweep_parent_[std::size_t{i} * kp_ + q];
        // An unreached contracted node keeps its (untouched) lane value.
        if (p != kInvalidNode) return p;
      }
    }
    return lanes_[q]->parent.get(v);
  }
  std::uint32_t parent_edge(std::size_t q, NodeId v) const {
    return lanes_[q]->parent_edge.get(v);
  }
  const QueryStats& stats(std::size_t q) const { return lanes_[q]->stats; }
  const BatchStats& batch_stats() const { return batch_stats_; }

  void set_relax_mode(RelaxMode m) { relax_.mode = m; }
  RelaxMode relax_mode() const { return relax_.mode; }
  void set_relax_options(RelaxOptions r) { relax_ = r; }
  const RelaxOptions& relax_options() const { return relax_; }

 private:
  struct Lane {
    explicit Lane(ScratchAlloc alloc)
        : heap(alloc), dist(alloc), parent(alloc), parent_edge(alloc) {}
    Queue heap;
    EpochArray<Time> dist;
    EpochArray<NodeId> parent;
    EpochArray<std::uint32_t> parent_edge;
    QueryStats stats;
    StationId source = kInvalidStation;
    NodeId src = kInvalidNode;
    NodeId target_node = kInvalidNode;
    NodeId settled_node = kInvalidNode;
    Time key = 0;
    std::uint32_t seg_begin = 0;
    std::uint32_t seg_end = 0;
    bool done = false;
  };

  void ensure_lanes(std::size_t k);
  Time source_arrival(const Lane& lane, std::uint32_t w, Time t) const;
  void pop_step(Lane& lane);
  void settle_source(Lane& lane);
  void settle_interleaved(Lane& lane);
  /// Wide-fan settle through the per-query batch relax path (see the flat
  /// engine): the kBatch default on the overlay core.
  void settle_batched(Lane& lane);
  /// Gather phase of the cross-lane shared-frontier mode (kBatchAlways).
  void gather(Lane& lane);
  void commit(Lane& lane);
  /// Accounting + label/parent/parent-edge update for one surviving
  /// evaluation (shared by the inline settles and the commit pass).
  void commit_one(Lane& lane, NodeId head, Time t, std::uint32_t ei);

  const Timetable& tt_;
  const TdGraph& g_;
  const OverlayGraph& ov_;
  QueryWorkspace* ws_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::uint32_t, ArenaAllocator<std::uint32_t>> active_;
  SharedFrontier frontier_;
  RelaxBatch batch_;  // per-lane wide-fan gather/eval scratch
  RelaxOptions relax_;
  BatchStats batch_stats_;
  std::size_t num_queries_ = 0;

  // settle_contracted_batch state: node-major transposed labels
  // (lane-padded rows of kp_ = K rounded up to 8), per-edge row buffers,
  // per-contracted-node winning tails, per-lane relax counters, and the
  // is-some-lane's-source node mask for the board-discount fix-up. While
  // swept_ is set (sweep done, no newer run), trans_dist_/sweep_parent_
  // ARE the result surface — the sweep never scatters back into the
  // lanes; the node -> sweep-position map the accessors need is the
  // overlay's own down_pos() view.
  std::vector<Time, ArenaAllocator<Time>> trans_dist_;
  std::vector<Time, ArenaAllocator<Time>> row_ts_, row_out_, row_best_;
  std::vector<NodeId, ArenaAllocator<NodeId>> row_best_tail_;
  std::vector<NodeId, ArenaAllocator<NodeId>> sweep_parent_;
  std::vector<std::uint32_t, ArenaAllocator<std::uint32_t>> relaxed_cnt_;
  std::vector<std::uint8_t, ArenaAllocator<std::uint8_t>> src_mask_;
  std::size_t kp_ = 0;
  bool swept_ = false;
};

using MultiQueryOverlayTimeEngine = MultiQueryOverlayTimeEngineT<>;

}  // namespace pconn
