// Query-matrix engine: K earliest-arrival queries over the contraction
// overlay, one per lane, plus the one cross-lane stage that pays — the
// down-sweep (docs/architecture.md "Throughput execution").
//
// The lanes are K warm OverlayTimeQueryT engines in the caller's
// workspace, and run() simply runs each query on its own lane: every
// lane's labels, parents and QueryStats ARE a standalone run's. Batching
// the core ascents across lanes was measured and dropped: a settled fan
// shares its lane's pop key, so the per-query single-entry-time
// arrivals_by_words call is already the cheapest shape, and regrouping
// fans across lanes with mixed entry times cost more than it recovered.
//
// The down-sweep is different. Its rank-descending order is fixed and
// queue-less, so the lanes become the vector dimension:
// settle_contracted_batch() transposes the lanes' labels into node-major
// rows and answers every down-edge for all K lanes with one arrival_tn
// call — the widest, steadiest kernel feed in the engine
// (BENCH_multiquery.json's one-to-all matrix).
//
// Lanes and sweep buffers live in the workspace arena: a warm run of the
// same batch shape allocates nothing (tests/multi_query_test.cpp guards
// it with an operator-new counter).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "algo/counters.hpp"
#include "algo/overlay_query.hpp"
#include "algo/queue_policy.hpp"
#include "algo/relax_batch.hpp"
#include "algo/workspace.hpp"
#include "graph/overlay_graph.hpp"
#include "graph/td_graph.hpp"
#include "timetable/timetable.hpp"

namespace pconn {

/// One query of a batch; target kInvalidStation runs one-to-all.
struct BatchQuery {
  StationId source = kInvalidStation;
  Time departure = 0;
  StationId target = kInvalidStation;
};

/// Definitions in multi_query.cpp instantiate the two shipped queue
/// policies.
template <typename Queue = TimeBinaryQueue>
class MultiQueryOverlayTimeEngineT {
 public:
  /// Throws on an overlay contracted from a different dataset, like
  /// OverlayTimeQueryT.
  MultiQueryOverlayTimeEngineT(const Timetable& tt, const TdGraph& g,
                               const OverlayGraph& ov,
                               QueryWorkspace* ws = nullptr);

  /// Runs queries[q] on lane q. Results stay valid until the next run.
  void run(std::span<const BatchQuery> queries);

  /// Extends lane q's full (no-target) run to every contracted node — the
  /// per-query down-sweep. After it, arrival_at_node(q, v) matches the
  /// flat engine at ALL nodes.
  void settle_contracted(std::size_t q) { lanes_[q]->settle_contracted(); }

  /// The cross-lane down-sweep: settle_contracted for EVERY lane at once
  /// (all lanes must be full runs). Labels are transposed into node-major
  /// rows and every down-edge is answered for all K lanes with one
  /// arrival_tn call (one metadata load per edge, K entry times); call
  /// widths land in batch_stats(). Per-lane results and accounting are
  /// byte-identical to K settle_contracted(q) calls: same edge order, same
  /// strict-min tie-breaking, bit-identical kernels. After the sweep, the
  /// accessors below serve labels straight from the node-major matrix (no
  /// scatter back into the lanes) until the next run.
  void settle_contracted_batch();

  std::size_t num_queries() const { return num_queries_; }
  Time arrival_at(std::size_t q, StationId s) const {
    return arrival_at_node(q, ov_.station_node(s));
  }
  Time arrival_at_node(std::size_t q, NodeId v) const {
    if (swept_) return trans_dist_[std::size_t{v} * kp_ + q];
    return lanes_[q]->arrival_at_node(v);
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
    return lanes_[q]->parent(v);
  }
  std::uint32_t parent_edge(std::size_t q, NodeId v) const {
    return lanes_[q]->parent_edge(v);
  }
  /// Lane q's accounting, the batched sweep's relaxations included.
  QueryStats stats(std::size_t q) const {
    QueryStats s = lanes_[q]->stats();
    if (swept_) s.relaxed += relaxed_cnt_[q];
    return s;
  }
  /// Kernel-call widths of the whole matrix: the lanes' batch relaxes
  /// summed, plus one record per non-constant down-edge arrival_tn call of
  /// the batched sweep. mean_gather() is the mean eval lane count
  /// bench_multiquery reports and CI gates (>= 32).
  const BatchStats& batch_stats() const { return batch_stats_; }

  void set_relax_mode(RelaxMode m) { relax_.mode = m; }
  RelaxMode relax_mode() const { return relax_.mode; }
  void set_relax_options(RelaxOptions r) { relax_ = r; }
  const RelaxOptions& relax_options() const { return relax_; }

 private:
  using Lane = OverlayTimeQueryT<Queue>;

  void ensure_lanes(std::size_t k);

  const Timetable& tt_;
  const TdGraph& g_;
  const OverlayGraph& ov_;
  QueryWorkspace* ws_;
  std::vector<std::unique_ptr<Lane>> lanes_;  // grown to the max K seen
  RelaxOptions relax_;
  BatchStats batch_stats_;
  std::size_t num_queries_ = 0;
  bool all_full_ = true;  // no query of the last run had a target

  // settle_contracted_batch state: per-lane source nodes, node-major
  // transposed labels (lane-padded rows of kp_ = K rounded up to 8),
  // per-edge row buffers, per-contracted-node winning tails, per-lane relax
  // counters, and the is-some-lane's-source node mask for the
  // board-discount fix-up. While swept_ is set (sweep done, no newer run),
  // trans_dist_/sweep_parent_ ARE the result surface — the sweep never
  // scatters back into the lanes; the node -> sweep-position map the
  // accessors need is the overlay's own down_pos() view.
  std::vector<NodeId, ArenaAllocator<NodeId>> lane_src_;
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
