#include "algo/multi_query.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace pconn {

namespace {

constexpr std::uint32_t kNoEdge = std::numeric_limits<std::uint32_t>::max();

}  // namespace

// ---------------------------------------------------------------------------
// MultiQueryTimeEngineT

template <typename Queue>
MultiQueryTimeEngineT<Queue>::MultiQueryTimeEngineT(const Timetable& tt,
                                                    const TdGraph& g,
                                                    QueryWorkspace* ws)
    : tt_(tt),
      g_(g),
      ws_(ws),
      active_(ArenaAllocator<std::uint32_t>(scratch_alloc(ws))),
      frontier_(scratch_alloc(ws)),
      batch_(scratch_alloc(ws)),
      stop_flags_(ArenaAllocator<std::uint8_t>(scratch_alloc(ws))) {}

template <typename Queue>
void MultiQueryTimeEngineT<Queue>::set_stop_targets(
    std::span<const StationId> targets) {
  stop_flags_.resize(g_.num_nodes());
  for (const StationId s : targets) {
    std::uint8_t& f = stop_flags_[g_.station_node(s)];
    stop_count_ += (f == 0);  // duplicates count once
    f = 1;
  }
}

template <typename Queue>
void MultiQueryTimeEngineT<Queue>::clear_stop_targets() {
  // Reset only the set bits; the flag array stays allocated for reuse.
  if (stop_count_ != 0) {
    std::fill(stop_flags_.begin(), stop_flags_.end(), std::uint8_t{0});
  }
  stop_count_ = 0;
}

template <typename Queue>
void MultiQueryTimeEngineT<Queue>::ensure_lanes(std::size_t k) {
  while (lanes_.size() < k) {
    auto lane = std::make_unique<Lane>(scratch_alloc(ws_));
    lane->heap.reset_capacity(g_.num_nodes());
    lane->dist.assign(g_.num_nodes(), kInfTime);
    lane->parent.assign(g_.num_nodes(), kInvalidNode);
    lanes_.push_back(std::move(lane));
  }
}

template <typename Queue>
void MultiQueryTimeEngineT<Queue>::pop_step(Lane& lane) {
  // One settle, exactly the per-query protocol: drain stale entries, stop
  // the lane on heap exhaustion or on settling its target station.
  for (;;) {
    if (lane.heap.empty()) {
      lane.done = true;
      return;
    }
    auto [v, key] = lane.heap.pop();
    if constexpr (!Queue::kAddressable) {
      if (key > lane.dist.get(v)) {
        lane.stats.stale_popped++;
        continue;
      }
    }
    lane.stats.settled++;
    if (lane.target_node != kInvalidNode && v == lane.target_node) {
      lane.done = true;
      return;
    }
    lane.settled_node = v;
    lane.key = key;
    return;
  }
}

template <typename Queue>
void MultiQueryTimeEngineT<Queue>::run_lane(Lane& lane) {
  // The per-query engine's fused settle loop (time_query.cpp), verbatim
  // over this lane's sharded label pool. Hoisting the lane fields into
  // locals and keeping pop + relax in one frame restores the per-query
  // loop's codegen — the outlined pop_step/settle_* steps (kept for the
  // kBatchAlways rounds, which need the split) cost ~6-10% here, which is
  // exactly the flat station-table regression BENCH_multiquery gates.
  auto& heap = lane.heap;
  auto& dist = lane.dist;
  auto& parent = lane.parent;
  QueryStats& st = lane.stats;
  const NodeId src = lane.src;
  const NodeId target = lane.target_node;
  const bool batch = relax_.mode != RelaxMode::kInterleaved;
  const bool track = track_parents_;
  const std::uint8_t* const stop_flags =
      lane.targets_left != 0 ? stop_flags_.data() : nullptr;
  const NodeId* const heads = g_.heads_data();
  const std::uint32_t* const words = g_.words_data();

  while (!heap.empty()) {
    const auto [v, key] = heap.pop();
    if constexpr (!Queue::kAddressable) {
      if (key > dist.get(v)) {
        st.stale_popped++;
        continue;
      }
    }
    st.settled++;
    if (target != kInvalidNode && v == target) break;
    // Multi-target stop (table mode): the last stop-set settle finalizes
    // every distance the caller will read.
    if (stop_flags != nullptr && stop_flags[v] != 0 &&
        --lane.targets_left == 0) {
      break;
    }

    const std::uint32_t eb = g_.edge_begin(v);
    const std::uint32_t ee = g_.edge_end(v);

    const auto commit = [&](NodeId head, Time t) {
      st.relaxed++;
      if (t < dist.get(head)) {
        if constexpr (Queue::kAddressable) {
          if (heap.push_or_decrease(head, t) == QueuePush::kPushed) {
            st.pushed++;
          } else {
            st.decreased++;
          }
        } else {
          heap.push(head, t);
          st.pushed++;
        }
        dist.set(head, t);
        if (track) parent.set(head, v);
      }
    };

    if (batch && g_.ttf_out_degree(v) >= relax_.batch_min_edges) {
      batch_.clear();
      for (std::uint32_t ei = eb; ei < ee; ++ei) {
        if (ei + 1 < ee) dist.prefetch(heads[ei + 1]);
        const NodeId head = heads[ei];
        if (dist.get(head) <= key) continue;  // t >= key >= dist: hopeless
        std::uint32_t w = words[ei];
        // No transfer penalty for the very first boarding at the source:
        // rewrite to a zero-weight constant word before evaluation.
        if (v == src && TdGraph::word_is_const(w)) w = TdGraph::kConstFlag;
        batch_.push(w, head);
      }
      batch_stats_.record(batch_.size());
      Time* const out = batch_.prepare_out();
      g_.arrivals_by_words(batch_.words(), batch_.size(), key, out);
      for (std::size_t i = 0; i < batch_.size(); ++i) {
        const NodeId head = batch_.aux(i);
        if (dist.get(head) <= key) continue;  // dropped by this batch
        if (out[i] == kInfTime) continue;
        commit(head, out[i]);
      }
    } else {
      for (std::uint32_t ei = eb; ei < ee; ++ei) {
        if (ei + 1 < ee) {
          dist.prefetch(heads[ei + 1]);
          g_.prefetch_edge_ttf(ei + 1);
        }
        const NodeId head = heads[ei];
        if (dist.get(head) <= key) continue;  // t >= key >= dist: hopeless
        const std::uint32_t w = words[ei];
        // No transfer penalty for the very first boarding at the source.
        const Time t = (v == src && TdGraph::word_is_const(w))
                           ? key
                           : g_.arrival_by_word(w, key);
        if (t == kInfTime) continue;
        commit(head, t);
      }
    }
  }
  lane.done = true;
}

template <typename Queue>
void MultiQueryTimeEngineT<Queue>::gather(Lane& lane) {
  lane.seg_begin = static_cast<std::uint32_t>(frontier_.size());
  const NodeId v = lane.settled_node;
  const Time key = lane.key;
  const std::uint32_t eb = g_.edge_begin(v);
  const std::uint32_t ee = g_.edge_end(v);
  const NodeId* const heads = g_.heads_data();
  const std::uint32_t* const words = g_.words_data();
  for (std::uint32_t ei = eb; ei < ee; ++ei) {
    if (ei + 1 < ee) lane.dist.prefetch(heads[ei + 1]);
    const NodeId head = heads[ei];
    if (lane.dist.get(head) <= key) continue;  // t >= key >= dist: hopeless
    std::uint32_t w = words[ei];
    // No transfer penalty for the very first boarding at the source:
    // rewrite to a zero-weight constant word before evaluation.
    if (v == lane.src && TdGraph::word_is_const(w)) w = TdGraph::kConstFlag;
    frontier_.push(w, key, head);
  }
  lane.seg_end = static_cast<std::uint32_t>(frontier_.size());
}

template <typename Queue>
void MultiQueryTimeEngineT<Queue>::commit(Lane& lane) {
  // The per-query batch commit pass, verbatim: edge order within the lane,
  // dist bound re-tested (earlier commits of this very round may have
  // lowered it), unreachable evaluations skipped before accounting.
  for (std::uint32_t slot = lane.seg_begin; slot < lane.seg_end; ++slot) {
    const NodeId head = frontier_.head(slot);
    if (lane.dist.get(head) <= lane.key) continue;  // dropped by this round
    const Time t = frontier_.out(slot);
    if (t == kInfTime) continue;
    lane.stats.relaxed++;
    if (t < lane.dist.get(head)) {
      if constexpr (Queue::kAddressable) {
        if (lane.heap.push_or_decrease(head, t) == QueuePush::kPushed) {
          lane.stats.pushed++;
        } else {
          lane.stats.decreased++;
        }
      } else {
        lane.heap.push(head, t);
        lane.stats.pushed++;
      }
      lane.dist.set(head, t);
      if (track_parents_) lane.parent.set(head, lane.settled_node);
    }
  }
}

template <typename Queue>
void MultiQueryTimeEngineT<Queue>::run(std::span<const BatchQuery> queries) {
  batch_stats_.reset();
  num_queries_ = queries.size();
  ensure_lanes(queries.size());

  // Lanes advance in tiles of kLaneTile run to completion one after the
  // other: a whole batch in lockstep round-robins every lane's labels and
  // heap through the cache each round, which on low-fan networks costs
  // more than the shared kernels recover. A tile keeps the round working
  // set cache-sized; lanes are independent, so results are unchanged.
  const bool lockstep = relax_.mode == RelaxMode::kBatchAlways;
  for (std::size_t tb = 0; tb < queries.size(); tb += kLaneTile) {
  const std::size_t te = std::min(tb + kLaneTile, queries.size());
  active_.clear();
  for (std::size_t qi = tb; qi < te; ++qi) {
    Lane& lane = *lanes_[qi];
    const BatchQuery& q = queries[qi];
    assert(q.source < tt_.num_stations());
    lane.stats = QueryStats{};
    lane.heap.clear();
    lane.dist.clear();
    lane.parent.clear();
    lane.src = g_.station_node(q.source);
    lane.target_node = q.target == kInvalidStation
                           ? kInvalidNode
                           : g_.station_node(q.target);
    lane.targets_left = stop_count_;
    lane.done = false;
    lane.dist.set(lane.src, q.departure);
    lane.heap.push(lane.src, q.departure);
    lane.stats.pushed++;
    active_.push_back(static_cast<std::uint32_t>(qi));
  }

  if (!lockstep) {
    // Outside the shared-frontier mode the lanes share no relax state, so
    // each runs to completion with per-query cache locality through the
    // fused run_lane() loop. Wide fans still reach the batch kernels — a
    // fan shares its lane's pop key, so the single-entry-time call is
    // already the cheapest shape (see the header).
    for (const std::uint32_t qi : active_) run_lane(*lanes_[qi]);
    continue;
  }

  while (!active_.empty()) {
    frontier_.clear();
    for (const std::uint32_t qi : active_) {
      Lane& lane = *lanes_[qi];
      pop_step(lane);
      if (lane.done) continue;
      // kBatchAlways: every settled fan joins the cross-lane shared
      // frontier; eval groups slots by TTF word across lanes (see the
      // header for when that shape wins).
      gather(lane);
    }
    if (frontier_.size() != 0) {
      frontier_.eval(g_.ttfs(), batch_stats_);
      for (const std::uint32_t qi : active_) {
        Lane& lane = *lanes_[qi];
        if (!lane.done) commit(lane);
      }
    }
    std::size_t w = 0;
    for (const std::uint32_t qi : active_) {
      if (!lanes_[qi]->done) active_[w++] = qi;
    }
    active_.resize(w);
  }
  }
  for (std::size_t qi = 0; qi < queries.size(); ++qi) lanes_[qi]->heap.clear();
}

template class MultiQueryTimeEngineT<TimeBinaryQueue>;
template class MultiQueryTimeEngineT<TimeBucketQueue>;

// ---------------------------------------------------------------------------
// MultiQueryOverlayTimeEngineT

template <typename Queue>
MultiQueryOverlayTimeEngineT<Queue>::MultiQueryOverlayTimeEngineT(
    const Timetable& tt, const TdGraph& g, const OverlayGraph& ov,
    QueryWorkspace* ws)
    : tt_(tt),
      g_(g),
      ov_(ov),
      ws_(ws),
      active_(ArenaAllocator<std::uint32_t>(scratch_alloc(ws))),
      frontier_(scratch_alloc(ws)),
      batch_(scratch_alloc(ws)),
      trans_dist_(ArenaAllocator<Time>(scratch_alloc(ws))),
      row_ts_(ArenaAllocator<Time>(scratch_alloc(ws))),
      row_out_(ArenaAllocator<Time>(scratch_alloc(ws))),
      row_best_(ArenaAllocator<Time>(scratch_alloc(ws))),
      row_best_tail_(ArenaAllocator<NodeId>(scratch_alloc(ws))),
      sweep_parent_(ArenaAllocator<NodeId>(scratch_alloc(ws))),
      relaxed_cnt_(ArenaAllocator<std::uint32_t>(scratch_alloc(ws))),
      src_mask_(ArenaAllocator<std::uint8_t>(scratch_alloc(ws))) {
  // Same loud dataset-mismatch rejection as OverlayTimeQueryT.
  if (ov.num_nodes() != g.num_nodes() ||
      ov.num_stations() != tt.num_stations() ||
      ov.num_base_ttfs() != g.ttfs().size() ||
      ov.num_base_edges() != g.num_edges()) {
    throw std::runtime_error(
        "overlay: graph mismatch (contracted from a different dataset?)");
  }
}

template <typename Queue>
void MultiQueryOverlayTimeEngineT<Queue>::ensure_lanes(std::size_t k) {
  while (lanes_.size() < k) {
    auto lane = std::make_unique<Lane>(scratch_alloc(ws_));
    lane->heap.reset_capacity(ov_.num_nodes());
    lane->dist.assign(ov_.num_nodes(), kInfTime);
    lane->parent.assign(ov_.num_nodes(), kInvalidNode);
    lane->parent_edge.assign(ov_.num_nodes(), kNoEdge);
    lanes_.push_back(std::move(lane));
  }
}

template <typename Queue>
Time MultiQueryOverlayTimeEngineT<Queue>::source_arrival(const Lane& lane,
                                                         std::uint32_t w,
                                                         Time t) const {
  if (TdGraph::word_is_const(w)) return t;  // free first boarding
  // Shortcut TTFs out of a station carry T(S) folded in; evaluate at
  // t - T(S) (see OverlayTimeQueryT::source_arrival).
  const Time c = ov_.board_shift(lane.source);
  if (c == 0) return ov_.ttfs().arrival(w, t);
  if (t >= c) return ov_.ttfs().arrival(w, t - c);
  const Time raw = ov_.ttfs().arrival(w, t + ov_.period() - c);
  return raw == kInfTime ? kInfTime : raw - ov_.period();
}

template <typename Queue>
void MultiQueryOverlayTimeEngineT<Queue>::commit_one(Lane& lane, NodeId head,
                                                     Time t,
                                                     std::uint32_t ei) {
  lane.stats.relaxed++;
  if (t < lane.dist.get(head)) {
    if constexpr (Queue::kAddressable) {
      if (lane.heap.push_or_decrease(head, t) == QueuePush::kPushed) {
        lane.stats.pushed++;
      } else {
        lane.stats.decreased++;
      }
    } else {
      lane.heap.push(head, t);
      lane.stats.pushed++;
    }
    lane.dist.set(head, t);
    lane.parent.set(head, lane.settled_node);
    lane.parent_edge.set(head, ei);
  }
}

template <typename Queue>
void MultiQueryOverlayTimeEngineT<Queue>::pop_step(Lane& lane) {
  for (;;) {
    if (lane.heap.empty()) {
      lane.done = true;
      return;
    }
    auto [v, key] = lane.heap.pop();
    if constexpr (!Queue::kAddressable) {
      if (key > lane.dist.get(v)) {
        lane.stats.stale_popped++;
        continue;
      }
    }
    lane.stats.settled++;
    if (lane.target_node != kInvalidNode && v == lane.target_node) {
      lane.done = true;
      return;
    }
    lane.settled_node = v;
    lane.key = key;
    return;
  }
}

template <typename Queue>
void MultiQueryOverlayTimeEngineT<Queue>::settle_source(Lane& lane) {
  // Dedicated source loop, identical in every RelaxMode (see
  // OverlayTimeQueryT): boards are free, shortcut TTFs board-discounted —
  // a per-lane entry-time shift the shared frontier has no word for.
  const NodeId v = lane.settled_node;
  const Time key = lane.key;
  const std::uint32_t eb = ov_.edge_begin(v);
  const std::uint32_t ee = ov_.edge_end(v);
  const NodeId* const heads = ov_.heads_data();
  const std::uint32_t* const words = ov_.words_data();
  for (std::uint32_t ei = eb; ei < ee; ++ei) {
    if (ei + 1 < ee) {
      lane.dist.prefetch(heads[ei + 1]);
      ov_.prefetch_edge_ttf(ei + 1);
    }
    const NodeId head = heads[ei];
    if (lane.dist.get(head) <= key) continue;
    const Time t = source_arrival(lane, words[ei], key);
    if (t == kInfTime) continue;
    commit_one(lane, head, t, ei);
  }
}

template <typename Queue>
void MultiQueryOverlayTimeEngineT<Queue>::settle_interleaved(Lane& lane) {
  const NodeId v = lane.settled_node;
  const Time key = lane.key;
  const std::uint32_t eb = ov_.edge_begin(v);
  const std::uint32_t ee = ov_.edge_end(v);
  const NodeId* const heads = ov_.heads_data();
  const std::uint32_t* const words = ov_.words_data();
  for (std::uint32_t ei = eb; ei < ee; ++ei) {
    if (ei + 1 < ee) {
      lane.dist.prefetch(heads[ei + 1]);
      ov_.prefetch_edge_ttf(ei + 1);
    }
    const NodeId head = heads[ei];
    if (lane.dist.get(head) <= key) continue;
    const Time t = ov_.arrival_by_word(words[ei], key);
    if (t == kInfTime) continue;
    commit_one(lane, head, t, ei);
  }
}

template <typename Queue>
void MultiQueryOverlayTimeEngineT<Queue>::settle_batched(Lane& lane) {
  // The per-query batch relax (overlay_query.cpp), verbatim per lane:
  // the whole shortcut fan shares the lane's pop key, so one
  // arrivals_by_words call evaluates it at a single entry time.
  const NodeId v = lane.settled_node;
  const Time key = lane.key;
  const std::uint32_t eb = ov_.edge_begin(v);
  const std::uint32_t ee = ov_.edge_end(v);
  const NodeId* const heads = ov_.heads_data();
  const std::uint32_t* const words = ov_.words_data();
  batch_.clear();
  for (std::uint32_t ei = eb; ei < ee; ++ei) {
    if (ei + 1 < ee) lane.dist.prefetch(heads[ei + 1]);
    const NodeId head = heads[ei];
    if (lane.dist.get(head) <= key) continue;  // t >= key >= dist: hopeless
    batch_.push2(words[ei], head, ei);
  }
  batch_stats_.record(batch_.size());
  Time* const out = batch_.prepare_out();
  ov_.arrivals_by_words(batch_.words(), batch_.size(), key, out);
  for (std::size_t i = 0; i < batch_.size(); ++i) {
    const NodeId head = batch_.aux(i);
    if (lane.dist.get(head) <= key) continue;  // dropped by this batch
    if (out[i] == kInfTime) continue;
    commit_one(lane, head, out[i], batch_.aux2(i));
  }
}

template <typename Queue>
void MultiQueryOverlayTimeEngineT<Queue>::gather(Lane& lane) {
  lane.seg_begin = static_cast<std::uint32_t>(frontier_.size());
  const NodeId v = lane.settled_node;
  const Time key = lane.key;
  const std::uint32_t eb = ov_.edge_begin(v);
  const std::uint32_t ee = ov_.edge_end(v);
  const NodeId* const heads = ov_.heads_data();
  const std::uint32_t* const words = ov_.words_data();
  for (std::uint32_t ei = eb; ei < ee; ++ei) {
    if (ei + 1 < ee) lane.dist.prefetch(heads[ei + 1]);
    const NodeId head = heads[ei];
    if (lane.dist.get(head) <= key) continue;
    frontier_.push(words[ei], key, head, ei);
  }
  lane.seg_end = static_cast<std::uint32_t>(frontier_.size());
}

template <typename Queue>
void MultiQueryOverlayTimeEngineT<Queue>::commit(Lane& lane) {
  for (std::uint32_t slot = lane.seg_begin; slot < lane.seg_end; ++slot) {
    const NodeId head = frontier_.head(slot);
    if (lane.dist.get(head) <= lane.key) continue;  // dropped by this round
    const Time t = frontier_.out(slot);
    if (t == kInfTime) continue;
    commit_one(lane, head, t, frontier_.edge(slot));
  }
}

template <typename Queue>
void MultiQueryOverlayTimeEngineT<Queue>::run(
    std::span<const BatchQuery> queries) {
  batch_stats_.reset();
  swept_ = false;  // lane arrays are the result surface again
  num_queries_ = queries.size();
  ensure_lanes(queries.size());

  // Cache-sized lane tiles, as in the flat engine (see its run()): outside
  // the shared-frontier mode each lane's core ascent runs to completion
  // with per-query locality; the down-sweep afterwards spans the whole
  // batch either way.
  const bool shared = relax_.mode != RelaxMode::kInterleaved;
  const bool lockstep = relax_.mode == RelaxMode::kBatchAlways;
  for (std::size_t tb = 0; tb < queries.size(); tb += kLaneTile) {
  const std::size_t te = std::min(tb + kLaneTile, queries.size());
  active_.clear();
  for (std::size_t qi = tb; qi < te; ++qi) {
    Lane& lane = *lanes_[qi];
    const BatchQuery& q = queries[qi];
    assert(q.source < tt_.num_stations());
    lane.stats = QueryStats{};
    lane.heap.clear();
    lane.dist.clear();
    lane.parent.clear();
    lane.parent_edge.clear();
    lane.source = q.source;
    lane.src = ov_.station_node(q.source);
    lane.target_node = q.target == kInvalidStation
                           ? kInvalidNode
                           : ov_.station_node(q.target);
    lane.done = false;
    lane.dist.set(lane.src, q.departure);
    lane.heap.push(lane.src, q.departure);
    lane.stats.pushed++;
    active_.push_back(static_cast<std::uint32_t>(qi));
  }

  if (!lockstep) {
    // Lanes share no relax state outside the shared-frontier mode: run
    // each to completion. Wide shortcut fans still reach the batch
    // kernels through settle_batched() at the lane's single pop key.
    for (const std::uint32_t qi : active_) {
      Lane& lane = *lanes_[qi];
      for (;;) {
        pop_step(lane);
        if (lane.done) break;
        lane.seg_begin = lane.seg_end = 0;
        if (lane.settled_node == lane.src) {
          settle_source(lane);
        } else if (shared && ov_.ttf_out_degree(lane.settled_node) >=
                                 relax_.batch_min_edges) {
          settle_batched(lane);
        } else {
          settle_interleaved(lane);
        }
      }
    }
    continue;
  }

  while (!active_.empty()) {
    frontier_.clear();
    for (const std::uint32_t qi : active_) {
      Lane& lane = *lanes_[qi];
      pop_step(lane);
      if (lane.done) continue;
      if (lane.settled_node == lane.src) {
        settle_source(lane);
        lane.seg_begin = lane.seg_end = 0;
        continue;
      }
      // kBatchAlways: every settled fan joins the cross-lane shared
      // frontier; eval groups slots by TTF word across lanes (see the
      // header for when that shape wins).
      gather(lane);
    }
    if (frontier_.size() != 0) {
      frontier_.eval(ov_.ttfs(), batch_stats_);
      for (const std::uint32_t qi : active_) {
        Lane& lane = *lanes_[qi];
        if (!lane.done) commit(lane);
      }
    }
    std::size_t w = 0;
    for (const std::uint32_t qi : active_) {
      if (!lanes_[qi]->done) active_[w++] = qi;
    }
    active_.resize(w);
  }
  }
  for (std::size_t qi = 0; qi < queries.size(); ++qi) lanes_[qi]->heap.clear();
}

template <typename Queue>
void MultiQueryOverlayTimeEngineT<Queue>::settle_contracted(std::size_t q) {
  Lane& lane = *lanes_[q];
  assert(lane.target_node == kInvalidNode &&
         "settle_contracted needs a full (no-target) run");
  const NodeId src = lane.src;
  // The per-query down-sweep (OverlayTimeQueryT::settle_contracted),
  // replayed over this lane's labels: descending contraction rank, one
  // min-pass per node.
  for (std::size_t i = 0; i < ov_.num_contracted(); ++i) {
    const NodeId v = ov_.down_node(i);
    Time best = kInfTime;
    NodeId best_tail = kInvalidNode;
    for (std::uint32_t e = ov_.down_begin(i); e < ov_.down_end(i); ++e) {
      const NodeId tail = ov_.down_tail(e);
      const Time t0 = lane.dist.get(tail);
      if (t0 == kInfTime) continue;
      lane.stats.relaxed++;
      const std::uint32_t w = ov_.down_word(e);
      const Time t = tail == src ? source_arrival(lane, w, t0)
                                 : ov_.arrival_by_word(w, t0);
      if (t != kInfTime && t < best) {
        best = t;
        best_tail = tail;
      }
    }
    if (best != kInfTime) {
      lane.dist.set(v, best);
      lane.parent.set(v, best_tail);
    }
  }
}

template <typename Queue>
void MultiQueryOverlayTimeEngineT<Queue>::settle_contracted_batch() {
  const std::size_t k = num_queries_;
  if (k == 0) return;
  const std::size_t kp = (k + 7) & ~std::size_t{7};  // padded lane stride
  const std::size_t n = ov_.num_nodes();
  const TtfPool& pool = ov_.ttfs();

  // Transpose every lane's labels into node-major rows so a down-edge's
  // entry times are one contiguous load; padding lanes stay unreachable.
  // Tiled: a block of rows stays write-hot across all lanes, and each
  // lane's epoch/value arrays stream sequentially (EpochArray raw views).
  trans_dist_.resize(n * kp);
  for (std::size_t j = 0; j < k; ++j) {
    assert(lanes_[j]->target_node == kInvalidNode &&
           "settle_contracted_batch needs full (no-target) runs");
  }
  constexpr std::size_t kTile = 16;
  Time* const __restrict trans = trans_dist_.data();
  for (std::size_t vb = 0; vb < n; vb += kTile) {
    const std::size_t ve = vb + kTile < n ? vb + kTile : n;
    for (std::size_t j = 0; j < k; ++j) {
      const EpochArray<Time>& dist = lanes_[j]->dist;
      const Time* const __restrict vals = dist.values_data();
      const std::uint32_t* const __restrict eps = dist.epochs_data();
      const std::uint32_t ep = dist.epoch();
      for (std::size_t v = vb; v < ve; ++v) {
        trans[v * kp + j] = eps[v] == ep ? vals[v] : kInfTime;
      }
    }
    for (std::size_t v = vb; v < ve; ++v) {
      for (std::size_t j = k; j < kp; ++j) trans[v * kp + j] = kInfTime;
    }
  }
  // Nodes that are some lane's source need the per-lane board-discount
  // fix-up (source_arrival) after the shared kernel call.
  src_mask_.assign(n, 0);
  for (std::size_t j = 0; j < k; ++j) src_mask_[lanes_[j]->src] = 1;

  row_ts_.resize(kp);
  row_out_.resize(kp);
  row_best_.resize(kp);
  row_best_tail_.resize(kp);
  relaxed_cnt_.assign(kp, 0);
  sweep_parent_.resize(ov_.num_contracted() * kp);

  // Raw restrict-qualified views: the row buffers never alias each other
  // or the label matrix, and telling the compiler so lets every per-lane
  // loop below vectorize.
  Time* const __restrict ts_buf = row_ts_.data();
  Time* const __restrict out_buf = row_out_.data();
  Time* const __restrict best = row_best_.data();
  NodeId* const __restrict best_tail = row_best_tail_.data();
  std::uint32_t* const __restrict rcnt = relaxed_cnt_.data();
  for (std::size_t i = 0; i < ov_.num_contracted(); ++i) {
    const NodeId v = ov_.down_node(i);
    for (std::size_t j = 0; j < kp; ++j) best[j] = kInfTime;
    for (std::size_t j = 0; j < kp; ++j) best_tail[j] = kInvalidNode;
    for (std::uint32_t e = ov_.down_begin(i); e < ov_.down_end(i); ++e) {
      const NodeId tail = ov_.down_tail(e);
      const Time* const __restrict ts =
          trans_dist_.data() + std::size_t{tail} * kp;
      // Pass 1 (fused): per-lane relax accounting (a lane relaxes the edge
      // iff its tail is reachable — the per-query protocol) and the
      // clamped entry times the kernel's signed-lane contract needs.
      // Padding lanes are unreachable, so they contribute nothing.
      std::uint32_t cnt = 0;
      for (std::size_t j = 0; j < kp; ++j) {
        const std::uint32_t live = ts[j] != kInfTime;
        rcnt[j] += live;
        cnt += live;
        ts_buf[j] = live ? ts[j] : 0;
      }
      if (cnt == 0) continue;
      const std::uint32_t w = ov_.down_word(e);
      if (w & TtfPool::kConstFlag) {
        const Time c = w & ~TtfPool::kConstFlag;
        for (std::size_t j = 0; j < kp; ++j) out_buf[j] = ts_buf[j] + c;
      } else {
        // One metadata load, kp entry times: the widest arrival_tn feed
        // in the engine.
        pool.arrival_tn(w, ts_buf, kp, out_buf);
        batch_stats_.record(cnt);
      }
      if (src_mask_[tail]) {
        for (std::size_t j = 0; j < k; ++j) {
          if (lanes_[j]->src == tail && ts[j] != kInfTime) {
            out_buf[j] = source_arrival(*lanes_[j], w, ts[j]);
          }
        }
      }
      // Pass 2 (fused): dead lanes masked out (their row_out_ is garbage),
      // strict-min in edge order — identical tie-breaking to the
      // per-query sweep.
      for (std::size_t j = 0; j < kp; ++j) {
        const bool upd = ts[j] != kInfTime && out_buf[j] < best[j];
        best[j] = upd ? out_buf[j] : best[j];
        best_tail[j] = upd ? tail : best_tail[j];
      }
    }
    Time* const __restrict dst = trans_dist_.data() + std::size_t{v} * kp;
    for (std::size_t j = 0; j < kp; ++j) dst[j] = best[j];
    NodeId* const __restrict par = sweep_parent_.data() + i * kp;
    for (std::size_t j = 0; j < kp; ++j) par[j] = best_tail[j];
  }

  for (std::size_t j = 0; j < k; ++j) {
    lanes_[j]->stats.relaxed += relaxed_cnt_[j];
  }
  // No scatter back into the lanes: trans_dist_/sweep_parent_ become the
  // result surface (the accessors read them while swept_ holds), keyed by
  // the overlay's precomputed down_pos() map.
  kp_ = kp;
  swept_ = true;
}

template class MultiQueryOverlayTimeEngineT<TimeBinaryQueue>;
template class MultiQueryOverlayTimeEngineT<TimeBucketQueue>;

}  // namespace pconn
