#include "algo/lc_profile.hpp"

#include <algorithm>

namespace pconn {

Profile merge_profiles(const Profile& a, const Profile& b, Time period) {
  Profile u;
  u.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(u),
             profile_point_less);
  return reduce_profile(u, period);
}

LcProfileQuery::LcProfileQuery(const Timetable& tt, const TdGraph& g,
                               QueryWorkspace* ws)
    : tt_(tt),
      g_(g),
      heap_(scratch_alloc(ws)),
      touched_(ArenaAllocator<NodeId>(scratch_alloc(ws))),
      dirty_(ArenaAllocator<std::uint8_t>(scratch_alloc(ws))),
      init_(ArenaAllocator<ProfilePoint>(scratch_alloc(ws))),
      cand_(ArenaAllocator<ProfilePoint>(scratch_alloc(ws))),
      union_(ArenaAllocator<ProfilePoint>(scratch_alloc(ws))),
      merged_(ArenaAllocator<ProfilePoint>(scratch_alloc(ws))) {
  heap_.reset_capacity(g.num_nodes());
  labels_.resize(g.num_nodes());
  dirty_.assign(g.num_nodes(), 0);
}

void LcProfileQuery::run(StationId s) {
  stats_ = QueryStats{};
  heap_.clear();
  for (NodeId v : touched_) {
    labels_[v].clear();
    dirty_[v] = 0;
  }
  touched_.clear();
  auto touch = [&](NodeId v) {
    if (!dirty_[v]) {
      dirty_[v] = 1;
      touched_.push_back(v);
    }
  };

  auto enqueue = [&](NodeId v, Time key) {
    switch (heap_.push_or_decrease(v, key)) {
      case QueuePush::kPushed:
        stats_.pushed++;
        break;
      case QueuePush::kDecreased:
        stats_.decreased++;
        break;
      case QueuePush::kUnchanged:
        break;
    }
  };

  // Pointwise-minimum merge of labels_[v] with cand_ into merged_, all
  // through the pooled scratch (no temporaries, capacities reused).
  auto merge_into_scratch = [&](const Profile& label) {
    union_.clear();
    union_.reserve(label.size() + cand_.size());
    std::merge(label.begin(), label.end(), cand_.begin(), cand_.end(),
               std::back_inserter(union_), profile_point_less);
    reduce_profile_into(union_, tt_.period(), merged_);
  };

  const NodeId src = g_.station_node(s);
  // Initial label: departing S at any outgoing-connection time costs
  // nothing yet — profile points (dep, dep).
  {
    init_.clear();
    for (const Connection& c : tt_.outgoing(s)) {
      if (init_.empty() || init_.back().dep != c.dep) {
        init_.push_back({c.dep, c.dep});
      }
    }
    if (init_.empty()) return;
    reduce_profile_into(init_, tt_.period(), merged_);
    labels_[src].assign(merged_.begin(), merged_.end());
    touch(src);
    enqueue(src, labels_[src].front().arr);
  }

  while (!heap_.empty()) {
    const NodeId v = heap_.pop().first;
    stats_.settled++;
    stats_.label_points += labels_[v].size();

    // SoA relax over v's edge block; the next edge's TTF points are
    // prefetched while the current edge links the whole label profile.
    const std::uint32_t eb = g_.edge_begin(v);
    const std::uint32_t ee = g_.edge_end(v);
    const NodeId* const heads = g_.heads_data();
    for (std::uint32_t ei = eb; ei < ee; ++ei) {
      if (ei + 1 < ee) g_.prefetch_edge_ttf(ei + 1);
      const NodeId head = heads[ei];
      const std::uint32_t w = g_.edge_word(ei);
      // Link: run every profile point through the edge. Boarding at the
      // source itself is free (same convention as TimeQuery / SPCS). The
      // label profile is the batch dimension here: batch mode runs the
      // whole label through the edge function in one sorted-merge pass;
      // constant words stay in the trivial per-point add either way.
      const Profile& tail = labels_[v];
      cand_.clear();
      cand_.reserve(tail.size());
      Time cand_min = kInfTime;
      const bool free_board = v == src && TdGraph::word_is_const(w);
      if (relax_mode_ != RelaxMode::kInterleaved) {
        // Linking a FIFO function keeps arrivals non-decreasing, so the
        // candidate minimum is simply the first finite arrival — no
        // per-point min on either batch sub-path.
        if (!TdGraph::word_is_const(w)) {
          // A reduced profile's arrivals ascend strictly, so the whole
          // label links through the fused sorted-merge kernel: one
          // division total (against one per point on the interleaved
          // side), the candidate profile built in the same pass.
          g_.ttfs().arrival_tn_sorted_fused(
              TdGraph::word_ttf(w), tail.size(),
              [&](std::size_t k) { return tail[k].arr; },
              [&](std::size_t k, Time t) {
                if (t == kInfTime) return;
                cand_.push_back({tail[k].dep, t});
              });
        } else {
          // Constant link: every arrival shifts by the word's weight (zero
          // for the free source boarding), no point is ever dropped — a
          // count-preserving copy-add the compiler vectorizes.
          const Time shift = free_board ? 0 : TdGraph::word_weight(w);
          cand_.resize(tail.size());
          for (std::size_t k = 0; k < tail.size(); ++k) {
            cand_[k] = {tail[k].dep, tail[k].arr + shift};
          }
        }
        if (!cand_.empty()) cand_min = cand_.front().arr;
      } else {
        for (const ProfilePoint& p : tail) {
          Time t = free_board ? p.arr : g_.arrival_by_word(w, p.arr);
          if (t == kInfTime) continue;
          cand_.push_back({p.dep, t});
          cand_min = std::min(cand_min, t);
        }
      }
      if (cand_.empty()) continue;
      stats_.relaxed++;

      Profile& label = labels_[head];
      if (label.empty()) {
        reduce_profile_into(cand_, tt_.period(), merged_);
      } else {
        merge_into_scratch(label);
      }
      if (merged_.size() == label.size() &&
          std::equal(merged_.begin(), merged_.end(), label.begin())) {
        continue;
      }
      label.assign(merged_.begin(), merged_.end());
      touch(head);
      enqueue(head, cand_min);
    }
  }
}

const Profile& LcProfileQuery::profile(StationId t) const {
  return labels_[g_.station_node(t)];
}

}  // namespace pconn
