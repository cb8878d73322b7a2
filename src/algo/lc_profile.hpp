// Label-correcting profile search — the classical baseline the paper
// compares against in Table 1 (Section 2, "Computing Distances", after [5]).
//
// Instead of one label per (node, connection), whole travel-time profiles
// are propagated: every node carries a reduced (FIFO) profile; relaxing an
// edge links the tail profile with the edge function and min-merges it into
// the head profile. Nodes whose profile improves are (re)inserted into the
// queue — label-setting is lost, hence "label-correcting".
//
// The paper's Table 1 LC work metric is the sum of the sizes of the labels
// taken from the queue; QueryStats::label_points reports exactly that.
#pragma once

#include <vector>

#include "algo/counters.hpp"
#include "algo/queue_policy.hpp"
#include "algo/relax_batch.hpp"
#include "algo/workspace.hpp"
#include "graph/profile.hpp"
#include "graph/td_graph.hpp"
#include "timetable/timetable.hpp"

namespace pconn {

/// Pointwise minimum of two reduced profiles, as a reduced profile.
Profile merge_profiles(const Profile& a, const Profile& b, Time period);

/// Runs on the paper's binary heap. Label-correcting keys are NOT
/// monotone (a relaxed profile point can yield an arrival below the key
/// just popped), so the bucket policy cannot serve it; a node is queued at
/// most once and decrease-key lowers its key when its label improves.
class LcProfileQuery {
 public:
  /// `ws` (optional) places the queue, the bookkeeping arrays AND the
  /// profile-merge scratch (link/union/reduce buffers) in the workspace's
  /// arena. The per-node labels stay plain heap vectors but are only ever
  /// written through capacity-reusing assign(), so once every buffer has
  /// grown to its high-water mark a warm LC query performs no heap
  /// allocation — the zero-allocation session guard covers LC like every
  /// other engine (tests/session_test.cpp).
  LcProfileQuery(const Timetable& tt, const TdGraph& g,
                 QueryWorkspace* ws = nullptr);

  /// One-to-all profile search from s. Results valid until the next run.
  void run(StationId s);

  /// Reduced profile dist(S, t, ·) of the last run.
  const Profile& profile(StationId t) const;

  const QueryStats& stats() const { return stats_; }

  /// Relax-loop phasing (algo/relax_batch.hpp). LC's batch dimension is
  /// the label profile itself: linking a TTF edge evaluates every profile
  /// point through one function, which batch mode hands to the vectorized
  /// arrival_tn as a whole. Bit-identical results and accounting.
  void set_relax_mode(RelaxMode m) { relax_mode_ = m; }
  RelaxMode relax_mode() const { return relax_mode_; }

 private:
  using ScratchProfile =
      std::vector<ProfilePoint, ArenaAllocator<ProfilePoint>>;

  const Timetable& tt_;
  const TdGraph& g_;
  TimeBinaryQueue heap_;
  std::vector<Profile> labels_;  // per node; written via assign() only
  // nodes whose label must be cleared
  std::vector<NodeId, ArenaAllocator<NodeId>> touched_;
  // membership flag for touched_
  std::vector<std::uint8_t, ArenaAllocator<std::uint8_t>> dirty_;
  // Arena-pooled merge scratch, reused across relaxes and queries: the
  // linked candidate profile, the merge union, and the reduced result.
  ScratchProfile init_, cand_, union_, merged_;
  RelaxMode relax_mode_ = default_relax_mode();
  QueryStats stats_;
};

}  // namespace pconn
