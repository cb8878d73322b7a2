// All-to-one profile search: dist(S, T, ·) for a fixed target T and every
// source S in one run — the mirror image of the paper's one-to-all query,
// obtained by running parallel SPCS on the time-reversed timetable and
// mapping the resulting profiles back onto the forward clock.
//
// The returned profiles are exactly the forward Pareto sets: for every
// source the (departure, arrival) pairs equal those of a forward
// one_to_all(S) at T (the test suite asserts this transposition).
#pragma once

#include "algo/parallel_spcs.hpp"
#include "timetable/reverse.hpp"

namespace pconn {

/// Template over the SPCS queue policy of the underlying reverse-run
/// driver (queue_policy.hpp); definitions in all_to_one.cpp instantiate
/// the two shipped policies. `AllToOneProfiles` is the paper's
/// binary-heap configuration.
template <typename Queue = SpcsBinaryQueue>
class AllToOneProfilesT {
 public:
  /// Builds the reversed timetable and graph once; queries reuse them.
  /// `pool` is lent to the reverse driver; null = a private pool.
  AllToOneProfilesT(const Timetable& tt, ParallelSpcsOptions opt,
                    SpcsPool* pool = nullptr);

  /// Profiles dist(S, target, ·) for every station S, reduced and on the
  /// forward clock (departure at S in [0, period), absolute arrival at T).
  OneToAllResult all_to_one(StationId target);
  /// Allocation-free variant for warm sessions: reuses `out`'s buffers and
  /// the engine's internal reversed-result scratch.
  void all_to_one_into(StationId target, OneToAllResult& out);

  const Timetable& reverse_timetable() const { return reverse_tt_; }

 private:
  Time period_;
  Timetable reverse_tt_;
  TdGraph reverse_graph_;
  ParallelSpcsT<Queue> spcs_;
  OneToAllResult reversed_scratch_;  // reverse-clock result, reused per query
  Profile fwd_scratch_;              // forward-mapped raw points, per station
};

using AllToOneProfiles = AllToOneProfilesT<>;

}  // namespace pconn
