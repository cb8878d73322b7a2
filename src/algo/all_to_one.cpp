#include "algo/all_to_one.hpp"

#include <algorithm>

namespace pconn {

template <typename Queue>
AllToOneProfilesT<Queue>::AllToOneProfilesT(const Timetable& tt,
                                            ParallelSpcsOptions opt,
                                            SpcsPool* pool)
    : period_(tt.period()),
      reverse_tt_(make_reverse_timetable(tt)),
      reverse_graph_(TdGraph::build(reverse_tt_)),
      spcs_(reverse_tt_, reverse_graph_, opt, pool) {}

template <typename Queue>
void AllToOneProfilesT<Queue>::all_to_one_into(StationId target,
                                               OneToAllResult& out) {
  OneToAllResult& reversed = reversed_scratch_;
  spcs_.one_to_all_into(target, reversed);

  // Map each reversed profile point back to the forward clock. A reversed
  // point (dep_r, arr_r) is an itinerary leaving T at dep_r on the mirrored
  // clock and reaching S at arr_r; forward, that is an itinerary leaving S
  // at mirror(arr_r) and arriving T `travel` seconds later.
  auto mirror = [this](Time t) { return (period_ - t % period_) % period_; };
  out.stats = reversed.stats;
  out.max_thread_ms = reversed.max_thread_ms;
  out.min_thread_ms = reversed.min_thread_ms;
  out.profiles.resize(reversed.profiles.size());
  for (StationId s = 0; s < reversed.profiles.size(); ++s) {
    Profile& fwd = fwd_scratch_;
    fwd.clear();
    fwd.reserve(reversed.profiles[s].size());
    for (const ProfilePoint& p : reversed.profiles[s]) {
      const Time travel = p.arr - p.dep;
      const Time dep = mirror(p.arr);
      fwd.push_back({dep, dep + travel});
    }
    std::sort(fwd.begin(), fwd.end(),
              [](const ProfilePoint& a, const ProfilePoint& b) {
                return a.dep != b.dep ? a.dep < b.dep : a.arr < b.arr;
              });
    reduce_profile_into(fwd, period_, out.profiles[s]);
  }
}

template <typename Queue>
OneToAllResult AllToOneProfilesT<Queue>::all_to_one(StationId target) {
  OneToAllResult out;
  all_to_one_into(target, out);
  return out;
}

// The two shipped queue policies (queue_policy.hpp).
template class AllToOneProfilesT<SpcsBinaryQueue>;
template class AllToOneProfilesT<SpcsBucketQueue>;

}  // namespace pconn
