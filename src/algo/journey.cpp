#include "algo/journey.hpp"

#include <algorithm>
#include <sstream>

#include "util/format.hpp"

namespace pconn {

namespace detail {

/// The trip of route r actually boarded at position k when the rider is
/// ready at absolute time t: the trip with the next departure at stop k
/// (cyclically), ties broken by earliest arrival at k+1.
TrainId journey_trip_used(const Timetable& tt, RouteId r, std::uint32_t k,
                          Time t) {
  const Route& route = tt.route(r);
  Time best_wait = kInfTime;
  Time best_arr = kInfTime;
  TrainId best = route.trips.front();
  for (TrainId id : route.trips) {
    const Trip& trip = tt.trip(id);
    Time wait = delta(t, trip.departures[k], tt.period());
    Time arr_rel = wait + (trip.arrivals[k + 1] - trip.departures[k]);
    if (wait < best_wait || (wait == best_wait && arr_rel < best_arr)) {
      best_wait = wait;
      best_arr = arr_rel;
      best = id;
    }
  }
  return best;
}

RouteId route_of_node(const Timetable& tt, const TdGraph& g, NodeId v) {
  // v is route_node(r, k): route nodes are numbered contiguously per route
  // after the station nodes, so binary-search the route whose first node is
  // the largest one <= v.
  std::uint32_t lo = 0, hi = static_cast<std::uint32_t>(tt.num_routes());
  while (lo + 1 < hi) {
    std::uint32_t mid = (lo + hi) / 2;
    if (g.route_node(mid, 0) <= v) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace detail

template <typename Queue>
bool extract_journey_into(const Timetable& tt, const TdGraph& g,
                          const TimeQueryT<Queue>& q, StationId source,
                          Time departure, StationId target,
                          std::vector<NodeId>& path_scratch, Journey& j) {
  j.source = source;
  j.target = target;
  j.departure = departure;
  j.arrival = kInfTime;
  j.legs.clear();

  const NodeId dst = g.station_node(target);
  if (q.arrival_at_node(dst) == kInfTime) return false;

  // Node path from source to target.
  std::vector<NodeId>& path = path_scratch;
  path.clear();
  for (NodeId v = dst; v != kInvalidNode; v = q.parent(v)) path.push_back(v);
  std::reverse(path.begin(), path.end());

  j.arrival = q.arrival_at_node(dst);

  // Walk the path; every travel edge (route node -> route node) contributes
  // to a leg. Identify the trip from the tail's arrival time.
  journey_legs_from_path(
      tt, g, std::span<const NodeId>(path),
      [&](std::size_t idx) { return q.arrival_at_node(path[idx]); }, j);
  return true;
}

template <typename Queue>
std::optional<Journey> extract_journey(const Timetable& tt, const TdGraph& g,
                                       const TimeQueryT<Queue>& q,
                                       StationId source, Time departure,
                                       StationId target) {
  Journey j;
  std::vector<NodeId> path;
  if (!extract_journey_into(tt, g, q, source, departure, target, path, j)) {
    return std::nullopt;
  }
  return j;
}

// Explicit instantiations for the shipped time-query policies.
#define PCONN_INSTANTIATE_JOURNEY(Q)                                          \
  template std::optional<Journey> extract_journey<Q>(                         \
      const Timetable&, const TdGraph&, const TimeQueryT<Q>&, StationId,      \
      Time, StationId);                                                       \
  template bool extract_journey_into<Q>(                                      \
      const Timetable&, const TdGraph&, const TimeQueryT<Q>&, StationId,      \
      Time, StationId, std::vector<NodeId>&, Journey&);
PCONN_INSTANTIATE_JOURNEY(TimeBinaryQueue)
PCONN_INSTANTIATE_JOURNEY(TimeBucketQueue)
#undef PCONN_INSTANTIATE_JOURNEY

std::vector<Journey> profile_journeys(const Timetable& tt, const TdGraph& g,
                                      const Profile& profile, StationId source,
                                      StationId target) {
  std::vector<Journey> out;
  out.reserve(profile.size());
  TimeQuery q(tt, g);
  for (const ProfilePoint& p : profile) {
    q.run(source, p.dep, target);
    auto j = extract_journey(tt, g, q, source, p.dep, target);
    if (j) out.push_back(std::move(*j));
  }
  return out;
}

std::uint32_t latest_departure_by(const Profile& profile, Time deadline) {
  // Arrivals are strictly increasing in a reduced profile: binary search
  // the last point with arr <= deadline.
  std::uint32_t lo = 0, hi = static_cast<std::uint32_t>(profile.size());
  while (lo < hi) {
    std::uint32_t mid = (lo + hi) / 2;
    if (profile[mid].arr <= deadline) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo == 0 ? kNoConn : lo - 1;
}

std::string describe_journey(const Timetable& tt, const Journey& j) {
  std::ostringstream out;
  out << tt.station_name(j.source) << " -> " << tt.station_name(j.target)
      << ", ready at " << format_clock(j.departure, tt.period()) << ", arrive "
      << format_clock(j.arrival, tt.period()) << " ("
      << j.num_transfers() << " transfer" << (j.num_transfers() == 1 ? "" : "s")
      << ")\n";
  for (const JourneyLeg& leg : j.legs) {
    out << "  " << format_clock(leg.dep, tt.period()) << "  trip " << leg.train
        << " (route " << leg.route << ")  " << tt.station_name(leg.from)
        << " -> " << tt.station_name(leg.to) << ", arr "
        << format_clock(leg.arr, tt.period()) << "\n";
  }
  return out.str();
}

}  // namespace pconn
