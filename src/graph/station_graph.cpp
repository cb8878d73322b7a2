#include "graph/station_graph.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

namespace pconn {

StationGraph StationGraph::build(const Timetable& tt) {
  // Aggregate elementary connections per ordered station pair.
  struct Agg {
    Time min_ride;
    std::uint32_t num_conns;
  };
  std::map<std::pair<StationId, StationId>, Agg> agg;
  for (const Connection& c : tt.connections()) {
    auto key = std::make_pair(c.from, c.to);
    auto it = agg.find(key);
    if (it == agg.end()) {
      agg.emplace(key, Agg{c.duration(), 1});
    } else {
      it->second.min_ride = std::min(it->second.min_ride, c.duration());
      it->second.num_conns++;
    }
  }

  StationGraph g;
  const std::size_t n = tt.num_stations();
  g.fwd_begin_.assign(n + 1, 0);
  g.rev_begin_.assign(n + 1, 0);
  for (const auto& [key, e] : agg) {
    g.fwd_begin_[key.first + 1]++;
    g.rev_begin_[key.second + 1]++;
  }
  std::partial_sum(g.fwd_begin_.begin(), g.fwd_begin_.end(),
                   g.fwd_begin_.begin());
  std::partial_sum(g.rev_begin_.begin(), g.rev_begin_.end(),
                   g.rev_begin_.begin());
  const std::size_t m = g.fwd_begin_.back();
  g.fwd_head_.resize(m);
  g.fwd_min_ride_.resize(m);
  g.fwd_num_conns_.resize(m);
  g.rev_head_.resize(m);
  std::vector<std::uint32_t> fpos(g.fwd_begin_.begin(), g.fwd_begin_.end() - 1);
  std::vector<std::uint32_t> rpos(g.rev_begin_.begin(), g.rev_begin_.end() - 1);
  for (const auto& [key, e] : agg) {
    const std::uint32_t f = fpos[key.first]++;
    g.fwd_head_[f] = key.second;
    g.fwd_min_ride_[f] = e.min_ride;
    g.fwd_num_conns_[f] = e.num_conns;
    const std::uint32_t r = rpos[key.second]++;
    g.rev_head_[r] = key.first;  // reverse edge points back to the tail
  }
  return g;
}

std::size_t StationGraph::degree(StationId s) const {
  std::set<StationId> neigh;
  for (StationId v : out_heads(s)) neigh.insert(v);
  for (StationId v : in_heads(s)) neigh.insert(v);
  return neigh.size();
}

std::size_t StationGraph::memory_bytes() const {
  return (fwd_begin_.size() + rev_begin_.size()) * sizeof(std::uint32_t) +
         (fwd_head_.size() + rev_head_.size()) * sizeof(StationId) +
         fwd_min_ride_.size() * sizeof(Time) +
         fwd_num_conns_.size() * sizeof(std::uint32_t);
}

}  // namespace pconn
