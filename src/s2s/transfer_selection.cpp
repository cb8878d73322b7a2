#include "s2s/transfer_selection.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/epoch_array.hpp"
#include "util/heap.hpp"

namespace pconn {

std::vector<StationId> select_transfer_by_degree(const StationGraph& sg,
                                                 std::size_t k) {
  std::vector<StationId> out;
  for (StationId s = 0; s < sg.num_stations(); ++s) {
    if (sg.degree(s) > k) out.push_back(s);
  }
  return out;
}

namespace {

/// Static lower-bound weighting of the station graph under contraction:
/// adjacency kept as hash maps so shortcut insertion and node removal are
/// cheap at the few-thousand-station scale of the presets.
class ContractionGraph {
 public:
  ContractionGraph(const StationGraph& sg, const Timetable& tt,
                   const ContractionOptions& opt)
      : opt_(opt), transfer_(tt.num_stations()) {
    const std::size_t n = sg.num_stations();
    fwd_.resize(n);
    rev_.resize(n);
    alive_.assign(n, 1);
    for (StationId s = 0; s < n; ++s) {
      transfer_[s] = tt.transfer_time(s);
      const std::uint32_t first = sg.out_begin(s);
      const std::span<const StationId> heads = sg.out_heads(s);
      for (std::uint32_t i = 0; i < heads.size(); ++i) {
        add_edge(s, heads[i], sg.out_min_ride(first + i));
      }
    }
    dist_.assign(n, kInfTime);
    dij_.reset_capacity(n);
  }

  /// Shortcuts that contracting v would insert, witness searches included.
  /// If `apply` is true the shortcuts are inserted and v removed.
  std::size_t simulate_or_contract(StationId v, bool apply) {
    std::size_t shortcuts = 0;
    for (const auto& [u, w_uv] : rev_[v]) {
      if (!alive_[u] || u == v) continue;
      // One witness Dijkstra from u covers all targets w.
      Time max_cand = 0;
      for (const auto& [w, w_vw] : fwd_[v]) {
        if (!alive_[w] || w == u || w == v) continue;
        max_cand = std::max(max_cand, w_uv + transfer_[v] + w_vw);
      }
      if (max_cand == 0) continue;
      witness_search(u, v, max_cand);
      for (const auto& [w, w_vw] : fwd_[v]) {
        if (!alive_[w] || w == u || w == v) continue;
        Time cand = w_uv + transfer_[v] + w_vw;
        Time witness = dist_.get(w);
        if (witness <= cand) continue;  // path avoiding v is good enough
        ++shortcuts;
        if (apply) add_edge(u, w, cand);
      }
    }
    if (apply) remove_node(v);
    return shortcuts;
  }

  std::size_t degree(StationId v) const {
    return fwd_[v].size() + rev_[v].size();
  }
  bool alive(StationId v) const { return alive_[v] != 0; }

  /// Neighbors of v (either direction), for lazy priority invalidation.
  std::vector<StationId> neighbors(StationId v) const {
    std::vector<StationId> out;
    for (const auto& [u, w] : fwd_[v]) {
      if (alive_[u]) out.push_back(u);
    }
    for (const auto& [u, w] : rev_[v]) {
      if (alive_[u]) out.push_back(u);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

 private:
  void add_edge(StationId u, StationId v, Time w) {
    if (u == v) return;
    auto it = fwd_[u].find(v);
    if (it == fwd_[u].end() || it->second > w) {
      fwd_[u][v] = w;
      rev_[v][u] = w;
    }
  }

  void remove_node(StationId v) {
    alive_[v] = 0;
    for (const auto& [u, w] : fwd_[v]) rev_[u].erase(v);
    for (const auto& [u, w] : rev_[v]) fwd_[u].erase(v);
    fwd_[v].clear();
    rev_[v].clear();
  }

  /// Bounded Dijkstra from u avoiding `banned`; fills dist_ (epoch-reset).
  void witness_search(StationId u, StationId banned, Time cutoff) {
    dist_.clear();
    dij_.clear();
    dist_.set(u, 0);
    dij_.push(u, 0);
    std::size_t settled = 0;
    while (!dij_.empty() && settled < opt_.witness_settle_limit) {
      auto [x, d] = dij_.pop();
      if (d > cutoff) break;
      ++settled;
      for (const auto& [y, w] : fwd_[x]) {
        if (!alive_[y] || y == banned) continue;
        Time nd = d + w + (x == u ? 0 : transfer_[x]);
        if (nd < dist_.get(y)) {
          dist_.set(y, nd);
          dij_.push_or_decrease(y, nd);
        }
      }
    }
    dij_.clear();
  }

  ContractionOptions opt_;
  std::vector<Time> transfer_;
  std::vector<std::unordered_map<StationId, Time>> fwd_, rev_;
  std::vector<std::uint8_t> alive_;
  EpochArray<Time> dist_;
  BinaryHeap<Time> dij_;
};

}  // namespace

std::vector<StationId> select_transfer_by_contraction(
    const StationGraph& sg, const Timetable& tt, std::size_t keep,
    const ContractionOptions& opt) {
  const std::size_t n = sg.num_stations();
  keep = std::max<std::size_t>(1, std::min(keep, n));

  ContractionGraph cg(sg, tt, opt);
  std::vector<std::int64_t> deleted_neighbors(n, 0);

  auto priority = [&](StationId v) -> std::int64_t {
    std::int64_t shortcuts =
        static_cast<std::int64_t>(cg.simulate_or_contract(v, false));
    std::int64_t removed = static_cast<std::int64_t>(cg.degree(v));
    // Edge difference plus a spreading term (classic CH heuristic [12]).
    return 2 * (shortcuts - removed) + deleted_neighbors[v];
  };

  // Lazy-update ordering: keys can go stale; re-check on pop.
  BinaryHeap<std::int64_t> queue(n);
  for (StationId v = 0; v < n; ++v) queue.push(v, priority(v));

  std::size_t alive_count = n;
  while (alive_count > keep && !queue.empty()) {
    auto [v, key] = queue.pop();
    std::int64_t fresh = priority(v);
    if (!queue.empty() && fresh > queue.top_key()) {
      queue.push(v, fresh);  // stale — requeue and try the next candidate
      continue;
    }
    std::vector<StationId> neigh = cg.neighbors(v);
    cg.simulate_or_contract(v, true);
    --alive_count;
    for (StationId u : neigh) deleted_neighbors[u]++;
  }

  std::vector<StationId> out;
  out.reserve(alive_count);
  for (StationId v = 0; v < n; ++v) {
    if (cg.alive(v)) out.push_back(v);
  }
  return out;
}

std::vector<StationId> select_transfer_fraction(const StationGraph& sg,
                                                const Timetable& tt,
                                                double fraction) {
  auto keep = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(sg.num_stations())));
  return select_transfer_by_contraction(sg, tt, keep);
}

}  // namespace pconn
