// The realistic time-dependent model (Pyrga et al. [23], paper Section 2).
//
// For every station a *station node*; for every route and every position
// along that route a *route node*. Edges:
//   * board:  station  -> route node, constant weight T(S) (transfer time);
//   * alight: route node -> station, constant weight 0;
//   * travel: route node -> next route node of the same route, a
//     time-dependent Ttf holding one connection point per trip.
// Transfers between trains therefore cost exactly T(S); staying seated is
// free. Query algorithms that start at a station S skip the boarding cost
// at S itself (the paper's SPCS starts directly on route nodes).
//
// Storage is structure-of-arrays, tuned for the relax loop (the system's
// hottest code): per edge only a 4-byte head and a 4-byte packed
// ttf-or-weight word (top bit set = constant weight in the low 31 bits,
// else a TtfPool index), so an edge block streams at 8 bytes/edge instead
// of the seed's 12-byte AoS records, and the head array can be walked —
// and prefetched — without touching weights. All travel-time functions
// live in one TtfPool (graph/ttf_pool.hpp): contiguous points plus an O(1)
// bucket-indexed eval that replaces the per-relax binary search. Every
// caller, hot or cold, walks edges through the SoA accessors:
//   for (EdgeId e = g.edge_begin(v); e != g.edge_end(v); ++e)
//     ... g.edge_head(e), g.arrival_by_word(g.edge_word(e), t) ...
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/ttf_pool.hpp"
#include "timetable/timetable.hpp"

namespace pconn {

class TdGraph {
 public:
  using EdgeId = std::uint32_t;

  // --- packed ttf-or-weight word ----------------------------------------
  // The encoding is shared with TtfPool::arrival_n, whose batch kernel
  // evaluates constant words inline.
  static constexpr std::uint32_t kConstFlag = TtfPool::kConstFlag;
  static bool word_is_const(std::uint32_t w) { return (w & kConstFlag) != 0; }
  static Time word_weight(std::uint32_t w) {
    return static_cast<Time>(w & ~kConstFlag);
  }
  static std::uint32_t word_ttf(std::uint32_t w) { return w; }

  static TdGraph build(const Timetable& tt);

  NodeId num_nodes() const { return static_cast<NodeId>(station_of_.size()); }
  std::size_t num_edges() const { return heads_.size(); }
  std::size_t num_stations() const { return num_stations_; }
  Time period() const { return period_; }

  bool is_station_node(NodeId v) const { return v < num_stations_; }
  /// st(u): the station a node belongs to.
  StationId station_of(NodeId v) const { return station_of_[v]; }
  NodeId station_node(StationId s) const { return s; }
  NodeId route_node(RouteId r, std::uint32_t pos) const {
    return route_node_begin_[r] + pos;
  }
  /// The route node an elementary connection departs from.
  NodeId departure_node(const Timetable& tt, const Connection& c) const {
    return route_node(tt.trip(c.train).route, c.pos);
  }

  // --- SoA access (the relax loops stream these directly) ---------------
  EdgeId edge_begin(NodeId v) const { return edge_begin_[v]; }
  EdgeId edge_end(NodeId v) const { return edge_begin_[v + 1]; }
  NodeId edge_head(EdgeId e) const { return heads_[e]; }
  std::uint32_t edge_word(EdgeId e) const { return ttf_or_weight_[e]; }
  const NodeId* heads_data() const { return heads_.data(); }
  const std::uint32_t* words_data() const { return ttf_or_weight_.data(); }

  const TtfPool& ttfs() const { return ttfs_; }

  /// Absolute arrival via a packed ttf-or-weight word when reaching the
  /// tail at absolute time t — the interleaved relax-loop entry point.
  Time arrival_by_word(std::uint32_t w, Time t) const {
    if (word_is_const(w)) return t + word_weight(w);
    return ttfs_.arrival(word_ttf(w), t);
  }
  /// Batched variant for the gather -> eval -> commit relax loops: arrivals
  /// via words[0..n) for one entry time, constant words evaluated inline
  /// (vectorized; see TtfPool::arrival_n).
  void arrivals_by_words(const std::uint32_t* words, std::size_t n, Time t,
                         Time* out) const {
    ttfs_.arrival_n(words, n, t, out);
  }
  /// Largest out-degree of any node — the capacity bound the engines'
  /// batch buffers reserve once so warm queries never reallocate.
  std::uint32_t max_out_degree() const { return max_out_degree_; }
  /// Time-dependent (non-constant) edges in v's block, saturated at 255 —
  /// the relax loops' batch-profitability test: a block whose TTF fan-out
  /// is below the batch threshold runs interleaved (constant words cost a
  /// single add either way, so only TTF evals justify the phased loop).
  std::uint32_t ttf_out_degree(NodeId v) const { return ttf_out_degree_[v]; }
  /// Prefetch hint for edge e's travel-time points (no-op on constant
  /// edges: the weight is already in the streamed word).
  void prefetch_edge_ttf(EdgeId e) const {
    const std::uint32_t w = ttf_or_weight_[e];
    if (!word_is_const(w)) ttfs_.prefetch_points(word_ttf(w));
  }

  /// Rough memory footprint of the structure in bytes (bench reporting).
  std::size_t memory_bytes() const;

 private:
  std::size_t num_stations_ = 0;
  Time period_ = kDayseconds;
  std::uint32_t max_out_degree_ = 0;
  std::vector<StationId> station_of_;       // per node
  std::vector<NodeId> route_node_begin_;    // per route
  std::vector<std::uint32_t> edge_begin_;   // CSR offsets, num_nodes()+1
  std::vector<NodeId> heads_;               // per edge
  std::vector<std::uint32_t> ttf_or_weight_;  // per edge, packed (see top)
  std::vector<std::uint8_t> ttf_out_degree_;  // per node, saturated at 255
  TtfPool ttfs_;
};

}  // namespace pconn
