// The station graph G_S (paper Section 4): an edge (S1, S2) whenever at
// least one train runs from S1 directly to S2. Carries per-edge lower
// bounds (fastest ride) for the static contraction used in transfer-station
// selection, and the reverse adjacency for the via-station DFS.
//
// Storage is structure-of-arrays: forward heads, min-ride lower bounds and
// connection counts live in parallel arrays indexed by edge id
// (out_begin/out_end), and the reverse side keeps heads only, so the via
// DFS streams a dense 4-byte-per-edge array.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "timetable/timetable.hpp"

namespace pconn {

class StationGraph {
 public:
  static StationGraph build(const Timetable& tt);

  std::size_t num_stations() const { return fwd_begin_.size() - 1; }

  // --- SoA access (the via DFS streams the reverse head array) ----------
  std::uint32_t out_begin(StationId s) const { return fwd_begin_[s]; }
  std::uint32_t out_end(StationId s) const { return fwd_begin_[s + 1]; }
  /// Heads of the out-edges of s, as a dense span.
  std::span<const StationId> out_heads(StationId s) const {
    return {fwd_head_.data() + fwd_begin_[s], fwd_head_.data() + fwd_begin_[s + 1]};
  }
  /// Heads of the in-edges of s (tails of edges into s), as a dense span.
  std::span<const StationId> in_heads(StationId s) const {
    return {rev_head_.data() + rev_begin_[s], rev_head_.data() + rev_begin_[s + 1]};
  }
  /// Fastest elementary connection on out-edge e.
  Time out_min_ride(std::uint32_t e) const { return fwd_min_ride_[e]; }
  /// How many elementary connections back out-edge e.
  std::uint32_t out_num_conns(std::uint32_t e) const { return fwd_num_conns_[e]; }

  std::size_t out_degree(StationId s) const {
    return fwd_begin_[s + 1] - fwd_begin_[s];
  }
  std::size_t in_degree(StationId s) const {
    return rev_begin_[s + 1] - rev_begin_[s];
  }
  /// Undirected degree: number of distinct neighbors in either direction
  /// (the paper's "degree in the station graph" for deg > k selection).
  std::size_t degree(StationId s) const;

  /// Footprint in bytes (bench reporting).
  std::size_t memory_bytes() const;

 private:
  std::vector<std::uint32_t> fwd_begin_, rev_begin_;
  std::vector<StationId> fwd_head_, rev_head_;
  std::vector<Time> fwd_min_ride_;
  std::vector<std::uint32_t> fwd_num_conns_;
};

}  // namespace pconn
