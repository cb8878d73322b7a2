#include "algo/mc_query.hpp"

#include <algorithm>

namespace pconn {

namespace {

/// Lexicographic (arrival, boardings) as one integer key.
std::uint64_t mc_key(Time arr, std::uint32_t boards) {
  return (static_cast<std::uint64_t>(arr) << kMcKeyShift) | boards;
}

}  // namespace

template <typename Queue>
McTimeQueryT<Queue>::McTimeQueryT(const Timetable& tt, const TdGraph& g,
                                  QueryWorkspace* ws)
    : tt_(tt),
      g_(g),
      queue_(scratch_alloc(ws)),
      fronts_(ArenaAllocator<Front>(scratch_alloc(ws))),
      min_boards_(scratch_alloc(ws)),
      batch_(scratch_alloc(ws)),
      touched_(ArenaAllocator<NodeId>(scratch_alloc(ws))) {
  fronts_.resize(g.num_nodes(), Front(ArenaAllocator<McLabel>(scratch_alloc(ws))));
  min_boards_.assign(g.num_nodes(),
                     std::numeric_limits<std::uint32_t>::max());
  queue_.reset_capacity(g.num_nodes());
  batch_.reserve(g.max_out_degree());
}

template <typename Queue>
void McTimeQueryT<Queue>::run(StationId source, Time departure,
                              std::uint32_t max_boards) {
  max_boards = std::min(max_boards, (1u << kMcKeyShift) - 1);
  stats_ = QueryStats{};
  for (NodeId v : touched_) fronts_[v].clear();
  touched_.clear();
  min_boards_.clear();
  queue_.clear();

  const NodeId src = g_.station_node(source);
  queue_.push(src, mc_key(departure, 0));
  stats_.pushed++;

  while (!queue_.empty()) {
    auto [node, key] = queue_.pop();
    const Time arr = static_cast<Time>(key >> kMcKeyShift);
    const std::uint32_t boards =
        static_cast<std::uint32_t>(key & ((1u << kMcKeyShift) - 1));
    stats_.settled++;
    // Lexicographic pop order: Pareto-new iff it improves the boarding
    // minimum at the node.
    if (boards >= min_boards_.get(node)) continue;
    min_boards_.set(node, boards);
    if (fronts_[node].empty()) touched_.push_back(node);
    fronts_[node].push_back({arr, boards});

    // SoA relax: the domination test runs on the streamed head before the
    // TTF evaluation. Batch mode phases the loop as gather -> eval ->
    // commit; the pre-tests read only settle-time state (min_boards_ is
    // written at pops, never during relax), so gathering them all before
    // any commit is exact and both modes push identical labels.
    const std::uint32_t eb = g_.edge_begin(node);
    const std::uint32_t ee = g_.edge_end(node);
    const NodeId* const heads = g_.heads_data();
    const std::uint32_t* const words = g_.words_data();
    const bool from_station = g_.is_station_node(node);

    if (relax_.mode != RelaxMode::kInterleaved &&
        g_.ttf_out_degree(node) >= relax_.batch_min_edges) {
      batch_.clear();
      for (std::uint32_t ei = eb; ei < ee; ++ei) {
        if (ei + 1 < ee) min_boards_.prefetch(heads[ei + 1]);
        const NodeId head = heads[ei];
        std::uint32_t w = words[ei];
        const bool boarding = from_station && TdGraph::word_is_const(w);
        const std::uint32_t next_boards = boards + (boarding ? 1 : 0);
        if (next_boards > max_boards) continue;
        if (next_boards >= min_boards_.get(head)) continue;  // dominated
        // Boarding at the source itself is free of the transfer time but
        // still counts as boarding a vehicle: zero-weight constant word.
        if (node == src && TdGraph::word_is_const(w)) w = TdGraph::kConstFlag;
        batch_.push2(w, head, next_boards);
      }
      Time* const out = batch_.prepare_out();
      g_.arrivals_by_words(batch_.words(), batch_.size(), arr, out);
      for (std::size_t i = 0; i < batch_.size(); ++i) {
        const Time t = out[i];
        if (t == kInfTime) continue;
        stats_.relaxed++;
        queue_.push(batch_.aux(i), mc_key(t, batch_.aux2(i)));
        stats_.pushed++;
      }
    } else {
      for (std::uint32_t ei = eb; ei < ee; ++ei) {
        if (ei + 1 < ee) {
          min_boards_.prefetch(heads[ei + 1]);
          g_.prefetch_edge_ttf(ei + 1);
        }
        const NodeId head = heads[ei];
        const std::uint32_t w = words[ei];
        const bool boarding = from_station && TdGraph::word_is_const(w);
        std::uint32_t next_boards = boards + (boarding ? 1 : 0);
        if (next_boards > max_boards) continue;
        if (next_boards >= min_boards_.get(head)) continue;  // dominated
        // Boarding at the source itself is free of the transfer time but
        // still counts as boarding a vehicle.
        Time t = (node == src && TdGraph::word_is_const(w))
                     ? arr
                     : g_.arrival_by_word(w, arr);
        if (t == kInfTime) continue;
        stats_.relaxed++;
        queue_.push(head, mc_key(t, next_boards));
        stats_.pushed++;
      }
    }
  }
}

template <typename Queue>
std::span<const McLabel> McTimeQueryT<Queue>::pareto(StationId s) const {
  const auto& f = fronts_[g_.station_node(s)];
  return {f.data(), f.size()};
}

// The two shipped multi-label policies (queue_policy.hpp).
template class McTimeQueryT<McBinaryQueue>;
template class McTimeQueryT<McBucketQueue>;

}  // namespace pconn
