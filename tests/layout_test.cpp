// Differential tests for the PR-3 memory-layout pass: the pooled-TTF /
// SoA-edge graph must be observationally identical to the seed AoS layout.
//
//  * The CSR edge blocks tile the edge arrays, the batched block eval
//    (arrivals_by_words) agrees with the per-edge word eval, and the pooled
//    bucket-indexed evaluation agrees with a freshly built per-edge Ttf
//    (the seed representation, binary-search eval) at a dense time grid.
//  * All engines (SPCS one-to-all, TimeQuery, LC, MC) produce profiles /
//    arrivals equal to brute-force references on randomized networks, and
//    the cross-policy settled accounting stays byte-identical — i.e. the
//    relax-loop restructure (settled/pruning tests before TTF evaluation,
//    prefetch lookahead) changed no observable result.
//  * StationGraph's SoA arrays aggregate the timetable's connections.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "algo/lc_profile.hpp"
#include "algo/parallel_spcs.hpp"
#include "algo/time_query.hpp"
#include "graph/station_graph.hpp"
#include "graph/td_graph.hpp"
#include "graph/ttf.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace pconn {
namespace {

TEST(Layout, EdgeBlocksBatchEvalMatchesPerEdge) {
  Timetable tt = test::small_city(31);
  TdGraph g = TdGraph::build(tt);
  TdGraph::EdgeId prev_end = 0;
  std::vector<Time> out(g.max_out_degree());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const TdGraph::EdgeId eb = g.edge_begin(v), ee = g.edge_end(v);
    ASSERT_EQ(eb, prev_end);
    ASSERT_LE(ee - eb, g.max_out_degree());
    prev_end = ee;
    for (Time t : {0u, 8u * 3600u, 86399u, 90000u}) {
      g.arrivals_by_words(g.words_data() + eb, ee - eb, t, out.data());
      for (TdGraph::EdgeId e = eb; e != ee; ++e) {
        const std::uint32_t w = g.edge_word(e);
        const Time want = TdGraph::word_is_const(w)
                              ? t + TdGraph::word_weight(w)
                              : g.ttfs().arrival(TdGraph::word_ttf(w), t);
        EXPECT_EQ(g.arrival_by_word(w, t), want) << "edge " << e;
        EXPECT_EQ(out[e - eb], want) << "edge " << e;
      }
    }
  }
  EXPECT_EQ(prev_end, g.num_edges());
}

// Pooled eval vs the seed representation rebuilt per edge: one Ttf object
// with its own vector and binary-search eval.
TEST(Layout, PooledEvalMatchesPerEdgeBinarySearch) {
  Timetable tt = test::small_railway(32);
  TdGraph g = TdGraph::build(tt);
  const TtfPool& pool = g.ttfs();
  std::size_t ttf_edges = 0;
  for (std::uint32_t f = 0; f < pool.size(); ++f) {
    auto pts = pool.points(f);
    Ttf seed = Ttf::build({pts.begin(), pts.end()}, g.period());
    ASSERT_EQ(seed.size(), pts.size());
    for (Time t = 0; t < g.period(); t += 311) {
      ASSERT_EQ(pool.eval(f, t), seed.eval(t)) << "ttf " << f << " t " << t;
      ASSERT_EQ(pool.point_used(f, t), seed.point_used(t))
          << "ttf " << f << " t " << t;
    }
    ++ttf_edges;
  }
  EXPECT_GT(ttf_edges, 0u);
}

// TimeQuery on the SoA layout vs the exhaustive Bellman-Ford oracle, under
// every queue policy, with cross-policy settled accounting.
TEST(Layout, TimeQueryMatchesBruteForceUnderAllPolicies) {
  Rng rng(71);
  for (int net = 0; net < 3; ++net) {
    Timetable tt = test::random_timetable(rng, 10 + net * 4, 8, 3);
    TdGraph g = TdGraph::build(tt);
    TimeQueryT<TimeBinaryQueue> binary(tt, g);
    TimeQueryT<TimeBucketQueue> bucket(tt, g);
    for (int i = 0; i < 6; ++i) {
      StationId s = static_cast<StationId>(rng.next_below(tt.num_stations()));
      Time tau = static_cast<Time>(rng.next_below(tt.period()));
      std::vector<Time> oracle = test::brute_force_arrivals(g, s, tau);
      binary.run(s, tau);
      bucket.run(s, tau);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        ASSERT_EQ(binary.arrival_at_node(v), oracle[v])
            << "net " << net << " src " << s << " node " << v;
        ASSERT_EQ(bucket.arrival_at_node(v), oracle[v]);
      }
      EXPECT_EQ(binary.stats().settled, bucket.stats().settled);
    }
  }
}

// SPCS one-to-all on the SoA layout: identical profiles and settled /
// self-pruned accounting across both policies, and agreement with the
// LC baseline (an entirely different algorithm over the same layout).
TEST(Layout, ProfileEnginesAgreeAcrossPoliciesAndAlgorithms) {
  Rng rng(72);
  Timetable tt = test::random_timetable(rng, 14, 10, 4);
  TdGraph g = TdGraph::build(tt);
  ParallelSpcsOptions opt;
  opt.threads = 2;
  ParallelSpcsT<SpcsBinaryQueue> binary(tt, g, opt);
  ParallelSpcsT<SpcsBucketQueue> bucket(tt, g, opt);
  LcProfileQuery lc(tt, g);
  for (int i = 0; i < 5; ++i) {
    StationId s = static_cast<StationId>(rng.next_below(tt.num_stations()));
    OneToAllResult rb = binary.one_to_all(s);
    OneToAllResult rk = bucket.one_to_all(s);
    lc.run(s);
    for (StationId v = 0; v < tt.num_stations(); ++v) {
      EXPECT_EQ(rb.profiles[v], rk.profiles[v]) << "src " << s << " dst " << v;
      test::expect_same_function(rb.profiles[v], lc.profile(v), tt.period(),
                                 "spcs vs lc, dst " + std::to_string(v));
    }
    EXPECT_EQ(rb.stats.settled, rk.stats.settled);
    EXPECT_EQ(rb.stats.self_pruned, rk.stats.self_pruned);
  }
}

// prune_on_relax now fires before the TTF evaluation; results must stay
// byte-identical to the default configuration (only counters may differ).
TEST(Layout, PruneOnRelaxUnchangedResults) {
  Rng rng(73);
  Timetable tt = test::random_timetable(rng, 12, 9, 4);
  TdGraph g = TdGraph::build(tt);
  ParallelSpcsOptions plain;
  ParallelSpcsOptions pruned;
  pruned.prune_on_relax = true;
  ParallelSpcs a(tt, g, plain);
  ParallelSpcs b(tt, g, pruned);
  for (int i = 0; i < 6; ++i) {
    StationId s = static_cast<StationId>(rng.next_below(tt.num_stations()));
    OneToAllResult ra = a.one_to_all(s);
    OneToAllResult rb = b.one_to_all(s);
    for (StationId v = 0; v < tt.num_stations(); ++v) {
      EXPECT_EQ(ra.profiles[v], rb.profiles[v]) << "src " << s << " dst " << v;
    }
  }
}

TEST(Layout, StationGraphMatchesConnections) {
  Timetable tt = test::small_railway(33);
  StationGraph sg = StationGraph::build(tt);
  // Per ordered station pair: fastest ride and connection count.
  std::map<std::pair<StationId, StationId>, std::pair<Time, std::uint32_t>>
      agg;
  for (const Connection& c : tt.connections()) {
    auto it = agg.try_emplace({c.from, c.to}, c.duration(), 0).first;
    it->second.first = std::min(it->second.first, c.duration());
    ++it->second.second;
  }
  std::size_t edges = 0;
  for (StationId s = 0; s < sg.num_stations(); ++s) {
    auto heads = sg.out_heads(s);
    ASSERT_EQ(sg.out_end(s) - sg.out_begin(s), heads.size());
    for (std::uint32_t i = 0; i < heads.size(); ++i) {
      const std::uint32_t e = sg.out_begin(s) + i;
      const auto it = agg.find({s, heads[i]});
      ASSERT_NE(it, agg.end()) << s << " -> " << heads[i];
      EXPECT_EQ(sg.out_min_ride(e), it->second.first);
      EXPECT_EQ(sg.out_num_conns(e), it->second.second);
      ++edges;
    }
    // Reverse views mirror forward edges.
    for (StationId u : sg.in_heads(s)) {
      bool found = false;
      for (StationId w : sg.out_heads(u)) found |= (w == s);
      EXPECT_TRUE(found) << "rev edge " << u << " -> " << s;
    }
  }
  EXPECT_EQ(edges, agg.size());
}

}  // namespace
}  // namespace pconn
