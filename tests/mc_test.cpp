#include <gtest/gtest.h>

#include "algo/mc_query.hpp"
#include "algo/time_query.hpp"
#include "test_util.hpp"

namespace pconn {
namespace {

/// Layered Bellman-Ford oracle: earliest arrival at every node using at
/// most `b` boardings, for b = 0..max_boards. Same source-boarding
/// conventions as the engines.
std::vector<std::vector<Time>> layered_oracle(const TdGraph& g, NodeId src,
                                              Time tau,
                                              std::uint32_t max_boards) {
  std::vector<std::vector<Time>> arr(
      max_boards + 1, std::vector<Time>(g.num_nodes(), kInfTime));
  arr[0][src] = tau;
  for (std::uint32_t b = 0; b <= max_boards; ++b) {
    if (b > 0) {
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        arr[b][v] = std::min(arr[b][v], arr[b - 1][v]);
      }
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (arr[b][v] == kInfTime) continue;
        for (TdGraph::EdgeId e = g.edge_begin(v); e != g.edge_end(v); ++e) {
          const NodeId head = g.edge_head(e);
          const std::uint32_t w = g.edge_word(e);
          const bool is_const = TdGraph::word_is_const(w);
          const bool boarding = g.is_station_node(v) && is_const;
          Time t = (v == src && is_const) ? arr[b][v]
                                          : g.arrival_by_word(w, arr[b][v]);
          if (t == kInfTime) continue;
          if (boarding) {
            if (b + 1 <= max_boards && t < arr[b + 1][head]) {
              arr[b + 1][head] = t;
              // handled when the b+1 layer runs; mark via outer loop order
            }
          } else if (t < arr[b][head]) {
            arr[b][head] = t;
            changed = true;
          }
        }
      }
    }
  }
  return arr;
}

TEST(McQuery, TransferTradeoffFixture) {
  // Fast itinerary with a transfer vs slow direct trip.
  TimetableBuilder b;
  StationId a = b.add_station("A", 60);
  StationId m = b.add_station("M", 60);
  StationId c = b.add_station("C", 60);
  using St = TimetableBuilder::StopTime;
  b.add_trip(std::vector<St>{{a, 0, 1000}, {m, 1600, 1600}});
  b.add_trip(std::vector<St>{{m, 0, 1800}, {c, 2400, 2400}});
  b.add_trip(std::vector<St>{{a, 0, 1000}, {c, 4000, 4000}});  // direct, slow
  Timetable tt = b.finalize();
  TdGraph g = TdGraph::build(tt);
  McTimeQuery mc(tt, g);
  mc.run(a, 900);
  auto front = mc.pareto(c);
  ASSERT_EQ(front.size(), 2u);
  EXPECT_EQ(front[0], (McLabel{2400, 2}));  // fast, 1 transfer
  EXPECT_EQ(front[1], (McLabel{4000, 1}));  // slow, direct
}

TEST(McQuery, EarliestArrivalMatchesTimeQuery) {
  Timetable tt = test::small_city(81);
  TdGraph g = TdGraph::build(tt);
  McTimeQuery mc(tt, g);
  TimeQuery tq(tt, g);
  Rng rng(82);
  for (int trial = 0; trial < 8; ++trial) {
    StationId src = static_cast<StationId>(rng.next_below(tt.num_stations()));
    Time tau = static_cast<Time>(rng.next_below(tt.period()));
    mc.run(src, tau, 24);
    tq.run(src, tau);
    for (StationId s = 0; s < tt.num_stations(); ++s) {
      if (s == src) continue;
      auto front = mc.pareto(s);
      if (tq.arrival_at(s) == kInfTime) {
        EXPECT_TRUE(front.empty());
      } else {
        ASSERT_FALSE(front.empty()) << "station " << s;
        EXPECT_EQ(front.front().arr, tq.arrival_at(s)) << "station " << s;
      }
    }
  }
}

TEST(McQuery, FrontsAreStrictPareto) {
  Timetable tt = test::small_railway(83);
  TdGraph g = TdGraph::build(tt);
  McTimeQuery mc(tt, g);
  mc.run(0, 8 * 3600);
  for (StationId s = 0; s < tt.num_stations(); ++s) {
    auto front = mc.pareto(s);
    for (std::size_t i = 1; i < front.size(); ++i) {
      EXPECT_LT(front[i - 1].arr, front[i].arr);
      EXPECT_GT(front[i - 1].boards, front[i].boards);
    }
  }
}

class McOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(McOracleTest, MatchesLayeredBellmanFord) {
  Rng rng(GetParam());
  Timetable tt = test::random_timetable(rng, 8, 10, 4);
  TdGraph g = TdGraph::build(tt);
  constexpr std::uint32_t kMaxBoards = 8;
  McTimeQuery mc(tt, g);
  StationId src = static_cast<StationId>(rng.next_below(tt.num_stations()));
  Time tau = static_cast<Time>(rng.next_below(tt.period()));
  mc.run(src, tau, kMaxBoards);
  auto oracle = layered_oracle(g, g.station_node(src), tau, kMaxBoards);
  for (StationId s = 0; s < tt.num_stations(); ++s) {
    NodeId v = g.station_node(s);
    auto front = mc.pareto(s);
    // Build the Pareto set from the oracle: every b whose arrival strictly
    // improves over b-1 boardings.
    std::vector<McLabel> pareto_oracle;
    Time prev = kInfTime;
    for (std::uint32_t b = 0; b <= kMaxBoards; ++b) {
      if (oracle[b][v] < prev) {
        pareto_oracle.push_back({oracle[b][v], b});
        prev = oracle[b][v];
      }
    }
    // pareto_oracle: arr decreasing with boards increasing; front: arr
    // increasing with boards decreasing. Compare reversed.
    std::vector<McLabel> got(front.begin(), front.end());
    std::reverse(got.begin(), got.end());
    ASSERT_EQ(got.size(), pareto_oracle.size()) << "station " << s;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], pareto_oracle[i]) << "station " << s << " entry " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, McOracleTest,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(McQuery, MaxBoardsCutsOff) {
  Timetable tt = test::small_city(84);
  TdGraph g = TdGraph::build(tt);
  McTimeQuery mc(tt, g);
  mc.run(0, 8 * 3600, 1);  // single vehicle only
  for (StationId s = 1; s < tt.num_stations(); ++s) {
    for (const McLabel& l : mc.pareto(s)) EXPECT_LE(l.boards, 1u);
  }
}

TEST(McQuery, RerunsAreIndependent) {
  Timetable tt = test::small_railway(85);
  TdGraph g = TdGraph::build(tt);
  McTimeQuery mc(tt, g);
  mc.run(0, 8 * 3600);
  std::vector<McLabel> first(mc.pareto(5).begin(), mc.pareto(5).end());
  mc.run(1, 9 * 3600);
  mc.run(0, 8 * 3600);
  std::vector<McLabel> again(mc.pareto(5).begin(), mc.pareto(5).end());
  EXPECT_EQ(first, again);
}

}  // namespace
}  // namespace pconn
