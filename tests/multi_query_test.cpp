// Differential tests for the query-matrix engine (algo/multi_query.hpp):
// a batch of K queries run on the engine's lanes, and the cross-lane
// down-sweep over them, must be byte-identical — every lane's distances,
// parents and work accounting — to a loop of warm per-query overlay
// engines over the same query stream, for every queue policy, every relax
// configuration and K in {1, 4, 32}. The lane-width accounting the bench
// gates must keep its meaning, and the session's matrix workloads must
// match per-query loops. Plus the workspace guarantee: a warm batch of the
// same shape performs zero heap allocations (this TU replaces the global
// operator new/delete with the counters of alloc_guard.hpp).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algo/contraction.hpp"
#include "algo/multi_query.hpp"
#include "algo/overlay_query.hpp"
#include "algo/session.hpp"
#include "algo/time_query.hpp"
#include "alloc_guard.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace pconn {
namespace {

using test::alloc_count;

/// Interleaved, the adaptive batch mode, and the phased body forced onto
/// every settle (batch_min_edges = 0).
const RelaxOptions kRelaxConfigs[] = {
    {.mode = RelaxMode::kInterleaved},
    {.mode = RelaxMode::kBatch},
    {.mode = RelaxMode::kBatch, .batch_min_edges = 0}};
constexpr std::size_t kBatchSizes[] = {1, 4, 32};

void expect_stats_eq(const QueryStats& a, const QueryStats& b,
                     const std::string& what) {
  EXPECT_EQ(a.settled, b.settled) << what;
  EXPECT_EQ(a.pushed, b.pushed) << what;
  EXPECT_EQ(a.decreased, b.decreased) << what;
  EXPECT_EQ(a.stale_popped, b.stale_popped) << what;
  EXPECT_EQ(a.relaxed, b.relaxed) << what;
}

void expect_batch_stats_eq(const BatchStats& a, const BatchStats& b,
                           const std::string& what) {
  EXPECT_EQ(a.gathers, b.gathers) << what;
  EXPECT_EQ(a.gathered_edges, b.gathered_edges) << what;
  for (std::size_t i = 0; i < a.fanout_hist.size(); ++i) {
    EXPECT_EQ(a.fanout_hist[i], b.fanout_hist[i]) << what << " bucket " << i;
  }
}

/// K queries mixing one-to-all (even lanes) and targeted early-stop runs
/// (odd lanes), departures spread over the whole period.
std::vector<BatchQuery> make_queries(const Timetable& tt, Rng& rng,
                                     std::size_t k) {
  std::vector<BatchQuery> qs(k);
  for (std::size_t i = 0; i < k; ++i) {
    qs[i].source = static_cast<StationId>(rng.next_below(tt.num_stations()));
    qs[i].departure = static_cast<Time>(rng.next_below(kDayseconds));
    qs[i].target = i % 2 == 1 ? static_cast<StationId>(
                                    rng.next_below(tt.num_stations()))
                              : kInvalidStation;
  }
  return qs;
}

// ---------------------------------------------------------- overlay ---

TEST(MultiQuery, OverlayMatchesPerQueryEveryPolicyModeAndBatchSize) {
  Timetable tt = test::small_city(42);
  TdGraph g = TdGraph::build(tt);
  const OverlayGraph ov = contract_graph(tt, g, {});
  Rng rng(72);
  for (QueueKind qk : kAllQueueKinds) {
    with_time_queue(qk, [&](auto tag) {
      using Queue = typename decltype(tag)::type;
      MultiQueryOverlayTimeEngineT<Queue> multi(tt, g, ov);
      OverlayTimeQueryT<Queue> per(tt, g, ov);
      for (const RelaxOptions& m : kRelaxConfigs) {
        multi.set_relax_options(m);
        per.set_relax_options(m);
        for (std::size_t k : kBatchSizes) {
          const std::vector<BatchQuery> qs = make_queries(tt, rng, k);
          multi.run(qs);
          for (std::size_t q = 0; q < k; ++q) {
            per.run(qs[q].source, qs[q].departure, qs[q].target);
            // Full (no-target) lanes also replay the per-lane down-sweep,
            // extending the comparison to every contracted node.
            const bool full = qs[q].target == kInvalidStation;
            if (full) {
              per.settle_contracted();
              multi.settle_contracted(q);
            }
            const std::string what =
                std::string("overlay ") + queue_kind_name(qk) + "/" +
                relax_mode_name(m.mode) + "/min" +
                std::to_string(m.batch_min_edges) + " K=" +
                std::to_string(k) + " lane " + std::to_string(q);
            expect_stats_eq(per.stats(), multi.stats(q), what);
            for (NodeId v = 0; v < ov.num_nodes(); ++v) {
              ASSERT_EQ(multi.arrival_at_node(q, v), per.arrival_at_node(v))
                  << what << " node " << v;
              ASSERT_EQ(multi.parent(q, v), per.parent(v))
                  << what << " node " << v;
            }
          }
        }
      }
    });
  }
}

// The cross-lane batched down-sweep (settle_contracted_batch) must agree
// with a loop of per-query settle_contracted runs at every node — labels
// served from the transposed sweep surface, parents with the lane
// fall-through, and the relax accounting — for every queue policy and
// batch size. Sweeping needs full lanes, so every query is one-to-all.
TEST(MultiQuery, SettleContractedBatchMatchesPerQuery) {
  Timetable tt = test::small_city(46);
  TdGraph g = TdGraph::build(tt);
  const OverlayGraph ov = contract_graph(tt, g, {});
  Rng rng(75);
  for (QueueKind qk : kAllQueueKinds) {
    with_time_queue(qk, [&](auto tag) {
      using Queue = typename decltype(tag)::type;
      MultiQueryOverlayTimeEngineT<Queue> multi(tt, g, ov);
      OverlayTimeQueryT<Queue> per(tt, g, ov);
      for (std::size_t k : kBatchSizes) {
        std::vector<BatchQuery> qs = make_queries(tt, rng, k);
        for (BatchQuery& q : qs) q.target = kInvalidStation;
        multi.run(qs);
        multi.settle_contracted_batch();
        for (std::size_t q = 0; q < k; ++q) {
          per.run(qs[q].source, qs[q].departure);
          per.settle_contracted();
          const std::string what = std::string("sweep ") +
                                   queue_kind_name(qk) + " K=" +
                                   std::to_string(k) + " lane " +
                                   std::to_string(q);
          expect_stats_eq(per.stats(), multi.stats(q), what);
          for (NodeId v = 0; v < ov.num_nodes(); ++v) {
            ASSERT_EQ(multi.arrival_at_node(q, v), per.arrival_at_node(v))
                << what << " node " << v;
            ASSERT_EQ(multi.parent(q, v), per.parent(v))
                << what << " node " << v;
          }
          // The station-level accessor must serve from the swept surface
          // too, not the stale lane labels.
          for (StationId s = 0; s < tt.num_stations(); ++s) {
            ASSERT_EQ(multi.arrival_at(q, s), per.arrival_at(s))
                << what << " station " << s;
          }
        }
      }
    });
  }
}

// Binding an overlay contracted from a different dataset must fail loudly,
// like the per-query engine.
TEST(MultiQuery, OverlayGraphMismatchThrows) {
  Timetable city = test::small_city(43);
  TdGraph g_city = TdGraph::build(city);
  Timetable tiny = test::tiny_line();
  TdGraph g_tiny = TdGraph::build(tiny);
  const OverlayGraph ov_tiny = contract_graph(tiny, g_tiny, {});
  EXPECT_THROW((MultiQueryOverlayTimeEngine{city, g_city, ov_tiny}),
               std::runtime_error);
}

// The gated lane-width metric (bench_multiquery's mean_lane_count) must
// keep its meaning: after run(), batch_stats() is exactly the sum of K
// standalone per-query runs' batch_stats(); the batched down-sweep then
// adds one record per non-constant down-edge with at least one live lane,
// its width the live lane count.
TEST(MultiQuery, BatchStatsSumLanesPlusOneRecordPerLiveDownEdge) {
  Timetable tt = test::small_city(47);
  TdGraph g = TdGraph::build(tt);
  const OverlayGraph ov = contract_graph(tt, g, {});
  ASSERT_GT(ov.num_contracted(), 0u) << "fixture contracted nothing";
  const std::size_t num_down_edges = ov.down_end(ov.num_contracted() - 1);
  Rng rng(76);
  for (QueueKind qk : kAllQueueKinds) {
    with_time_queue(qk, [&](auto tag) {
      using Queue = typename decltype(tag)::type;
      MultiQueryOverlayTimeEngineT<Queue> multi(tt, g, ov);
      OverlayTimeQueryT<Queue> per(tt, g, ov);
      for (std::size_t k : kBatchSizes) {
        const std::string what =
            std::string(queue_kind_name(qk)) + " K=" + std::to_string(k);
        // Mixed targeted / one-to-all lanes: the run-time records alone.
        const std::vector<BatchQuery> mixed = make_queries(tt, rng, k);
        multi.run(mixed);
        BatchStats expect;
        for (const BatchQuery& q : mixed) {
          per.run(q.source, q.departure, q.target);
          expect += per.batch_stats();
        }
        expect_batch_stats_eq(multi.batch_stats(), expect, what + " run");

        // Full lanes, then the sweep: a down-edge's live lanes are those
        // whose final label at its tail is reachable.
        std::vector<BatchQuery> full = make_queries(tt, rng, k);
        for (BatchQuery& q : full) q.target = kInvalidStation;
        multi.run(full);
        expect.reset();
        std::vector<std::uint32_t> live(num_down_edges, 0);
        for (const BatchQuery& q : full) {
          per.run(q.source, q.departure);
          expect += per.batch_stats();
          per.settle_contracted();
          for (std::uint32_t e = 0; e < num_down_edges; ++e) {
            live[e] += per.arrival_at_node(ov.down_tail(e)) != kInfTime;
          }
        }
        expect_batch_stats_eq(multi.batch_stats(), expect, what + " full");
        for (std::uint32_t e = 0; e < num_down_edges; ++e) {
          if (live[e] != 0 && !TdGraph::word_is_const(ov.down_word(e))) {
            expect.record(live[e]);
          }
        }
        multi.settle_contracted_batch();
        expect_batch_stats_eq(multi.batch_stats(), expect, what + " sweep");
      }
    });
  }
}

// ------------------------------------------------- session + workspace ---

// The session's matrix workloads must agree with per-query
// earliest-arrival loops, flat and overlay-routed.
TEST(MultiQuery, DistanceTableMatchesPerQueryLoops) {
  Timetable tt = test::small_city(44);
  TdGraph g = TdGraph::build(tt);
  const OverlayGraph ov = contract_graph(tt, g, {});
  Rng rng(73);
  std::vector<StationId> sources, targets;
  for (int i = 0; i < 9; ++i) {
    sources.push_back(static_cast<StationId>(rng.next_below(tt.num_stations())));
  }
  for (int i = 0; i < 7; ++i) {
    targets.push_back(static_cast<StationId>(rng.next_below(tt.num_stations())));
  }
  const Time dep = 8 * 3600;

  QuerySession session(tt, g);
  session.overlay_time_engine(ov);
  const std::span<const Time> flat =
      session.distance_table(sources, targets, dep);
  ASSERT_EQ(flat.size(), sources.size() * targets.size());
  TimeQuery per(tt, g);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    per.run(sources[i], dep);
    for (std::size_t j = 0; j < targets.size(); ++j) {
      EXPECT_EQ(flat[i * targets.size() + j], per.arrival_at(targets[j]))
          << sources[i] << "->" << targets[j];
    }
  }

  const std::span<const Time> routed =
      session.overlay_distance_table(sources, targets, dep);
  OverlayTimeQuery over(tt, g, ov);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    over.run(sources[i], dep);
    for (std::size_t j = 0; j < targets.size(); ++j) {
      EXPECT_EQ(routed[i * targets.size() + j], over.arrival_at(targets[j]))
          << sources[i] << "->" << targets[j];
    }
  }
}

// Zero-allocation guarantee: after warm-up, the matrix engine and the
// table workloads at the same batch shape allocate nothing — all lane
// state and the sweep buffers live in the session workspace.
TEST(MultiQuery, WarmRunBatchDoesNotAllocate) {
  Timetable tt = test::small_city(45);
  TdGraph g = TdGraph::build(tt);
  const OverlayGraph ov = contract_graph(tt, g, {});
  Rng rng(74);
  const std::vector<BatchQuery> qs = make_queries(tt, rng, 8);
  std::vector<StationId> sources, targets;
  for (int i = 0; i < 6; ++i) {
    sources.push_back(static_cast<StationId>(rng.next_below(tt.num_stations())));
    targets.push_back(static_cast<StationId>(rng.next_below(tt.num_stations())));
  }
  const Time dep = 9 * 3600;

  // The batched down-sweep needs full lanes; it rides along to pin its
  // transpose/row buffers (and the lazy down-index) to the workspace too.
  std::vector<BatchQuery> qs_full = qs;
  for (BatchQuery& q : qs_full) q.target = kInvalidStation;

  QuerySession session(tt, g);
  session.multi_overlay_engine(ov);
  session.overlay_time_engine(ov);
  std::uint64_t sink = 0;
  const auto exercise = [&] {
    sink += session.overlay_run_batch(qs).stats(0).settled;
    auto& eng = session.overlay_run_batch(qs_full);
    eng.settle_contracted_batch();
    sink += eng.arrival_at_node(0, 0);
    sink += session.distance_table(sources, targets, dep).size();
    sink += session.overlay_distance_table(sources, targets, dep).size();
  };
  exercise();  // engine construction + capacity growth
  exercise();  // second pass: every buffer at steady-state capacity
  const std::uint64_t before = alloc_count();
  exercise();
  EXPECT_EQ(alloc_count() - before, 0u) << "warm batch queries allocated";
  EXPECT_NE(sink, 0u);
}

}  // namespace
}  // namespace pconn
