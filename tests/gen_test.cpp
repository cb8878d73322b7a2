#include <gtest/gtest.h>

#include <set>
#include <string>

#include "gen/generator.hpp"
#include "graph/station_graph.hpp"
#include "timetable/validation.hpp"

namespace pconn {
namespace {

TEST(Frequency, RushHourDenserThanMidday) {
  gen::FrequencyProfile f;
  Time midday = 13 * 3600;
  Time am_rush = 8 * 3600;
  Time evening = 22 * 3600;
  EXPECT_LT(f.headway_at(am_rush), f.headway_at(midday));
  EXPECT_GT(f.headway_at(evening), f.headway_at(midday));
  EXPECT_GE(f.headway_at(am_rush), 60u);
}

TEST(BusCity, ValidAndDeterministic) {
  gen::BusCityConfig cfg;
  cfg.districts_x = 2;
  cfg.districts_y = 2;
  cfg.district_w = 3;
  cfg.district_h = 3;
  cfg.seed = 42;
  Timetable a = gen::make_bus_city(cfg);
  Timetable b = gen::make_bus_city(cfg);
  // 4 districts x 9 stops + 4 arterial-only stops (2 horizontal lines and
  // 2 vertical lines with one gap each).
  EXPECT_EQ(a.num_stations(), 4u * 9 + 4);
  EXPECT_EQ(a.num_connections(), b.num_connections());
  EXPECT_EQ(a.num_trips(), b.num_trips());
  ValidationReport rep = validate(a);
  EXPECT_TRUE(rep.ok()) << rep.problems.front();
}

TEST(BusCity, DifferentSeedsDiffer) {
  gen::BusCityConfig cfg;
  cfg.districts_x = 2;
  cfg.districts_y = 2;
  cfg.seed = 1;
  Timetable a = gen::make_bus_city(cfg);
  cfg.seed = 2;
  Timetable b = gen::make_bus_city(cfg);
  EXPECT_NE(a.num_connections(), b.num_connections());
}

TEST(BusCity, HubsSeparateDistricts) {
  // The structural property Table 2 depends on: interior district stops
  // reach other districts only through hubs (or arterial-only stops), so
  // the via-station DFS from an interior stop, pruning at hubs, must stay
  // inside the district.
  gen::BusCityConfig cfg;
  cfg.districts_x = 3;
  cfg.districts_y = 2;
  cfg.seed = 5;
  Timetable tt = gen::make_bus_city(cfg);
  StationGraph sg = StationGraph::build(tt);
  // Hubs carry both local and arterial service; they are exactly the
  // stations whose name has the central coordinates.
  std::vector<std::uint8_t> is_hub(tt.num_stations(), 0);
  for (StationId s = 0; s < tt.num_stations(); ++s) {
    if (tt.station_name(s).find(" 2/2") != std::string::npos) is_hub[s] = 1;
  }
  // BFS from stop 0 (district d0.0 interior) avoiding hubs must not leave
  // district d0.0.
  std::vector<std::uint8_t> seen(tt.num_stations(), 0);
  std::vector<StationId> stack{0};
  seen[0] = 1;
  while (!stack.empty()) {
    StationId v = stack.back();
    stack.pop_back();
    EXPECT_NE(tt.station_name(v).find(" d0.0 "), std::string::npos)
        << tt.station_name(v);
    for (StationId u : sg.out_heads(v)) {
      if (!seen[u] && !is_hub[u]) {
        seen[u] = 1;
        stack.push_back(u);
      }
    }
  }
}

TEST(BusCity, RushHourClusteringVisibleInDepartures) {
  gen::BusCityConfig cfg;
  cfg.districts_x = 2;
  cfg.districts_y = 2;
  cfg.seed = 3;
  Timetable tt = gen::make_bus_city(cfg);
  std::size_t rush = 0, night = 0;
  for (const Connection& c : tt.connections()) {
    Time tod = c.dep % kDayseconds;
    if (tod >= 7 * 3600 && tod < 9 * 3600) ++rush;
    if (tod >= 2 * 3600 && tod < 4 * 3600) ++night;
  }
  // The 2h morning rush must carry far more departures than 02:00-04:00
  // (operational break).
  EXPECT_GT(rush, 10 * std::max<std::size_t>(night, 1));
}

TEST(BusCity, RejectsDegenerateGrid) {
  gen::BusCityConfig cfg;
  cfg.district_w = 1;
  EXPECT_THROW(gen::make_bus_city(cfg), std::invalid_argument);
}

TEST(Railway, ValidAndConnectedHubs) {
  gen::RailwayConfig cfg;
  cfg.hubs = 5;
  cfg.seed = 8;
  Timetable tt = gen::make_railway(cfg);
  ValidationReport rep = validate(tt);
  EXPECT_TRUE(rep.ok()) << rep.problems.front();
  // Hubs are the first `hubs` stations; each must have outgoing service.
  for (StationId h = 0; h < cfg.hubs; ++h) {
    EXPECT_GT(tt.outgoing(h).size(), 0u);
  }
}

TEST(Railway, SparserThanBusCity) {
  Timetable bus = gen::make_preset(gen::Preset::kOahuLike, 0.25, 1);
  Timetable rail = gen::make_preset(gen::Preset::kGermanyLike, 0.5, 1);
  // The paper's key structural contrast: far fewer connections per station
  // on railways.
  EXPECT_GT(bus.avg_outgoing_connections(),
            2.0 * rail.avg_outgoing_connections());
}

TEST(Presets, AllBuildAndValidate) {
  for (gen::Preset p : gen::kAllPresets) {
    Timetable tt = gen::make_preset(p, 0.15, 1);
    ValidationReport rep = validate(tt);
    EXPECT_TRUE(rep.ok()) << gen::preset_name(p) << ": " << rep.problems.front();
    EXPECT_GT(tt.num_connections(), 100u) << gen::preset_name(p);
  }
}

TEST(Presets, RelativeSizesMatchPaperOrdering) {
  // Paper: LA > DC > Oahu stations; Europe > Germany stations.
  Timetable oahu = gen::make_preset(gen::Preset::kOahuLike, 0.25, 1);
  Timetable la = gen::make_preset(gen::Preset::kLosAngelesLike, 0.25, 1);
  Timetable dc = gen::make_preset(gen::Preset::kWashingtonLike, 0.25, 1);
  Timetable de = gen::make_preset(gen::Preset::kGermanyLike, 0.5, 1);
  Timetable eu = gen::make_preset(gen::Preset::kEuropeLike, 0.5, 1);
  EXPECT_GT(la.num_stations(), dc.num_stations());
  EXPECT_GT(dc.num_stations(), oahu.num_stations());
  EXPECT_GT(eu.num_stations(), de.num_stations());
}

TEST(Presets, NamesAreUnique) {
  std::set<std::string> names;
  for (gen::Preset p : gen::kAllPresets) names.insert(gen::preset_name(p));
  EXPECT_EQ(names.size(), 5u);
}

}  // namespace
}  // namespace pconn
