// Chaos-engine tests: fault plans project onto slots correctly, the
// topology overlay rebuilds only at fault-epoch boundaries, scripted link
// faults displace and re-place streams end to end, drops are attributed to
// their cause, and chaos generation is seed-deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "mec/topology_overlay.h"
#include "mec/workload.h"
#include "sim/fault_plan.h"
#include "sim/online_sim.h"
#include "util/rng.h"

namespace mecar::sim {
namespace {

mec::Topology two_stations() {
  std::vector<mec::BaseStation> stations{
      {0, 2000.0, 1.0, 0.0, 0.0},
      {1, 2000.0, 1.0, 0.2, 0.0},
  };
  std::vector<mec::Link> links{{0, 1, 2.0}};
  return mec::Topology(std::move(stations), std::move(links));
}

mec::Topology one_station(double capacity_mhz) {
  std::vector<mec::BaseStation> stations{{0, capacity_mhz, 1.0, 0.0, 0.0}};
  return mec::Topology(std::move(stations), {});
}

mec::ARRequest stream(int id, double rate, int arrival, int duration) {
  mec::ARRequest req;
  req.id = id;
  req.home_station = 0;
  req.tasks = mec::ar_pipeline(3);
  req.demand = mec::RateRewardDist({{rate, 1.0, 500.0}});
  req.latency_budget_ms = 200.0;
  req.arrival_slot = arrival;
  req.duration_slots = duration;
  return req;
}

// ---------------------------------------------------------------------------
// TopologyOverlay

TEST(TopologyOverlay, IdentityPerturbationNeverRebuilds) {
  const mec::Topology topo = two_stations();
  mec::TopologyOverlay overlay(topo);
  const mec::TopologyPerturbation none;
  EXPECT_TRUE(none.identity());
  EXPECT_FALSE(overlay.apply(none));
  EXPECT_FALSE(overlay.reset());
  EXPECT_EQ(overlay.epochs(), 0);
  EXPECT_DOUBLE_EQ(overlay.effective().transmission_delay_ms(0, 1), 2.0);
}

TEST(TopologyOverlay, BrownoutScalesCapacityAndRepeatIsFree) {
  const mec::Topology topo = two_stations();
  mec::TopologyOverlay overlay(topo);
  // Bind the stable reference BEFORE any fault: every epoch must be
  // observable through it (this is the contract the simulator relies on).
  const mec::Topology& eff = overlay.effective();

  mec::TopologyPerturbation pert;
  pert.capacity_scale = {1.0, 0.5};
  EXPECT_TRUE(overlay.apply(pert));
  EXPECT_EQ(overlay.epochs(), 1);
  EXPECT_DOUBLE_EQ(eff.station(0).capacity_mhz, 2000.0);
  EXPECT_DOUBLE_EQ(eff.station(1).capacity_mhz, 1000.0);

  // Same perturbation again: same epoch, no rebuild.
  EXPECT_FALSE(overlay.apply(pert));
  EXPECT_EQ(overlay.epochs(), 1);

  // Return to healthy is itself an epoch.
  EXPECT_TRUE(overlay.reset());
  EXPECT_EQ(overlay.epochs(), 2);
  EXPECT_DOUBLE_EQ(eff.station(1).capacity_mhz, 2000.0);
}

TEST(TopologyOverlay, LinkOutageDisconnectsButKeepsLinkIndex) {
  const mec::Topology topo = two_stations();
  mec::TopologyOverlay overlay(topo);
  mec::TopologyPerturbation pert;
  pert.link_down = {1};
  EXPECT_TRUE(overlay.apply(pert));
  const mec::Topology& eff = overlay.effective();
  EXPECT_FALSE(std::isfinite(eff.transmission_delay_ms(0, 1)));
  // The cut link keeps its index (modelled as an infinite-delay edge), so
  // base link ids remain valid across epochs.
  ASSERT_EQ(eff.links().size(), 1u);
  EXPECT_FALSE(std::isfinite(eff.links()[0].delay_ms));
  // The base topology is untouched.
  EXPECT_DOUBLE_EQ(overlay.base().transmission_delay_ms(0, 1), 2.0);
}

TEST(TopologyOverlay, LinkDegradationScalesDelay) {
  const mec::Topology topo = two_stations();
  mec::TopologyOverlay overlay(topo);
  mec::TopologyPerturbation pert;
  pert.link_delay_scale = {3.0};
  EXPECT_TRUE(overlay.apply(pert));
  EXPECT_DOUBLE_EQ(overlay.effective().transmission_delay_ms(0, 1), 6.0);
}

TEST(TopologyOverlay, RejectsMalformedPerturbations) {
  const mec::Topology topo = two_stations();
  mec::TopologyOverlay overlay(topo);
  mec::TopologyPerturbation wrong_size;
  wrong_size.capacity_scale = {0.5};  // 1 entry, 2 stations
  EXPECT_THROW(overlay.apply(wrong_size), std::invalid_argument);
  mec::TopologyPerturbation negative;
  negative.capacity_scale = {-0.1, 1.0};
  EXPECT_THROW(overlay.apply(negative), std::invalid_argument);
  mec::TopologyPerturbation shrink;
  shrink.link_delay_scale = {0.5};  // delay scales must be >= 1
  EXPECT_THROW(overlay.apply(shrink), std::invalid_argument);
  EXPECT_EQ(overlay.epochs(), 0);  // failed applies change nothing
}

// ---------------------------------------------------------------------------
// TopologyOverlay repair: every epoch must equal a freshly built Topology
// bit for bit — transmission delays and shortest paths alike.

/// What a fresh construction gives for `pert` over `base`.
mec::Topology fresh_topology(const mec::Topology& base,
                             const mec::TopologyPerturbation& pert) {
  std::vector<mec::BaseStation> stations = base.stations();
  for (std::size_t i = 0; i < pert.capacity_scale.size(); ++i) {
    stations[i].capacity_mhz *= pert.capacity_scale[i];
  }
  std::vector<mec::Link> links = base.links();
  for (std::size_t li = 0; li < links.size(); ++li) {
    if (!pert.link_down.empty() && pert.link_down[li] != 0) {
      links[li].delay_ms = std::numeric_limits<double>::infinity();
    } else if (!pert.link_delay_scale.empty()) {
      links[li].delay_ms *= pert.link_delay_scale[li];
    }
  }
  return mec::Topology(std::move(stations), std::move(links));
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Asserts `got` equals `want` bit for bit; returns false on the first
/// difference so callers can stop a long sequence early.
bool same_topology(const mec::Topology& got, const mec::Topology& want) {
  const int n = want.num_stations();
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(bits(got.station(i).capacity_mhz),
              bits(want.station(i).capacity_mhz))
        << "station " << i;
  }
  for (std::size_t li = 0; li < want.links().size(); ++li) {
    EXPECT_EQ(bits(got.links()[li].delay_ms), bits(want.links()[li].delay_ms))
        << "link " << li;
  }
  for (int from = 0; from < n; ++from) {
    for (int to = 0; to < n; ++to) {
      const double d = want.transmission_delay_ms(from, to);
      if (bits(got.transmission_delay_ms(from, to)) != bits(d)) {
        ADD_FAILURE() << "delay " << from << "->" << to << ": "
                      << got.transmission_delay_ms(from, to) << " vs " << d;
        return false;
      }
      if (std::isfinite(d) && got.shortest_path_links(from, to) !=
                                  want.shortest_path_links(from, to)) {
        ADD_FAILURE() << "path " << from << "->" << to;
        return false;
      }
    }
  }
  return !::testing::Test::HasFailure();
}

/// A Waxman topology; `integer_delays` rounds delays to 1..4 ms so that
/// equal-length paths, and with them parent ties, are common.
mec::Topology waxman(int stations, std::uint64_t seed, bool integer_delays) {
  util::Rng rng(seed);
  mec::TopologyParams params;
  params.num_stations = stations;
  const mec::Topology topo = mec::generate_topology(params, rng);
  if (!integer_delays) return topo;
  std::vector<mec::Link> links = topo.links();
  for (mec::Link& l : links) {
    l.delay_ms = static_cast<double>(rng.uniform_int(1, 4));
  }
  return mec::Topology(topo.stations(), std::move(links));
}

/// Random cut / degrade / restore / brownout epochs against a fresh
/// build after every apply.
void check_random_epochs(const mec::Topology& base, std::uint64_t seed,
                         int epochs) {
  util::Rng rng(seed);
  mec::TopologyOverlay overlay(base);
  const auto links = base.links().size();
  const auto stations = static_cast<std::size_t>(base.num_stations());
  const auto pick = [&](std::size_t size) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
  };
  mec::TopologyPerturbation pert;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    switch (rng.uniform_int(0, 3)) {
      case 0:  // cut
        if (pert.link_down.empty()) pert.link_down.assign(links, 0);
        pert.link_down[pick(links)] = 1;
        pert.link_down[pick(links)] = 1;
        break;
      case 1:  // degrade
        if (pert.link_delay_scale.empty()) {
          pert.link_delay_scale.assign(links, 1.0);
        }
        pert.link_delay_scale[pick(links)] =
            rng.bernoulli(0.5) ? 2.0 : rng.uniform(1.0, 3.0);
        break;
      case 2:  // restore some links
        for (std::size_t li = 0; li < links; ++li) {
          if (!rng.bernoulli(0.4)) continue;
          if (!pert.link_down.empty()) pert.link_down[li] = 0;
          if (!pert.link_delay_scale.empty()) pert.link_delay_scale[li] = 1.0;
        }
        break;
      default:  // brownout
        if (pert.capacity_scale.empty()) {
          pert.capacity_scale.assign(stations, 1.0);
        }
        pert.capacity_scale[pick(stations)] = rng.uniform(0.2, 1.0);
        break;
    }
    overlay.apply(pert);
    SCOPED_TRACE("epoch " + std::to_string(epoch));
    if (!same_topology(overlay.effective(), fresh_topology(base, pert))) {
      return;
    }
  }
}

TEST(OverlayRepair, RandomEpochsMatchFreshTopologyOnWaxman) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    check_random_epochs(waxman(30, seed, /*integer_delays=*/false), seed, 30);
    check_random_epochs(waxman(30, seed, /*integer_delays=*/true), seed, 30);
  }
}

TEST(OverlayRepair, PartitionAndHealMatchFreshTopology) {
  const mec::Topology base = waxman(25, 11, /*integer_delays=*/true);
  mec::TopologyOverlay overlay(base);
  // Cut every link of station 0 and of the first station that borders it:
  // both become islands, their rows go infinite, the rest reroutes.
  const auto& links = base.links();
  const int neighbour = links.front().a == 0 ? links.front().b : links.front().a;
  mec::TopologyPerturbation cut;
  cut.link_down.assign(links.size(), 0);
  for (std::size_t li = 0; li < links.size(); ++li) {
    if (links[li].a == 0 || links[li].b == 0 || links[li].a == neighbour ||
        links[li].b == neighbour) {
      cut.link_down[li] = 1;
    }
  }
  ASSERT_TRUE(overlay.apply(cut));
  EXPECT_FALSE(overlay.effective().connected());
  EXPECT_FALSE(std::isfinite(overlay.effective().transmission_delay_ms(0, 1)));
  ASSERT_TRUE(same_topology(overlay.effective(), fresh_topology(base, cut)));
  // Heal: the effective topology returns to the base exactly.
  ASSERT_TRUE(overlay.reset());
  EXPECT_TRUE(overlay.effective().connected());
  ASSERT_TRUE(same_topology(overlay.effective(), base));
}

TEST(OverlayRepair, ParallelLinksTieOnLowestLinkIndex) {
  // 0 -- 1 over links 0 and 2 (equal delay), 1 -- 2 over link 1 and link 3
  // (slower), plus a direct 0 -- 2 link 4 that ties with 0 -- 1 -- 2.
  std::vector<mec::BaseStation> stations{
      {0, 1000.0, 1.0, 0.0, 0.0},
      {1, 1000.0, 1.0, 0.1, 0.0},
      {2, 1000.0, 1.0, 0.2, 0.0},
  };
  const std::vector<mec::Link> links{
      {0, 1, 2.0}, {1, 2, 2.0}, {0, 1, 2.0}, {1, 2, 3.0}, {0, 2, 4.0}};
  const mec::Topology base(stations, links);
  EXPECT_EQ(base.shortest_path_links(0, 1), std::vector<int>({0}));
  mec::TopologyOverlay overlay(base);

  const auto expect_epoch = [&](const mec::TopologyPerturbation& pert) {
    overlay.apply(pert);
    return same_topology(overlay.effective(), fresh_topology(base, pert));
  };
  mec::TopologyPerturbation pert;
  pert.link_delay_scale = {2.0, 1.0, 1.0, 1.0, 1.0};  // twin 2 takes over
  ASSERT_TRUE(expect_epoch(pert));
  EXPECT_EQ(overlay.effective().shortest_path_links(0, 1), std::vector<int>({2}));
  pert.link_delay_scale.clear();  // restored: link 0 wins the tie again
  ASSERT_TRUE(expect_epoch(pert));
  EXPECT_EQ(overlay.effective().shortest_path_links(0, 1), std::vector<int>({0}));
  pert.link_down = {0, 1, 0, 0, 0};  // 1 -- 2 falls back to link 3
  ASSERT_TRUE(expect_epoch(pert));
  pert.link_down = {1, 1, 1, 0, 0};  // 0 -- 1 only via link 4 and link 3
  ASSERT_TRUE(expect_epoch(pert));
  pert.link_down.clear();
  pert.link_delay_scale = {1.0, 1.0, 1.0, 1.0, 1.25};  // 0 -- 2 via 1 now
  ASSERT_TRUE(expect_epoch(pert));
  EXPECT_EQ(overlay.effective().shortest_path_links(0, 2),
            std::vector<int>({0, 1}));
  // Healthy again: 4 == 2 + 2, and the tie goes to the edge out of the
  // nearer station, link 4 out of station 0.
  ASSERT_TRUE(expect_epoch(mec::TopologyPerturbation{}));
  EXPECT_EQ(overlay.effective().shortest_path_links(0, 2), std::vector<int>({4}));
}

TEST(OverlayRepair, ZeroDelayLinkFallsBackToAFreshSweep) {
  // A zero-delay link makes d(u) + w == d(u), so nodes no longer settle in
  // (distance, station) order: such rows are re-swept, and the rows after
  // the link is cut must be repaired from that state correctly.
  mec::Topology wax = waxman(20, 5, /*integer_delays=*/true);
  std::vector<mec::Link> links = wax.links();
  links[3].delay_ms = 0.0;
  links[7].delay_ms = 0.0;
  const mec::Topology base(wax.stations(), links);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    check_random_epochs(base, seed, 40);
  }
  mec::TopologyOverlay overlay(base);
  mec::TopologyPerturbation pert;
  pert.link_down.assign(links.size(), 0);
  pert.link_down[3] = 1;
  overlay.apply(pert);
  ASSERT_TRUE(same_topology(overlay.effective(), fresh_topology(base, pert)));
  pert.link_down[3] = 0;
  pert.link_down[7] = 1;
  overlay.apply(pert);
  ASSERT_TRUE(same_topology(overlay.effective(), fresh_topology(base, pert)));
}

TEST(OverlayRepair, CapacityOnlyEpochLeavesDelayRowsUntouched) {
  const mec::Topology base = waxman(20, 3, /*integer_delays=*/false);
  mec::TopologyOverlay overlay(base);
  mec::TopologyPerturbation degrade;
  degrade.link_delay_scale.assign(base.links().size(), 1.0);
  degrade.link_delay_scale[0] = 3.0;
  ASSERT_TRUE(overlay.apply(degrade));
  const mec::Topology& eff = overlay.effective();
  const std::span<const double> row = eff.delay_row(4);
  const std::vector<double> before(row.begin(), row.end());

  mec::TopologyPerturbation brownout = degrade;
  brownout.capacity_scale.assign(20, 1.0);
  brownout.capacity_scale[4] = 0.25;
  ASSERT_TRUE(overlay.apply(brownout));
  EXPECT_EQ(eff.delay_row(4).data(), row.data());  // repaired in place
  for (std::size_t j = 0; j < before.size(); ++j) {
    EXPECT_EQ(bits(eff.delay_row(4)[j]), bits(before[j])) << "column " << j;
  }
  EXPECT_EQ(eff.station(4).capacity_mhz, base.station(4).capacity_mhz * 0.25);
  ASSERT_TRUE(same_topology(eff, fresh_topology(base, brownout)));
}

TEST(OverlayRepair, PrimingFromBaseMatchesTheRunningOverlay) {
  // A resume primes a new overlay by applying the pre-resume perturbation
  // straight onto the base; it must land where the epoch-by-epoch overlay
  // did.
  const mec::Topology base = waxman(24, 9, /*integer_delays=*/true);
  util::Rng rng(9);
  mec::TopologyOverlay running(base);
  mec::TopologyPerturbation pert;
  pert.link_down.assign(base.links().size(), 0);
  pert.link_delay_scale.assign(base.links().size(), 1.0);
  for (int epoch = 0; epoch < 12; ++epoch) {
    const auto li = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(base.links().size()) - 1));
    if (epoch % 3 == 2) {
      pert.link_down[li] = 1;
    } else {
      pert.link_delay_scale[li] = 1.5;
    }
    running.apply(pert);
    mec::TopologyOverlay primed(base);
    ASSERT_TRUE(primed.apply(pert));
    SCOPED_TRACE("epoch " + std::to_string(epoch));
    ASSERT_TRUE(same_topology(primed.effective(), running.effective()));
  }
}

// ---------------------------------------------------------------------------
// FaultPlan::snapshot

TEST(FaultPlan, WindowsAreHalfOpen) {
  const mec::Topology topo = two_stations();
  FaultPlan plan;
  plan.station_outages = {{0, 2, 5}};
  EXPECT_EQ(plan.snapshot(topo, 1).station_up[0], 1);
  EXPECT_FALSE(plan.snapshot(topo, 1).any_fault);
  EXPECT_EQ(plan.snapshot(topo, 2).station_up[0], 0);
  EXPECT_TRUE(plan.snapshot(topo, 2).any_fault);
  EXPECT_EQ(plan.snapshot(topo, 4).station_up[0], 0);
  EXPECT_EQ(plan.snapshot(topo, 5).station_up[0], 1);  // until is exclusive
}

TEST(FaultPlan, OverlappingBrownoutsCompoundMultiplicatively) {
  const mec::Topology topo = two_stations();
  FaultPlan plan;
  plan.brownouts = {{0, 0, 10, 0.5}, {0, 5, 10, 0.5}};
  const FaultSnapshot a = plan.snapshot(topo, 2);
  ASSERT_EQ(a.perturbation.capacity_scale.size(), 2u);
  EXPECT_DOUBLE_EQ(a.perturbation.capacity_scale[0], 0.5);
  const FaultSnapshot b = plan.snapshot(topo, 7);
  ASSERT_EQ(b.perturbation.capacity_scale.size(), 2u);
  EXPECT_DOUBLE_EQ(b.perturbation.capacity_scale[0], 0.25);
  EXPECT_EQ(b.station_up[0], 1);  // browned out, not dead
}

TEST(FaultPlan, ZeroFactorBrownoutIsAnOutage) {
  const mec::Topology topo = two_stations();
  FaultPlan plan;
  plan.brownouts = {{0, 0, 10, 0.0}};
  const FaultSnapshot snap = plan.snapshot(topo, 3);
  EXPECT_EQ(snap.station_up[0], 0);
  // The overlay never sees a zero scale — the availability map handles it,
  // so the effective topology stays constructible.
  EXPECT_TRUE(snap.perturbation.capacity_scale.empty());
  EXPECT_TRUE(snap.any_fault);
}

TEST(FaultPlan, ValidateRejectsBadEvents) {
  const mec::Topology topo = two_stations();
  {
    FaultPlan plan;
    plan.station_outages = {{9, 0, 5}};  // no station 9
    EXPECT_THROW(plan.validate(topo), std::invalid_argument);
  }
  {
    FaultPlan plan;
    plan.brownouts = {{0, 0, 5, 1.5}};  // factor outside [0, 1]
    EXPECT_THROW(plan.validate(topo), std::invalid_argument);
  }
  {
    FaultPlan plan;
    plan.link_degradations = {{0, 0, 5, 0.5}};  // delay factor < 1
    EXPECT_THROW(plan.validate(topo), std::invalid_argument);
  }
  {
    FaultPlan plan;
    plan.link_outages = {{0, 7, 3}};  // until < from
    EXPECT_THROW(plan.validate(topo), std::invalid_argument);
  }
}

// ---------------------------------------------------------------------------
// Chaos generator

TEST(ChaosGenerator, ZeroIntensityYieldsEmptyPlan) {
  util::Rng rng(5);
  const mec::Topology topo = two_stations();
  ChaosParams chaos;
  chaos.intensity = 0.0;
  const FaultPlan plan = generate_chaos(topo, chaos, 500, rng);
  EXPECT_TRUE(plan.empty());
}

TEST(ChaosGenerator, SeedDeterminesPlanExactly) {
  util::Rng rng(12);
  mec::TopologyParams tparams;
  tparams.num_stations = 12;
  const mec::Topology topo = mec::generate_topology(tparams, rng);
  ChaosParams chaos;
  chaos.intensity = 2.0;

  const auto render = [&](std::uint64_t seed) {
    util::Rng plan_rng(seed);
    const FaultPlan plan = generate_chaos(topo, chaos, 400, plan_rng);
    plan.validate(topo);  // every sampled event must be legal
    std::ostringstream os;
    write_fault_plan(plan, os);
    return os.str();
  };
  const std::string a = render(12345);
  EXPECT_EQ(a, render(12345));
  EXPECT_GT(a.size(), std::string("# mecar fault scenario\n").size())
      << "intensity 2.0 over 400 slots sampled no events";
}

// The engines project a plan only at its boundaries, so the projection
// must not change anywhere else, and must be healthy before the first.
TEST(FaultPlan, SnapshotChangesOnlyAtBoundaries) {
  util::Rng rng(21);
  mec::TopologyParams tparams;
  tparams.num_stations = 12;
  const mec::Topology topo = mec::generate_topology(tparams, rng);
  ChaosParams chaos;
  chaos.intensity = 2.0;
  chaos.p_solver_fault = 0.5;
  const FaultPlan plan = generate_chaos(topo, chaos, 400, rng);
  const std::vector<int> boundaries = plan.boundaries();
  ASSERT_FALSE(boundaries.empty());
  EXPECT_TRUE(std::is_sorted(boundaries.begin(), boundaries.end()));
  EXPECT_EQ(std::adjacent_find(boundaries.begin(), boundaries.end()),
            boundaries.end());
  const auto same = [](const FaultSnapshot& a, const FaultSnapshot& b) {
    return a.station_up == b.station_up && a.perturbation == b.perturbation &&
           a.solver_max_pivots == b.solver_max_pivots &&
           a.solver_jam == b.solver_jam && a.any_fault == b.any_fault;
  };
  const FaultSnapshot healthy = FaultPlan{}.snapshot(topo, 0);
  for (int t = 0; t <= 400; ++t) {
    const bool boundary =
        std::binary_search(boundaries.begin(), boundaries.end(), t);
    if (t < boundaries.front()) {
      EXPECT_TRUE(same(plan.snapshot(topo, t), healthy)) << "slot " << t;
    } else if (t > 0 && !boundary) {
      EXPECT_TRUE(same(plan.snapshot(topo, t), plan.snapshot(topo, t - 1)))
          << "slot " << t;
    }
  }
}

// ---------------------------------------------------------------------------
// Scenario file round-trip and parse diagnostics

TEST(FaultPlanIo, RoundTripsThroughScenarioFormat) {
  FaultPlan plan;
  plan.station_outages = {{0, 2, 10}};
  plan.brownouts = {{1, 5, 25, 0.5}};
  plan.link_outages = {{0, 3, 9}};
  plan.link_degradations = {{0, 9, 14, 4.0}};

  std::ostringstream os;
  write_fault_plan(plan, os);
  std::istringstream is(os.str());
  const FaultPlan back = read_fault_plan(is);
  ASSERT_EQ(back.num_events(), plan.num_events());
  std::ostringstream os2;
  write_fault_plan(back, os2);
  EXPECT_EQ(os.str(), os2.str());
}

TEST(FaultPlanIo, SkipsCommentsAndBlankLines) {
  std::istringstream is(
      "# a comment\n"
      "\n"
      "station_outage 0 2 10\n");
  const FaultPlan plan = read_fault_plan(is);
  ASSERT_EQ(plan.station_outages.size(), 1u);
  EXPECT_EQ(plan.station_outages[0].station, 0);
  EXPECT_EQ(plan.station_outages[0].from_slot, 2);
  EXPECT_EQ(plan.station_outages[0].until_slot, 10);
}

TEST(FaultPlanIo, ParseErrorsCarryLineNumbers) {
  const auto line_of = [](const std::string& text) {
    std::istringstream is(text);
    try {
      read_fault_plan(is);
    } catch (const FaultPlanParseError& e) {
      EXPECT_NE(std::string(e.what()).find("fault plan line"),
                std::string::npos);
      return e.line();
    }
    return -1;
  };
  EXPECT_EQ(line_of("station_outage 0 2\n"), 1);  // arity
  EXPECT_EQ(line_of("# ok\nbrownout 0 0 5 abc\n"), 2);  // bad factor
  EXPECT_EQ(line_of("station_outage 0 2 10\n\nbogus 1 2 3\n"), 3);
  EXPECT_EQ(line_of("link_outage 0 zero 5\n"), 1);  // bad from_slot
}

// ---------------------------------------------------------------------------
// End-to-end: link faults in the simulator

/// Places waiting requests at station 1; re-places displaced streams at
/// station 0 (the user's home, always reachable).
class PlaceAt1Policy final : public OnlinePolicy {
 public:
  SlotDecision decide(const SlotView& view) override {
    SlotDecision d;
    for (int j : view.pending) {
      const RequestState& st = (*view.states)[static_cast<std::size_t>(j)];
      if (st.phase == Phase::kServed && st.station < 0) {
        d.active.push_back({j, 0});
      } else if (st.phase == Phase::kServed) {
        d.active.push_back({j, st.station});
      } else {
        d.active.push_back({j, 1});
      }
    }
    return d;
  }
  std::string name() const override { return "PlaceAt1"; }
};

/// Anchors everything at station 0.
class AnchorPolicy final : public OnlinePolicy {
 public:
  SlotDecision decide(const SlotView& view) override {
    SlotDecision d;
    for (int j : view.pending) {
      const RequestState& st = (*view.states)[static_cast<std::size_t>(j)];
      d.active.push_back({j, st.phase == Phase::kServed ? st.station : 0});
    }
    return d;
  }
  std::string name() const override { return "Anchor"; }
};

/// Schedules nothing, ever.
class NullPolicy final : public OnlinePolicy {
 public:
  SlotDecision decide(const SlotView&) override { return {}; }
  std::string name() const override { return "Null"; }
};

TEST(LinkFaults, LinkCutDisplacesAndPolicyRecoversSameSlot) {
  const mec::Topology topo = two_stations();
  std::vector<mec::ARRequest> requests{stream(0, 50.0, 0, 4)};
  OnlineParams params;
  params.horizon_slots = 20;
  params.faults.link_outages = {{0, 2, 10}};  // backhaul cut in [2, 10)
  OnlineSimulator sim(topo, requests, {0}, params);
  PlaceAt1Policy policy;
  const auto m = sim.run(policy);
  // Served remotely at station 1; the cut partitions the user from its
  // service instance, displacing the stream (not a station death).
  EXPECT_EQ(m.displaced, 1);
  EXPECT_EQ(m.resilience.displaced_partition, 1);
  EXPECT_EQ(m.resilience.displaced_outage, 0);
  // The policy re-placed it at home the same slot: zero-slot recovery.
  EXPECT_EQ(m.resilience.recovered, 1);
  EXPECT_EQ(m.resilience.unrecovered, 0);
  EXPECT_DOUBLE_EQ(m.resilience.mean_recovery_slots, 0.0);
  EXPECT_EQ(m.completed, 1);
  EXPECT_DOUBLE_EQ(m.total_reward, 500.0);
  // Two fault epochs: the cut at slot 2 and the return to healthy at 10.
  EXPECT_EQ(m.resilience.fault_epochs, 2);
}

TEST(LinkFaults, BrownoutStretchesCompletionTime) {
  // Demand exactly matches capacity: healthy, a 4-slot session finishes at
  // slot 3; at half capacity it needs 8 slots and finishes at slot 7 —
  // the brownout halves throughput without dropping anything.
  const mec::Topology topo = one_station(1000.0);
  std::vector<mec::ARRequest> requests{stream(0, 50.0, 0, 4)};  // 1000 MHz

  const auto completion_slot = [&](FaultPlan faults) {
    OnlineParams params;
    params.horizon_slots = 20;
    params.faults = std::move(faults);
    OnlineSimulator sim(topo, requests, {0}, params);
    AnchorPolicy policy;
    const auto m = sim.run(policy);
    EXPECT_EQ(m.completed, 1);
    for (std::size_t t = 0; t < m.per_slot_reward.size(); ++t) {
      if (m.per_slot_reward[t] > 0.0) return static_cast<int>(t);
    }
    return -1;
  };

  EXPECT_EQ(completion_slot({}), 3);
  FaultPlan brownout;
  brownout.brownouts = {{0, 0, 20, 0.5}};
  EXPECT_EQ(completion_slot(std::move(brownout)), 7);
}

TEST(DropAttribution, DegradedLatencyDropIsFaultCaused) {
  // Station 0 is dead the whole horizon and the only link is degraded so
  // hard that station 1 is out of budget (2 * 2ms * 50 + 2.4ms processing
  // = 202.4ms > 200ms). Only the faults stand between the request and a
  // feasible placement every slot, so its drop is fault-attributed.
  const mec::Topology topo = two_stations();
  std::vector<mec::ARRequest> requests{stream(0, 50.0, 0, 4)};
  OnlineParams params;
  params.horizon_slots = 12;
  params.faults.station_outages = {{0, 0, 12}};
  params.faults.link_degradations = {{0, 0, 12, 50.0}};
  OnlineSimulator sim(topo, requests, {0}, params);
  NullPolicy policy;
  const auto m = sim.run(policy);
  EXPECT_EQ(m.dropped, 1);
  EXPECT_EQ(m.resilience.dropped_fault, 1);
  EXPECT_EQ(m.resilience.dropped_starvation, 0);
  EXPECT_EQ(m.resilience.dropped_partition, 0);
  EXPECT_DOUBLE_EQ(m.resilience.fault_dropped_expected_reward, 500.0);
}

TEST(DropAttribution, CutOffDropIsPartitionCaused) {
  // Station 0 dead, the only link cut: no live station is reachable at
  // all, so the drop is partition-attributed.
  const mec::Topology topo = two_stations();
  std::vector<mec::ARRequest> requests{stream(0, 50.0, 0, 4)};
  OnlineParams params;
  params.horizon_slots = 12;
  params.faults.station_outages = {{0, 0, 12}};
  params.faults.link_outages = {{0, 0, 12}};
  OnlineSimulator sim(topo, requests, {0}, params);
  NullPolicy policy;
  const auto m = sim.run(policy);
  EXPECT_EQ(m.dropped, 1);
  EXPECT_EQ(m.resilience.dropped_partition, 1);
  EXPECT_EQ(m.resilience.dropped_fault, 0);
  EXPECT_EQ(m.resilience.dropped_starvation, 0);
}

TEST(DropAttribution, ContentionDropStaysStarvation) {
  // No faults at all: a never-scheduled request is plain starvation and
  // every fault counter stays zero.
  const mec::Topology topo = two_stations();
  std::vector<mec::ARRequest> requests{stream(0, 50.0, 0, 4)};
  OnlineParams params;
  params.horizon_slots = 12;
  OnlineSimulator sim(topo, requests, {0}, params);
  NullPolicy policy;
  const auto m = sim.run(policy);
  EXPECT_EQ(m.dropped, 1);
  EXPECT_EQ(m.resilience.dropped_starvation, 1);
  EXPECT_EQ(m.resilience.dropped_fault, 0);
  EXPECT_EQ(m.resilience.dropped_partition, 0);
  EXPECT_DOUBLE_EQ(m.resilience.fault_dropped_expected_reward, 0.0);
}

}  // namespace
}  // namespace mecar::sim
