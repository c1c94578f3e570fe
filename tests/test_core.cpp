// Tests for the core algorithms: slot-indexed LP construction (Eq. (8)-(12),
// (22)-(23)), randomized rounding, Appro/Heu admission invariants, the
// exact ILP, and Theorem 1's bound checked empirically.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>

#include "core/appro.h"
#include "core/exact.h"
#include "core/heu.h"
#include "core/rounding.h"
#include "core/slot_lp.h"
#include "core/types.h"
#include "lp/revised_simplex.h"
#include "lp/simplex.h"
#include "mec/topology.h"
#include "mec/topology_overlay.h"
#include "mec/workload.h"
#include "util/rng.h"

namespace mecar::core {
namespace {

mec::Topology small_topology() {
  // Two stations joined by a 2 ms link; capacities 3000 and 3500 MHz.
  std::vector<mec::BaseStation> stations{
      {0, 3000.0, 1.0, 0.0, 0.0},
      {1, 3500.0, 1.5, 1.0, 0.0},
  };
  std::vector<mec::Link> links{{0, 1, 2.0}};
  return mec::Topology(std::move(stations), std::move(links));
}

mec::ARRequest make_request(int id, int home, double rate_lo, double rate_hi,
                            double reward_lo, double reward_hi) {
  mec::ARRequest req;
  req.id = id;
  req.home_station = home;
  req.tasks = mec::ar_pipeline(4);
  req.demand = mec::RateRewardDist(
      {{rate_lo, 0.5, reward_lo}, {rate_hi, 0.5, reward_hi}});
  req.latency_budget_ms = 200.0;
  req.duration_slots = 10;
  return req;
}

TEST(StationLoad, OccupyTruncatesAtCapacity) {
  const mec::Topology topo = small_topology();
  StationLoad load(topo);
  EXPECT_DOUBLE_EQ(load.capacity_mhz(0), 3000.0);
  EXPECT_DOUBLE_EQ(load.occupy(0, 2000.0), 2000.0);
  EXPECT_DOUBLE_EQ(load.occupy(0, 2000.0), 1000.0);  // truncated
  EXPECT_DOUBLE_EQ(load.remaining_mhz(0), 0.0);
  EXPECT_THROW(load.occupy(0, -1.0), std::invalid_argument);
}

TEST(StationLoad, ReleaseRestoresCapacity) {
  const mec::Topology topo = small_topology();
  StationLoad load(topo);
  load.occupy(1, 1500.0);
  load.release(1, 500.0);
  EXPECT_DOUBLE_EQ(load.used_mhz(1), 1000.0);
  EXPECT_THROW(load.release(1, 5000.0), std::invalid_argument);
}

TEST(RealizeDemandLevels, DeterministicUnderSeed) {
  const mec::Topology topo = small_topology();
  std::vector<mec::ARRequest> requests{
      make_request(0, 0, 30, 50, 400, 500),
      make_request(1, 1, 30, 50, 400, 500),
  };
  util::Rng a(9), b(9);
  EXPECT_EQ(realize_demand_levels(requests, a),
            realize_demand_levels(requests, b));
}

TEST(OffloadResult, AggregatesOutcomes) {
  OffloadResult result;
  RequestOutcome good;
  good.admitted = true;
  good.rewarded = true;
  good.reward = 100.0;
  good.latency_ms = 20.0;
  RequestOutcome bad;
  bad.admitted = true;
  result.outcomes = {good, bad, RequestOutcome{}};
  EXPECT_DOUBLE_EQ(result.total_reward(), 100.0);
  EXPECT_EQ(result.num_admitted(), 2);
  EXPECT_EQ(result.num_rewarded(), 1);
  EXPECT_DOUBLE_EQ(result.average_latency_ms(), 20.0);
}

TEST(CandidateStations, FiltersByLatencyBudget) {
  const mec::Topology topo = small_topology();
  mec::ARRequest req = make_request(0, 0, 30, 50, 400, 500);
  // Total weight 4.0; station 0 latency 4 ms; station 1: 4 + 4*1.5 = 10 ms.
  AlgorithmParams params;
  req.latency_budget_ms = 5.0;
  auto c = candidate_stations(topo, req, params);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].station, 0);
  EXPECT_DOUBLE_EQ(c[0].latency_ms,
                   mec::placement_latency_ms(topo, req, c[0].station));
  req.latency_budget_ms = 200.0;
  c = candidate_stations(topo, req, params);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0].station, 0);  // nearest first
  EXPECT_LE(c[0].latency_ms, c[1].latency_ms);
}

TEST(CandidateStations, WaitingTimeShrinksTheSet) {
  const mec::Topology topo = small_topology();
  mec::ARRequest req = make_request(0, 0, 30, 50, 400, 500);
  req.latency_budget_ms = 12.0;
  AlgorithmParams params;
  EXPECT_EQ(candidate_stations(topo, req, params).size(), 2u);
  EXPECT_EQ(candidate_stations(topo, req, params, 5.0).size(), 1u);
  EXPECT_TRUE(candidate_stations(topo, req, params, 100.0).empty());
}

TEST(CandidateStations, RespectsMaxCandidates) {
  util::Rng rng(3);
  const mec::Topology topo = mec::generate_topology({}, rng);
  mec::ARRequest req = make_request(0, 0, 30, 50, 400, 500);
  AlgorithmParams params;
  params.max_candidate_stations = 3;
  EXPECT_LE(candidate_stations(topo, req, params).size(), 3u);
  params.max_candidate_stations = 0;  // unlimited
  EXPECT_GT(candidate_stations(topo, req, params).size(), 3u);
}

// --- Candidate kernel vs the reference filter -> sort -> truncate ----------

/// The candidate contract spelled out the slow way: every station's
/// placement latency, the budget filter, a full sort by (latency, station),
/// then truncation.
std::vector<CandidateStation> reference_candidates(
    const mec::Topology& topo, const mec::ARRequest& req,
    const AlgorithmParams& params, double waiting_ms) {
  std::vector<CandidateStation> feasible;
  for (int bs = 0; bs < topo.num_stations(); ++bs) {
    const double lat = mec::placement_latency_ms(topo, req, bs);
    if (waiting_ms + lat <= req.latency_budget_ms) {
      feasible.push_back(CandidateStation{bs, lat});
    }
  }
  std::sort(feasible.begin(), feasible.end(),
            [](const CandidateStation& a, const CandidateStation& b) {
              if (a.latency_ms != b.latency_ms) {
                return a.latency_ms < b.latency_ms;
              }
              return a.station < b.station;
            });
  if (params.max_candidate_stations > 0 &&
      static_cast<int>(feasible.size()) > params.max_candidate_stations) {
    feasible.resize(static_cast<std::size_t>(params.max_candidate_stations));
  }
  return feasible;
}

/// Runs candidate_stations against the reference over every limit and
/// wait of the contract; returns how many non-empty lists were compared.
int expect_candidates_match_reference(const mec::Topology& topo,
                                      mec::ARRequest req) {
  const int n = topo.num_stations();
  int compared = 0;
  for (const double budget :
       {req.latency_budget_ms, mec::placement_latency_ms(topo, req, n / 2),
        1e9}) {
    req.latency_budget_ms = budget;
    for (const double wait : {0.0, 0.5 * budget, budget, budget + 1.0}) {
      for (const int k : {0, 1, 3, 10, n, n + 5}) {
        AlgorithmParams params;
        params.max_candidate_stations = k;
        const auto got = candidate_stations(topo, req, params, wait);
        const auto want = reference_candidates(topo, req, params, wait);
        EXPECT_EQ(got.size(), want.size())
            << "k=" << k << " wait=" << wait << " budget=" << budget;
        if (got.size() != want.size()) return compared;
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].station, want[i].station) << "k=" << k << " i=" << i;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].latency_ms),
                    std::bit_cast<std::uint64_t>(want[i].latency_ms))
              << "k=" << k << " i=" << i;
        }
        compared += got.empty() ? 0 : 1;
      }
    }
  }
  return compared;
}

/// A seeded topology whose link delays and processing speeds are all
/// equal, so placement latencies tie in large groups (same hop count).
mec::Topology tied_topology(unsigned seed, int num_stations) {
  util::Rng rng(seed);
  mec::TopologyParams tp;
  tp.num_stations = num_stations;
  tp.link_delay_min_ms = tp.link_delay_max_ms = 4.0;
  tp.proc_ms_min = tp.proc_ms_max = 2.0;
  return mec::generate_topology(tp, rng);
}

mec::ARRequest seeded_request(util::Rng& rng, int num_stations) {
  mec::ARRequest req = make_request(0, 0, 30, 50, 400, 500);
  req.home_station = static_cast<int>(rng.uniform_int(0, num_stations - 1));
  req.tasks = mec::ar_pipeline(static_cast<int>(rng.uniform_int(1, 5)));
  req.latency_budget_ms = rng.uniform(40.0, 120.0);
  return req;
}

TEST(CandidateStations, BoundedSelectionMatchesFullSortWithTies) {
  for (unsigned seed = 1; seed <= 6; ++seed) {
    const mec::Topology topo = tied_topology(seed, 60);
    util::Rng rng(100 + seed);
    int compared = 0;
    for (int r = 0; r < 4; ++r) {
      compared += expect_candidates_match_reference(topo, seeded_request(rng, 60));
    }
    EXPECT_GT(compared, 0) << "seed " << seed;
  }
}

TEST(CandidateStations, BoundedSelectionMatchesFullSortOnRandomTopologies) {
  for (unsigned seed = 1; seed <= 6; ++seed) {
    util::Rng rng(seed);
    mec::TopologyParams tp;
    tp.num_stations = 50;
    const mec::Topology topo = mec::generate_topology(tp, rng);
    for (int r = 0; r < 4; ++r) {
      EXPECT_GT(expect_candidates_match_reference(topo, seeded_request(rng, 50)),
                0);
    }
  }
}

TEST(CandidateStations, BoundedSelectionMatchesFullSortAcrossAPartition) {
  util::Rng rng(7);
  const mec::Topology base = tied_topology(7, 40);
  mec::TopologyOverlay overlay(base);
  // Cut every link of stations 0..4 plus a random third of the rest, so
  // some stations sit at infinite delay from most homes.
  mec::TopologyPerturbation pert;
  pert.link_down.assign(base.links().size(), 0);
  for (std::size_t li = 0; li < base.links().size(); ++li) {
    const mec::Link& link = base.links()[li];
    if (link.a < 5 || link.b < 5 || rng.uniform() < 0.33) {
      pert.link_down[li] = 1;
    }
  }
  ASSERT_TRUE(overlay.apply(pert));
  const mec::Topology& topo = overlay.effective();
  ASSERT_FALSE(topo.connected());
  for (int home = 0; home < topo.num_stations(); home += 3) {
    mec::ARRequest req = seeded_request(rng, topo.num_stations());
    req.home_station = home;
    expect_candidates_match_reference(topo, req);
  }
}

TEST(MinPlacementLatency, MatchesBruteForceWithAndWithoutUpMask) {
  for (unsigned seed = 1; seed <= 4; ++seed) {
    const mec::Topology topo = seed % 2 == 0 ? tied_topology(seed, 30) : [&] {
      util::Rng topo_rng(seed);
      mec::TopologyParams tp;
      tp.num_stations = 30;
      return mec::generate_topology(tp, topo_rng);
    }();
    util::Rng rng(50 + seed);
    for (int r = 0; r < 8; ++r) {
      const mec::ARRequest req = seeded_request(rng, topo.num_stations());
      std::vector<char> up(static_cast<std::size_t>(topo.num_stations()));
      for (char& u : up) u = rng.uniform() < 0.3 ? 1 : 0;
      double all = std::numeric_limits<double>::infinity();
      double masked = all;
      for (int bs = 0; bs < topo.num_stations(); ++bs) {
        const double lat = mec::placement_latency_ms(topo, req, bs);
        all = std::min(all, lat);
        if (up[static_cast<std::size_t>(bs)] != 0) masked = std::min(masked, lat);
      }
      EXPECT_EQ(std::bit_cast<std::uint64_t>(
                    mec::min_placement_latency_ms(topo, req)),
                std::bit_cast<std::uint64_t>(all));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(
                    mec::min_placement_latency_ms(topo, req, up)),
                std::bit_cast<std::uint64_t>(masked));
    }
  }
  // Every station down: no reachable placement.
  const mec::Topology topo = small_topology();
  const mec::ARRequest req = make_request(0, 0, 30, 50, 400, 500);
  const std::vector<char> none(2, 0);
  EXPECT_EQ(mec::min_placement_latency_ms(topo, req, none),
            std::numeric_limits<double>::infinity());
  EXPECT_THROW(mec::min_placement_latency_ms(topo, req, std::vector<char>(3, 1)),
               std::invalid_argument);
}

TEST(SlotLp, SlotsPerStationFollowCl) {
  const mec::Topology topo = small_topology();
  std::vector<mec::ARRequest> requests{make_request(0, 0, 30, 50, 400, 500)};
  AlgorithmParams params;  // C_l = 1000
  const auto inst = build_slot_lp(topo, requests, params);
  EXPECT_EQ(inst.slots_per_station[0], 3);  // 3000/1000
  EXPECT_EQ(inst.slots_per_station[1], 3);  // floor(3500/1000)
}

TEST(SlotLp, ErFollowsEq8) {
  const mec::Topology topo = small_topology();
  // Rates 30 (demand 600 MHz) and 50 (1000 MHz); rewards 400/600.
  std::vector<mec::ARRequest> requests{make_request(0, 0, 30, 50, 400, 600)};
  AlgorithmParams params;
  const auto inst = build_slot_lp(topo, requests, params);
  // Station 0 (3000 MHz): slot 0 -> cap 150 MB/s -> both levels fit, ER =
  // 0.5*400 + 0.5*600 = 500. Slot 2 -> cap (3000-2000)/20 = 50 -> both fit
  // (50 <= 50), ER = 500. All columns of station 0 have ER 500.
  for (std::size_t c = 0; c < inst.vars.size(); ++c) {
    if (inst.vars[c].station == 0) {
      EXPECT_NEAR(inst.vars[c].expected_reward, 500.0, 1e-9);
    }
  }
}

TEST(SlotLp, ErDropsLevelsThatDoNotFit) {
  // A station with capacity 2600 has 2 slots. Starting at slot 1 leaves
  // 1600 MHz: the 30 MB/s level (600 MHz) fits but a 90 MB/s level
  // (1800 MHz) does not, so Eq. (8) drops it from ER at slot 1.
  std::vector<mec::BaseStation> stations{{0, 2600.0, 1.0, 0.0, 0.0}};
  const mec::Topology topo(std::move(stations), {});
  std::vector<mec::ARRequest> requests{make_request(0, 0, 30, 90, 400, 600)};
  AlgorithmParams params;
  const auto inst = build_slot_lp(topo, requests, params);
  bool saw_slot0 = false, saw_slot1 = false;
  for (const SlotVar& var : inst.vars) {
    if (var.slot == 0) {
      saw_slot0 = true;
      EXPECT_NEAR(var.expected_reward, 500.0, 1e-9);  // both levels
    }
    if (var.slot == 1) {
      saw_slot1 = true;
      EXPECT_NEAR(var.expected_reward, 200.0, 1e-9);  // only rate 30
    }
  }
  EXPECT_TRUE(saw_slot0);
  EXPECT_TRUE(saw_slot1);
}

TEST(SlotLp, RequestRowsLimitAssignment) {
  const mec::Topology topo = small_topology();
  std::vector<mec::ARRequest> requests{make_request(0, 0, 30, 50, 400, 600)};
  AlgorithmParams params;
  const auto inst = build_slot_lp(topo, requests, params);
  const auto res = lp::SimplexSolver().solve(inst.model);
  ASSERT_TRUE(res.optimal());
  double total = 0.0;
  for (int col : inst.request_columns[0]) {
    total += res.x[static_cast<std::size_t>(col)];
  }
  EXPECT_LE(total, 1.0 + 1e-9);
  // A single request faces no contention: the LP assigns it fully.
  EXPECT_NEAR(total, 1.0, 1e-6);
  EXPECT_NEAR(res.objective, 500.0, 1e-6);
}

TEST(SlotLp, ShareCapTightensConstraint23) {
  const mec::Topology topo = small_topology();
  std::vector<mec::ARRequest> requests;
  for (int j = 0; j < 12; ++j) {
    requests.push_back(make_request(j, j % 2, 30, 50, 400, 600));
  }
  AlgorithmParams params;
  const auto plain = build_slot_lp(topo, requests, params);
  SlotLpOptions options;
  options.share_cap_mhz = 300.0;  // far below every demand level
  const auto capped = build_slot_lp(topo, requests, params, options);
  const auto res_plain = lp::SimplexSolver().solve(plain.model);
  const auto res_capped = lp::SimplexSolver().solve(capped.model);
  ASSERT_TRUE(res_plain.optimal());
  ASSERT_TRUE(res_capped.optimal());
  // Truncating by the share cap shrinks the per-column mass, so MORE
  // requests fit fractionally: the capped objective can only be >=.
  EXPECT_GE(res_capped.objective, res_plain.objective - 1e-6);
}

TEST(SlotLp, CapacityOverrideShrinksSlots) {
  const mec::Topology topo = small_topology();
  std::vector<mec::ARRequest> requests{make_request(0, 0, 30, 50, 400, 600)};
  AlgorithmParams params;
  SlotLpOptions options;
  options.capacity_override_mhz = {1000.0, 500.0};
  const auto inst = build_slot_lp(topo, requests, params, options);
  EXPECT_EQ(inst.slots_per_station[0], 1);
  EXPECT_EQ(inst.slots_per_station[1], 1);
  options.capacity_override_mhz = {1000.0};  // wrong size
  EXPECT_THROW(build_slot_lp(topo, requests, params, options),
               std::invalid_argument);
}

TEST(SlotLp, PerRequestWaitsFilterColumns) {
  const mec::Topology topo = small_topology();
  std::vector<mec::ARRequest> requests{
      make_request(0, 0, 30, 50, 400, 600),
      make_request(1, 0, 30, 50, 400, 600),
  };
  requests[0].latency_budget_ms = 12.0;
  requests[1].latency_budget_ms = 12.0;
  AlgorithmParams params;
  SlotLpOptions options;
  options.waiting_ms_per_request = {0.0, 5.0};  // second can only fit bs 0
  const auto inst = build_slot_lp(topo, requests, params, options);
  std::set<int> stations_r1;
  for (int col : inst.request_columns[1]) {
    stations_r1.insert(inst.vars[static_cast<std::size_t>(col)].station);
  }
  EXPECT_EQ(stations_r1, std::set<int>{0});
  std::set<int> stations_r0;
  for (int col : inst.request_columns[0]) {
    stations_r0.insert(inst.vars[static_cast<std::size_t>(col)].station);
  }
  EXPECT_EQ(stations_r0.size(), 2u);
  options.waiting_ms_per_request = {0.0};  // wrong size
  EXPECT_THROW(build_slot_lp(topo, requests, params, options),
               std::invalid_argument);
}

TEST(RandomizedRound, PickProbabilityMatchesYOverFour) {
  const mec::Topology topo = small_topology();
  std::vector<mec::ARRequest> requests{make_request(0, 0, 30, 50, 400, 600)};
  AlgorithmParams params;
  const auto inst = build_slot_lp(topo, requests, params);
  const auto res = lp::SimplexSolver().solve(inst.model);
  ASSERT_TRUE(res.optimal());
  double mass = 0.0;
  for (int col : inst.request_columns[0]) {
    mass += res.x[static_cast<std::size_t>(col)];
  }
  util::Rng rng(11);
  int picked = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto picks = randomized_round(inst, res.x, 4.0, requests.size(), rng);
    picked += (picks[0] >= 0);
  }
  EXPECT_NEAR(static_cast<double>(picked) / n, mass / 4.0, 0.02);
}

TEST(RandomizedRound, DivisorValidation) {
  const mec::Topology topo = small_topology();
  std::vector<mec::ARRequest> requests{make_request(0, 0, 30, 50, 400, 600)};
  AlgorithmParams params;
  const auto inst = build_slot_lp(topo, requests, params);
  std::vector<double> y(static_cast<std::size_t>(inst.model.num_variables()),
                        0.0);
  util::Rng rng(1);
  EXPECT_THROW(randomized_round(inst, y, 0.5, requests.size(), rng),
               std::invalid_argument);
}

// --- Invariant sweep over random instances ------------------------------

struct AlgoCase {
  unsigned seed;
  bool migration;  // false = Appro, true = Heu
};

class SlotRoundingInvariants
    : public ::testing::TestWithParam<std::tuple<unsigned, bool>> {};

TEST_P(SlotRoundingInvariants, FeasibleOutcomes) {
  const auto [seed, migration] = GetParam();
  util::Rng rng(seed);
  mec::TopologyParams tparams;
  tparams.num_stations = 10;
  const mec::Topology topo = mec::generate_topology(tparams, rng);
  mec::WorkloadParams wparams;
  wparams.num_requests = 40;
  const auto requests = mec::generate_requests(wparams, topo, rng);
  const auto realized = realize_demand_levels(requests, rng);
  AlgorithmParams params;
  util::Rng round_rng(seed + 1000);
  const OffloadResult result =
      migration ? run_heu(topo, requests, realized, params, round_rng)
                : run_appro(topo, requests, realized, params, round_rng);

  ASSERT_EQ(result.outcomes.size(), requests.size());
  std::vector<double> usage(static_cast<std::size_t>(topo.num_stations()),
                            0.0);
  double total_collected = 0.0;
  for (std::size_t j = 0; j < requests.size(); ++j) {
    const RequestOutcome& o = result.outcomes[j];
    EXPECT_EQ(o.request_id, requests[j].id);
    if (!o.admitted) {
      EXPECT_FALSE(o.rewarded);
      EXPECT_DOUBLE_EQ(o.reward, 0.0);
      continue;
    }
    ASSERT_GE(o.station, 0);
    ASSERT_LT(o.station, topo.num_stations());
    // Latency respects the budget (consolidated or split placement).
    EXPECT_LE(o.latency_ms, requests[j].latency_budget_ms + 1e-9);
    // Realized level is consistent with the shared realization.
    EXPECT_EQ(o.realized_level, realized[j]);
    EXPECT_DOUBLE_EQ(o.realized_rate,
                     requests[j].demand.level(realized[j]).rate);
    if (o.rewarded) {
      EXPECT_DOUBLE_EQ(o.reward,
                       requests[j].demand.level(realized[j]).reward);
      // Eq. (8): the realized demand fits from the starting slot onward.
      EXPECT_LE(o.realized_rate * params.c_unit,
                topo.station(o.station).capacity_mhz -
                    o.start_slot * params.slot_capacity_mhz + 1e-6);
    }
    total_collected += o.reward;
    // Task placement is complete and within the network.
    ASSERT_EQ(o.task_stations.size(), requests[j].tasks.size());
    const double total_w = requests[j].total_proc_weight();
    for (std::size_t k = 0; k < o.task_stations.size(); ++k) {
      ASSERT_GE(o.task_stations[k], 0);
      ASSERT_LT(o.task_stations[k], topo.num_stations());
      usage[static_cast<std::size_t>(o.task_stations[k])] +=
          std::min(o.realized_rate * params.c_unit,
                   topo.station(o.station).capacity_mhz) *
          requests[j].tasks[k].proc_weight / total_w;
    }
  }
  EXPECT_DOUBLE_EQ(result.total_reward(), total_collected);
  EXPECT_GE(result.lp_bound, result.total_reward() * 0.0);  // non-negative
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SlotRoundingInvariants,
    ::testing::Combine(::testing::Range(1u, 11u), ::testing::Bool()));

TEST(Appro, EmptyRequestSetIsFine) {
  const mec::Topology topo = small_topology();
  util::Rng rng(1);
  const auto result = run_appro(topo, {}, {}, AlgorithmParams{}, rng);
  EXPECT_TRUE(result.outcomes.empty());
  EXPECT_DOUBLE_EQ(result.total_reward(), 0.0);
}

TEST(Appro, RealizedSizeMismatchThrows) {
  const mec::Topology topo = small_topology();
  std::vector<mec::ARRequest> requests{make_request(0, 0, 30, 50, 400, 600)};
  util::Rng rng(1);
  EXPECT_THROW(run_appro(topo, requests, {}, AlgorithmParams{}, rng),
               std::invalid_argument);
}

TEST(Appro, SingleRequestIsServed) {
  const mec::Topology topo = small_topology();
  std::vector<mec::ARRequest> requests{make_request(0, 0, 30, 50, 400, 600)};
  const std::vector<std::size_t> realized{0};
  AlgorithmParams params;
  util::Rng rng(5);
  const auto result = run_appro(topo, requests, realized, params, rng);
  // With backfill on, a lone request is always admitted and rewarded.
  EXPECT_EQ(result.num_rewarded(), 1);
  EXPECT_NEAR(result.total_reward(), 400.0, 1e-9);
}

TEST(Appro, BackfillOffLeavesLeftovers) {
  util::Rng rng(21);
  mec::TopologyParams tparams;
  tparams.num_stations = 8;
  const mec::Topology topo = mec::generate_topology(tparams, rng);
  mec::WorkloadParams wparams;
  wparams.num_requests = 60;
  const auto requests = mec::generate_requests(wparams, topo, rng);
  const auto realized = realize_demand_levels(requests, rng);
  AlgorithmParams on, off;
  off.backfill = false;
  util::Rng r1(99), r2(99);
  const auto with = run_appro(topo, requests, realized, on, r1);
  const auto without = run_appro(topo, requests, realized, off, r2);
  // Same LP + same rounding stream: backfill can only add admissions.
  EXPECT_GE(with.num_admitted(), without.num_admitted());
  EXPECT_GE(with.total_reward(), without.total_reward() - 1e-9);
  // The bare y/4 rounding admits roughly a quarter of the requests.
  EXPECT_LT(without.num_admitted(), 30);
}

TEST(Heu, MigrationOnlyAddsReward) {
  // Statistical: over seeds, Heu (migration) admits at least as much as
  // Appro on the same instance and rounding stream.
  double appro_total = 0.0, heu_total = 0.0;
  for (unsigned seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    mec::TopologyParams tparams;
    tparams.num_stations = 8;
    const mec::Topology topo = mec::generate_topology(tparams, rng);
    mec::WorkloadParams wparams;
    wparams.num_requests = 80;
    const auto requests = mec::generate_requests(wparams, topo, rng);
    const auto realized = realize_demand_levels(requests, rng);
    AlgorithmParams params;
    util::Rng r1(seed + 77), r2(seed + 77);
    appro_total += run_appro(topo, requests, realized, params, r1).total_reward();
    heu_total += run_heu(topo, requests, realized, params, r2).total_reward();
  }
  EXPECT_GE(heu_total, appro_total * 0.95);
}

TEST(Exact, SolvesTinyInstanceOptimally) {
  const mec::Topology topo = small_topology();
  // Three requests, station capacities fit about two expected demands
  // each; the ILP must pick the highest expected rewards.
  std::vector<mec::ARRequest> requests{
      make_request(0, 0, 30, 50, 1000, 1000),
      make_request(1, 0, 30, 50, 100, 100),
      make_request(2, 1, 30, 50, 500, 500),
  };
  const std::vector<std::size_t> realized{0, 0, 0};
  ExactOptions options;
  const auto result = run_exact(topo, requests, realized, options);
  ASSERT_EQ(result.status, lp::SolveStatus::kOptimal);
  // All three fit (expected demand 800 each, capacities 3000/3500).
  EXPECT_EQ(result.offload.num_admitted(), 3);
  EXPECT_NEAR(result.offload.lp_bound, 1600.0, 1e-6);
}

TEST(Exact, ExpectedObjectiveUpperBoundsBlindChoice) {
  // The exact expected objective must be >= the expected reward of any
  // specific feasible assignment, e.g. everything at its home station.
  util::Rng rng(31);
  mec::TopologyParams tparams;
  tparams.num_stations = 4;
  const mec::Topology topo = mec::generate_topology(tparams, rng);
  mec::WorkloadParams wparams;
  wparams.num_requests = 10;
  const auto requests = mec::generate_requests(wparams, topo, rng);
  const auto realized = realize_demand_levels(requests, rng);
  ExactOptions options;
  const auto result = run_exact(topo, requests, realized, options);
  ASSERT_EQ(result.status, lp::SolveStatus::kOptimal);

  double home_expected = 0.0;
  StationLoad load(topo);
  for (const auto& req : requests) {
    const double demand = req.demand.expected_rate() * options.params.c_unit;
    if (load.remaining_mhz(req.home_station) >= demand &&
        mec::placement_latency_ms(topo, req, req.home_station) <=
            req.latency_budget_ms) {
      load.occupy(req.home_station, demand);
      home_expected += req.demand.expected_reward();
    }
  }
  EXPECT_GE(result.offload.lp_bound, home_expected - 1e-6);
}

TEST(Exact, RealizedSizeMismatchThrows) {
  const mec::Topology topo = small_topology();
  std::vector<mec::ARRequest> requests{make_request(0, 0, 30, 50, 400, 600)};
  EXPECT_THROW(run_exact(topo, requests, {}), std::invalid_argument);
}

// Theorem 1 (statistical): the expected reward of bare Appro (no backfill)
// is at least LPOpt/8. We average over rounding draws on a fixed instance
// and compare with margin.
TEST(Theorem1, BareApproBeatsAnEighthOfLpOpt) {
  util::Rng rng(47);
  mec::TopologyParams tparams;
  tparams.num_stations = 8;
  const mec::Topology topo = mec::generate_topology(tparams, rng);
  mec::WorkloadParams wparams;
  wparams.num_requests = 50;
  const auto requests = mec::generate_requests(wparams, topo, rng);
  AlgorithmParams params;
  params.backfill = false;

  double total = 0.0;
  double lp_bound = 0.0;
  const int trials = 40;
  for (int i = 0; i < trials; ++i) {
    util::Rng trial_rng(1000 + i);
    const auto realized = realize_demand_levels(requests, trial_rng);
    util::Rng round_rng(2000 + i);
    const auto result =
        run_appro(topo, requests, realized, params, round_rng);
    total += result.total_reward();
    lp_bound = result.lp_bound;
  }
  const double mean_reward = total / trials;
  EXPECT_GE(mean_reward, lp_bound / 8.0);
}

// The ILP expected optimum never falls below the slot LP's rounding target
// divided by the paper's constants — a coarse cross-check that both
// formulations price the same instance consistently.
TEST(CrossCheck, IlpAndLpAgreeOnScale) {
  util::Rng rng(53);
  mec::TopologyParams tparams;
  tparams.num_stations = 5;
  const mec::Topology topo = mec::generate_topology(tparams, rng);
  mec::WorkloadParams wparams;
  wparams.num_requests = 12;
  const auto requests = mec::generate_requests(wparams, topo, rng);
  AlgorithmParams params;

  const auto lp_inst = build_slot_lp(topo, requests, params);
  const auto lp_res = lp::SimplexSolver().solve(lp_inst.model);
  ASSERT_TRUE(lp_res.optimal());

  const auto ilp_inst = build_ilp_rm(topo, requests, params);
  const auto ilp_res = lp::BranchAndBound().solve(ilp_inst.model);
  ASSERT_TRUE(ilp_res.optimal());

  // Lemma 1: the slot LP relaxes the ILP, so LPOpt >= Opt.
  EXPECT_GE(lp_res.objective, ilp_res.objective - 1e-6);
}

}  // namespace
}  // namespace mecar::core
