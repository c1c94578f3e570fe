// Failure-injection tests: station outages displace resident streams;
// policies must re-place them; capacity of failed stations is unusable;
// service degrades gracefully rather than corrupting state.
#include <gtest/gtest.h>

#include "mec/workload.h"
#include "sim/dynamic_rr.h"
#include "sim/online_baselines.h"
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

/// Schedules everything at station 0; re-places displaced streams at
/// station 1.
class Station0Policy final : public OnlinePolicy {
 public:
  SlotDecision decide(const SlotView& view) override {
    SlotDecision d;
    for (int j : view.pending) {
      const RequestState& st = (*view.states)[static_cast<std::size_t>(j)];
      if (st.phase == Phase::kServed && st.station < 0) {
        d.active.push_back({j, 1});  // failover target
      } else if (st.phase == Phase::kServed) {
        d.active.push_back({j, st.station});
      } else {
        d.active.push_back({j, 0});
      }
    }
    return d;
  }
  std::string name() const override { return "Station0"; }
};

TEST(FailureInjection, OutageDisplacesAndFailoverCompletes) {
  const mec::Topology topo = two_stations();
  std::vector<mec::ARRequest> requests{stream(0, 50.0, 0, 6)};
  OnlineParams params;
  params.horizon_slots = 30;
  // Station 0 down in slots [2, 10).
  params.faults.station_outages = {{0, 2, 10}};
  OnlineSimulator sim(topo, requests, {0}, params);
  Station0Policy policy;
  const auto m = sim.run(policy);
  EXPECT_EQ(m.displaced, 1);
  EXPECT_EQ(m.completed, 1);  // finished at station 1
  EXPECT_DOUBLE_EQ(m.total_reward, 500.0);
}

TEST(FailureInjection, PlacementOntoFailedStationIsRefused) {
  const mec::Topology topo = two_stations();
  std::vector<mec::ARRequest> requests{stream(0, 50.0, 0, 2)};
  OnlineParams params;
  params.horizon_slots = 10;
  // Station 0 down the whole time.
  params.faults.station_outages = {{0, 0, 10}};

  class InsistPolicy final : public OnlinePolicy {
   public:
    SlotDecision decide(const SlotView& view) override {
      SlotDecision d;
      for (int j : view.pending) d.active.push_back({j, 0});
      return d;
    }
    std::string name() const override { return "Insist"; }
  };

  OnlineSimulator sim(topo, requests, {0}, params);
  InsistPolicy policy;
  const auto m = sim.run(policy);
  EXPECT_EQ(m.completed, 0);
  EXPECT_EQ(m.dropped, 1);  // never got service -> starved
}

TEST(FailureInjection, NoOutageNoDisplacement) {
  const mec::Topology topo = two_stations();
  std::vector<mec::ARRequest> requests{stream(0, 50.0, 0, 4)};
  OnlineParams params;
  params.horizon_slots = 20;
  OnlineSimulator sim(topo, requests, {0}, params);
  Station0Policy policy;
  const auto m = sim.run(policy);
  EXPECT_EQ(m.displaced, 0);
  EXPECT_EQ(m.completed, 1);
}

TEST(FailureInjection, DisplacementPreservesProgress) {
  // 6-slot session, 3 slots done at station 0, outage, resumes at 1:
  // completes exactly 3 slots after failover (no work lost).
  const mec::Topology topo = two_stations();
  std::vector<mec::ARRequest> requests{stream(0, 50.0, 0, 6)};
  OnlineParams params;
  params.horizon_slots = 30;
  params.faults.station_outages = {{0, 3, 30}};
  OnlineSimulator sim(topo, requests, {0}, params);
  Station0Policy policy;
  const auto m = sim.run(policy);
  EXPECT_EQ(m.completed, 1);
  // Slots 0-2 run at station 0; the stream is displaced at slot 3 and
  // re-placed the same slot, so slots 3-5 run at station 1 and the session
  // completes at slot 5 — failover costs no progress and no extra slots.
  for (std::size_t t = 0; t < m.per_slot_reward.size(); ++t) {
    if (m.per_slot_reward[t] > 0.0) {
      EXPECT_EQ(t, 5u);
    }
  }
}

TEST(FailureInjection, OverlappingOutagesDisplaceOnlyOnce) {
  // Two overlapping windows keep station 0 down continuously over [2, 15);
  // the resident stream is displaced exactly once, not once per event.
  const mec::Topology topo = two_stations();
  std::vector<mec::ARRequest> requests{stream(0, 50.0, 0, 6)};
  OnlineParams params;
  params.horizon_slots = 30;
  params.faults.station_outages = {{0, 2, 10}, {0, 5, 15}};
  OnlineSimulator sim(topo, requests, {0}, params);
  Station0Policy policy;
  const auto m = sim.run(policy);
  EXPECT_EQ(m.displaced, 1);
  EXPECT_EQ(m.resilience.displaced_outage, 1);
  EXPECT_EQ(m.completed, 1);
  EXPECT_DOUBLE_EQ(m.total_reward, 500.0);
}

TEST(FailureInjection, ZeroLengthOutageWindowIsANoop) {
  // An empty window [5, 5) never activates: the run matches the fault-free
  // run slot for slot even though the chaos path is engaged.
  const mec::Topology topo = two_stations();
  std::vector<mec::ARRequest> requests{stream(0, 50.0, 0, 4)};
  const auto run = [&](std::vector<StationOutage> outages) {
    OnlineParams params;
    params.horizon_slots = 20;
    params.faults.station_outages = std::move(outages);
    OnlineSimulator sim(topo, requests, {0}, params);
    Station0Policy policy;
    return sim.run(policy);
  };
  const auto healthy = run({});
  const auto noop = run({{0, 5, 5}});
  EXPECT_EQ(noop.displaced, 0);
  EXPECT_EQ(noop.completed, 1);
  EXPECT_EQ(noop.resilience.fault_epochs, 0);
  EXPECT_EQ(noop.per_slot_reward, healthy.per_slot_reward);
}

TEST(FailureInjection, OutageFromSlotZeroDelaysButDoesNotDisplace) {
  // The station is already down when the request arrives: placements are
  // refused until slot 3, then it is placed normally — nothing was ever
  // resident, so nothing is displaced and accounting stays consistent.
  const mec::Topology topo = two_stations();
  std::vector<mec::ARRequest> requests{stream(0, 50.0, 0, 4)};
  OnlineParams params;
  params.horizon_slots = 20;
  params.faults.station_outages = {{0, 0, 3}};
  OnlineSimulator sim(topo, requests, {0}, params);
  Station0Policy policy;
  const auto m = sim.run(policy);
  EXPECT_EQ(m.arrived, 1);
  EXPECT_EQ(m.displaced, 0);
  EXPECT_EQ(m.completed, 1);
  EXPECT_EQ(m.completed + m.dropped + m.unfinished, m.arrived);
  // Waiting through the outage is charged as experienced latency.
  EXPECT_GE(m.avg_latency_ms, 3 * params.slot_ms);
}

TEST(FailureInjection, HomeStationOutageDoesNotDisplaceWaitingRequest) {
  // Only RESIDENT streams are displaced. A waiting request whose home
  // station dies simply gets placed elsewhere (home is the radio
  // attachment, not a compute placement).
  const mec::Topology topo = two_stations();
  std::vector<mec::ARRequest> requests{stream(0, 50.0, 0, 4)};
  OnlineParams params;
  params.horizon_slots = 20;
  // Home station down the whole horizon.
  params.faults.station_outages = {{0, 0, 20}};

  class RemotePolicy final : public OnlinePolicy {
   public:
    SlotDecision decide(const SlotView& view) override {
      SlotDecision d;
      for (int j : view.pending) {
        const RequestState& st = (*view.states)[static_cast<std::size_t>(j)];
        d.active.push_back({j, st.phase == Phase::kServed ? st.station : 1});
      }
      return d;
    }
    std::string name() const override { return "Remote"; }
  };

  OnlineSimulator sim(topo, requests, {0}, params);
  RemotePolicy policy;
  const auto m = sim.run(policy);
  EXPECT_EQ(m.displaced, 0);
  EXPECT_EQ(m.completed, 1);
  EXPECT_DOUBLE_EQ(m.total_reward, 500.0);
}

// End-to-end: every real policy survives a mid-horizon outage of the two
// hottest stations without crashing, keeps all invariants, and completes a
// sensible number of sessions.
class OutageSweep : public ::testing::TestWithParam<int> {};

TEST_P(OutageSweep, PoliciesSurviveOutages) {
  util::Rng rng(31);
  mec::TopologyParams tparams;
  tparams.num_stations = 12;
  const mec::Topology topo = mec::generate_topology(tparams, rng);
  mec::WorkloadParams wparams;
  wparams.num_requests = 150;
  wparams.horizon_slots = 300;
  const auto requests = mec::generate_requests(wparams, topo, rng);
  const auto realized = core::realize_demand_levels(requests, rng);
  OnlineParams params;
  params.horizon_slots = 300;
  params.faults.station_outages = {{0, 100, 200}, {1, 120, 180}};

  std::unique_ptr<OnlinePolicy> policy;
  switch (GetParam()) {
    case 0:
      policy = std::make_unique<DynamicRrPolicy>(
          topo, core::AlgorithmParams{}, DynamicRrParams{}, util::Rng(32));
      break;
    case 1:
      policy =
          std::make_unique<GreedyOnlinePolicy>(topo, core::AlgorithmParams{});
      break;
    case 2:
      policy =
          std::make_unique<OcorpOnlinePolicy>(topo, core::AlgorithmParams{});
      break;
    default:
      policy =
          std::make_unique<HeuKktOnlinePolicy>(topo, core::AlgorithmParams{});
      break;
  }
  OnlineSimulator sim(topo, requests, realized, params);
  const auto m = sim.run(*policy);
  EXPECT_EQ(m.completed + m.dropped + m.unfinished, m.arrived)
      << policy->name();
  EXPECT_GT(m.completed, 0) << policy->name();
  EXPECT_LE(m.avg_latency_ms, 200.0) << policy->name();
}

INSTANTIATE_TEST_SUITE_P(Policies, OutageSweep, ::testing::Range(0, 4));

TEST(GracefulDegradation, LpIterationLimitFallsBackToGreedy) {
  // A one-pivot budget makes every nontrivial slot LP exit with
  // kIterationLimit; the policy must place batches through the greedy
  // failover instead of dropping them, and must account for every
  // fallback.
  util::Rng rng(41);
  const mec::Topology topo = mec::generate_topology({}, rng);
  mec::WorkloadParams wparams;
  wparams.num_requests = 120;
  wparams.horizon_slots = 200;
  const auto requests = mec::generate_requests(wparams, topo, rng);
  const auto realized = core::realize_demand_levels(requests, rng);
  OnlineParams params;
  params.horizon_slots = 200;

  DynamicRrParams rr;
  rr.lp_max_iterations = 1;
  DynamicRrPolicy policy(topo, core::AlgorithmParams{}, rr, util::Rng(42));
  OnlineSimulator sim(topo, requests, realized, params);
  const auto m = sim.run(policy);

  const DegradationStats& deg = policy.degradation_stats();
  EXPECT_GT(deg.lp_solves, 0);
  EXPECT_GT(deg.lp_fallbacks, 0)
      << "a 1-pivot budget never tripped the iteration limit";
  // Service continues: the failover path still places requests.
  EXPECT_GT(m.completed, 0);
  EXPECT_EQ(m.completed + m.dropped + m.unfinished, m.arrived);
}

TEST(FailureInjection, OutageReducesButDoesNotZeroReward) {
  util::Rng rng(37);
  const mec::Topology topo = mec::generate_topology({}, rng);
  mec::WorkloadParams wparams;
  wparams.num_requests = 200;
  wparams.horizon_slots = 400;
  const auto requests = mec::generate_requests(wparams, topo, rng);
  const auto realized = core::realize_demand_levels(requests, rng);

  auto run = [&](std::vector<StationOutage> outages) {
    OnlineParams params;
    params.horizon_slots = 400;
    params.faults.station_outages = std::move(outages);
    DynamicRrPolicy policy(topo, core::AlgorithmParams{}, DynamicRrParams{},
                           util::Rng(38));
    OnlineSimulator sim(topo, requests, realized, params);
    return sim.run(policy).total_reward;
  };

  const double healthy = run({});
  // Take out a third of the network for half the horizon.
  std::vector<StationOutage> outages;
  for (int bs = 0; bs < topo.num_stations() / 3; ++bs) {
    outages.push_back({bs, 100, 300});
  }
  const double degraded = run(outages);
  EXPECT_LT(degraded, healthy);
  EXPECT_GT(degraded, 0.3 * healthy);  // graceful degradation
}

}  // namespace
}  // namespace mecar::sim
