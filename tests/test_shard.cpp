// Tests for the sharded slot loop (sim/shard.h): bit-for-bit equality with
// the legacy OnlineSimulator loop at any shard count — healthy, under
// chaos, and under mobility — plus shard resolution and the SlotView
// accessors the sharded engine backs with precomputed state.
//
// The equality checks use EXPECT_EQ on doubles deliberately: the sharding
// contract is bit-identity (every cross-shard reduction merges in the
// legacy scan order), not tolerance-equality. tests/CMakeLists.txt also
// registers this binary under MECAR_THREADS=1 and =4, proving the merge
// order does not depend on the pool width.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>

#include "exp/instance.h"
#include "sim/dynamic_rr.h"
#include "sim/online_baselines.h"
#include "sim/online_sim.h"
#include "sim/shard.h"
#include "util/rng.h"

namespace mecar::sim {
namespace {

exp::Instance busy_instance(unsigned seed, int horizon) {
  exp::InstanceConfig config;
  config.num_requests = 220;
  config.num_stations = 12;
  config.horizon_slots = horizon;
  return exp::make_instance(seed, config);
}

enum class PolicyKind { kDynamicRr, kGreedy, kOcorp };

std::unique_ptr<OnlinePolicy> make_policy(PolicyKind kind,
                                          const mec::Topology& topo) {
  switch (kind) {
    case PolicyKind::kDynamicRr:
      return std::make_unique<DynamicRrPolicy>(topo, core::AlgorithmParams{},
                                               DynamicRrParams{},
                                               util::Rng(7));
    case PolicyKind::kGreedy:
      return std::make_unique<GreedyOnlinePolicy>(topo,
                                                  core::AlgorithmParams{});
    case PolicyKind::kOcorp:
      return std::make_unique<OcorpOnlinePolicy>(topo,
                                                 core::AlgorithmParams{});
  }
  return nullptr;
}

OnlineMetrics run_once(const exp::Instance& inst, OnlineParams params,
                       PolicyKind kind, int num_shards) {
  params.num_shards = num_shards;
  OnlineSimulator sim(inst.topo, inst.requests, inst.realized, params);
  const auto policy = make_policy(kind, inst.topo);
  return sim.run(*policy);
}

void expect_identical(const OnlineMetrics& a, const OnlineMetrics& b,
                      const char* label) {
  EXPECT_EQ(a.total_reward, b.total_reward) << label;
  EXPECT_EQ(a.arrived, b.arrived) << label;
  EXPECT_EQ(a.completed, b.completed) << label;
  EXPECT_EQ(a.dropped, b.dropped) << label;
  EXPECT_EQ(a.unfinished, b.unfinished) << label;
  EXPECT_EQ(a.displaced, b.displaced) << label;
  EXPECT_EQ(a.handovers, b.handovers) << label;
  EXPECT_EQ(a.avg_latency_ms, b.avg_latency_ms) << label;
  EXPECT_EQ(a.per_slot_reward, b.per_slot_reward) << label;
  EXPECT_EQ(a.completed_latencies_ms, b.completed_latencies_ms) << label;
  EXPECT_EQ(a.per_slot_utilization, b.per_slot_utilization) << label;
  EXPECT_EQ(a.service_ratios, b.service_ratios) << label;
  EXPECT_EQ(a.resilience.fault_epochs, b.resilience.fault_epochs) << label;
  EXPECT_EQ(a.resilience.displaced_outage, b.resilience.displaced_outage)
      << label;
  EXPECT_EQ(a.resilience.displaced_partition,
            b.resilience.displaced_partition)
      << label;
  EXPECT_EQ(a.resilience.recovered, b.resilience.recovered) << label;
  EXPECT_EQ(a.resilience.mean_recovery_slots,
            b.resilience.mean_recovery_slots)
      << label;
  EXPECT_EQ(a.resilience.unrecovered, b.resilience.unrecovered) << label;
  EXPECT_EQ(a.resilience.dropped_starvation, b.resilience.dropped_starvation)
      << label;
  EXPECT_EQ(a.resilience.dropped_fault, b.resilience.dropped_fault) << label;
  EXPECT_EQ(a.resilience.dropped_partition, b.resilience.dropped_partition)
      << label;
  EXPECT_EQ(a.resilience.fault_dropped_expected_reward,
            b.resilience.fault_dropped_expected_reward)
      << label;
}

void expect_sharding_invariant(const exp::Instance& inst,
                               const OnlineParams& params, PolicyKind kind,
                               const char* label) {
  const OnlineMetrics legacy = run_once(inst, params, kind, -1);
  const OnlineMetrics one = run_once(inst, params, kind, 1);
  const OnlineMetrics five = run_once(inst, params, kind, 5);
  // More shards than stations must clamp, not break.
  const OnlineMetrics many = run_once(inst, params, kind, 1000);
  expect_identical(legacy, one, label);
  expect_identical(legacy, five, label);
  expect_identical(legacy, many, label);
}

TEST(ResolveNumShards, ExplicitCountClampsToStations) {
  OnlineParams params;
  params.num_shards = 4;
  EXPECT_EQ(resolve_num_shards(params, 20), 4);
  EXPECT_EQ(resolve_num_shards(params, 3), 3);
  params.num_shards = 64;
  EXPECT_EQ(resolve_num_shards(params, 8), 8);
}

TEST(ResolveNumShards, NegativeForcesLegacyEvenUnderEnv) {
  ::setenv("MECAR_SHARDS", "8", 1);
  OnlineParams params;
  params.num_shards = -1;
  EXPECT_EQ(resolve_num_shards(params, 20), 0);
  ::unsetenv("MECAR_SHARDS");
}

TEST(ResolveNumShards, ZeroConsultsEnvironment) {
  OnlineParams params;
  ::unsetenv("MECAR_SHARDS");
  EXPECT_EQ(resolve_num_shards(params, 20), 0);
  ::setenv("MECAR_SHARDS", "6", 1);
  EXPECT_EQ(resolve_num_shards(params, 20), 6);
  ::setenv("MECAR_SHARDS", "64", 1);
  EXPECT_EQ(resolve_num_shards(params, 12), 12);
  ::setenv("MECAR_SHARDS", "0", 1);
  EXPECT_EQ(resolve_num_shards(params, 20), 0);
  ::setenv("MECAR_SHARDS", "junk", 1);
  EXPECT_EQ(resolve_num_shards(params, 20), 0);
  ::unsetenv("MECAR_SHARDS");
}

TEST(ShardEngine, PartitionCoversAllStationsOnce) {
  const exp::Instance inst = busy_instance(3, 50);
  OnlineParams params;
  params.horizon_slots = 50;
  ShardEngine engine(inst.topo, inst.requests, inst.realized, params, {}, 5);
  ASSERT_EQ(engine.num_shards(), 5);
  int prev = -1;
  for (int s = 0; s < inst.topo.num_stations(); ++s) {
    const int shard = engine.shard_of_station(s);
    EXPECT_GE(shard, prev);  // contiguous, non-decreasing
    EXPECT_LT(shard, 5);
    prev = shard;
  }
  EXPECT_EQ(prev, 4);  // every shard got at least one station
}

TEST(ShardEngine, MatchesLegacyBitForBit) {
  const exp::Instance inst = busy_instance(11, 300);
  OnlineParams params;
  params.horizon_slots = 300;
  params.collect_detail = true;
  expect_sharding_invariant(inst, params, PolicyKind::kDynamicRr,
                            "DynamicRR/healthy");
  expect_sharding_invariant(inst, params, PolicyKind::kGreedy,
                            "Greedy/healthy");
  expect_sharding_invariant(inst, params, PolicyKind::kOcorp,
                            "OCORP/healthy");
}

TEST(ShardEngine, MatchesLegacyUnderChaosAndMobility) {
  const exp::Instance inst = busy_instance(17, 260);
  OnlineParams params;
  params.horizon_slots = 260;
  params.collect_detail = true;
  // Outages displace residents, a brownout shrinks a waterfill pool, a
  // link cut partitions, and the solver faults stress the LP ladder.
  params.faults.station_outages.push_back({2, 40, 90});
  params.faults.station_outages.push_back({7, 120, 170});
  params.faults.brownouts.push_back({4, 60, 140, 0.4});
  if (!inst.topo.links().empty()) {
    params.faults.link_outages.push_back({0, 100, 150});
  }
  params.faults.solver_budgets.push_back({30, 80, 6});
  params.faults.solver_jams.push_back({150, 180});
  // Mobility: re-home a few requests mid-run (including across shards).
  params.mobility.push_back({5, 50, 9});
  params.mobility.push_back({12, 80, 0});
  params.mobility.push_back({30, 130, 11});
  expect_sharding_invariant(inst, params, PolicyKind::kDynamicRr,
                            "DynamicRR/chaos");
  expect_sharding_invariant(inst, params, PolicyKind::kGreedy,
                            "Greedy/chaos");
}

TEST(SlotView, WaitingMsAtPoolBoundaries) {
  // First and last request index of the pool, plus a pre-horizon arrival
  // (negative arrival slots accrue waiting from their true arrival time).
  std::vector<mec::ARRequest> requests(3);
  requests[0].arrival_slot = 0;
  requests[1].arrival_slot = -4;
  requests[2].arrival_slot = 9;
  std::vector<RequestState> states(3);
  SlotView view;
  view.slot = 10;
  view.slot_ms = 50.0;
  view.requests = &requests;
  view.states = &states;
  EXPECT_EQ(view.waiting_ms(0), 500.0);
  EXPECT_EQ(view.waiting_ms(1), 700.0);
  EXPECT_EQ(view.waiting_ms(2), 50.0);  // last pool index
}

TEST(SlotView, ResidentDemandEmptyAndAllDisplaced) {
  mec::Topology topo({{0, 1000.0, 1.0, 0.0, 0.0},
                      {1, 1000.0, 1.0, 0.0, 0.0}},
                     {});
  std::vector<mec::ARRequest> requests(2);
  std::vector<RequestState> states(2);
  SlotView view;
  view.topo = &topo;
  view.requests = &requests;
  view.states = &states;
  // Empty: nobody served -> all-zero demand.
  auto demand = view.resident_demand_mhz();
  ASSERT_EQ(demand.size(), 2u);
  EXPECT_EQ(demand[0], 0.0);
  EXPECT_EQ(demand[1], 0.0);
  // All-displaced slot: served but station == -1 contributes nothing.
  states[0].phase = Phase::kServed;
  states[0].station = -1;
  states[0].demand_mhz = 800.0;
  states[1].phase = Phase::kServed;
  states[1].station = -1;
  states[1].demand_mhz = 700.0;
  demand = view.resident_demand_mhz();
  EXPECT_EQ(demand[0], 0.0);
  EXPECT_EQ(demand[1], 0.0);
  // A placed resident lands in its station's bucket.
  states[1].station = 1;
  demand = view.resident_demand_mhz();
  EXPECT_EQ(demand[0], 0.0);
  EXPECT_EQ(demand[1], 700.0);
}

TEST(SlotView, PrecomputedResidentDemandShortCircuits) {
  // When the sharded engine supplies the vector, the accessor must return
  // it verbatim without consulting states (which may be large).
  const std::vector<double> precomputed{123.0, 456.0};
  SlotView view;
  view.resident_demand = &precomputed;
  EXPECT_EQ(view.resident_demand_mhz(), precomputed);
}

TEST(ShardEngine, EmptyShardsAreHarmless) {
  // 12 stations, 12 shards: with a skewed home distribution several
  // shards see no traffic at all; the run must still match legacy.
  const exp::Instance inst = busy_instance(23, 150);
  OnlineParams params;
  params.horizon_slots = 150;
  const OnlineMetrics legacy = run_once(inst, params, PolicyKind::kGreedy, -1);
  const OnlineMetrics all = run_once(inst, params, PolicyKind::kGreedy, 12);
  expect_identical(legacy, all, "Greedy/one-station-shards");
}

}  // namespace
}  // namespace mecar::sim
