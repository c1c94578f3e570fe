// Hand-computed verification of the slot LP's matrix: exact coefficients
// of constraints (9), (10) and the LP-PT truncation (23), ER_jil values,
// and the latency filtering of (11).
#include <gtest/gtest.h>

#include <map>

#include "core/slot_lp.h"
#include "mec/request.h"

namespace mecar::core {
namespace {

/// One isolated station, capacity 2600 MHz -> 2 slots of 1000 MHz.
mec::Topology one_station() {
  std::vector<mec::BaseStation> stations{{0, 2600.0, 1.0, 0.0, 0.0}};
  return mec::Topology(std::move(stations), {});
}

/// Rate 30 w.p. 0.75 (reward 300), rate 90 w.p. 0.25 (reward 900).
mec::ARRequest two_level_request(int id) {
  mec::ARRequest req;
  req.id = id;
  req.home_station = 0;
  req.tasks = mec::ar_pipeline(3);
  req.demand = mec::RateRewardDist({{30.0, 0.75, 300.0}, {90.0, 0.25, 900.0}});
  req.latency_budget_ms = 200.0;
  return req;
}

/// Finds the row whose name matches; -1 if absent.
int find_row(const lp::Model& model, const std::string& name) {
  for (int r = 0; r < model.num_constraints(); ++r) {
    if (model.row(r).name == name) return r;
  }
  return -1;
}

TEST(SlotLpMatrix, ObjectiveIsErJil) {
  const mec::Topology topo = one_station();
  const std::vector<mec::ARRequest> requests{two_level_request(0)};
  const auto inst = build_slot_lp(topo, requests, AlgorithmParams{});
  // Slot 0: remaining 2600 MHz -> cap 130 MB/s: both levels fit,
  //   ER = 0.75*300 + 0.25*900 = 450.
  // Slot 1: remaining 1600 -> cap 80: only rate 30 fits, ER = 225.
  ASSERT_EQ(inst.vars.size(), 2u);
  std::map<int, double> er_by_slot;
  for (std::size_t c = 0; c < inst.vars.size(); ++c) {
    er_by_slot[inst.vars[c].slot] =
        inst.model.variable(static_cast<int>(c)).objective;
  }
  EXPECT_NEAR(er_by_slot.at(0), 450.0, 1e-12);
  EXPECT_NEAR(er_by_slot.at(1), 225.0, 1e-12);
}

TEST(SlotLpMatrix, Constraint10CoefficientsAreTruncatedExpectations) {
  const mec::Topology topo = one_station();
  const std::vector<mec::ARRequest> requests{two_level_request(0)};
  const auto inst = build_slot_lp(topo, requests, AlgorithmParams{});
  // Row "slots_0_1": sum over columns with slot < 1 of
  //   E[min(rho, 1*1000/20 = 50)] * y  <=  2 * 50.
  // E[min(rho, 50)] = 0.75*30 + 0.25*50 = 35.
  const int r1 = find_row(inst.model, "slots_0_1");
  ASSERT_GE(r1, 0);
  const auto& row1 = inst.model.row(r1);
  EXPECT_DOUBLE_EQ(row1.rhs, 100.0);
  ASSERT_EQ(row1.terms.size(), 1u);  // only the slot-0 column
  EXPECT_EQ(inst.vars[static_cast<std::size_t>(row1.terms[0].col)].slot, 0);
  EXPECT_NEAR(row1.terms[0].coeff, 35.0, 1e-12);

  // Row "slots_0_2": cap 100 MB/s -> E[min(rho,100)] = E[rho] = 45;
  // both slot-0 and slot-1 columns appear; rhs = 2*100.
  const int r2 = find_row(inst.model, "slots_0_2");
  ASSERT_GE(r2, 0);
  const auto& row2 = inst.model.row(r2);
  EXPECT_DOUBLE_EQ(row2.rhs, 200.0);
  ASSERT_EQ(row2.terms.size(), 2u);
  for (const auto& term : row2.terms) {
    EXPECT_NEAR(term.coeff, 45.0, 1e-12);
  }
}

TEST(SlotLpMatrix, Constraint23AddsShareCapTruncation) {
  const mec::Topology topo = one_station();
  const std::vector<mec::ARRequest> requests{two_level_request(0)};
  SlotLpOptions options;
  options.share_cap_mhz = 500.0;  // -> 25 MB/s share cap
  const auto inst = build_slot_lp(topo, requests, AlgorithmParams{}, options);
  // All truncations now cap at min(25, l*50): for l=1, cap 25:
  // E[min(rho, 25)] = 25 (both levels exceed 25).
  const int r1 = find_row(inst.model, "slots_0_1");
  ASSERT_GE(r1, 0);
  EXPECT_NEAR(inst.model.row(r1).terms[0].coeff, 25.0, 1e-12);
  // rhs stays 2 * l * C_l / C_unit (the paper keeps the right side).
  EXPECT_DOUBLE_EQ(inst.model.row(r1).rhs, 100.0);
}

TEST(SlotLpMatrix, Constraint9IsPerRequest) {
  const mec::Topology topo = one_station();
  std::vector<mec::ARRequest> requests{two_level_request(0),
                                       two_level_request(1)};
  const auto inst = build_slot_lp(topo, requests, AlgorithmParams{});
  for (int j = 0; j < 2; ++j) {
    const int r = find_row(inst.model, "assign_" + std::to_string(j));
    ASSERT_GE(r, 0);
    const auto& row = inst.model.row(r);
    EXPECT_EQ(row.sense, lp::Sense::kLe);
    EXPECT_DOUBLE_EQ(row.rhs, 1.0);
    EXPECT_EQ(row.terms.size(),
              inst.request_columns[static_cast<std::size_t>(j)].size());
    for (const auto& term : row.terms) {
      EXPECT_DOUBLE_EQ(term.coeff, 1.0);
    }
  }
}

TEST(SlotLpMatrix, LatencyFilterDropsAllColumns) {
  const mec::Topology topo = one_station();
  std::vector<mec::ARRequest> requests{two_level_request(0)};
  requests[0].latency_budget_ms = 1.0;  // processing alone costs 2.4 ms
  const auto inst = build_slot_lp(topo, requests, AlgorithmParams{});
  EXPECT_EQ(inst.model.num_variables(), 0);
  EXPECT_TRUE(inst.request_columns[0].empty());
}

TEST(SlotLpMatrix, CapacityRowsFollowStationSlotOrder) {
  // A line 0 - 1 - 2 - 3 with 1 ms links. Station 1 processes so slowly
  // that no request can use it; station 2 has three slots, the rest two.
  std::vector<mec::BaseStation> stations{{0, 2600.0, 1.0, 0.0, 0.0},
                                         {1, 2600.0, 100.0, 1.0, 0.0},
                                         {2, 3600.0, 1.0, 2.0, 0.0},
                                         {3, 2600.0, 1.0, 3.0, 0.0}};
  std::vector<mec::Link> links{{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}};
  const mec::Topology topo(std::move(stations), std::move(links));
  // Homes alternate between the two ends, so each station's columns come
  // from several requests and interleave with other stations' columns.
  std::vector<mec::ARRequest> requests;
  for (int j = 0; j < 4; ++j) {
    requests.push_back(two_level_request(j));
    requests.back().home_station = j % 2 == 0 ? 3 : 0;
    requests.back().latency_budget_ms = 20.0;
  }
  const auto inst = build_slot_lp(topo, requests, AlgorithmParams{});

  std::vector<std::pair<int, int>> order;  // (station, l) of capacity rows
  for (int r = 0; r < inst.model.num_constraints(); ++r) {
    const lp::Row& row = inst.model.row(r);
    if (row.name.rfind("slots_", 0) != 0) continue;
    const std::size_t sep = row.name.find('_', 6);
    const int bs = std::stoi(row.name.substr(6, sep - 6));
    const int l = std::stoi(row.name.substr(sep + 1));
    order.emplace_back(bs, l);
    // Exactly this station's columns below slot l, in ascending id order.
    std::vector<int> want;
    for (std::size_t c = 0; c < inst.vars.size(); ++c) {
      if (inst.vars[c].station == bs && inst.vars[c].slot < l) {
        want.push_back(static_cast<int>(c));
      }
    }
    std::vector<int> got;
    for (const lp::Term& term : row.terms) got.push_back(term.col);
    EXPECT_EQ(got, want) << row.name;
  }
  // Station 1 has no candidate columns, so it emits no capacity rows.
  const std::vector<std::pair<int, int>> expected{
      {0, 1}, {0, 2}, {2, 1}, {2, 2}, {2, 3}, {3, 1}, {3, 2}};
  EXPECT_EQ(order, expected);
}

TEST(SlotLpMatrix, IlpRmUsesExpectedDemandRows) {
  const mec::Topology topo = one_station();
  std::vector<mec::ARRequest> requests{two_level_request(0),
                                       two_level_request(1)};
  const auto inst = build_ilp_rm(topo, requests, AlgorithmParams{});
  // One binary per (request, station); objective = full expected reward
  // (both levels fit the 130 MB/s whole-station cap).
  ASSERT_EQ(inst.model.num_variables(), 2);
  for (int c = 0; c < 2; ++c) {
    EXPECT_TRUE(inst.model.variable(c).integral);
    EXPECT_NEAR(inst.model.variable(c).objective, 450.0, 1e-12);
  }
  const int cap = find_row(inst.model, "cap_0");
  ASSERT_GE(cap, 0);
  const auto& row = inst.model.row(cap);
  EXPECT_DOUBLE_EQ(row.rhs, 2600.0);
  for (const auto& term : row.terms) {
    // E[rho] * C_unit = 45 * 20 = 900 MHz.
    EXPECT_NEAR(term.coeff, 900.0, 1e-12);
  }
}

}  // namespace
}  // namespace mecar::core
