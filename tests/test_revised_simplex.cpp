// Tests for the revised simplex engine: the same textbook programs as the
// dense tableau, plus property sweeps cross-checking both engines on
// random LPs and on real slot-indexed instances.
#include <gtest/gtest.h>

#include <cmath>

#include "core/slot_lp.h"
#include "lp/revised_simplex.h"
#include "lp/simplex.h"
#include "mec/workload.h"
#include "util/rng.h"

namespace mecar::lp {
namespace {

constexpr double kTol = 1e-6;

TEST(RevisedSimplex, SolvesBasicTwoVariableLp) {
  Model m;
  const int x = m.add_variable("x", 3.0);
  const int y = m.add_variable("y", 5.0);
  m.add_constraint("c1", Sense::kLe, 4.0, {{x, 1.0}});
  m.add_constraint("c2", Sense::kLe, 12.0, {{y, 2.0}});
  m.add_constraint("c3", Sense::kLe, 18.0, {{x, 3.0}, {y, 2.0}});
  const auto res = RevisedSimplexSolver().solve(m);
  ASSERT_TRUE(res.optimal());
  EXPECT_NEAR(res.objective, 36.0, kTol);
  EXPECT_NEAR(res.x[static_cast<std::size_t>(x)], 2.0, kTol);
  EXPECT_NEAR(res.x[static_cast<std::size_t>(y)], 6.0, kTol);
}

TEST(RevisedSimplex, Phase1AndEquality) {
  Model m;
  const int x = m.add_variable("x", 2.0);
  const int y = m.add_variable("y", 3.0);
  m.add_constraint("eq", Sense::kEq, 4.0, {{x, 1.0}, {y, 1.0}});
  m.add_constraint("le", Sense::kLe, 2.0, {{x, 1.0}, {y, -1.0}});
  const auto res = RevisedSimplexSolver().solve(m);
  ASSERT_TRUE(res.optimal());
  EXPECT_NEAR(res.objective, 12.0, kTol);
}

TEST(RevisedSimplex, DetectsInfeasibility) {
  Model m;
  const int x = m.add_variable("x", 1.0);
  m.add_constraint("c1", Sense::kLe, 1.0, {{x, 1.0}});
  m.add_constraint("c2", Sense::kGe, 2.0, {{x, 1.0}});
  EXPECT_EQ(RevisedSimplexSolver().solve(m).status,
            SolveStatus::kInfeasible);
}

TEST(RevisedSimplex, DetectsUnboundedness) {
  Model m;
  m.add_variable("x", 1.0);
  EXPECT_EQ(RevisedSimplexSolver().solve(m).status,
            SolveStatus::kUnbounded);
}

TEST(RevisedSimplex, UpperBoundsAndFixedVariables) {
  Model m;
  const int x = m.add_variable("x", 2.0, 1.0);
  const int y = m.add_variable("y", 1.0, 1.0);
  m.add_constraint("c", Sense::kLe, 1.5, {{x, 1.0}, {y, 1.0}});
  const Model fixed = m.with_fixed(x, 1.0);
  const auto res = RevisedSimplexSolver().solve(fixed);
  ASSERT_TRUE(res.optimal());
  EXPECT_DOUBLE_EQ(res.x[static_cast<std::size_t>(x)], 1.0);
  EXPECT_NEAR(res.x[static_cast<std::size_t>(y)], 0.5, kTol);
  EXPECT_NEAR(res.objective, 2.5, kTol);
}

TEST(RevisedSimplex, RefactorizationKeepsAccuracy) {
  // Force frequent refactorization and verify nothing drifts.
  RevisedSimplexOptions options;
  options.refactor_interval = 2;
  Model m;
  util::Rng rng(3);
  for (int j = 0; j < 20; ++j) {
    m.add_variable("x" + std::to_string(j), rng.uniform(0.5, 2.0), 3.0);
  }
  for (int r = 0; r < 12; ++r) {
    std::vector<Term> terms;
    for (int j = 0; j < 20; ++j) {
      if (rng.bernoulli(0.4)) terms.push_back({j, rng.uniform(0.1, 1.0)});
    }
    if (terms.empty()) terms.push_back({0, 1.0});
    m.add_constraint("r" + std::to_string(r), Sense::kLe,
                     rng.uniform(1.0, 5.0), terms);
  }
  const auto fast = RevisedSimplexSolver(options).solve(m);
  const auto reference = SimplexSolver().solve(m);
  ASSERT_TRUE(fast.optimal());
  ASSERT_TRUE(reference.optimal());
  EXPECT_NEAR(fast.objective, reference.objective, 1e-6);
  EXPECT_LE(m.max_violation(fast.x), 1e-6);
}

// Cross-engine agreement on random LPs.
class EngineAgreement : public ::testing::TestWithParam<unsigned> {};

TEST_P(EngineAgreement, SameObjectiveAsDenseTableau) {
  util::Rng rng(GetParam());
  Model m;
  const int n = static_cast<int>(rng.uniform_int(3, 24));
  const int rows = static_cast<int>(rng.uniform_int(2, 12));
  for (int j = 0; j < n; ++j) {
    m.add_variable("x" + std::to_string(j), rng.uniform(-1.0, 3.0),
                   rng.bernoulli(0.3) ? rng.uniform(0.5, 2.0) : kInf);
  }
  for (int r = 0; r < rows; ++r) {
    std::vector<Term> terms;
    for (int j = 0; j < n; ++j) {
      if (rng.bernoulli(0.5)) terms.push_back({j, rng.uniform(0.1, 2.0)});
    }
    if (terms.empty()) terms.push_back({0, 1.0});
    const Sense sense = rng.bernoulli(0.2) ? Sense::kGe : Sense::kLe;
    const double rhs = sense == Sense::kGe ? rng.uniform(0.2, 1.5)
                                           : rng.uniform(1.0, 6.0);
    m.add_constraint("r" + std::to_string(r), sense, rhs, terms);
  }
  const auto dense = SimplexSolver().solve(m);
  const auto revised = RevisedSimplexSolver().solve(m);
  ASSERT_EQ(dense.status, revised.status)
      << to_string(dense.status) << " vs " << to_string(revised.status);
  if (dense.optimal()) {
    EXPECT_NEAR(dense.objective, revised.objective,
                1e-6 * std::max(1.0, std::abs(dense.objective)));
    EXPECT_LE(m.max_violation(revised.x), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineAgreement, ::testing::Range(1u, 41u));

// Cross-engine agreement on the real slot-indexed LP.
class SlotLpAgreement : public ::testing::TestWithParam<unsigned> {};

TEST_P(SlotLpAgreement, SameObjectiveOnPaperInstances) {
  util::Rng rng(GetParam());
  mec::TopologyParams tparams;
  tparams.num_stations = 10;
  const mec::Topology topo = mec::generate_topology(tparams, rng);
  mec::WorkloadParams wparams;
  wparams.num_requests = 40;
  const auto requests = mec::generate_requests(wparams, topo, rng);
  const auto inst =
      core::build_slot_lp(topo, requests, core::AlgorithmParams{});
  const auto dense = SimplexSolver().solve(inst.model);
  const auto revised = RevisedSimplexSolver().solve(inst.model);
  ASSERT_TRUE(dense.optimal());
  ASSERT_TRUE(revised.optimal());
  EXPECT_NEAR(dense.objective, revised.objective,
              1e-5 * std::max(1.0, dense.objective));
  EXPECT_LE(inst.model.max_violation(revised.x), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlotLpAgreement, ::testing::Range(1u, 9u));

// Warm starts: the slot sequence mirrors DynamicRR's per-slot LP-PT
// solves — same tableau shape, slightly different capacities each slot.
std::vector<Model> warm_slot_sequence(int num_requests, int slots,
                                      unsigned seed) {
  util::Rng rng(seed);
  mec::TopologyParams tparams;
  tparams.num_stations = 10;
  const mec::Topology topo = mec::generate_topology(tparams, rng);
  mec::WorkloadParams wparams;
  wparams.num_requests = num_requests;
  const auto requests = mec::generate_requests(wparams, topo, rng);
  const core::AlgorithmParams params;
  std::vector<Model> models;
  for (int t = 0; t < slots; ++t) {
    core::SlotLpOptions options;
    std::vector<double> caps;
    for (const auto& bs : topo.stations()) {
      // Keep floor(cap / slot_capacity) fixed so the tableau shape is
      // stable across the sequence; only the rhs drifts.
      const double k =
          std::floor(bs.capacity_mhz / params.slot_capacity_mhz);
      caps.push_back((k + 0.25 + 0.1 * static_cast<double>(t % 5)) *
                     params.slot_capacity_mhz);
    }
    options.capacity_override_mhz = std::move(caps);
    models.push_back(
        core::build_slot_lp(topo, requests, params, options).model);
  }
  return models;
}

TEST(WarmStart, SameObjectiveAsColdOnSlotSequence) {
  const auto models = warm_slot_sequence(40, 6, 11);
  RevisedSimplexSolver solver;
  WarmStartBasis warm;
  for (std::size_t t = 0; t < models.size(); ++t) {
    const auto cold = solver.solve(models[t]);
    const auto warmed = solver.solve(models[t], warm);
    ASSERT_TRUE(cold.optimal());
    ASSERT_TRUE(warmed.optimal());
    // The warm start changes the pivot path, never the optimum.
    EXPECT_NEAR(cold.objective, warmed.objective, 1e-9)
        << "slot " << t;
    EXPECT_LE(models[t].max_violation(warmed.x), 1e-6);
  }
}

TEST(WarmStart, EngagesAndReducesPivotsAcrossSlots) {
  const auto models = warm_slot_sequence(40, 6, 11);
  RevisedSimplexSolver solver;
  WarmStartBasis warm;
  long cold_pivots = 0;
  long warm_pivots = 0;
  int warm_adoptions = 0;
  for (std::size_t t = 0; t < models.size(); ++t) {
    const auto cold = solver.solve(models[t]);
    const auto warmed = solver.solve(models[t], warm);
    ASSERT_TRUE(warmed.optimal());
    // The SolveStats breakdown must reconcile with the legacy totals.
    EXPECT_EQ(cold.stats.pivots(), cold.iterations);
    EXPECT_EQ(warmed.stats.pivots(), warmed.iterations);
    EXPECT_FALSE(cold.stats.warm_start_attempted);
    // t == 0 has an empty basis to reuse, so nothing is attempted yet.
    EXPECT_EQ(warmed.stats.warm_start_attempted, t > 0);
    EXPECT_EQ(warmed.stats.warm_start_used, warmed.warm_started);
    if (warmed.warm_started) {
      // An adopted basis is artificial-free and feasible: no phase 1.
      EXPECT_EQ(warmed.stats.phase1_iterations, 0) << "slot " << t;
    }
    cold_pivots += cold.stats.pivots();
    warm_pivots += warmed.stats.pivots();
    if (t == 0) {
      // Nothing to reuse yet.
      EXPECT_FALSE(warmed.warm_started);
    } else if (warmed.warm_started) {
      ++warm_adoptions;
    }
  }
  EXPECT_GT(warm_adoptions, 0)
      << "the basis never carried over on a shape-stable sequence";
  EXPECT_LT(warm_pivots, cold_pivots)
      << "warm starts should strictly reduce total pivots";
}

TEST(WarmStart, AfterRecoveryMatchesColdBitForBit) {
  // A solve that exhausts the sparse recovery ladder hands the answer to
  // the dense cross-solve and CLEARS the carried basis — so the next
  // warm-started solve must be indistinguishable from a cold one.
  const auto models = warm_slot_sequence(40, 2, 11);
  RevisedSimplexOptions faulty;
  faulty.inject_nan_every_pivot = true;
  WarmStartBasis warm;
  const auto recovered = RevisedSimplexSolver(faulty).solve(models[0], warm);
  ASSERT_TRUE(recovered.optimal());
  ASSERT_GT(recovered.stats.recovery_dense_solves, 0);
  EXPECT_TRUE(warm.empty()) << "recovery must not export a basis";

  RevisedSimplexSolver solver;
  const auto after = solver.solve(models[1], warm);
  const auto cold = solver.solve(models[1]);
  ASSERT_TRUE(after.optimal());
  ASSERT_TRUE(cold.optimal());
  EXPECT_FALSE(after.warm_started);
  // Bit-for-bit: same pivot path, same vertex, same objective.
  EXPECT_EQ(after.iterations, cold.iterations);
  EXPECT_EQ(after.objective, cold.objective);
  EXPECT_EQ(after.x, cold.x);
}

TEST(SolveStats, CountsPhasesAndRefactorizations) {
  // An equality row forces artificials, so phase 1 must do work.
  Model m;
  const int x = m.add_variable("x", 2.0);
  const int y = m.add_variable("y", 3.0);
  m.add_constraint("eq", Sense::kEq, 4.0, {{x, 1.0}, {y, 1.0}});
  m.add_constraint("le", Sense::kLe, 2.0, {{x, 1.0}, {y, -1.0}});
  const auto res = RevisedSimplexSolver().solve(m);
  ASSERT_TRUE(res.optimal());
  EXPECT_GT(res.stats.phase1_iterations, 0);
  EXPECT_EQ(res.stats.pivots(), res.iterations);
  EXPECT_FALSE(res.stats.warm_start_attempted);
  EXPECT_FALSE(res.stats.warm_start_used);

  // The dense tableau fills the same phase split.
  const auto dense = SimplexSolver().solve(m);
  ASSERT_TRUE(dense.optimal());
  EXPECT_GT(dense.stats.phase1_iterations, 0);
  EXPECT_EQ(dense.stats.pivots(), dense.iterations);
  EXPECT_EQ(dense.stats.refactorizations, 0);
}

TEST(SolveStats, RecordsRefactorizationsAtShortInterval) {
  RevisedSimplexOptions options;
  options.refactor_interval = 2;
  const auto models = warm_slot_sequence(40, 1, 11);
  const auto res = RevisedSimplexSolver(options).solve(models[0]);
  ASSERT_TRUE(res.optimal());
  if (res.iterations >= 2) {
    EXPECT_GT(res.stats.refactorizations, 0);
  }
}

TEST(WarmStart, ColdFallbackOnDimensionChange) {
  const auto models = warm_slot_sequence(40, 1, 11);
  RevisedSimplexSolver solver;
  WarmStartBasis warm;
  ASSERT_TRUE(solver.solve(models[0], warm).optimal());
  ASSERT_FALSE(warm.empty());

  // A structurally different LP: the stale basis must be ignored, the
  // solve must cold-start and still reach its optimum.
  Model other;
  const int x = other.add_variable("x", 3.0);
  const int y = other.add_variable("y", 5.0);
  other.add_constraint("c1", Sense::kLe, 4.0, {{x, 1.0}});
  other.add_constraint("c2", Sense::kLe, 12.0, {{y, 2.0}});
  other.add_constraint("c3", Sense::kLe, 18.0, {{x, 3.0}, {y, 2.0}});
  const auto res = solver.solve(other, warm);
  ASSERT_TRUE(res.optimal());
  EXPECT_FALSE(res.warm_started);
  EXPECT_NEAR(res.objective, 36.0, kTol);
  // The export now reflects the new model, ready for its own sequence.
  EXPECT_EQ(warm.total_cols, other.num_variables() + 3);
}

// Beale's classic cycling example. Dantzig pricing with a naive tie rule
// cycles forever on it; the degenerate-stall detector must hand over to
// Bland's rule and terminate at the optimum 1/20.
Model beale_lp() {
  Model m;
  const int x1 = m.add_variable("x1", 0.75);
  const int x2 = m.add_variable("x2", -150.0);
  const int x3 = m.add_variable("x3", 0.02, 1.0);  // x3 <= 1 as column bound
  const int x4 = m.add_variable("x4", -6.0);
  m.add_constraint("r1", Sense::kLe, 0.0,
                   {{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}});
  m.add_constraint("r2", Sense::kLe, 0.0,
                   {{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}});
  return m;
}

class AntiCycling : public ::testing::TestWithParam<PricingMode> {};

TEST_P(AntiCycling, BealeTerminatesAtOptimum) {
  RevisedSimplexOptions options;
  options.pricing = GetParam();
  // Hair-trigger stall detection: Bland's rule engages on the first
  // degenerate streak, which Beale's LP hits immediately.
  options.stall_threshold = 2;
  const auto res = RevisedSimplexSolver(options).solve(beale_lp());
  ASSERT_TRUE(res.optimal());
  EXPECT_NEAR(res.objective, 0.05, kTol);
  EXPECT_EQ(res.stats.pricing_mode, static_cast<int>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Modes, AntiCycling,
                         ::testing::Values(PricingMode::kDantzig,
                                           PricingMode::kDevex,
                                           PricingMode::kSteepestEdge));

TEST(AntiCyclingStats, DegenerateSolveStaysFiniteAtDefaults) {
  // The default stall threshold must also terminate (just later).
  const auto res = RevisedSimplexSolver().solve(beale_lp());
  ASSERT_TRUE(res.optimal());
  EXPECT_NEAR(res.objective, 0.05, kTol);
}

TEST(IterationLimit, SurfacesAsStatusNotHang) {
  RevisedSimplexOptions options;
  options.max_iterations = 1;
  const auto models = warm_slot_sequence(40, 1, 11);
  const auto res = RevisedSimplexSolver(options).solve(models[0]);
  EXPECT_EQ(res.status, SolveStatus::kIterationLimit);
  EXPECT_LE(res.iterations, 1);
}

TEST(BoundedVariables, PureBoundFlipModelNeedsNoRows) {
  // No constraints at all: the optimum is attained entirely by flipping
  // profitable columns to their upper bounds; the basis stays 0x0.
  Model m;
  m.add_variable("a", 2.0, 1.5);
  m.add_variable("b", -1.0, 4.0);  // unprofitable: stays at 0
  m.add_variable("c", 0.5, 2.0);
  const auto res = RevisedSimplexSolver().solve(m);
  ASSERT_TRUE(res.optimal());
  EXPECT_NEAR(res.objective, 2.0 * 1.5 + 0.5 * 2.0, kTol);
  EXPECT_NEAR(res.x[0], 1.5, kTol);
  EXPECT_NEAR(res.x[1], 0.0, kTol);
  EXPECT_NEAR(res.x[2], 2.0, kTol);
  EXPECT_GT(res.stats.bound_flips, 0);
  EXPECT_EQ(res.stats.eta_pivots, 0);  // no basis ever changed
}

TEST(BoundedVariables, FlipAndPivotMix) {
  // One row, two bounded columns: the optimum needs both a bound flip and
  // a genuine pivot. max 3a + b, a <= 2, b <= 10, a + b <= 5.
  Model m;
  const int a = m.add_variable("a", 3.0, 2.0);
  const int b = m.add_variable("b", 1.0, 10.0);
  m.add_constraint("c", Sense::kLe, 5.0, {{a, 1.0}, {b, 1.0}});
  const auto res = RevisedSimplexSolver().solve(m);
  ASSERT_TRUE(res.optimal());
  EXPECT_NEAR(res.objective, 3.0 * 2.0 + 3.0, kTol);
  EXPECT_NEAR(res.x[static_cast<std::size_t>(a)], 2.0, kTol);
  EXPECT_NEAR(res.x[static_cast<std::size_t>(b)], 3.0, kTol);
}

class PricingAgreement : public ::testing::TestWithParam<unsigned> {};

TEST_P(PricingAgreement, AllRulesReachTheSameObjective) {
  const auto models = warm_slot_sequence(30, 1, GetParam());
  double reference = 0.0;
  for (const PricingMode mode :
       {PricingMode::kDantzig, PricingMode::kDevex,
        PricingMode::kSteepestEdge}) {
    RevisedSimplexOptions options;
    options.pricing = mode;
    const auto res = RevisedSimplexSolver(options).solve(models[0]);
    ASSERT_TRUE(res.optimal());
    EXPECT_EQ(res.stats.pricing_mode, static_cast<int>(mode));
    if (mode == PricingMode::kDantzig) {
      reference = res.objective;
    } else {
      EXPECT_NEAR(res.objective, reference,
                  1e-6 * std::max(1.0, std::abs(reference)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PricingAgreement,
                         ::testing::Range(11u, 16u));

TEST(SolveStats, ReportsEtaFileActivity) {
  const auto models = warm_slot_sequence(40, 1, 11);
  const auto res = RevisedSimplexSolver().solve(models[0]);
  ASSERT_TRUE(res.optimal());
  // A 100+-pivot solve must have absorbed pivots into the eta file rather
  // than refactorizing every step.
  EXPECT_GT(res.stats.eta_pivots, 0);
  EXPECT_GT(res.stats.eta_len_max, 0);
  EXPECT_LE(res.stats.eta_len_max,
            RevisedSimplexOptions{}.refactor_interval);
  EXPECT_GE(res.stats.eta_pivots,
            res.stats.eta_len_max);
}

TEST(SolveLpFrontend, PicksAnEngineAndSolves) {
  Model small;
  const int x = small.add_variable("x", 1.0, 2.0);
  small.add_constraint("c", Sense::kLe, 1.0, {{x, 1.0}});
  const auto res = solve_lp(small);
  ASSERT_TRUE(res.optimal());
  EXPECT_NEAR(res.objective, 1.0, kTol);
}

}  // namespace
}  // namespace mecar::lp
