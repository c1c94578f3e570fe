// Two-phase primal simplex for the LP relaxations of the paper's programs.
//
// The paper assumes an LP oracle but never names one; this is a from-scratch
// dense-tableau implementation sized for the slot-indexed relaxations
// (hundreds of rows, a few thousand columns):
//   * rows of any sense (<=, =, >=), rhs normalized non-negative,
//   * non-negative variables with optional finite upper bounds
//     (finite bounds become internal rows),
//   * phase 1 with artificials, phase 2 with Dantzig pricing and a Bland's
//     rule fallback after a degenerate stall (anti-cycling).
#pragma once

#include <string>
#include <vector>

#include "lp/model.h"

namespace mecar::lp {

enum class SolveStatus {
  /// Default of a freshly constructed result: no solve has run (or the
  /// solve died before reaching any terminal classification). Callers that
  /// branch on a specific failure can no longer mistake "never ran" for
  /// "ran out of iterations".
  kNotSolved,
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  /// A SolveBudget (pivots and/or wall clock) ran out. The result may
  /// still carry the best primal-feasible iterate seen (x non-empty):
  /// budgeted solves are *anytime*.
  kDeadline,
  /// NaN/Inf in the model input, or an unrecoverable numerical failure
  /// (singular basis, factorization residual, eta-file blow-up) that the
  /// in-engine recovery ladder could not contain.
  kNumericalError,
};

std::string to_string(SolveStatus status);

/// Work budget making a solve *anytime*: when either limit is hit the
/// engine stops and reports kDeadline with the best primal-feasible
/// iterate found so far (empty x when none was reached). Distinct from
/// SimplexOptions::max_iterations, which keeps its legacy semantics
/// (kIterationLimit, no partial solution). `deadline_ms` consults the
/// wall clock, so deterministic runs should leave it at 0 and budget
/// pivots only.
struct SolveBudget {
  /// Maximum pivots across both phases; 0 = unlimited.
  int max_pivots = 0;
  /// Wall-clock ceiling in milliseconds; 0 = unlimited.
  double deadline_ms = 0.0;

  bool limited() const noexcept {
    return max_pivots > 0 || deadline_ms > 0.0;
  }
};

/// True when every objective coefficient, bound, row coefficient, and rhs
/// of `model` is non-NaN (infinite uppers are legal). Both solvers check
/// this up front and return kNumericalError instead of iterating on
/// garbage.
bool model_input_finite(const Model& model);

struct SimplexOptions {
  /// Pivot tolerance: entries smaller in magnitude are treated as zero.
  double pivot_tol = 1e-9;
  /// Reduced-cost optimality tolerance.
  double opt_tol = 1e-9;
  /// Phase-1 residual above which the model is declared infeasible.
  double feas_tol = 1e-7;
  /// 0 means "choose automatically from the model size".
  int max_iterations = 0;
  /// Consecutive degenerate pivots before switching to Bland's rule.
  int stall_threshold = 128;
};

/// Per-solve work counters, filled by both solvers. `iterations` on
/// SolveResult remains the total; this struct breaks it down so callers
/// (telemetry, warm-start tests) can see where the work went.
struct SolveStats {
  int phase1_iterations = 0;
  int phase2_iterations = 0;
  /// Basis refactorizations (revised simplex only; 0 for the dense
  /// tableau, which has no factorized basis).
  int refactorizations = 0;
  /// A warm basis was offered by the caller.
  bool warm_start_attempted = false;
  /// The offered basis was adopted (phase 1 skipped).
  bool warm_start_used = false;
  /// Pivots absorbed as eta-file updates, i.e. without refactorizing
  /// (revised simplex only). Nonzero means the factorization was reused
  /// across pivots, the whole point of the eta scheme.
  int eta_pivots = 0;
  /// Peak eta-file length reached between refactorizations.
  int eta_len_max = 0;
  /// Bound-to-bound moves of a nonbasic column (no basis change; counted
  /// in the phase iteration totals like any other pivot).
  int bound_flips = 0;
  /// PricingMode the solve finished with, as its integer value (steepest
  /// edge may drop to devex mid-solve after weight drift).
  int pricing_mode = 0;
  /// Recovery ladder engagements (revised simplex only; all zero on a
  /// numerically clean solve). Rung 1: forced refactorizations triggered
  /// by a NaN/Inf scan or a factorization residual check.
  int recovery_refactorizations = 0;
  /// Rung 2: full restarts from the slack/bound cold basis after rung 1
  /// failed to contain the corruption.
  int recovery_basis_resets = 0;
  /// Rung 3: one-shot dense-Tableau cross-solves after the sparse engine
  /// gave up entirely.
  int recovery_dense_solves = 0;
  /// Total ladder engagements of this solve.
  int recoveries() const noexcept {
    return recovery_refactorizations + recovery_basis_resets +
           recovery_dense_solves;
  }
  /// Total pivots across both phases.
  int pivots() const noexcept {
    return phase1_iterations + phase2_iterations;
  }
};

struct SolveResult {
  SolveStatus status = SolveStatus::kNotSolved;
  /// Objective value (includes any Model::fixed_objective constant).
  double objective = 0.0;
  /// Values for all model columns, including fixed ones.
  std::vector<double> x;
  int iterations = 0;
  /// True when the solve was seeded from a caller-provided basis (revised
  /// simplex warm start) rather than the slack/artificial cold basis.
  bool warm_started = false;
  /// Work breakdown (stats.pivots() == iterations).
  SolveStats stats;
  bool optimal() const noexcept { return status == SolveStatus::kOptimal; }
};

/// Dense two-phase tableau simplex. Stateless between solves.
class SimplexSolver {
 public:
  explicit SimplexSolver(SimplexOptions options = {}) : options_(options) {}

  /// Solves the LP relaxation of `model` (integrality flags are ignored).
  SolveResult solve(const Model& model) const;

  const SimplexOptions& options() const noexcept { return options_; }

 private:
  SimplexOptions options_;
};

}  // namespace mecar::lp
