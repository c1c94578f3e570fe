#include "lp/revised_simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "lp/lu_factor.h"
#include "obs/catalog.h"
#include "obs/event_trace.h"
#include "util/log.h"
#include "util/timer.h"

namespace mecar::lp {
namespace {

/// One telemetry update per solve, shared by both solvers' entry points.
void record_solve(const SolveResult& result) {
  const obs::Metrics& m = obs::metrics();
  m.lp_solves.add();
  m.lp_pivots.add(result.iterations);
  m.lp_refactorizations.add(result.stats.refactorizations);
  if (result.stats.warm_start_attempted) {
    if (result.stats.warm_start_used) {
      m.lp_warm_start_hits.add();
    } else {
      m.lp_warm_start_misses.add();
    }
  }
  m.lp_pivots_per_solve.observe(result.iterations);
  m.lp_eta_len.observe(result.stats.eta_len_max);
  m.lp_pricing_mode.set(result.stats.pricing_mode);
  if (result.stats.recoveries() > 0) {
    m.lp_recoveries.add(result.stats.recoveries());
  }
  if (result.status == SolveStatus::kNumericalError) {
    m.lp_numerical_errors.add();
  }
  obs::EventTrace& tr = obs::trace();
  if (tr.enabled()) {
    tr.emit(obs::EventKind::kLpSolve, result.iterations,
            result.stats.refactorizations,
            result.warm_started ? 1.0 : 0.0);
  }
}

/// Eta-update pivots smaller than this are numerically unstable; the
/// engine refactorizes instead of appending the eta.
constexpr double kEtaPivotTol = 1e-8;
/// LU elimination pivot floor: below this the basis is declared singular.
constexpr double kFactorPivotTol = 1e-12;
/// Steepest-edge self-check: a stored reference weight this far (ratio)
/// from the entering column's exact edge norm counts as a drift event.
constexpr double kWeightDriftRatio = 100.0;
/// Drift events tolerated before steepest edge drops to devex.
constexpr int kWeightDriftLimit = 8;
/// In-place recovery attempts (forced refactorizations after a NaN/Inf
/// scan hit) tolerated within one attempt before the engine gives up and
/// reports kNumericalError — the ladder then escalates outside iterate().
constexpr int kMaxNanRecoveryRounds = 4;

/// True when the vector holds no NaN/Inf. The per-pivot guardrail scans
/// are pure reads: they change nothing unless corruption is present.
bool finite_vec(const std::vector<double>& v) {
  for (const double x : v) {
    if (std::isnan(x) || std::isinf(x)) return false;
  }
  return true;
}

class Engine {
 public:
  Engine(const Model& model, const RevisedSimplexOptions& opt)
      : opt_(opt), mode_(opt.pricing) {
    build(model);
  }

  SolveResult run(const Model& model, WarmStartBasis* warm);

 private:
  void build(const Model& model);
  SolveResult run_attempt(const Model& model, WarmStartBasis* warm,
                          bool allow_warm);
  SolveStatus iterate(const std::vector<double>& costs, int& iterations,
                      int max_iterations);
  bool refactorize();
  /// Rung 1 of the recovery ladder: a guardrail scan found NaN/Inf in an
  /// engine vector. Forces a refactorization (dropping the eta file, the
  /// usual corruption carrier) and re-derives the basic solution. False
  /// when the rounds cap is hit or the basis is beyond repair.
  bool recover_in_place();
  void cold_start();
  bool adopt_warm_basis(const WarmStartBasis& warm);
  void compute_xb();
  void compute_y(const std::vector<double>& costs);
  int price(const std::vector<double>& costs, bool bland) const;
  void ftran_column(int col);
  /// Test/fuzzer fault injection hook, called after every entering-column
  /// FTRAN. Does nothing unless the options arm it.
  void maybe_inject_fault();
  double sparse_dot(int col, const std::vector<double>& row_vec) const;
  void update_pricing_weights(int entering, int leave, int leaving_col,
                              double gamma_q);
  bool absorb_pivot(int leave);
  bool drive_out_artificials();
  double basic_value(const std::vector<double>& costs) const;
  void extract_solution(const Model& model, SolveResult& result) const;
  void fill_stats(SolveResult& result) const;

  RevisedSimplexOptions opt_;
  PricingMode mode_;
  int m_ = 0;
  int total_cols_ = 0;
  int art_begin_ = 0;
  int price_limit_ = 0;
  std::vector<SparseCol> cols_;
  std::vector<double> rhs_;
  std::vector<double> upper_;  // per tableau column; +inf when unbounded
  std::vector<int> basis_;     // basis position -> column
  std::vector<int> cold_basis_;
  std::vector<char> in_basis_;
  std::vector<char> at_upper_;  // nonbasic rest point (1 = upper bound)
  BasisLu lu_;
  std::vector<double> xb_;     // basic values, position-indexed
  std::vector<double> y_;      // pricing vector, row-indexed
  std::vector<double> w_;      // FTRAN pivot column B^{-1} a_j
  std::vector<double> rho_;    // BTRAN of e_r (steepest edge / devex)
  std::vector<double> sev_;    // BTRAN of w (steepest edge only)
  std::vector<double> gamma_;  // pricing reference weights, per column
  std::vector<int> tab_to_model_;
  std::vector<double> phase2_costs_;
  int refactorizations_ = 0;
  int eta_pivots_ = 0;
  int eta_len_max_ = 0;
  int bound_flips_ = 0;
  int drift_events_ = 0;
  // Recovery-ladder accounting (see SolveStats).
  int recovery_refactorizations_ = 0;
  int recovery_basis_resets_ = 0;
  int recovery_dense_solves_ = 0;
  /// Consecutive in-place recoveries without a clean pivot in between.
  int nan_recovery_rounds_ = 0;
  /// Entering-column FTRANs performed (the injection hooks key off this,
  /// cumulatively across ladder attempts so a one-shot fault stays
  /// one-shot).
  int pivot_attempts_ = 0;
  bool injected_ = false;
  /// True only inside adopt_warm_basis: downgrades the singular-basis
  /// refactor log to debug (the warm path has a by-design cold fallback).
  bool adopting_warm_ = false;
  /// Started at construction; consulted only when budget.deadline_ms > 0.
  util::Timer budget_timer_;
  /// True while the steepest-edge weights are exact edge norms (cold start
  /// from the identity basis, maintained by the Goldfarb update). Warm
  /// starts and artificial drive-out seed/leave approximate reference
  /// weights, where a mismatch with the exact norm is expected and must
  /// not count as numerical drift.
  bool gamma_exact_ = false;
};

void Engine::build(const Model& model) {
  const int n_model = model.num_variables();
  std::vector<int> live(static_cast<std::size_t>(n_model), -1);
  for (int j = 0; j < n_model; ++j) {
    if (model.variable(j).upper > 0.0) {
      live[static_cast<std::size_t>(j)] =
          static_cast<int>(tab_to_model_.size());
      tab_to_model_.push_back(j);
    }
  }
  const int n_live = static_cast<int>(tab_to_model_.size());

  struct RowSpec {
    std::vector<Term> terms;  // live column index, value
    Sense sense = Sense::kLe;
    double rhs = 0.0;
  };
  std::vector<RowSpec> rows;
  for (const Row& row : model.rows()) {
    RowSpec spec;
    spec.sense = row.sense;
    spec.rhs = row.rhs;
    for (const Term& t : row.terms) {
      const int lv = live[static_cast<std::size_t>(t.col)];
      if (lv >= 0) spec.terms.push_back(Term{lv, t.coeff});
    }
    rows.push_back(std::move(spec));
  }
  // Finite variable upper bounds become column bounds, not rows: the basis
  // stays at the true constraint count. (The previous engine appended one
  // explicit <= row per finite bound here.)
  for (RowSpec& row : rows) {
    if (row.rhs < 0.0) {
      row.rhs = -row.rhs;
      for (Term& t : row.terms) t.coeff = -t.coeff;
      if (row.sense == Sense::kLe) row.sense = Sense::kGe;
      else if (row.sense == Sense::kGe) row.sense = Sense::kLe;
    }
  }

  m_ = static_cast<int>(rows.size());
  int n_slack = 0, n_art = 0;
  for (const RowSpec& row : rows) {
    if (row.sense != Sense::kEq) ++n_slack;
    if (row.sense != Sense::kLe) ++n_art;
  }
  art_begin_ = n_live + n_slack;
  total_cols_ = art_begin_ + n_art;

  cols_.resize(static_cast<std::size_t>(total_cols_));
  rhs_.resize(static_cast<std::size_t>(m_));
  upper_.assign(static_cast<std::size_t>(total_cols_), kInf);
  for (int c = 0; c < n_live; ++c) {
    upper_[static_cast<std::size_t>(c)] =
        model.variable(tab_to_model_[static_cast<std::size_t>(c)]).upper;
  }
  basis_.assign(static_cast<std::size_t>(m_), -1);
  in_basis_.assign(static_cast<std::size_t>(total_cols_), 0);
  at_upper_.assign(static_cast<std::size_t>(total_cols_), 0);

  // Structural columns, transposed from rows.
  for (int r = 0; r < m_; ++r) {
    rhs_[static_cast<std::size_t>(r)] = rows[static_cast<std::size_t>(r)].rhs;
    for (const Term& t : rows[static_cast<std::size_t>(r)].terms) {
      cols_[static_cast<std::size_t>(t.col)].entries.push_back(
          Term{r, t.coeff});
    }
  }
  int next_slack = n_live, next_art = art_begin_;
  for (int r = 0; r < m_; ++r) {
    switch (rows[static_cast<std::size_t>(r)].sense) {
      case Sense::kLe:
        cols_[static_cast<std::size_t>(next_slack)].entries.push_back(
            Term{r, 1.0});
        basis_[static_cast<std::size_t>(r)] = next_slack++;
        break;
      case Sense::kGe:
        cols_[static_cast<std::size_t>(next_slack)].entries.push_back(
            Term{r, -1.0});
        ++next_slack;
        cols_[static_cast<std::size_t>(next_art)].entries.push_back(
            Term{r, 1.0});
        basis_[static_cast<std::size_t>(r)] = next_art++;
        break;
      case Sense::kEq:
        cols_[static_cast<std::size_t>(next_art)].entries.push_back(
            Term{r, 1.0});
        basis_[static_cast<std::size_t>(r)] = next_art++;
        break;
    }
  }
  cold_basis_ = basis_;
  for (int b : basis_) in_basis_[static_cast<std::size_t>(b)] = 1;

  xb_.assign(static_cast<std::size_t>(m_), 0.0);
  y_.assign(static_cast<std::size_t>(m_), 0.0);
  w_.assign(static_cast<std::size_t>(m_), 0.0);
  rho_.assign(static_cast<std::size_t>(m_), 0.0);
  sev_.assign(static_cast<std::size_t>(m_), 0.0);
  gamma_.assign(static_cast<std::size_t>(total_cols_), 1.0);

  phase2_costs_.assign(static_cast<std::size_t>(total_cols_), 0.0);
  for (int c = 0; c < n_live; ++c) {
    phase2_costs_[static_cast<std::size_t>(c)] =
        model.variable(tab_to_model_[static_cast<std::size_t>(c)]).objective;
  }
}

void Engine::compute_xb() {
  // xb = B^{-1}(b - sum over nonbasic-at-upper columns of u_j a_j).
  for (int r = 0; r < m_; ++r) {
    xb_[static_cast<std::size_t>(r)] = rhs_[static_cast<std::size_t>(r)];
  }
  for (int j = 0; j < total_cols_; ++j) {
    if (in_basis_[static_cast<std::size_t>(j)] ||
        !at_upper_[static_cast<std::size_t>(j)]) {
      continue;
    }
    const double u = upper_[static_cast<std::size_t>(j)];
    for (const Term& t : cols_[static_cast<std::size_t>(j)].entries) {
      xb_[static_cast<std::size_t>(t.col)] -= u * t.coeff;
    }
  }
  lu_.ftran(xb_);
}

bool Engine::refactorize() {
  if (!lu_.factorize(cols_, basis_, kFactorPivotTol)) {
    // While adopting a warm basis a singular factorization is an expected
    // outcome with a clean fallback (cold start), not an anomaly worth a
    // per-occurrence warning.
    if (adopting_warm_) {
      util::log_debug() << "revised simplex: singular warm basis; cold start";
    } else {
      util::log_warn() << "revised simplex: singular basis at refactor";
    }
    return false;
  }
  ++refactorizations_;
  // Recomputing the basic solution from scratch re-anchors it numerically
  // (the incremental updates drift by one rounding per pivot).
  compute_xb();
  // Guardrail: the fresh factorization must reproduce a finite basic
  // solution that actually solves B·x_B = b_eff. A violation means the
  // factors are untrustworthy (near-singular basis slipped past the pivot
  // floor) and the caller must escalate.
  if (!finite_vec(xb_)) {
    util::log_warn() << "revised simplex: non-finite basic solution "
                        "after refactorization";
    return false;
  }
  double rhs_max = 0.0;
  std::vector<double> resid(static_cast<std::size_t>(m_));
  for (int r = 0; r < m_; ++r) {
    const double b = rhs_[static_cast<std::size_t>(r)];
    rhs_max = std::max(rhs_max, std::abs(b));
    resid[static_cast<std::size_t>(r)] = b;
  }
  for (int j = 0; j < total_cols_; ++j) {
    if (in_basis_[static_cast<std::size_t>(j)] ||
        !at_upper_[static_cast<std::size_t>(j)]) {
      continue;
    }
    const double u = upper_[static_cast<std::size_t>(j)];
    for (const Term& t : cols_[static_cast<std::size_t>(j)].entries) {
      resid[static_cast<std::size_t>(t.col)] -= u * t.coeff;
    }
  }
  for (int r = 0; r < m_; ++r) {
    const double x = xb_[static_cast<std::size_t>(r)];
    for (const Term& t :
         cols_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(r)])]
             .entries) {
      resid[static_cast<std::size_t>(t.col)] -= x * t.coeff;
    }
  }
  double resid_max = 0.0;
  for (const double r : resid) resid_max = std::max(resid_max, std::abs(r));
  const double tol = opt_.residual_tol * (1.0 + rhs_max);
  if (!(resid_max <= tol)) {  // negated compare catches NaN
    util::log_warn() << "revised simplex: factorization residual "
                     << resid_max << " exceeds " << tol;
    return false;
  }
  return true;
}

bool Engine::recover_in_place() {
  if (++nan_recovery_rounds_ > kMaxNanRecoveryRounds) return false;
  ++recovery_refactorizations_;
  return refactorize();
}

void Engine::cold_start() {
  basis_ = cold_basis_;
  std::fill(in_basis_.begin(), in_basis_.end(), 0);
  std::fill(at_upper_.begin(), at_upper_.end(), 0);
  for (int b : basis_) in_basis_[static_cast<std::size_t>(b)] = 1;
  // The cold basis is a signed identity (unit slack/artificial columns), so
  // this factorization cannot fail and FTRAN of the rhs is the rhs itself.
  lu_.factorize(cols_, basis_, kFactorPivotTol);
  xb_ = rhs_;
  // With B = I the edge norm of every column is exactly 1 + ||a_j||^2, so
  // steepest edge starts from true weights (and the drift self-check is
  // meaningful from the first pivot).
  for (int j = 0; j < total_cols_; ++j) {
    double norm2 = 0.0;
    for (const Term& t : cols_[static_cast<std::size_t>(j)].entries) {
      norm2 += t.coeff * t.coeff;
    }
    gamma_[static_cast<std::size_t>(j)] = 1.0 + norm2;
  }
  gamma_exact_ = true;
}

bool Engine::adopt_warm_basis(const WarmStartBasis& warm) {
  if (static_cast<int>(warm.basis.size()) != m_) return false;
  if (!warm.at_upper.empty() &&
      static_cast<int>(warm.at_upper.size()) != total_cols_) {
    return false;
  }
  // Only structural and slack columns may seed a warm basis: an artificial
  // would force a phase-1 pass and defeat the point.
  std::vector<char> seen(static_cast<std::size_t>(art_begin_), 0);
  for (int b : warm.basis) {
    if (b < 0 || b >= art_begin_ || seen[static_cast<std::size_t>(b)]) {
      return false;
    }
    seen[static_cast<std::size_t>(b)] = 1;
  }
  basis_ = warm.basis;
  std::fill(in_basis_.begin(), in_basis_.end(), 0);
  for (int b : basis_) in_basis_[static_cast<std::size_t>(b)] = 1;
  for (int j = 0; j < total_cols_; ++j) {
    const bool up = !warm.at_upper.empty() &&
                    warm.at_upper[static_cast<std::size_t>(j)] != 0 &&
                    !in_basis_[static_cast<std::size_t>(j)] &&
                    std::isfinite(upper_[static_cast<std::size_t>(j)]);
    at_upper_[static_cast<std::size_t>(j)] = up ? 1 : 0;
  }
  adopting_warm_ = true;
  const bool factorized = refactorize();
  adopting_warm_ = false;
  if (!factorized) {
    cold_start();
    return false;
  }
  // The adopted basis must still be feasible for this model's rhs and
  // bounds; otherwise phase 2 cannot start from it.
  for (int r = 0; r < m_; ++r) {
    const double v = xb_[static_cast<std::size_t>(r)];
    const double u = upper_[static_cast<std::size_t>(
        basis_[static_cast<std::size_t>(r)])];
    if (v < -opt_.feas_tol || v > u + opt_.feas_tol) {
      cold_start();
      return false;
    }
  }
  for (int r = 0; r < m_; ++r) {
    double& v = xb_[static_cast<std::size_t>(r)];
    v = std::max(v, 0.0);
    const double u = upper_[static_cast<std::size_t>(
        basis_[static_cast<std::size_t>(r)])];
    if (std::isfinite(u)) v = std::min(v, u);
  }
  // Reference-framework weights: exact norms for the adopted basis would
  // cost one FTRAN per column, so the warm path prices against the devex
  // approximation (safeguarded from below, converges to useful values in a
  // few pivots — and warm solves take only a few pivots).
  std::fill(gamma_.begin(), gamma_.end(), 1.0);
  gamma_exact_ = false;
  return true;
}

void Engine::compute_y(const std::vector<double>& costs) {
  for (int r = 0; r < m_; ++r) {
    y_[static_cast<std::size_t>(r)] =
        costs[static_cast<std::size_t>(basis_[static_cast<std::size_t>(r)])];
  }
  lu_.btran(y_);
}

int Engine::price(const std::vector<double>& costs, bool bland) const {
  int best = -1;
  double best_score = 0.0;
  for (int j = 0; j < price_limit_; ++j) {
    if (in_basis_[static_cast<std::size_t>(j)]) continue;
    double d = costs[static_cast<std::size_t>(j)];
    for (const Term& t : cols_[static_cast<std::size_t>(j)].entries) {
      d -= y_[static_cast<std::size_t>(t.col)] * t.coeff;
    }
    // A column at its lower bound improves the (max) objective by
    // increasing when d > 0; one at its upper bound by decreasing when
    // d < 0.
    const bool eligible = at_upper_[static_cast<std::size_t>(j)]
                              ? d < -opt_.opt_tol
                              : d > opt_.opt_tol;
    if (!eligible) continue;
    if (bland) return j;
    const double score = mode_ == PricingMode::kDantzig
                             ? std::abs(d)
                             : d * d / gamma_[static_cast<std::size_t>(j)];
    if (score > best_score) {
      best_score = score;
      best = j;
    }
  }
  return best;
}

void Engine::ftran_column(int col) {
  std::fill(w_.begin(), w_.end(), 0.0);
  for (const Term& t : cols_[static_cast<std::size_t>(col)].entries) {
    w_[static_cast<std::size_t>(t.col)] = t.coeff;
  }
  lu_.ftran(w_);
}

void Engine::maybe_inject_fault() {
  ++pivot_attempts_;
  if (w_.empty()) return;
  const bool hit = opt_.inject_nan_every_pivot ||
                   (opt_.inject_nan_at_pivot > 0 && !injected_ &&
                    pivot_attempts_ >= opt_.inject_nan_at_pivot);
  if (!hit) return;
  injected_ = true;
  w_[0] = std::numeric_limits<double>::quiet_NaN();
}

double Engine::sparse_dot(int col, const std::vector<double>& row_vec) const {
  double acc = 0.0;
  for (const Term& t : cols_[static_cast<std::size_t>(col)].entries) {
    acc += row_vec[static_cast<std::size_t>(t.col)] * t.coeff;
  }
  return acc;
}

/// Maintains the pricing reference weights across the pivot that moves
/// `entering` into basis position `leave` (evicting `leaving_col`).
/// Steepest edge uses the Goldfarb update with the exact entering norm
/// `gamma_q` = 1 + ||B^{-1}a_q||^2 (two BTRANs: rho = B^{-T}e_r and
/// v = B^{-T}w); devex keeps only the rho BTRAN and grows weights
/// monotonically. Both are safeguarded from below, so a stale weight can
/// bias the entering choice but never break correctness. Must run before
/// the eta push: the BTRANs are against the pre-pivot basis.
void Engine::update_pricing_weights(int entering, int leave, int leaving_col,
                                    double gamma_q) {
  const double wr = w_[static_cast<std::size_t>(leave)];
  std::fill(rho_.begin(), rho_.end(), 0.0);
  rho_[static_cast<std::size_t>(leave)] = 1.0;
  lu_.btran(rho_);
  const bool se = mode_ == PricingMode::kSteepestEdge;
  if (se) {
    sev_ = w_;
    lu_.btran(sev_);
  }
  for (int j = 0; j < price_limit_; ++j) {
    if (in_basis_[static_cast<std::size_t>(j)] || j == entering) continue;
    const double alpha = sparse_dot(j, rho_);
    if (alpha == 0.0) continue;
    const double beta = alpha / wr;
    double& g = gamma_[static_cast<std::size_t>(j)];
    if (se) {
      const double av = sparse_dot(j, sev_);
      g = std::max(g - 2.0 * beta * av + beta * beta * gamma_q,
                   1.0 + beta * beta);
    } else {
      g = std::max(g, beta * beta * gamma_q);
    }
  }
  gamma_[static_cast<std::size_t>(leaving_col)] =
      se ? std::max(gamma_q / (wr * wr), 1.0 + 1.0 / (wr * wr))
         : std::max(gamma_q / (wr * wr), 1.0);
}

/// Folds the pivot column w_ (position `leave` replaced) into the basis
/// representation: appends an eta when stable, refactorizes otherwise or
/// when the eta file hit the interval. Returns false only when a required
/// refactorization found the basis singular — an unrecoverable state.
bool Engine::absorb_pivot(int leave) {
  // Eta-file condition monitor: an update column with extreme element
  // growth relative to its pivot poisons every later FTRAN/BTRAN through
  // the product form. Refactorize instead of appending it.
  const double wr = std::abs(w_[static_cast<std::size_t>(leave)]);
  double wmax = 0.0;
  for (const double v : w_) wmax = std::max(wmax, std::abs(v));
  if (wr > 0.0 && wmax > opt_.eta_growth_limit * wr) {
    ++recovery_refactorizations_;
    return refactorize();
  }
  if (lu_.push_eta(w_, leave, kEtaPivotTol)) {
    ++eta_pivots_;
    eta_len_max_ = std::max(eta_len_max_, lu_.eta_len());
    if (lu_.eta_len() >= std::max(1, opt_.refactor_interval)) {
      return refactorize();
    }
    return true;
  }
  return refactorize();
}

SolveStatus Engine::iterate(const std::vector<double>& costs, int& iterations,
                            int max_iterations) {
  bool bland = false;
  int degenerate_streak = 0;
  const bool budgeted = opt_.budget.limited();
  while (true) {
    if (budgeted) {
      // Anytime contract: stop at the budget and let the caller keep the
      // current (primal-feasible, objective-monotone) iterate.
      if (opt_.budget.max_pivots > 0 &&
          iterations >= opt_.budget.max_pivots) {
        return SolveStatus::kDeadline;
      }
      if (opt_.budget.deadline_ms > 0.0 &&
          budget_timer_.elapsed_ms() >= opt_.budget.deadline_ms) {
        return SolveStatus::kDeadline;
      }
    }
    compute_y(costs);
    if (!finite_vec(y_)) {
      // Corrupted pricing vector (typically a poisoned eta). Rung 1:
      // rebuild the factors in place and retry the pivot.
      if (!recover_in_place()) return SolveStatus::kNumericalError;
      continue;
    }
    const int entering = price(costs, bland);
    if (entering < 0) return SolveStatus::kOptimal;

    ftran_column(entering);  // w_ = B^{-1} a_q, position-indexed
    maybe_inject_fault();
    if (!finite_vec(w_)) {
      // The pivot column is garbage; nothing was committed yet.
      if (!recover_in_place()) return SolveStatus::kNumericalError;
      continue;
    }
    const bool from_upper = at_upper_[static_cast<std::size_t>(entering)] != 0;
    const double sigma = from_upper ? -1.0 : 1.0;

    // Ratio test over the basic variables: the entering column moves away
    // from its bound by t, each basic value moves by -t*sigma*w_i and may
    // hit either of its own bounds. Ties break to the lowest column index
    // for determinism.
    int leave = -1;
    double best_ratio = 0.0;
    int best_basis = -1;
    bool leave_to_upper = false;
    for (int r = 0; r < m_; ++r) {
      const double d = sigma * w_[static_cast<std::size_t>(r)];
      double ratio;
      bool to_upper;
      if (d > opt_.pivot_tol) {
        ratio = xb_[static_cast<std::size_t>(r)] / d;
        to_upper = false;
      } else if (d < -opt_.pivot_tol) {
        const double ub = upper_[static_cast<std::size_t>(
            basis_[static_cast<std::size_t>(r)])];
        if (!std::isfinite(ub)) continue;
        ratio = (ub - xb_[static_cast<std::size_t>(r)]) / (-d);
        to_upper = true;
      } else {
        continue;
      }
      if (leave < 0 || ratio < best_ratio - opt_.pivot_tol ||
          (ratio < best_ratio + opt_.pivot_tol &&
           basis_[static_cast<std::size_t>(r)] < best_basis)) {
        leave = r;
        best_ratio = ratio;
        best_basis = basis_[static_cast<std::size_t>(r)];
        leave_to_upper = to_upper;
      }
    }

    const double uq = upper_[static_cast<std::size_t>(entering)];
    if (leave < 0 && !std::isfinite(uq)) return SolveStatus::kUnbounded;
    // The entering column can also hit its own opposite bound first: a
    // bound flip, no basis change, no eta.
    const bool flip =
        leave < 0 || (std::isfinite(uq) && uq <= best_ratio);
    bool degenerate = false;
    if (flip) {
      const double t = uq;
      for (int r = 0; r < m_; ++r) {
        xb_[static_cast<std::size_t>(r)] -=
            t * sigma * w_[static_cast<std::size_t>(r)];
      }
      at_upper_[static_cast<std::size_t>(entering)] = from_upper ? 0 : 1;
      ++bound_flips_;
    } else {
      const double t = best_ratio;
      degenerate = t <= opt_.pivot_tol;
      const int leaving_col = basis_[static_cast<std::size_t>(leave)];
      if (mode_ != PricingMode::kDantzig) {
        double norm2 = 0.0;
        for (int r = 0; r < m_; ++r) {
          const double v = w_[static_cast<std::size_t>(r)];
          norm2 += v * v;
        }
        const double gamma_q = 1.0 + norm2;
        if (mode_ == PricingMode::kSteepestEdge && gamma_exact_) {
          const double stored = gamma_[static_cast<std::size_t>(entering)];
          if (stored > kWeightDriftRatio * gamma_q ||
              gamma_q > kWeightDriftRatio * stored) {
            if (++drift_events_ > kWeightDriftLimit) {
              mode_ = PricingMode::kDevex;
              util::log_debug()
                  << "revised simplex: steepest-edge weights drifted, "
                     "falling back to devex";
            }
          }
        }
        update_pricing_weights(entering, leave, leaving_col, gamma_q);
      }
      for (int r = 0; r < m_; ++r) {
        xb_[static_cast<std::size_t>(r)] -=
            t * sigma * w_[static_cast<std::size_t>(r)];
      }
      xb_[static_cast<std::size_t>(leave)] = from_upper ? uq - t : t;
      in_basis_[static_cast<std::size_t>(leaving_col)] = 0;
      at_upper_[static_cast<std::size_t>(leaving_col)] =
          leave_to_upper ? 1 : 0;
      basis_[static_cast<std::size_t>(leave)] = entering;
      in_basis_[static_cast<std::size_t>(entering)] = 1;
      at_upper_[static_cast<std::size_t>(entering)] = 0;
      if (!absorb_pivot(leave)) return SolveStatus::kNumericalError;
    }
    if (!finite_vec(xb_)) {
      // The pivot is committed; a refactorization re-derives the basic
      // solution from the (new) basis and discards the corrupted update.
      if (!recover_in_place()) return SolveStatus::kNumericalError;
    } else {
      nan_recovery_rounds_ = 0;  // clean pivot: reset the escalation cap
    }

    ++iterations;
    if (iterations >= max_iterations) return SolveStatus::kIterationLimit;
    if (degenerate) {
      if (++degenerate_streak >= opt_.stall_threshold && !bland) {
        bland = true;
        util::log_debug() << "revised simplex: degenerate stall, Bland mode";
      }
    } else {
      degenerate_streak = 0;
      bland = false;
    }
  }
}

bool Engine::drive_out_artificials() {
  for (int r = 0; r < m_; ++r) {
    if (basis_[static_cast<std::size_t>(r)] < art_begin_) continue;
    std::fill(rho_.begin(), rho_.end(), 0.0);
    rho_[static_cast<std::size_t>(r)] = 1.0;
    lu_.btran(rho_);  // row r of B^{-1}A via one BTRAN, then sparse dots
    for (int j = 0; j < art_begin_; ++j) {
      if (in_basis_[static_cast<std::size_t>(j)] ||
          at_upper_[static_cast<std::size_t>(j)]) {
        continue;
      }
      if (std::abs(sparse_dot(j, rho_)) <= 1e-7) continue;
      ftran_column(j);
      const double wr = w_[static_cast<std::size_t>(r)];
      if (std::abs(wr) <= 1e-9) continue;
      // Degenerate pivot: the artificial's residual value (~0 after a
      // feasible phase 1) moves onto the entering column.
      const double t = xb_[static_cast<std::size_t>(r)] / wr;
      for (int i = 0; i < m_; ++i) {
        if (i == r) continue;
        xb_[static_cast<std::size_t>(i)] -=
            t * w_[static_cast<std::size_t>(i)];
      }
      xb_[static_cast<std::size_t>(r)] = t;
      in_basis_[static_cast<std::size_t>(
          basis_[static_cast<std::size_t>(r)])] = 0;
      basis_[static_cast<std::size_t>(r)] = j;
      in_basis_[static_cast<std::size_t>(j)] = 1;
      // This pivot bypasses update_pricing_weights: the stored weights are
      // approximations from here on and must not trip the drift check.
      gamma_exact_ = false;
      // A singular basis here used to be swallowed silently, leaving the
      // engine to price phase 2 against broken factors — a latent
      // wrong-answer bug. Surface it so the caller escalates.
      if (!absorb_pivot(r)) return false;
      break;
    }
  }
  return true;
}

double Engine::basic_value(const std::vector<double>& costs) const {
  double value = 0.0;
  for (int r = 0; r < m_; ++r) {
    value += costs[static_cast<std::size_t>(
                basis_[static_cast<std::size_t>(r)])] *
             xb_[static_cast<std::size_t>(r)];
  }
  for (int j = 0; j < total_cols_; ++j) {
    if (!in_basis_[static_cast<std::size_t>(j)] &&
        at_upper_[static_cast<std::size_t>(j)]) {
      value += costs[static_cast<std::size_t>(j)] *
               upper_[static_cast<std::size_t>(j)];
    }
  }
  return value;
}

void Engine::fill_stats(SolveResult& result) const {
  result.stats.refactorizations = refactorizations_;
  result.stats.eta_pivots = eta_pivots_;
  result.stats.eta_len_max = eta_len_max_;
  result.stats.bound_flips = bound_flips_;
  result.stats.pricing_mode = static_cast<int>(mode_);
  result.stats.recovery_refactorizations = recovery_refactorizations_;
  result.stats.recovery_basis_resets = recovery_basis_resets_;
  result.stats.recovery_dense_solves = recovery_dense_solves_;
}

void Engine::extract_solution(const Model& model, SolveResult& result) const {
  const int n_live = static_cast<int>(tab_to_model_.size());
  result.x.assign(static_cast<std::size_t>(model.num_variables()), 0.0);
  for (int j = 0; j < n_live; ++j) {
    if (!in_basis_[static_cast<std::size_t>(j)] &&
        at_upper_[static_cast<std::size_t>(j)]) {
      result.x[static_cast<std::size_t>(
          tab_to_model_[static_cast<std::size_t>(j)])] =
          upper_[static_cast<std::size_t>(j)];
    }
  }
  for (int r = 0; r < m_; ++r) {
    const int b = basis_[static_cast<std::size_t>(r)];
    if (b < n_live) {
      double v = std::max(0.0, xb_[static_cast<std::size_t>(r)]);
      const double u = upper_[static_cast<std::size_t>(b)];
      if (std::isfinite(u)) v = std::min(v, u);
      result.x[static_cast<std::size_t>(
          tab_to_model_[static_cast<std::size_t>(b)])] = v;
    }
  }
  for (int j = 0; j < model.num_variables(); ++j) {
    if (model.is_fixed(j)) {
      result.x[static_cast<std::size_t>(j)] =
          model.fixed_values()[static_cast<std::size_t>(j)];
    }
  }
  result.objective = basic_value(phase2_costs_) + model.fixed_objective();
}

SolveResult Engine::run_attempt(const Model& model, WarmStartBasis* warm,
                                bool allow_warm) {
  SolveResult result;
  nan_recovery_rounds_ = 0;
  const int max_iterations =
      opt_.max_iterations > 0 ? opt_.max_iterations
                              : 200 * (m_ + total_cols_) + 2000;

  // Warm start: re-enter at the previous solve's basis when the tableau
  // kept its shape; any shape change cold-starts. An adopted basis is
  // artificial-free and feasible for the bounds, so phase 1 is provably
  // unnecessary.
  if (allow_warm && warm != nullptr && !warm->empty() && warm->m == m_ &&
      warm->total_cols == total_cols_) {
    result.stats.warm_start_attempted = true;
    result.warm_started = adopt_warm_basis(*warm);
    result.stats.warm_start_used = result.warm_started;
  }
  if (!result.warm_started) cold_start();

  if (!result.warm_started && art_begin_ < total_cols_) {
    price_limit_ = total_cols_;
    std::vector<double> phase1(static_cast<std::size_t>(total_cols_), 0.0);
    for (int c = art_begin_; c < total_cols_; ++c) {
      phase1[static_cast<std::size_t>(c)] = -1.0;
    }
    const SolveStatus st = iterate(phase1, result.iterations, max_iterations);
    result.stats.phase1_iterations = result.iterations;
    if (st == SolveStatus::kIterationLimit ||
        st == SolveStatus::kDeadline ||
        st == SolveStatus::kNumericalError) {
      // No feasible iterate exists yet at a phase-1 stop: no x to keep.
      result.status = st;
      fill_stats(result);
      return result;
    }
    if (basic_value(phase1) < -opt_.feas_tol) {
      result.status = SolveStatus::kInfeasible;
      fill_stats(result);
      return result;
    }
    if (!drive_out_artificials()) {
      result.status = SolveStatus::kNumericalError;
      fill_stats(result);
      return result;
    }
  }

  price_limit_ = art_begin_;
  const SolveStatus st =
      iterate(phase2_costs_, result.iterations, max_iterations);
  result.stats.phase2_iterations =
      result.iterations - result.stats.phase1_iterations;
  fill_stats(result);
  result.status = st;
  if (st == SolveStatus::kDeadline) {
    // Anytime contract: phase 2 kept the iterate primal feasible and its
    // objective monotone, so the current basis is the best seen. Export
    // the iterate but NOT the basis — a non-optimal basis is no warm
    // start for the next slot.
    extract_solution(model, result);
    return result;
  }
  if (st != SolveStatus::kOptimal) return result;

  if (warm != nullptr) {
    warm->m = m_;
    warm->total_cols = total_cols_;
    warm->basis = basis_;
    warm->at_upper = at_upper_;
  }
  extract_solution(model, result);
  return result;
}

SolveResult Engine::run(const Model& model, WarmStartBasis* warm) {
  SolveResult result;
  if (!model_input_finite(model)) {
    // Garbage in: no recovery ladder can conjure a meaningful answer from
    // a NaN cost vector or rhs. Refuse immediately.
    result.status = SolveStatus::kNumericalError;
    return result;
  }

  result = run_attempt(model, warm, /*allow_warm=*/true);
  if (result.status != SolveStatus::kNumericalError) return result;

  // Rung 2 of the recovery ladder: reset to the slack/bound cold basis
  // and redo the attempt from scratch. Contains transient corruption that
  // in-place refactorization could not shake off (e.g. a poisoned warm
  // basis). An optimal retry exports its basis as usual — it is genuine.
  ++recovery_basis_resets_;
  util::log_warn() << "revised simplex: numerical error, restarting from "
                      "the cold basis";
  SolveResult retry = run_attempt(model, warm, /*allow_warm=*/false);
  retry.iterations += result.iterations;
  retry.stats.phase1_iterations += result.stats.phase1_iterations;
  retry.stats.phase2_iterations += result.stats.phase2_iterations;
  retry.stats.warm_start_attempted = result.stats.warm_start_attempted;
  if (retry.status != SolveStatus::kNumericalError) return retry;

  // Rung 3: one-shot dense-Tableau cross-solve. A different algorithm
  // with no shared factorization state — the last line of defence before
  // reporting the slot LP unsolvable. The carried warm basis is cleared:
  // the dense solver exports none, so the next solve must cold-start.
  ++recovery_dense_solves_;
  util::log_warn() << "revised simplex: cold restart failed too, "
                      "cross-solving with the dense tableau";
  SimplexOptions dopt;
  dopt.pivot_tol = opt_.pivot_tol;
  dopt.opt_tol = opt_.opt_tol;
  dopt.feas_tol = opt_.feas_tol;
  dopt.max_iterations = opt_.max_iterations;
  dopt.stall_threshold = opt_.stall_threshold;
  SolveResult dense = SimplexSolver(dopt).solve(model);
  dense.iterations += retry.iterations;
  dense.stats.refactorizations = refactorizations_;
  dense.stats.recovery_refactorizations = recovery_refactorizations_;
  dense.stats.recovery_basis_resets = recovery_basis_resets_;
  dense.stats.recovery_dense_solves = recovery_dense_solves_;
  dense.stats.warm_start_attempted = retry.stats.warm_start_attempted;
  if (warm != nullptr) warm->clear();
  return dense;
}

}  // namespace

SolveResult RevisedSimplexSolver::solve(const Model& model) const {
  Engine engine(model, options_);
  SolveResult result = engine.run(model, nullptr);
  record_solve(result);
  return result;
}

SolveResult RevisedSimplexSolver::solve(const Model& model,
                                        WarmStartBasis& warm) const {
  Engine engine(model, options_);
  SolveResult result = engine.run(model, &warm);
  record_solve(result);
  return result;
}

SolveResult solve_lp(const Model& model) {
  // The revised engine wins when m*n is large and columns are sparse; the
  // dense tableau has the lower constant factor on small models.
  const long long m = model.num_constraints();
  const long long n = model.num_variables();
  if (m * n >= 64LL * 1024LL) {
    return RevisedSimplexSolver().solve(model);
  }
  return SimplexSolver().solve(model);
}

}  // namespace mecar::lp
