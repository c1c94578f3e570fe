// Linear/integer program model builder.
//
// The paper's formulations (ILP-RM, LP, LP-PT) are instances of
//   max  c'x
//   s.t. a_i'x {<=,=,>=} b_i          for each row i
//        0 <= x_j <= u_j              (u_j may be +infinity)
//        x_j integral                 for flagged variables
//
// `Model` stores rows sparsely (the slot-indexed LP has ~4 nonzeros per
// column) and is consumed by `SimplexSolver` (LP relaxation) and
// `BranchAndBound` (integral models).
#pragma once

#include <limits>
#include <string>
#include <vector>

namespace mecar::lp {

/// Constraint sense.
enum class Sense { kLe, kEq, kGe };

/// One nonzero of a constraint row.
struct Term {
  int col = 0;
  double coeff = 0.0;
};

/// Sparse constraint row.
struct Row {
  std::string name;
  Sense sense = Sense::kLe;
  double rhs = 0.0;
  std::vector<Term> terms;
};

/// Variable metadata. Lower bound is always 0 (shift externally if needed).
struct Variable {
  std::string name;
  double objective = 0.0;
  double upper = std::numeric_limits<double>::infinity();
  bool integral = false;
};

/// One nonzero of a column, used by `Model::add_column` (the transpose of
/// `Term`: names a row instead of a column).
struct ColumnEntry {
  int row = 0;
  double coeff = 0.0;
};

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A mutable LP/MIP model. Column and row indices are stable and returned
/// from the add_* calls.
class Model {
 public:
  /// Adds a variable; returns its column index.
  int add_variable(std::string name, double objective,
                   double upper = kInf, bool integral = false);

  /// Adds a constraint row; returns its row index. Terms with duplicate
  /// columns are merged; zero coefficients are dropped.
  int add_constraint(std::string name, Sense sense, double rhs,
                     std::vector<Term> terms);

  // --- Incremental mutation API -------------------------------------------
  // The slot LPs of consecutive simulator slots differ by a handful of
  // arrivals/completions/displacements; these edits let core rewrite just
  // the delta instead of rebuilding every ER_jil column. Column and row
  // indices stay stable across every mutation.

  /// Appends a variable together with its coefficients in existing rows
  /// (the column-wise transpose of add_variable + add_constraint edits).
  /// Duplicate rows are merged; zero coefficients dropped. O(nnz(column)
  /// amortized. Returns the new column index.
  int add_column(std::string name, double objective, double upper,
                 const std::vector<ColumnEntry>& entries);

  /// Removes column `col` from the model: its upper bound and objective
  /// drop to 0 and its terms are struck from every row it appears in, so
  /// solvers treat it as absent (its solution value reports 0). The index
  /// stays valid — later columns do not shift. O(nnz(col) + touched row
  /// sizes) via the per-column row index, not O(model).
  void remove_column(int col);

  /// Rewrites the upper bound of `col` (must be >= 0). Setting 0 freezes
  /// the variable without touching rows; a later positive bound revives it
  /// only if its terms were never struck (i.e. prefer this over
  /// remove_column for temporary freezes).
  void update_bound(int col, double upper);

  /// Rewrites the objective coefficient of `col`.
  void update_objective(int col, double objective);

  /// Rewrites the right-hand side of row `r`.
  void update_rhs(int row, double rhs);

  int num_variables() const noexcept { return static_cast<int>(vars_.size()); }
  int num_constraints() const noexcept {
    return static_cast<int>(rows_.size());
  }

  const Variable& variable(int col) const { return vars_.at(col); }
  const Row& row(int r) const { return rows_.at(r); }
  const std::vector<Variable>& variables() const noexcept { return vars_; }
  const std::vector<Row>& rows() const noexcept { return rows_; }
  /// Rows column `col` appears in, ascending.
  const std::vector<int>& column_rows(int col) const {
    return col_rows_.at(static_cast<std::size_t>(col));
  }

  bool has_integrality() const noexcept;

  /// Evaluates the objective at a point (no feasibility check).
  double objective_value(const std::vector<double>& x) const;

  /// Maximum constraint violation of `x` (0 when feasible within `tol`);
  /// also checks variable bounds. Used by tests and the feasibility checker.
  double max_violation(const std::vector<double>& x) const;

  /// Returns a copy of the model with variable `col` fixed to `value`:
  /// the column is removed from rows (its contribution moved into rhs) and
  /// its objective contribution is accumulated into `fixed_objective`.
  /// Column indices of the returned model are unchanged (the fixed variable
  /// becomes a zero-cost, zero-column variable clamped to [value, value]
  /// conceptually; its reported solution value is `value`).
  Model with_fixed(int col, double value) const;

  /// Objective constant accumulated by `with_fixed`.
  double fixed_objective() const noexcept { return fixed_objective_; }

  /// Values of fixed variables (NaN when not fixed).
  const std::vector<double>& fixed_values() const noexcept {
    return fixed_values_;
  }
  bool is_fixed(int col) const;

 private:
  std::vector<Variable> vars_;
  std::vector<Row> rows_;
  std::vector<double> fixed_values_;  // NaN = free
  double fixed_objective_ = 0.0;
  /// Rows each column appears in (ascending), maintained by every term
  /// edit — the index that makes remove_column O(nnz) instead of O(rows).
  std::vector<std::vector<int>> col_rows_;
};

}  // namespace mecar::lp
