#include "milp/simplex.hpp"

#include <limits>

#include "util/check.hpp"

namespace lid::milp {
namespace {

using util::Rational;

/// Dense two-phase simplex over exact rationals with Bland's rule.
class Tableau {
 public:
  Tableau(const LinearProgram& lp, std::int64_t max_work) : lp_(lp), max_work_(max_work) {
    const std::size_t n = lp.num_variables();
    for (const Constraint& con : lp.constraints) {
      LID_ENSURE(con.coeffs.size() == n, "solve_lp: constraint width != variable count");
    }
    build();
  }

  LpResult solve() {
    LpResult result = solve_phases();
    result.work = work_;
    return result;
  }

 private:
  LpResult solve_phases() {
    LpResult result;
    // Phase 1: minimize the sum of artificial variables (bounded below by
    // zero, so it cannot be unbounded).
    if (num_artificials_ > 0) {
      load_phase_cost(/*phase1=*/true);
      if (run_simplex() == LpResult::Status::kCutOff) {
        result.status = LpResult::Status::kCutOff;
        return result;
      }
      if (objective_value() != Rational(0)) {
        result.status = LpResult::Status::kInfeasible;
        return result;
      }
      if (!pivot_out_artificials()) {
        result.status = LpResult::Status::kCutOff;
        return result;
      }
    }
    // Phase 2: minimize the real objective, artificials banned.
    load_phase_cost(/*phase1=*/false);
    result.status = run_simplex();
    if (result.status != LpResult::Status::kOptimal) return result;
    result.objective = objective_value();
    result.solution.assign(lp_.num_variables(), Rational(0));
    for (std::size_t i = 0; i < rows_; ++i) {
      if (basis_[i] < lp_.num_variables()) {
        result.solution[basis_[i]] = cell(i, rhs_col_);
      }
    }
    return result;
  }

  Rational& cell(std::size_t row, std::size_t col) { return tab_[row * stride_ + col]; }
  const Rational& cell(std::size_t row, std::size_t col) const {
    return tab_[row * stride_ + col];
  }

  void build() {
    const std::size_t n = lp_.num_variables();
    rows_ = lp_.constraints.size();
    // Column layout: structural | slack/surplus | artificial | rhs.
    std::size_t num_slacks = 0;
    for (const Constraint& con : lp_.constraints) {
      if (con.relation != Relation::kEqual) ++num_slacks;
    }
    slack_base_ = n;
    artificial_base_ = n + num_slacks;
    // Artificial needed when a row has no natural basic slack: >= and ==
    // rows (after normalizing rhs >= 0), and <= rows whose slack would start
    // negative — normalization makes that impossible, so count after
    // normalization below. First normalize into local copies.
    struct Row {
      std::vector<Rational> coeffs;
      Relation relation;
      Rational rhs;
    };
    std::vector<Row> rows;
    rows.reserve(rows_);
    for (const Constraint& con : lp_.constraints) {
      Row row{con.coeffs, con.relation, con.rhs};
      if (row.rhs < Rational(0)) {
        for (Rational& c : row.coeffs) c = -c;
        row.rhs = -row.rhs;
        if (row.relation == Relation::kLessEq) {
          row.relation = Relation::kGreaterEq;
        } else if (row.relation == Relation::kGreaterEq) {
          row.relation = Relation::kLessEq;
        }
      }
      rows.push_back(std::move(row));
    }
    num_artificials_ = 0;
    for (const Row& row : rows) {
      if (row.relation != Relation::kLessEq) ++num_artificials_;
    }
    num_columns_ = n + num_slacks + num_artificials_;
    rhs_col_ = num_columns_;
    stride_ = num_columns_ + 1;
    tab_.assign((rows_ + 1) * stride_, Rational(0));  // +1: cost row
    basis_.assign(rows_, 0);

    std::size_t slack = slack_base_;
    std::size_t artificial = artificial_base_;
    for (std::size_t i = 0; i < rows_; ++i) {
      const Row& row = rows[i];
      for (std::size_t j = 0; j < n; ++j) cell(i, j) = row.coeffs[j];
      cell(i, rhs_col_) = row.rhs;
      switch (row.relation) {
        case Relation::kLessEq:
          cell(i, slack) = Rational(1);
          basis_[i] = slack++;
          break;
        case Relation::kGreaterEq:
          cell(i, slack) = Rational(-1);
          ++slack;
          cell(i, artificial) = Rational(1);
          basis_[i] = artificial++;
          break;
        case Relation::kEqual:
          cell(i, artificial) = Rational(1);
          basis_[i] = artificial++;
          break;
      }
    }
  }

  /// Installs the reduced-cost row for the requested phase.
  void load_phase_cost(bool phase1) {
    phase1_ = phase1;
    const std::size_t n = lp_.num_variables();
    // Raw costs: phase 1 prices artificials at 1; phase 2 uses lp_.objective.
    const auto raw_cost = [&](std::size_t j) {
      if (phase1_) return j >= artificial_base_ ? Rational(1) : Rational(0);
      return j < n ? lp_.objective[j] : Rational(0);
    };
    // Reduced costs: r_j = c_j - sum_i c_B(i) * T[i][j]. The cost-row rhs
    // stores the NEGATED objective value -z (so the uniform pivot update
    // keeps it consistent): with c_rhs = 0 the same formula yields -z.
    for (std::size_t j = 0; j <= num_columns_; ++j) {
      Rational value = (j < num_columns_) ? raw_cost(j) : Rational(0);
      for (std::size_t i = 0; i < rows_; ++i) {
        const Rational cb = raw_cost(basis_[i]);
        if (cb != Rational(0)) value -= cb * cell(i, j);
      }
      cell(rows_, j) = value;
    }
  }

  [[nodiscard]] Rational objective_value() const { return -cell(rows_, rhs_col_); }

  [[nodiscard]] bool column_allowed(std::size_t j) const {
    // Artificials are banned in phase 2.
    return phase1_ || j < artificial_base_;
  }

  /// Runs Bland-rule simplex to optimality: kOptimal, kUnbounded, or
  /// kCutOff when the work budget runs out.
  LpResult::Status run_simplex() {
    for (;;) {
      // Entering: lowest-index allowed column with negative reduced cost.
      std::size_t entering = num_columns_;
      for (std::size_t j = 0; j < num_columns_; ++j) {
        if (column_allowed(j) && cell(rows_, j) < Rational(0)) {
          entering = j;
          break;
        }
      }
      if (entering == num_columns_) return LpResult::Status::kOptimal;
      // Leaving: minimum ratio, ties by lowest basis index (Bland).
      std::size_t leaving = rows_;
      Rational best_ratio;
      for (std::size_t i = 0; i < rows_; ++i) {
        if (cell(i, entering) <= Rational(0)) continue;
        const Rational ratio = cell(i, rhs_col_) / cell(i, entering);
        if (leaving == rows_ || ratio < best_ratio ||
            (ratio == best_ratio && basis_[i] < basis_[leaving])) {
          leaving = i;
          best_ratio = ratio;
        }
      }
      if (leaving == rows_) return LpResult::Status::kUnbounded;
      if (!charge(entering)) return LpResult::Status::kCutOff;
      pivot(leaving, entering);
    }
  }

  /// Books the cells a pivot in column `col` rewrites: the pivot row and
  /// every other row (cost row included) with a nonzero entry in `col`.
  /// Returns false, booking nothing, when that would pass the budget.
  [[nodiscard]] bool charge(std::size_t col) {
    std::int64_t rows_rewritten = 0;
    for (std::size_t i = 0; i <= rows_; ++i) {
      if (cell(i, col) != Rational(0)) ++rows_rewritten;
    }
    const auto cost = rows_rewritten * static_cast<std::int64_t>(stride_);
    if (max_work_ > 0 && work_ + cost > max_work_) return false;
    work_ += cost;
    return true;
  }

  void pivot(std::size_t row, std::size_t col) {
    const Rational p = cell(row, col);
    LID_ASSERT(p != Rational(0), "simplex: zero pivot");
    for (std::size_t j = 0; j <= num_columns_; ++j) cell(row, j) /= p;
    for (std::size_t i = 0; i <= rows_; ++i) {
      if (i == row) continue;
      const Rational factor = cell(i, col);
      if (factor == Rational(0)) continue;
      for (std::size_t j = 0; j <= num_columns_; ++j) {
        cell(i, j) -= factor * cell(row, j);
      }
    }
    basis_[row] = col;
  }

  /// After phase 1, drive any zero-level artificial out of the basis (or
  /// leave it at zero if its row has no eligible pivot — the row is then a
  /// redundant constraint and keeping the artificial at zero is harmless as
  /// long as it stays banned, which a zero rhs guarantees under Bland).
  /// Returns false when the work budget runs out.
  [[nodiscard]] bool pivot_out_artificials() {
    for (std::size_t i = 0; i < rows_; ++i) {
      if (basis_[i] < artificial_base_) continue;
      for (std::size_t j = 0; j < artificial_base_; ++j) {
        if (cell(i, j) != Rational(0)) {
          if (!charge(j)) return false;
          pivot(i, j);
          break;
        }
      }
    }
    return true;
  }

  const LinearProgram& lp_;
  const std::int64_t max_work_;
  std::vector<Rational> tab_;
  std::vector<std::size_t> basis_;
  std::size_t rows_ = 0;
  std::size_t num_columns_ = 0;
  std::size_t rhs_col_ = 0;
  std::size_t stride_ = 0;
  std::size_t slack_base_ = 0;
  std::size_t artificial_base_ = 0;
  std::size_t num_artificials_ = 0;
  std::int64_t work_ = 0;
  bool phase1_ = true;
};

}  // namespace

void LinearProgram::add_constraint(std::vector<util::Rational> coeffs, Relation relation,
                                   util::Rational rhs) {
  Constraint con;
  con.coeffs = std::move(coeffs);
  con.relation = relation;
  con.rhs = rhs;
  constraints.push_back(std::move(con));
}

LpResult solve_lp(const LinearProgram& lp, std::int64_t max_work) {
  if (lp.num_variables() == 0) {
    // Degenerate: feasible iff every constraint holds with x empty.
    LpResult result;
    for (const Constraint& con : lp.constraints) {
      const bool ok = (con.relation == Relation::kLessEq && Rational(0) <= con.rhs) ||
                      (con.relation == Relation::kGreaterEq && Rational(0) >= con.rhs) ||
                      (con.relation == Relation::kEqual && con.rhs == Rational(0));
      if (!ok) return result;  // infeasible
    }
    result.status = LpResult::Status::kOptimal;
    return result;
  }
  Tableau tableau(lp, max_work);
  return tableau.solve();
}

}  // namespace lid::milp
