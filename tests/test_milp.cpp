// The exact-rational simplex, the branch-and-bound ILP, and the MILP
// formulation of queue sizing (the Lu–Koh baseline).
#include <gtest/gtest.h>

#include <functional>

#include "core/exact.hpp"
#include "core/exact_milp.hpp"
#include "core/heuristic.hpp"
#include "core/qs_problem.hpp"
#include "gen/generator.hpp"
#include "milp/ilp.hpp"
#include "milp/simplex.hpp"
#include "util/rng.hpp"

namespace lid::milp {
namespace {

using util::Rational;

TEST(Simplex, SolvesATextbookLp) {
  // min -3x - 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18  (classic Dantzig).
  LinearProgram lp;
  lp.objective = {Rational(-3), Rational(-5)};
  lp.add_constraint({Rational(1), Rational(0)}, Relation::kLessEq, Rational(4));
  lp.add_constraint({Rational(0), Rational(2)}, Relation::kLessEq, Rational(12));
  lp.add_constraint({Rational(3), Rational(2)}, Relation::kLessEq, Rational(18));
  const LpResult r = solve_lp(lp);
  ASSERT_EQ(r.status, LpResult::Status::kOptimal);
  EXPECT_EQ(r.objective, Rational(-36));
  EXPECT_EQ(r.solution[0], Rational(2));
  EXPECT_EQ(r.solution[1], Rational(6));
}

TEST(Simplex, HandlesGreaterEqAndEquality) {
  // min x + y  s.t.  x + y >= 3, x - y == 1  ->  x = 2, y = 1.
  LinearProgram lp;
  lp.objective = {Rational(1), Rational(1)};
  lp.add_constraint({Rational(1), Rational(1)}, Relation::kGreaterEq, Rational(3));
  lp.add_constraint({Rational(1), Rational(-1)}, Relation::kEqual, Rational(1));
  const LpResult r = solve_lp(lp);
  ASSERT_EQ(r.status, LpResult::Status::kOptimal);
  EXPECT_EQ(r.objective, Rational(3));
  EXPECT_EQ(r.solution[0], Rational(2));
  EXPECT_EQ(r.solution[1], Rational(1));
}

TEST(Simplex, DetectsInfeasibility) {
  // x >= 2 and x <= 1 cannot both hold.
  LinearProgram lp;
  lp.objective = {Rational(1)};
  lp.add_constraint({Rational(1)}, Relation::kGreaterEq, Rational(2));
  lp.add_constraint({Rational(1)}, Relation::kLessEq, Rational(1));
  EXPECT_EQ(solve_lp(lp).status, LpResult::Status::kInfeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  // min -x with only x >= 0: unbounded below.
  LinearProgram lp;
  lp.objective = {Rational(-1)};
  lp.add_constraint({Rational(1)}, Relation::kGreaterEq, Rational(0));
  EXPECT_EQ(solve_lp(lp).status, LpResult::Status::kUnbounded);
}

TEST(Simplex, NegativeRhsIsNormalized) {
  // -x <= -2  is  x >= 2.
  LinearProgram lp;
  lp.objective = {Rational(1)};
  lp.add_constraint({Rational(-1)}, Relation::kLessEq, Rational(-2));
  const LpResult r = solve_lp(lp);
  ASSERT_EQ(r.status, LpResult::Status::kOptimal);
  EXPECT_EQ(r.solution[0], Rational(2));
}

TEST(Simplex, ExactFractionalOptimum) {
  // min x + y  s.t.  2x + y >= 1, x + 2y >= 1: optimum at x = y = 1/3.
  LinearProgram lp;
  lp.objective = {Rational(1), Rational(1)};
  lp.add_constraint({Rational(2), Rational(1)}, Relation::kGreaterEq, Rational(1));
  lp.add_constraint({Rational(1), Rational(2)}, Relation::kGreaterEq, Rational(1));
  const LpResult r = solve_lp(lp);
  ASSERT_EQ(r.status, LpResult::Status::kOptimal);
  EXPECT_EQ(r.objective, Rational(2, 3));
  EXPECT_EQ(r.solution[0], Rational(1, 3));
}

TEST(Simplex, BealeCyclingExampleTerminates) {
  // Beale's classic degenerate LP makes naive pivot rules cycle forever;
  // Bland's rule must terminate at the optimum -1/20.
  //   min -3/4 x4 + 150 x5 - 1/50 x6 + 6 x7
  //   s.t. 1/4 x4 - 60 x5 - 1/25 x6 + 9 x7 <= 0
  //        1/2 x4 - 90 x5 - 1/50 x6 + 3 x7 <= 0
  //        x6 <= 1
  LinearProgram lp;
  lp.objective = {Rational(-3, 4), Rational(150), Rational(-1, 50), Rational(6)};
  lp.add_constraint({Rational(1, 4), Rational(-60), Rational(-1, 25), Rational(9)},
                    Relation::kLessEq, Rational(0));
  lp.add_constraint({Rational(1, 2), Rational(-90), Rational(-1, 50), Rational(3)},
                    Relation::kLessEq, Rational(0));
  lp.add_constraint({Rational(0), Rational(0), Rational(1), Rational(0)},
                    Relation::kLessEq, Rational(1));
  const LpResult r = solve_lp(lp);
  ASSERT_EQ(r.status, LpResult::Status::kOptimal);
  EXPECT_EQ(r.objective, Rational(-1, 20));
  EXPECT_EQ(r.solution[2], Rational(1));  // x6 at its bound
}

TEST(Simplex, DegenerateRedundantEqualities) {
  // Redundant equalities leave zero-level artificials after phase 1; the
  // solver must still reach the optimum.
  LinearProgram lp;
  lp.objective = {Rational(1), Rational(2)};
  lp.add_constraint({Rational(1), Rational(1)}, Relation::kEqual, Rational(4));
  lp.add_constraint({Rational(2), Rational(2)}, Relation::kEqual, Rational(8));  // redundant
  lp.add_constraint({Rational(1), Rational(0)}, Relation::kLessEq, Rational(3));
  const LpResult r = solve_lp(lp);
  ASSERT_EQ(r.status, LpResult::Status::kOptimal);
  EXPECT_EQ(r.objective, Rational(5));  // x = 3, y = 1
}

TEST(Simplex, WorkBudgetStopsBeforeThePivotThatWouldPassIt) {
  // The 2x2 covering LP of BranchesToIntegrality below: its optimum takes
  // pivots in both phases.
  LinearProgram lp;
  lp.objective = {Rational(1), Rational(1)};
  lp.add_constraint({Rational(2), Rational(1)}, Relation::kGreaterEq, Rational(1));
  lp.add_constraint({Rational(1), Rational(2)}, Relation::kGreaterEq, Rational(1));
  const LpResult full = solve_lp(lp);
  ASSERT_EQ(full.status, LpResult::Status::kOptimal);
  // 2 rows + cost row, 2 structural + 2 surplus + 2 artificial columns +
  // rhs: no pivot rewrites more than 3 * 7 cells.
  EXPECT_GT(full.work, 0);
  EXPECT_EQ(full.work % 7, 0);

  const LpResult exact_budget = solve_lp(lp, full.work);
  EXPECT_EQ(exact_budget.status, LpResult::Status::kOptimal);
  EXPECT_EQ(exact_budget.work, full.work);
  for (std::int64_t budget = 1; budget < full.work; ++budget) {
    const LpResult r = solve_lp(lp, budget);
    EXPECT_EQ(r.status, LpResult::Status::kCutOff) << budget;
    EXPECT_LE(r.work, budget);
    EXPECT_GT(r.work + 3 * 7, budget);  // stopped within one pivot of the cap
  }
}

TEST(Simplex, RejectsMalformedConstraints) {
  LinearProgram lp;
  lp.objective = {Rational(1), Rational(1)};
  lp.add_constraint({Rational(1)}, Relation::kGreaterEq, Rational(1));  // too narrow
  EXPECT_THROW(solve_lp(lp), std::invalid_argument);
}

TEST(Ilp, BranchesToIntegrality) {
  // The fractional LP optimum above (1/3, 1/3) must round up to total 1.
  LinearProgram lp;
  lp.objective = {Rational(1), Rational(1)};
  lp.add_constraint({Rational(2), Rational(1)}, Relation::kGreaterEq, Rational(1));
  lp.add_constraint({Rational(1), Rational(2)}, Relation::kGreaterEq, Rational(1));
  const IlpResult r = solve_ilp(lp);
  ASSERT_EQ(r.status, IlpResult::Status::kOptimal);
  EXPECT_EQ(r.objective, Rational(1));
  EXPECT_EQ(r.solution[0] + r.solution[1], 1);
}

/// Vertex cover of a 5-cycle: the LP relaxes to 5/2 at x = 1/2 everywhere,
/// the integral optimum is 3.
LinearProgram odd_cycle_cover(const Rational& cost) {
  LinearProgram lp;
  lp.objective.assign(5, cost);
  for (int i = 0; i < 5; ++i) {
    std::vector<Rational> coeffs(5, Rational(0));
    coeffs[static_cast<std::size_t>(i)] = Rational(1);
    coeffs[static_cast<std::size_t>((i + 1) % 5)] = Rational(1);
    lp.add_constraint(std::move(coeffs), Relation::kGreaterEq, Rational(1));
  }
  return lp;
}

TEST(Ilp, OddCycleCoverNeedsRoundedHalf) {
  const LinearProgram lp = odd_cycle_cover(Rational(1));
  const LpResult relaxed = solve_lp(lp);
  ASSERT_EQ(relaxed.status, LpResult::Status::kOptimal);
  EXPECT_EQ(relaxed.objective, Rational(5, 2));
  const IlpResult integral = solve_ilp(lp);
  ASSERT_EQ(integral.status, IlpResult::Status::kOptimal);
  EXPECT_EQ(integral.objective, Rational(3));
}

TEST(Ilp, ReportsInfeasibility) {
  LinearProgram lp;
  lp.objective = {Rational(1)};
  lp.add_constraint({Rational(1)}, Relation::kGreaterEq, Rational(2));
  lp.add_constraint({Rational(1)}, Relation::kLessEq, Rational(1));
  EXPECT_EQ(solve_ilp(lp).status, IlpResult::Status::kInfeasible);
}

TEST(Ilp, HonorsNodeCap) {
  LinearProgram lp;
  lp.objective.assign(8, Rational(1));
  util::Rng rng(12);
  for (int c = 0; c < 12; ++c) {
    std::vector<Rational> coeffs(8, Rational(0));
    for (int k = 0; k < 3; ++k) coeffs[rng.uniform_index(8)] = Rational(1);
    lp.add_constraint(std::move(coeffs), Relation::kGreaterEq, Rational(2));
  }
  IlpOptions options;
  options.max_nodes = 2;
  const IlpResult r = solve_ilp(lp, options);
  EXPECT_TRUE(r.status == IlpResult::Status::kCutOff ||
              r.status == IlpResult::Status::kOptimal);
}

TEST(Ilp, OptimalIncumbentMeetsTheRoundedRootBoundAtNodeOne) {
  const LinearProgram lp = odd_cycle_cover(Rational(1));
  const IlpResult cold = solve_ilp(lp);
  ASSERT_EQ(cold.status, IlpResult::Status::kOptimal);
  EXPECT_GT(cold.nodes, 1);  // the fractional root must be branched on

  // Integral costs: ⌈5/2⌉ = 3 already proves a seeded 3-cover optimal.
  IlpOptions options;
  options.incumbent = {1, 0, 1, 0, 1};
  const IlpResult seeded = solve_ilp(lp, options);
  ASSERT_EQ(seeded.status, IlpResult::Status::kOptimal);
  EXPECT_EQ(seeded.objective, Rational(3));
  EXPECT_EQ(seeded.nodes, 1);
  EXPECT_EQ(seeded.solution, options.incumbent);
}

TEST(Ilp, NonIntegralObjectiveIsNotRoundedUp) {
  // Costs 1/2: the LP bound is 5/4, and a seeded 4-cover costs 2 = ⌈5/4⌉.
  // Rounding the bound up would stop there; the optimum is a 3-cover, 3/2.
  const LinearProgram lp = odd_cycle_cover(Rational(1, 2));
  IlpOptions options;
  options.incumbent = {1, 1, 0, 1, 1};
  const IlpResult r = solve_ilp(lp, options);
  ASSERT_EQ(r.status, IlpResult::Status::kOptimal);
  EXPECT_EQ(r.objective, Rational(3, 2));
  EXPECT_GT(r.nodes, 1);
}

TEST(Ilp, RejectsAnInfeasibleIncumbent) {
  IlpOptions options;
  options.incumbent = {1, 0, 0, 0, 1};  // leaves edge 2-3 uncovered
  EXPECT_THROW(solve_ilp(odd_cycle_cover(Rational(1)), options), std::invalid_argument);
  options.incumbent = {1, 0, 1};
  EXPECT_THROW(solve_ilp(odd_cycle_cover(Rational(1)), options), std::invalid_argument);
}

TEST(Ilp, CancelIsPolledAtEveryNode) {
  IlpOptions options;
  options.cancel = util::CancelToken::after_polls(2);
  const IlpResult r = solve_ilp(odd_cycle_cover(Rational(1)), options);
  EXPECT_EQ(r.status, IlpResult::Status::kCutOff);
  EXPECT_TRUE(r.cancelled);
  EXPECT_EQ(r.nodes, 2);  // the root ran; the first child stopped at its poll
}

TEST(Ilp, WorkBudgetChargesTableauCells) {
  const LinearProgram lp = odd_cycle_cover(Rational(1));
  const IlpResult full = solve_ilp(lp);
  ASSERT_EQ(full.status, IlpResult::Status::kOptimal);
  EXPECT_GT(full.lp_work, 10 * full.nodes);  // a pivot rewrites many cells

  // A budget that covers the whole search changes nothing; any smaller one
  // cuts it off without passing the cap, at a point that depends on the
  // budget alone, and leaves less than the pivot it declined unused: at
  // depth d the tableau has at most 5 + d rows and 5 + 2(5 + d) columns,
  // plus the cost row and the rhs.
  IlpOptions options;
  options.max_nodes = full.charged();
  const IlpResult enough = solve_ilp(lp, options);
  EXPECT_EQ(enough.status, IlpResult::Status::kOptimal);
  EXPECT_EQ(enough.charged(), full.charged());
  for (std::int64_t budget = 1; budget < full.charged(); budget += 13) {
    SCOPED_TRACE(budget);
    options.max_nodes = budget;
    const IlpResult first = solve_ilp(lp, options);
    const IlpResult second = solve_ilp(lp, options);
    EXPECT_EQ(first.status, IlpResult::Status::kCutOff);
    EXPECT_FALSE(first.cancelled);
    EXPECT_LE(first.charged(), budget);
    const std::int64_t depth = first.nodes - 1;
    EXPECT_GT(first.charged() + (6 + depth) * (16 + 2 * depth), budget);
    EXPECT_EQ(first.charged(), second.charged());
    EXPECT_EQ(first.nodes, second.nodes);
  }
}

class IlpVsBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IlpVsBruteForce, OnRandomCoveringPrograms) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 12; ++trial) {
    const int vars = rng.uniform_int(2, 4);
    const int cons = rng.uniform_int(1, 5);
    LinearProgram lp;
    lp.objective.assign(static_cast<std::size_t>(vars), Rational(1));
    std::vector<std::vector<int>> rows;
    std::vector<int> rhs;
    for (int c = 0; c < cons; ++c) {
      std::vector<Rational> coeffs(static_cast<std::size_t>(vars), Rational(0));
      std::vector<int> row(static_cast<std::size_t>(vars), 0);
      bool any = false;
      for (int j = 0; j < vars; ++j) {
        if (rng.flip(0.6)) {
          coeffs[static_cast<std::size_t>(j)] = Rational(1);
          row[static_cast<std::size_t>(j)] = 1;
          any = true;
        }
      }
      if (!any) {
        coeffs[0] = Rational(1);
        row[0] = 1;
      }
      const int d = rng.uniform_int(1, 3);
      lp.add_constraint(std::move(coeffs), Relation::kGreaterEq, Rational(d));
      rows.push_back(std::move(row));
      rhs.push_back(d);
    }
    const IlpResult ilp = solve_ilp(lp);
    ASSERT_EQ(ilp.status, IlpResult::Status::kOptimal);

    // Brute force over bounded assignments (max rhs bounds any single var).
    std::int64_t best = 1000;
    std::vector<int> w(static_cast<std::size_t>(vars), 0);
    const std::function<void(int, std::int64_t)> rec = [&](int j, std::int64_t used) {
      if (used >= best) return;
      if (j == vars) {
        for (std::size_t c = 0; c < rows.size(); ++c) {
          int got = 0;
          for (int k = 0; k < vars; ++k) got += rows[c][static_cast<std::size_t>(k)] * w[static_cast<std::size_t>(k)];
          if (got < rhs[c]) return;
        }
        best = used;
        return;
      }
      for (int v = 0; v <= 3; ++v) {
        w[static_cast<std::size_t>(j)] = v;
        rec(j + 1, used + v);
      }
      w[static_cast<std::size_t>(j)] = 0;
    };
    rec(0, 0);
    EXPECT_EQ(ilp.objective, Rational(best));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IlpVsBruteForce, ::testing::Values(31, 41, 51, 61));

}  // namespace
}  // namespace lid::milp

namespace lid::core {
namespace {

TEST(ExactMilp, MatchesCombinatorialExactOnKnownInstances) {
  TdInstance inst;
  inst.deficits = {1, 1, 1};
  inst.set_members = {{0, 1}, {1, 2}, {0, 2}};
  const TdSolution upper = solve_heuristic(inst);
  const ExactResult milp = solve_exact_milp(inst, upper);
  const ExactResult bnb = solve_exact(inst, upper);
  ASSERT_TRUE(milp.solution.has_value());
  ASSERT_TRUE(bnb.solution.has_value());
  EXPECT_EQ(milp.solution->total, bnb.solution->total);
}

/// A covering instance whose heuristic (10) misses the optimum (8).
TdInstance heuristic_gap_instance() {
  TdInstance inst;
  inst.deficits = {6, 3, 1, 6, 6};
  inst.set_members = {{1, 3, 4}, {0, 1, 2}, {3, 4}, {0, 1}, {0, 3, 4}};
  return inst;
}

TEST(ExactMilp, HeuristicAlreadyOptimalIsKept) {
  // The 5-cycle cover as a TD instance: the heuristic finds a 3-cover,
  // which the rounded root bound proves optimal.
  TdInstance inst;
  inst.deficits = {1, 1, 1, 1, 1};
  inst.set_members = {{0, 4}, {0, 1}, {1, 2}, {2, 3}, {3, 4}};
  const TdSolution upper = solve_heuristic(inst);
  ASSERT_EQ(upper.total, 3);
  const ExactResult milp = solve_exact_milp(inst, upper);
  ASSERT_TRUE(milp.solution.has_value());
  EXPECT_EQ(milp.solution->weights, upper.weights);
}

TEST(ExactMilp, CancelTokenReachesTheSearch) {
  const TdInstance inst = heuristic_gap_instance();
  ExactOptions options;
  options.cancel = util::CancelToken::after_polls(1);
  const ExactResult r = solve_exact_milp(inst, solve_heuristic(inst), options);
  EXPECT_TRUE(r.cut_off);
  EXPECT_TRUE(r.cancelled);
  EXPECT_FALSE(r.solution.has_value());
  EXPECT_EQ(r.nodes_explored, 1);  // stopped at the root's poll, before its LP
}

TEST(ExactMilp, SameBudgetCutsOffAtTheSameCount) {
  const TdInstance inst = heuristic_gap_instance();
  const TdSolution upper = solve_heuristic(inst);
  const ExactResult plain = solve_exact_milp(inst, upper);
  ASSERT_TRUE(plain.solution.has_value());
  ExactOptions options;
  options.max_nodes = plain.nodes_explored / 2;  // mid-search
  const ExactResult first = solve_exact_milp(inst, upper, options);
  const ExactResult second = solve_exact_milp(inst, upper, options);
  EXPECT_TRUE(first.cut_off);
  EXPECT_FALSE(first.cancelled);
  EXPECT_FALSE(first.solution.has_value());
  EXPECT_LE(first.nodes_explored, options.max_nodes);
  EXPECT_EQ(first.nodes_explored, second.nodes_explored);
  EXPECT_EQ(first.cut_off, second.cut_off);
}

/// A covering instance shaped like a late round of a certified 10^5-core
/// sizing — 40 cycles over 38 sets, deficits 20-120 — whose LP search needs
/// about 10^6 units of work.
TdInstance late_round_instance() {
  util::Rng rng(1);
  TdInstance inst;
  inst.set_members.resize(38);
  for (int c = 0; c < 40; ++c) {
    inst.deficits.push_back(rng.uniform_int(20, 120));
    bool covered = false;
    for (auto& members : inst.set_members) {
      if (rng.flip(0.15)) {
        members.push_back(c);
        covered = true;
      }
    }
    if (!covered) inst.set_members[rng.uniform_index(inst.set_members.size())].push_back(c);
  }
  return inst;
}

TEST(ExactMilp, ServeWorkCapStopsALargeRoundWithinOnePivot) {
  // serve::ExecLimits clamps every request's work budget to 200'000 units,
  // which this round exceeds.
  const TdInstance inst = late_round_instance();
  const TdSolution upper = solve_heuristic(inst);
  ExactOptions options;
  options.max_nodes = 200'000;
  const ExactResult r = solve_exact_milp(inst, upper, options);
  ASSERT_TRUE(r.cut_off);
  EXPECT_FALSE(r.cancelled);
  EXPECT_LE(r.nodes_explored, options.max_nodes);

  // The same search on the covering program directly, where the depth it
  // stopped at is known: at most nodes - 1 branchings, so a tableau of at
  // most m + d rows and n + 2(m + d) columns, plus the cost row and the
  // rhs. What it left of the budget is less than the pivot it declined.
  const auto m = static_cast<std::int64_t>(inst.num_cycles());
  const auto n = static_cast<std::int64_t>(inst.num_sets());
  milp::LinearProgram lp;
  lp.objective.assign(inst.num_sets(), util::Rational(1));
  const auto covering = inst.covering_sets();
  for (std::size_t c = 0; c < inst.num_cycles(); ++c) {
    std::vector<util::Rational> coeffs(inst.num_sets(), util::Rational(0));
    for (const int s : covering[c]) coeffs[static_cast<std::size_t>(s)] = util::Rational(1);
    lp.add_constraint(std::move(coeffs), milp::Relation::kGreaterEq,
                      util::Rational(inst.deficits[c]));
  }
  milp::IlpOptions ilp_options;
  ilp_options.max_nodes = options.max_nodes;
  ilp_options.incumbent = upper.weights;
  const milp::IlpResult ilp = milp::solve_ilp(lp, ilp_options);
  ASSERT_EQ(ilp.status, milp::IlpResult::Status::kCutOff);
  EXPECT_EQ(ilp.charged(), r.nodes_explored);
  const std::int64_t depth = ilp.nodes - 1;
  const std::int64_t largest_pivot = (m + depth + 1) * (n + 2 * (m + depth) + 1);
  EXPECT_GT(ilp.charged() + largest_pivot, ilp_options.max_nodes);
}

/// Checks every way the MILP can be driven against the combinatorial exact
/// search on `inst`; returns the optimum.
std::int64_t expect_milp_paths_match_exact(const TdInstance& inst) {
  const TdSolution upper = solve_heuristic(inst);
  ExactOptions options;
  options.timeout_ms = 20000;
  const ExactResult bnb = solve_exact(inst, upper, options);
  const ExactResult milp = solve_exact_milp(inst, upper, options);
  EXPECT_TRUE(bnb.solution.has_value());
  EXPECT_TRUE(milp.solution.has_value()) << "MILP cut off on a small instance";
  if (!bnb.solution || !milp.solution) return -1;
  const std::int64_t optimum = bnb.solution->total;
  EXPECT_EQ(milp.solution->total, optimum);
  EXPECT_TRUE(inst.is_feasible(milp.solution->weights));

  // The lazy sizer's path: simplify, seed with the heuristic on the reduced
  // instance, solve, lift back.
  const SimplifiedTd simplified = simplify(inst);
  const ExactResult reduced =
      solve_exact_milp(simplified.reduced, solve_heuristic(simplified.reduced), options);
  EXPECT_TRUE(reduced.solution.has_value());
  if (reduced.solution) {
    const TdSolution lifted = simplified.lift(*reduced.solution);
    EXPECT_EQ(lifted.total, optimum);
    EXPECT_TRUE(inst.is_feasible(lifted.weights));
  }
  return optimum;
}

class MilpVsCombinatorial : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MilpVsCombinatorial, AgreeOnGeneratedSystems) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 5; ++trial) {
    gen::GeneratorParams params;
    params.vertices = rng.uniform_int(10, 24);
    params.sccs = rng.uniform_int(2, 4);
    params.min_cycles = 2;
    params.relay_stations = rng.uniform_int(2, 6);
    params.reconvergent = true;
    params.policy = gen::RsPolicy::kScc;
    const QsProblem problem = build_qs_problem(gen::generate(params, rng));
    if (!problem.has_degradation()) continue;
    expect_milp_paths_match_exact(problem.td);
  }
}

/// The generated systems above mostly yield one-cycle instances; these
/// random covering instances overlap their sets, so the heuristic often
/// misses the optimum and the search has work to do.
TEST_P(MilpVsCombinatorial, AgreeOnRandomCoveringInstances) {
  util::Rng rng(GetParam());
  int heuristic_gaps = 0;
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(trial);
    TdInstance inst;
    const int sets = rng.uniform_int(3, 7);
    const int cycles = rng.uniform_int(3, 9);
    inst.set_members.resize(static_cast<std::size_t>(sets));
    for (int c = 0; c < cycles; ++c) {
      inst.deficits.push_back(rng.uniform_int(1, 8));
      bool covered = false;
      for (auto& members : inst.set_members) {
        if (rng.flip(0.4)) {
          members.push_back(c);
          covered = true;
        }
      }
      if (!covered) inst.set_members[rng.uniform_index(inst.set_members.size())].push_back(c);
    }
    const std::int64_t optimum = expect_milp_paths_match_exact(inst);
    if (solve_heuristic(inst).total > optimum) ++heuristic_gaps;
  }
  EXPECT_GT(heuristic_gaps, 0);  // the incumbent seed alone must not decide the sweep
}

INSTANTIATE_TEST_SUITE_P(Seeds, MilpVsCombinatorial, ::testing::Values(71, 72, 73));

}  // namespace
}  // namespace lid::core
