#include "numerics/woodbury.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "numerics/supernodal_cholesky.h"
#include "support/cholesky.h"

namespace viaduct {
namespace {

CsrMatrix gridConductance(Index nx, Index ny, double gGround = 0.1) {
  TripletMatrix t(nx * ny, nx * ny);
  auto id = [nx](Index x, Index y) { return y * nx + x; };
  for (Index y = 0; y < ny; ++y) {
    for (Index x = 0; x < nx; ++x) {
      if (x == 0 && y == 0) t.add(0, 0, gGround * 10);  // "pad" tie-down
      t.add(id(x, y), id(x, y), gGround * 0.01);
      if (x + 1 < nx) t.stampConductance(id(x, y), id(x + 1, y), 1.0);
      if (y + 1 < ny) t.stampConductance(id(x, y), id(x, y + 1), 1.0);
    }
  }
  return CsrMatrix::fromTriplets(t);
}

std::vector<double> referenceSolve(const CsrMatrix& g,
                                   std::span<const double> b) {
  return SparseCholesky(g).solve(b);
}

TEST(WoodburySolver, MatchesBaseSolveWithoutUpdates) {
  const CsrMatrix g = gridConductance(6, 6);
  Rng rng(51);
  std::vector<double> b(36);
  for (auto& v : b) v = rng.uniform(0.0, 1.0);
  WoodburySolver w(g, b);
  const auto x = w.solve();
  const auto ref = referenceSolve(g, b);
  for (std::size_t i = 0; i < 36; ++i) EXPECT_NEAR(x[i], ref[i], 1e-10);
}

TEST(WoodburySolver, SingleBranchUpdateMatchesRefactor) {
  CsrMatrix g = gridConductance(6, 6);
  Rng rng(53);
  std::vector<double> b(36);
  for (auto& v : b) v = rng.uniform(0.0, 1.0);

  WoodburySolver w(g, b);
  w.updateBranch(3, 4, -0.7);  // weaken one branch
  const auto x = w.solve();

  // Reference: rebuild the modified matrix from scratch.
  EXPECT_NEAR(norm2(x), norm2(referenceSolve(w.currentMatrix(), b)), 1e-8);
  const auto ref = referenceSolve(w.currentMatrix(), b);
  for (std::size_t i = 0; i < 36; ++i) EXPECT_NEAR(x[i], ref[i], 1e-9);
}

TEST(WoodburySolver, SequenceOfUpdatesMatchesRefactor) {
  const CsrMatrix g = gridConductance(8, 8);
  Rng rng(59);
  std::vector<double> b(64);
  for (auto& v : b) v = rng.uniform(0.0, 1.0);

  WoodburySolver w(g, b);
  // Fail several branches fully (conductance -> ~0) one at a time.
  const std::vector<std::pair<Index, Index>> branches = {
      {0, 1}, {9, 10}, {20, 28}, {45, 46}, {17, 25}};
  for (const auto& [i, j] : branches) {
    const double gOld = -w.currentMatrix().at(i, j);
    ASSERT_GT(gOld, 0.0);
    w.updateBranch(i, j, -gOld * 0.999);
    const auto x = w.solve();
    const auto ref = referenceSolve(w.currentMatrix(), b);
    for (std::size_t k = 0; k < 64; ++k) EXPECT_NEAR(x[k], ref[k], 1e-7);
  }
  EXPECT_EQ(w.pendingUpdateCount(), 5);
}

TEST(WoodburySolver, RepeatedUpdateOfSameBranchAccumulates) {
  const CsrMatrix g = gridConductance(5, 5);
  std::vector<double> b(25, 0.5);
  WoodburySolver w(g, b);
  w.updateBranch(2, 3, -0.3);
  w.updateBranch(2, 3, -0.3);
  EXPECT_EQ(w.pendingUpdateCount(), 1);  // same branch: one column
  const auto x = w.solve();
  const auto ref = referenceSolve(w.currentMatrix(), b);
  for (std::size_t k = 0; k < 25; ++k) EXPECT_NEAR(x[k], ref[k], 1e-9);
}

TEST(WoodburySolver, EndpointOrderIrrelevant) {
  const CsrMatrix g = gridConductance(5, 5);
  std::vector<double> b(25, 1.0);
  WoodburySolver w1(g, b), w2(g, b);
  w1.updateBranch(7, 8, -0.5);
  w2.updateBranch(8, 7, -0.5);
  const auto x1 = w1.solve();
  const auto x2 = w2.solve();
  for (std::size_t k = 0; k < 25; ++k) EXPECT_NEAR(x1[k], x2[k], 1e-12);
}

TEST(WoodburySolver, GroundBranchUpdate) {
  const CsrMatrix g = gridConductance(4, 4);
  std::vector<double> b(16, 1.0);
  WoodburySolver w(g, b);
  w.updateBranch(5, -1, 2.0);  // strengthen a tie to ground
  const auto x = w.solve();
  const auto ref = referenceSolve(w.currentMatrix(), b);
  for (std::size_t k = 0; k < 16; ++k) EXPECT_NEAR(x[k], ref[k], 1e-9);
}

TEST(WoodburySolver, RebasePreservesSolutions) {
  const CsrMatrix g = gridConductance(6, 6);
  Rng rng(61);
  std::vector<double> b(36);
  for (auto& v : b) v = rng.uniform(0.0, 1.0);
  WoodburySolver w(g, b);
  w.updateBranch(1, 2, -0.4);
  w.updateBranch(8, 14, -0.9);
  const auto before = w.solve();
  w.rebase();
  EXPECT_EQ(w.pendingUpdateCount(), 0);
  EXPECT_EQ(w.rebaseCount(), 1);
  const auto after = w.solve();
  for (std::size_t k = 0; k < 36; ++k) EXPECT_NEAR(before[k], after[k], 1e-9);
}

TEST(WoodburySolver, AutoRebaseAtThreshold) {
  const CsrMatrix g = gridConductance(10, 10);
  WoodburySolver::Options opts;
  opts.rebaseThreshold = 3;
  const std::vector<double> b(100, 1.0);
  WoodburySolver w(g, b, opts);
  w.updateBranch(0, 1, -0.1);
  w.updateBranch(1, 2, -0.1);
  w.updateBranch(2, 3, -0.1);
  EXPECT_EQ(w.rebaseCount(), 0);
  w.updateBranch(3, 4, -0.1);  // exceeds threshold -> rebase
  EXPECT_EQ(w.rebaseCount(), 1);
  EXPECT_EQ(w.pendingUpdateCount(), 0);
  const auto x = w.solve();
  const auto ref = referenceSolve(w.currentMatrix(), b);
  for (std::size_t k = 0; k < 100; ++k) EXPECT_NEAR(x[k], ref[k], 1e-8);
}

TEST(WoodburySolver, RejectsSelfLoopAndDoubleGround) {
  const CsrMatrix g = gridConductance(3, 3);
  WoodburySolver w(g, std::vector<double>(9, 1.0));
  EXPECT_THROW(w.updateBranch(2, 2, 1.0), PreconditionError);
  EXPECT_THROW(w.updateBranch(-1, -1, 1.0), PreconditionError);
}

TEST(WoodburySolver, RejectsStructurallyAbsentBranch) {
  const CsrMatrix g = gridConductance(3, 3);
  WoodburySolver w(g, std::vector<double>(9, 1.0));
  // Nodes 0 and 8 are opposite corners: no direct branch entry.
  EXPECT_THROW(w.updateBranch(0, 8, -0.1), PreconditionError);
}

TEST(WoodburySolver, CancelledDeltaLeavesTheUpdateSet) {
  // A branch whose accumulated delta cancels to exactly zero drops out of
  // the update set instead of reaching the capacitance matrix as 1/0.
  const CsrMatrix g = gridConductance(6, 6);
  Rng rng(67);
  std::vector<double> b(36);
  for (auto& v : b) v = rng.uniform(0.0, 1.0);
  WoodburySolver w(g, b);
  const std::vector<double> x0 = w.solve();
  w.updateBranch(0, 1, 0.5);
  w.updateBranch(1, 0, -0.5);
  EXPECT_EQ(w.pendingUpdateCount(), 0);
  EXPECT_EQ(w.solve(), x0);

  // Cancelling one of several branches keeps the survivors exact.
  w.updateBranch(7, 13, -0.6);
  w.updateBranch(20, 21, 0.25);
  w.updateBranch(14, 15, -0.3);
  w.updateBranch(20, 21, -0.25);
  EXPECT_EQ(w.pendingUpdateCount(), 2);
  const auto x = w.solve();
  const auto ref = referenceSolve(w.currentMatrix(), b);
  for (std::size_t k = 0; k < 36; ++k) EXPECT_NEAR(x[k], ref[k], 1e-10);

  // A zero delta on a new branch never enters the set either.
  w.updateBranch(2, 3, 0.0);
  EXPECT_EQ(w.pendingUpdateCount(), 2);
  EXPECT_EQ(w.solve(), x);
}

std::shared_ptr<const WoodburyBase> memoBase(
    const CsrMatrix& g, const std::vector<double>& b,
    const std::vector<std::pair<Index, Index>>& branches,
    std::size_t budgetBytes) {
  return std::make_shared<const WoodburyBase>(
      g, std::make_unique<const SupernodalCholesky>(g), b, branches,
      budgetBytes);
}

TEST(WoodburyColumnMemo, ColumnsAreTheBaseFactorSolves) {
  const CsrMatrix g = gridConductance(6, 6);
  const std::vector<double> b(36, 1.0);
  const auto base = memoBase(g, b, {{4, 3}, {9, -1}}, 1 << 20);
  EXPECT_EQ(base->memoBytes(), 0u);
  // Slots are keyed canonically; an unlisted branch has none.
  EXPECT_EQ(base->memoColumn(0, 1), nullptr);
  const std::vector<double>* z = base->memoColumn(3, 4);
  ASSERT_NE(z, nullptr);
  std::vector<double> a(36, 0.0);
  a[3] = 1.0;
  a[4] = -1.0;
  EXPECT_EQ(*z, base->factor->solve(a));
  EXPECT_EQ(base->memoColumn(3, 4), z);  // filled once, then shared
  EXPECT_EQ(base->memoBytes(), 36 * sizeof(double));
  ASSERT_NE(base->memoColumn(9, -1), nullptr);
  EXPECT_EQ(base->memoBytes(), 2 * 36 * sizeof(double));
}

TEST(WoodburyColumnMemo, BudgetCapsTheMemoAndSolvesStayBitIdentical) {
  // Solvers on a memoized base, a one-column base and an empty base give
  // the same bits: every column is the same serial factored solve.
  const CsrMatrix g = gridConductance(8, 8);
  Rng rng(71);
  std::vector<double> b(64);
  for (auto& v : b) v = rng.uniform(0.0, 1.0);
  const std::vector<std::pair<Index, Index>> branches = {
      {0, 1}, {9, 10}, {20, 28}, {45, 46}, {17, 25}};
  const std::size_t column = 64 * sizeof(double);
  std::vector<std::vector<double>> results;
  for (const std::size_t budget :
       {std::size_t{1} << 20, column + column / 2, std::size_t{0}}) {
    const auto base = memoBase(g, b, branches, budget);
    for (int pass = 0; pass < 2; ++pass) {  // cold, then warm memo
      WoodburySolver w(base);
      for (const auto& [i, j] : branches) w.updateBranch(j, i, -0.9);
      results.push_back(w.solve());
    }
    EXPECT_LE(base->memoBytes(), budget);
    EXPECT_EQ(base->memoBytes(),
              std::min(budget / column, branches.size()) * column);
  }
  for (const auto& x : results) EXPECT_EQ(x, results.front());
  WoodburySolver plain(g, b);
  for (const auto& [i, j] : branches) plain.updateBranch(i, j, -0.9);
  EXPECT_EQ(plain.solve(), results.front());
}

TEST(WoodburyColumnMemo, RebasedSolverSolvesItsOwnColumns) {
  // After a rebase the memo's base columns no longer describe the
  // solver's matrix: a memoized branch is solved on the private factor.
  const CsrMatrix g = gridConductance(6, 6);
  const std::vector<double> b(36, 1.0);
  const auto base = memoBase(g, b, {{14, 15}}, 1 << 20);
  ASSERT_NE(base->memoColumn(14, 15), nullptr);  // warm the memo
  WoodburySolver w(base);
  w.updateBranch(2, 3, -0.8);
  w.rebase();
  w.updateBranch(14, 15, -0.9);
  const auto x = w.solve();
  const auto ref = referenceSolve(w.currentMatrix(), b);
  for (std::size_t k = 0; k < 36; ++k) EXPECT_NEAR(x[k], ref[k], 1e-10);
}

class WoodburyFailureSweep : public ::testing::TestWithParam<int> {};

TEST_P(WoodburyFailureSweep, ManySequentialOpensStayAccurate) {
  const int failures = GetParam();
  const CsrMatrix g = gridConductance(9, 9, 0.5);
  Rng rng(1009);
  std::vector<double> b(81);
  for (auto& v : b) v = rng.uniform(0.0, 0.2);

  WoodburySolver::Options opts;
  opts.rebaseThreshold = 6;  // force several rebases for large sweeps
  WoodburySolver w(g, b, opts);

  int done = 0;
  for (Index y = 0; y < 9 && done < failures; ++y) {
    for (Index x = 0; x + 1 < 9 && done < failures; x += 2) {
      const Index i = y * 9 + x;
      const Index j = y * 9 + x + 1;
      const double gOld = -w.currentMatrix().at(i, j);
      if (gOld <= 0.0) continue;
      w.updateBranch(i, j, -gOld * 0.999);
      ++done;
    }
  }
  const auto x = w.solve();
  const auto ref = referenceSolve(w.currentMatrix(), b);
  for (std::size_t k = 0; k < 81; ++k) EXPECT_NEAR(x[k], ref[k], 1e-6);
}

INSTANTIATE_TEST_SUITE_P(FailureCounts, WoodburyFailureSweep,
                         ::testing::Values(1, 4, 8, 16, 30));

}  // namespace
}  // namespace viaduct
