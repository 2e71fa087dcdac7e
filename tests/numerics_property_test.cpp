// Cross-solver property tests: on seeded random SPD systems, CG (Jacobi
// preconditioned), direct sparse Cholesky, and Woodbury-updated solves must
// agree within 1e-8 relative error — including after sequences of rank-1
// branch updates and forced rebases.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "numerics/sparse.h"
#include "numerics/woodbury.h"
#include "support/cholesky.h"
#include "support/jacobi_cg.h"

namespace viaduct {
namespace {

constexpr double kAgreementTol = 1e-8;

struct RandomSpd {
  CsrMatrix a;
  /// Off-diagonal branch endpoints present in the sparsity structure
  /// (usable as WoodburySolver::updateBranch targets).
  std::vector<std::pair<Index, Index>> branches;
};

/// A random symmetric diagonally dominant matrix: a connectivity chain
/// (keeps it irreducible) plus random extra symmetric entries, with each
/// diagonal exceeding its absolute row sum by a positive slack.
RandomSpd randomSpd(Index n, Rng& rng) {
  RandomSpd out;
  TripletMatrix t(n, n);
  std::vector<double> rowAbs(static_cast<std::size_t>(n), 0.0);
  const auto addBranch = [&](Index i, Index j, double g) {
    t.add(i, j, -g);
    t.add(j, i, -g);
    rowAbs[static_cast<std::size_t>(i)] += g;
    rowAbs[static_cast<std::size_t>(j)] += g;
    out.branches.emplace_back(i, j);
  };
  for (Index i = 0; i + 1 < n; ++i)
    addBranch(i, i + 1, 0.5 + rng.uniform());
  const int extras = static_cast<int>(n);
  for (int e = 0; e < extras; ++e) {
    const Index i = static_cast<Index>(rng.uniformInt(static_cast<std::uint64_t>(n)));
    const Index j = static_cast<Index>(rng.uniformInt(static_cast<std::uint64_t>(n)));
    if (i == j || (j == i + 1) || (i == j + 1)) continue;
    addBranch(std::min(i, j), std::max(i, j), 0.25 + rng.uniform());
  }
  for (Index i = 0; i < n; ++i)
    t.add(i, i, rowAbs[static_cast<std::size_t>(i)] + 0.1 + rng.uniform());
  out.a = CsrMatrix::fromTriplets(t);
  return out;
}

std::vector<double> randomRhs(Index n, Rng& rng) {
  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.uniform() * 2.0 - 1.0;
  return b;
}

double relativeError(const std::vector<double>& x,
                     const std::vector<double>& ref) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    num += (x[i] - ref[i]) * (x[i] - ref[i]);
    den += ref[i] * ref[i];
  }
  return std::sqrt(num / den);
}

TEST(NumericsProperty, CgCholeskyWoodburyAgreeOnRandomSystems) {
  Rng rng(2024);
  for (int trial = 0; trial < 8; ++trial) {
    const Index n = static_cast<Index>(20 + 10 * trial);
    const auto sys = randomSpd(n, rng);
    const auto b = randomRhs(n, rng);

    CgOptions cgOpts;
    cgOpts.relativeTolerance = 1e-12;
    const auto xCg = solveCgJacobi(sys.a, b, cgOpts);
    const auto xChol = SparseCholesky(sys.a).solve(b);
    const WoodburySolver woodbury(CsrMatrix(sys.a), b);
    const auto xWood = woodbury.solve();

    EXPECT_LT(relativeError(xCg, xChol), kAgreementTol) << "trial " << trial;
    EXPECT_LT(relativeError(xWood, xChol), kAgreementTol)
        << "trial " << trial;
  }
}

TEST(NumericsProperty, SolversAgreeAfterRankOneUpdates) {
  Rng rng(77);
  for (int trial = 0; trial < 5; ++trial) {
    const Index n = static_cast<Index>(30 + 8 * trial);
    const auto sys = randomSpd(n, rng);
    const auto b = randomRhs(n, rng);

    WoodburySolver woodbury(CsrMatrix(sys.a), b);
    // Weaken a handful of existing branches (diagonal dominance built in
    // enough slack that halving any branch keeps the matrix SPD).
    const int updates = 6;
    for (int u = 0; u < updates; ++u) {
      const auto& br = sys.branches[static_cast<std::size_t>(
          rng.uniformInt(sys.branches.size()))];
      const double g = -sys.a.at(br.first, br.second);
      woodbury.updateBranch(br.first, br.second, -0.25 * g);
    }

    const auto xWood = woodbury.solve();
    const auto xChol = SparseCholesky(woodbury.currentMatrix()).solve(b);
    CgOptions cgOpts;
    cgOpts.relativeTolerance = 1e-12;
    const auto xCg = solveCgJacobi(woodbury.currentMatrix(), b, cgOpts);

    EXPECT_LT(relativeError(xWood, xChol), kAgreementTol)
        << "trial " << trial;
    EXPECT_LT(relativeError(xCg, xChol), kAgreementTol) << "trial " << trial;
  }
}

TEST(NumericsProperty, ForcedRebasesPreserveAgreement) {
  Rng rng(4242);
  const Index n = 40;
  const auto sys = randomSpd(n, rng);
  const auto b = randomRhs(n, rng);

  WoodburySolver::Options opts;
  opts.rebaseThreshold = 3;  // fold updates into the base aggressively
  WoodburySolver woodbury(CsrMatrix(sys.a), b, opts);
  int applied = 0;
  for (const auto& br : sys.branches) {
    if (applied >= 10) break;
    const double g = -sys.a.at(br.first, br.second);
    woodbury.updateBranch(br.first, br.second, -0.2 * g);
    ++applied;
    // Every update keeps all three solvers in agreement, through rebases.
    const auto xWood = woodbury.solve();
    const auto xChol = SparseCholesky(woodbury.currentMatrix()).solve(b);
    EXPECT_LT(relativeError(xWood, xChol), kAgreementTol)
        << "after update " << applied;
  }
  EXPECT_GT(woodbury.rebaseCount(), 0);
}

}  // namespace
}  // namespace viaduct
