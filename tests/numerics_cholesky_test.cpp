// The up-looking SparseCholesky test oracle (tests/support/cholesky.h).
#include "support/cholesky.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "support/jacobi_cg.h"

namespace viaduct {
namespace {

CsrMatrix laplacian2d(Index nx, Index ny, double ground = 0.01) {
  TripletMatrix t(nx * ny, nx * ny);
  auto id = [nx](Index x, Index y) { return y * nx + x; };
  for (Index y = 0; y < ny; ++y) {
    for (Index x = 0; x < nx; ++x) {
      t.add(id(x, y), id(x, y), ground);
      if (x + 1 < nx) t.stampConductance(id(x, y), id(x + 1, y), 1.0);
      if (y + 1 < ny) t.stampConductance(id(x, y), id(x, y + 1), 1.0);
    }
  }
  return CsrMatrix::fromTriplets(t);
}

TEST(SparseCholesky, SolvesDiagonal) {
  TripletMatrix t(3, 3);
  t.add(0, 0, 4.0);
  t.add(1, 1, 2.0);
  t.add(2, 2, 8.0);
  const CsrMatrix a = CsrMatrix::fromTriplets(t);
  const SparseCholesky chol(a);
  const auto x = chol.solve(std::vector<double>{4.0, 4.0, 4.0});
  EXPECT_NEAR(x[0], 1.0, 1e-14);
  EXPECT_NEAR(x[1], 2.0, 1e-14);
  EXPECT_NEAR(x[2], 0.5, 1e-14);
}

TEST(SparseCholesky, MatchesCgOnLaplacian) {
  const CsrMatrix a = laplacian2d(12, 9, 0.1);
  Rng rng(41);
  std::vector<double> b(static_cast<std::size_t>(a.rows()));
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  const SparseCholesky chol(a);
  const auto xd = chol.solve(b);
  const auto xi = solveCgJacobi(a, b, {.relativeTolerance = 1e-12});
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(xd[i], xi[i], 1e-7);
}

TEST(SparseCholesky, ResidualIsTiny) {
  const CsrMatrix a = laplacian2d(20, 20, 0.01);
  Rng rng(43);
  std::vector<double> b(static_cast<std::size_t>(a.rows()));
  for (auto& v : b) v = rng.uniform(0.0, 1.0);
  const SparseCholesky chol(a);
  const auto x = chol.solve(b);
  EXPECT_LE(a.residualNorm(x, b), 1e-9 * norm2(b));
}

TEST(SparseCholesky, ThrowsOnIndefinite) {
  TripletMatrix t(2, 2);
  t.add(0, 0, 1.0);
  t.add(0, 1, 3.0);
  t.add(1, 0, 3.0);
  t.add(1, 1, 1.0);  // eigenvalues 4, -2
  const CsrMatrix a = CsrMatrix::fromTriplets(t);
  EXPECT_THROW(SparseCholesky{a}, NumericalError);
}

TEST(SparseCholesky, ThrowsOnNonSquare) {
  TripletMatrix t(2, 3);
  t.add(0, 0, 1.0);
  const CsrMatrix a = CsrMatrix::fromTriplets(t);
  EXPECT_THROW(SparseCholesky{a}, PreconditionError);
}

TEST(SparseCholesky, RefactorWithNewValues) {
  CsrMatrix a = laplacian2d(8, 8, 0.1);
  SparseCholesky chol(a);
  // Scale all conductances by 2: solutions should halve.
  std::vector<double> b(64, 1.0);
  const auto x1 = chol.solve(b);
  for (double& v : a.mutableValues()) v *= 2.0;
  chol.refactor(a);
  const auto x2 = chol.solve(b);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_NEAR(x2[i], 0.5 * x1[i], 1e-10);
}

TEST(SparseCholesky, SolveInPlaceVariant) {
  const CsrMatrix a = laplacian2d(5, 5, 0.2);
  const SparseCholesky chol(a);
  std::vector<double> b(25, 1.0), x(25);
  chol.solve(b, x);
  EXPECT_LE(a.residualNorm(x, b), 1e-10 * norm2(b));
}

class CholeskySizeSweep : public ::testing::TestWithParam<std::pair<int, int>> {
};

TEST_P(CholeskySizeSweep, RandomRhsRoundTrip) {
  const auto [nx, ny] = GetParam();
  const CsrMatrix a = laplacian2d(nx, ny, 0.07);
  Rng rng(nx * 100 + ny);
  std::vector<double> xTrue(static_cast<std::size_t>(a.rows()));
  for (auto& v : xTrue) v = rng.uniform(-3.0, 3.0);
  std::vector<double> b(xTrue.size());
  a.multiply(xTrue, b);
  const SparseCholesky chol(a);
  const auto x = chol.solve(b);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], xTrue[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Grids, CholeskySizeSweep,
                         ::testing::Values(std::pair{1, 1}, std::pair{2, 2},
                                           std::pair{7, 3}, std::pair{15, 15},
                                           std::pair{30, 20}));

}  // namespace
}  // namespace viaduct
