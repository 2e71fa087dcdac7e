// Method-of-manufactured-solutions convergence tests for the FEA linear
// solver (DESIGN.md §5.12): on random heterogeneous-material voxel grids,
// a manufactured displacement field u* with f = K u* must be recovered by
// the multigrid-preconditioned solve identically (≤1e-8) to a test-side
// oracle — unpreconditioned CG over the independent matrix-free element
// gather — multigrid iteration counts must stay bounded as the mesh
// refines, and ThermoSolver non-convergence must surface through the
// FailurePolicy retry ladder (then NumericalError) instead of the old
// WARN-and-continue.
#include "fea/multigrid.h"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "fault/fault.h"
#include "fea/thermo_solver.h"

namespace viaduct {
namespace {

VoxelGrid randomHeterogeneousGrid(Index n, Index nz, std::uint64_t seed) {
  VoxelGrid g = VoxelGrid::uniform(n, n, nz, 0.25e-6, 0.25e-6, 0.2e-6);
  Rng rng(seed, /*stream=*/17);
  for (Index k = 0; k < nz; ++k)
    for (Index j = 0; j < n; ++j)
      for (Index i = 0; i < n; ++i)
        g.setMaterial(
            i, j, k,
            static_cast<MaterialId>(rng.uniformInt(kMaterialCount)));
  return g;
}

/// Manufactured displacement: deterministic pseudo-random in ±1 nm,
/// zeroed on constrained dofs so f = K u* is consistent with the
/// constrained identity rows.
std::vector<double> manufacturedField(const std::vector<bool>& mask) {
  Rng rng(0xabcdef12u, /*stream=*/3);
  std::vector<double> u(mask.size());
  for (std::size_t i = 0; i < mask.size(); ++i)
    u[i] = mask[i] ? 0.0 : rng.uniform(-1e-9, 1e-9);
  return u;
}

/// The reference operator: the matrix-free element gather, which shares no
/// code with the stencil operator and V-cycle the solver runs on.
class GatherOperator final : public LinearOperator {
 public:
  explicit GatherOperator(const ThermoSolver& solver) : s_(solver) {}
  Index size() const override {
    return static_cast<Index>(s_.constrainedMask().size());
  }
  void apply(std::span<const double> x, std::span<double> y) const override {
    s_.applyStiffness(x, y);
  }

 private:
  const ThermoSolver& s_;
};

/// Oracle solve of K x = rhs: unpreconditioned CG over the gather at 1e-12.
std::vector<double> oracleSolve(const ThermoSolver& solver,
                                std::span<const double> rhs) {
  CgOptions opt;
  opt.relativeTolerance = 1e-12;
  opt.maxIterations = 200000;
  std::vector<double> x(rhs.size(), 0.0);
  const CgResult res = conjugateGradient(GatherOperator(solver), rhs, x,
                                         IdentityPreconditioner(), opt);
  EXPECT_TRUE(res.converged) << res.iterations << " iterations";
  return x;
}

struct MmsSolve {
  std::vector<double> x;  // multigrid solution
  CgResult cg;
  std::vector<double> oracle;  // empty unless requested
};

/// Multigrid (and optionally oracle) solves of K x = K u* at 1e-12.
MmsSolve solveManufactured(const VoxelGrid& g, bool withOracle) {
  ThermoSolverOptions opt;
  opt.cgRelativeTolerance = 1e-12;
  opt.cgMaxIterations = 50000;
  const ThermoSolver solver(g, opt);
  const std::vector<double> ustar = manufacturedField(solver.constrainedMask());
  std::vector<double> rhs(ustar.size(), 0.0);
  solver.applyStiffness(ustar, rhs);
  MmsSolve out;
  out.x.assign(ustar.size(), 0.0);
  out.cg = solver.solveSystem(rhs, out.x);
  if (withOracle) out.oracle = oracleSolve(solver, rhs);
  return out;
}

double relativeDiff(const std::vector<double>& a, const std::vector<double>& b) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - b[i]) * (a[i] - b[i]);
    den += b[i] * b[i];
  }
  return std::sqrt(num / den);
}

struct GridCase {
  Index n;
  Index nz;
};
constexpr GridCase kSizes[] = {{8, 6}, {12, 9}, {16, 12}};

TEST(FeaMultigridMms, PreconditionersAgreeOnManufacturedSolutions) {
  for (const auto& size : kSizes) {
    const VoxelGrid g =
        randomHeterogeneousGrid(size.n, size.nz, 1000 + size.n);
    const MmsSolve mg = solveManufactured(g, /*withOracle=*/true);
    ASSERT_TRUE(mg.cg.converged) << size.n;
    EXPECT_LE(relativeDiff(mg.x, mg.oracle), 1e-8) << size.n;
  }
}

TEST(FeaMultigridMms, RecoversTheManufacturedField) {
  const VoxelGrid g = randomHeterogeneousGrid(10, 8, 77);
  ThermoSolverOptions opt;
  opt.cgRelativeTolerance = 1e-12;
  opt.cgMaxIterations = 50000;
  const ThermoSolver solver(g, opt);
  const std::vector<double> ustar = manufacturedField(solver.constrainedMask());
  std::vector<double> rhs(ustar.size(), 0.0);
  solver.applyStiffness(ustar, rhs);
  std::vector<double> x(ustar.size(), 0.0);
  const CgResult res = solver.solveSystem(rhs, x);
  ASSERT_TRUE(res.converged);
  EXPECT_LE(relativeDiff(x, ustar), 1e-6);
}

TEST(FeaMultigridMms, IterationCountsStayBoundedUnderRefinement) {
  for (const auto& size : kSizes) {
    const VoxelGrid g =
        randomHeterogeneousGrid(size.n, size.nz, 2000 + size.n);
    const MmsSolve mg = solveManufactured(g, /*withOracle=*/false);
    ASSERT_TRUE(mg.cg.converged) << size.n;
    EXPECT_LT(mg.cg.iterations, 20)
        << size.n << "x" << size.n << "x" << size.nz;
  }
}

TEST(FeaMultigrid, HierarchyCoarsensToTheDenseLimit) {
  const VoxelGrid g = VoxelGrid::uniform(16, 16, 12, 0.25e-6, 0.25e-6,
                                         0.2e-6, MaterialId::kCopper);
  const Hex8Operators ops = computeHex8Operators(
      materialProperties(MaterialId::kCopper), 0.25e-6, 0.25e-6, 0.2e-6, 0.0);
  std::vector<const Hex8Operators*> cellOps(
      static_cast<std::size_t>(g.cellCount()), &ops);
  // Same Dirichlet rule as ThermoSolver: clamped bottom, x/y side rollers.
  std::vector<bool> mask(static_cast<std::size_t>(g.nodeCount()) * 3, false);
  for (Index k = 0; k <= g.nz(); ++k)
    for (Index j = 0; j <= g.ny(); ++j)
      for (Index i = 0; i <= g.nx(); ++i) {
        const Index n = g.nodeIndex(i, j, k);
        if (k == 0) {
          mask[static_cast<std::size_t>(n) * 3 + 0] = true;
          mask[static_cast<std::size_t>(n) * 3 + 1] = true;
          mask[static_cast<std::size_t>(n) * 3 + 2] = true;
          continue;
        }
        if (i == 0 || i == g.nx())
          mask[static_cast<std::size_t>(n) * 3 + 0] = true;
        if (j == 0 || j == g.ny())
          mask[static_cast<std::size_t>(n) * 3 + 1] = true;
      }
  ThreadPool pool(1);
  const VoxelStressMultigrid mg(g, mask, cellOps, MultigridOptions{}, &pool);
  // 17·17·13 nodes → 11k dof on the fine level; the 1000-dof dense limit
  // needs at least two coarsenings below it.
  EXPECT_GE(mg.levelCount(), 3);
}

/// The thermal load f assembled test-side, cell by cell, from the element
/// operators (constrained dofs left at zero) — independent of the solver's
/// node-gathered assembly.
std::vector<double> thermalLoad(const ThermoSolver& solver) {
  const VoxelGrid& g = solver.grid();
  const std::vector<bool>& mask = solver.constrainedMask();
  std::vector<double> f(mask.size(), 0.0);
  for (Index k = 0; k < g.nz(); ++k)
    for (Index j = 0; j < g.ny(); ++j)
      for (Index i = 0; i < g.nx(); ++i) {
        const Hex8Operators ops = computeHex8Operators(
            materialProperties(g.material(i, j, k)), g.cellSizeX(i),
            g.cellSizeY(j), g.cellSizeZ(k), solver.deltaT());
        for (int n = 0; n < kHexNodes; ++n) {
          const Index node = g.nodeIndex(i + (n & 1), j + ((n >> 1) & 1),
                                         k + ((n >> 2) & 1));
          for (int d = 0; d < 3; ++d) {
            const auto dof = static_cast<std::size_t>(node * 3 + d);
            if (!mask[dof]) f[dof] += ops.thermalLoad[3 * n + d];
          }
        }
      }
  return f;
}

TEST(FeaMultigrid, ThermalSolveMatchesTheOracle) {
  // A real painted stack-like grid: copper block embedded in dielectric
  // over a silicon substrate. Tight tolerance, then displacement parity
  // against the oracle's solve of the same thermal load.
  VoxelGrid g = VoxelGrid::uniform(10, 10, 8, 0.25e-6, 0.25e-6, 0.2e-6,
                                   MaterialId::kSiCOH);
  for (Index j = 0; j < 10; ++j)
    for (Index i = 0; i < 10; ++i)
      for (Index k = 0; k < 2; ++k) g.setMaterial(i, j, k,
                                                  MaterialId::kSilicon);
  g.paintBox(0.5e-6, 2.0e-6, 0.5e-6, 2.0e-6, 0.6e-6, 1.2e-6,
             MaterialId::kCopper);

  ThermoSolverOptions opt;
  opt.cgRelativeTolerance = 1e-10;
  ThermoSolver solver(g, opt);
  const CgResult res = solver.solve();
  EXPECT_TRUE(res.converged);
  std::vector<double> mg;
  for (Index k = 0; k <= 8; ++k)
    for (Index j = 0; j <= 10; ++j)
      for (Index i = 0; i <= 10; ++i) {
        const auto d = solver.displacement(i, j, k);
        mg.insert(mg.end(), d.begin(), d.end());
      }
  const std::vector<double> oracle = oracleSolve(solver, thermalLoad(solver));
  EXPECT_LE(relativeDiff(mg, oracle), 1e-8);
}

class FeaPolicyRegression : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::Registry::instance().disarmAll();
    fault::Registry::instance().setSeed(0);
  }
  VoxelGrid grid_ = randomHeterogeneousGrid(6, 5, 11);
};

TEST_F(FeaPolicyRegression, ExhaustedLadderThrows) {
  fault::Registry::instance().arm("cg.nonconverge", {.probability = 1.0});
  ThermoSolver solver(grid_);
  EXPECT_THROW(solver.solve(), NumericalError);
  // Every retry the default policy allows was spent before giving up.
  EXPECT_EQ(solver.retryCount(), fault::FailurePolicy{}.cgRetries);
  EXPECT_FALSE(solver.solved());
}

TEST_F(FeaPolicyRegression, SingleStallRecoversWithOneRetry) {
  fault::Registry::instance().arm("cg.nonconverge", {.nth = 1});
  ThermoSolver solver(grid_);
  const CgResult res = solver.solve();
  EXPECT_TRUE(res.converged);
  EXPECT_TRUE(solver.solved());
  EXPECT_EQ(solver.retryCount(), 1);
}

TEST_F(FeaPolicyRegression, DisabledPolicyFailsFast) {
  fault::Registry::instance().arm("cg.nonconverge", {.probability = 1.0});
  ThermoSolverOptions opt;
  opt.policy = fault::FailurePolicy::disabled();
  ThermoSolver solver(grid_, opt);
  EXPECT_THROW(solver.solve(), NumericalError);
  EXPECT_EQ(solver.retryCount(), 0);
  EXPECT_FALSE(solver.solved());
}

TEST_F(FeaPolicyRegression, UninjectedSolvesLeaveTheLadderUntouched) {
  ThermoSolver solver(grid_);
  const CgResult res = solver.solve();
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(solver.retryCount(), 0);
}

}  // namespace
}  // namespace viaduct
