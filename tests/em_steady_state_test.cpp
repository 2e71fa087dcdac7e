// Steady-vs-transient agreement suite for the linear-time steady-state EM
// solver (DESIGN.md §5.14): closed-form anchors, random-tree invariants,
// and asymptote parity against the implicit-Euler path reference (the
// test oracle in tests/support).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "em/korhonen_pde.h"
#include "em/steady_state.h"
#include "support/transient_path.h"

namespace viaduct {
namespace {

EmParameters testParams() {
  EmParameters params;  // defaults are the paper's Table-1-style values
  return params;
}

// A single two-terminal line must reproduce the Blech saturation
// σ_T ± G·L/2 (em/korhonen_pde.h::steadyStateCathodeStress).
TEST(SteadyStateTree, SingleLineMatchesBlechSaturation) {
  const EmParameters params = testParams();
  const double length = 50e-6;
  const double j = 1e10;
  SteadyStateTreeSolver tree(2, {SteadyBranch{0, 1, length, 1e-13}});
  EXPECT_TRUE(tree.isPath());

  std::vector<double> stress(2);
  const double sigmaT = 25e6;
  tree.solve(std::vector<double>{j}, params, sigmaT, stress);

  const double halfRise = 0.5 * stressGradientPerMeter(j, params) * length;
  // Positive j makes the a-side the cathode (tensile rise), matching the
  // PDE solver's x = 0 convention.
  EXPECT_NEAR(stress[0], sigmaT + halfRise, 1e-6 * halfRise);
  EXPECT_NEAR(stress[1], sigmaT - halfRise, 1e-6 * halfRise);

  KorhonenPdeConfig config;
  config.lineLength = length;
  config.currentDensity = j;
  config.initialStress = sigmaT;
  KorhonenPdeSolver pde(config, params);
  EXPECT_NEAR(stress[0], pde.steadyStateCathodeStress(),
              1e-9 * std::abs(pde.steadyStateCathodeStress()));
}

// The tolerance-stopped transient advance must land on the same answer and
// report a residual below the requested tolerance.
TEST(KorhonenPde, AdvanceToSteadyStateConverges) {
  const EmParameters params = testParams();
  KorhonenPdeConfig config;
  config.lineLength = 20e-6;
  config.currentDensity = 2e10;
  config.gridPoints = 101;
  KorhonenPdeSolver pde(config, params);

  EXPECT_NEAR(pde.steadyStateResidual(), 1.0, 1e-12);  // fresh flat line
  const double residual = pde.advanceToSteadyState(1e-8);
  EXPECT_LE(residual, 1e-8);
  EXPECT_NEAR(pde.cathodeStress(), pde.steadyStateCathodeStress(),
              1e-6 * pde.steadyStateCathodeStress());
}

// An impossible horizon must return the unconverged residual (and WARN)
// rather than spin forever or lie.
TEST(KorhonenPde, AdvanceToSteadyStateReportsUnconvergedHorizon) {
  const EmParameters params = testParams();
  KorhonenPdeConfig config;
  config.lineLength = 20e-6;
  config.currentDensity = 2e10;
  KorhonenPdeSolver pde(config, params);
  const double residual =
      pde.advanceToSteadyState(1e-12, /*horizonDiffusionTimes=*/1e-4);
  EXPECT_GT(residual, 1e-12);
}

// Random trees: the solution must be flux-free on every branch
// (σ_b − σ_a = −G·L along a→b) and conserve atoms (volume-weighted mean
// stress = σ_T). Those two properties determine it uniquely.
TEST(SteadyStateTree, RandomTreesAreFluxFreeAndConservative) {
  const EmParameters params = testParams();
  for (int trial = 0; trial < 32; ++trial) {
    Rng rng(0xEADu, static_cast<std::uint64_t>(trial));
    const int nodes = 3 + static_cast<int>(rng.uniform() * 30.0);
    std::vector<SteadyBranch> branches;
    std::vector<double> currents;
    for (int child = 1; child < nodes; ++child) {
      SteadyBranch branch;
      branch.a = static_cast<int>(rng.uniform() * child);
      branch.b = child;
      branch.length = (10.0 + 50.0 * rng.uniform()) * 1e-6;
      branch.area = (0.2 + 0.8 * rng.uniform()) * 1e-12;
      branches.push_back(branch);
      currents.push_back((rng.uniform() - 0.5) * 4e10);
    }
    SteadyStateTreeSolver tree(nodes, branches);

    const double sigmaT = 30e6;
    std::vector<double> stress(static_cast<std::size_t>(nodes));
    tree.solve(currents, params, sigmaT, stress);

    double weighted = 0.0;
    double volume = 0.0;
    for (std::size_t i = 0; i < branches.size(); ++i) {
      const SteadyBranch& branch = branches[i];
      const double drop = stress[static_cast<std::size_t>(branch.b)] -
                          stress[static_cast<std::size_t>(branch.a)];
      const double expected =
          -stressGradientPerMeter(currents[i], params) * branch.length;
      EXPECT_NEAR(drop, expected, 1e-8 * (std::abs(expected) + 1e6));
      const double v = branch.length * branch.area;
      weighted += v * 0.5 *
                  (stress[static_cast<std::size_t>(branch.a)] +
                   stress[static_cast<std::size_t>(branch.b)]);
      volume += v;
    }
    EXPECT_NEAR(weighted / volume, sigmaT, 1e-6 * sigmaT);

    std::vector<double> scratch(static_cast<std::size_t>(nodes));
    const double rise = tree.maxStressRise(currents, params, scratch);
    double expectedRise = 0.0;
    for (double s : stress) expectedRise = std::max(expectedRise, s - sigmaT);
    EXPECT_NEAR(rise, expectedRise, 1e-6 * (expectedRise + 1.0));
  }
}

// Random PATH trees: the marched implicit-Euler asymptote must agree with
// the closed form to ≤1e-8 relative — the tentpole's parity contract.
TEST(SteadyStateTree, TransientAsymptoteParityOnRandomPaths) {
  const EmParameters params = testParams();
  for (int trial = 0; trial < 8; ++trial) {
    Rng rng(0xA57u, static_cast<std::uint64_t>(trial));
    const int nodes = 2 + static_cast<int>(rng.uniform() * 6.0);
    std::vector<SteadyBranch> branches;
    std::vector<double> currents;
    for (int child = 1; child < nodes; ++child) {
      SteadyBranch branch;
      branch.a = child - 1;
      branch.b = child;
      branch.length = (20.0 + 40.0 * rng.uniform()) * 1e-6;
      branch.area = 6e-13;
      branches.push_back(branch);
      currents.push_back((rng.uniform() - 0.5) * 4e10);
    }
    SteadyStateTreeSolver tree(nodes, branches);
    ASSERT_TRUE(tree.isPath());

    const double sigmaT = 25e6;
    TransientPathReference::Options options;
    options.cellsPerBranch = 6;
    options.tolerance = 1e-10;
    TransientPathReference reference(tree, currents, params, sigmaT, options);
    const double residual = reference.runToSteadyState();
    ASSERT_LE(residual, 1e-10);

    const std::vector<double>& marched = reference.cellStress();
    const std::vector<double> closed = reference.closedFormCellStress();
    ASSERT_EQ(marched.size(), closed.size());
    double scale = 1.0;
    for (double value : closed) scale = std::max(scale, std::abs(value));
    for (std::size_t i = 0; i < marched.size(); ++i) {
      EXPECT_NEAR(marched[i], closed[i], 1e-8 * scale);
    }

    std::vector<double> scratch(static_cast<std::size_t>(nodes));
    const double steadyRise = tree.maxStressRise(currents, params, scratch);
    // Cell centers sit half a cell inside the path ends, so the marched
    // max rise is bounded by (and close to) the nodal max rise.
    EXPECT_LE(reference.maxStressRise(), steadyRise * (1.0 + 1e-8) + 1.0);
  }
}

// A star junction (degree 3) is not a path; verdicts still come from the
// closed form, and the decomposition flags it.
TEST(SteadyStateTree, StarJunctionIsNotAPath) {
  SteadyStateTreeSolver tree(4, {SteadyBranch{0, 1, 20e-6, 1e-13},
                                 SteadyBranch{0, 2, 20e-6, 1e-13},
                                 SteadyBranch{0, 3, 20e-6, 1e-13}});
  EXPECT_FALSE(tree.isPath());

  // Kirchhoff-balanced currents into the junction: steady state exists and
  // conserves atoms.
  const EmParameters params = testParams();
  std::vector<double> stress(4);
  tree.solve(std::vector<double>{2e10, -1e10, -1e10}, params, 0.0, stress);
  double mean = 0.0;
  for (std::size_t b = 0; b < 3; ++b) {
    mean += 0.5 * (stress[0] + stress[b + 1]);
  }
  EXPECT_NEAR(mean / 3.0, 0.0, 1e-3);
}

TEST(SteadyStateTree, RejectsCyclesAndDisconnection) {
  // 3 nodes, 3 branches: a cycle.
  EXPECT_THROW(SteadyStateTreeSolver(3, {SteadyBranch{0, 1, 1e-6, 1e-13},
                                         SteadyBranch{1, 2, 1e-6, 1e-13},
                                         SteadyBranch{2, 0, 1e-6, 1e-13}}),
               PreconditionError);
  // 4 nodes, 3 branches, but node 3 unreachable (self-contained triangle
  // is impossible with n-1 edges; build a disconnected pair instead).
  EXPECT_THROW(SteadyStateTreeSolver(4, {SteadyBranch{0, 1, 1e-6, 1e-13},
                                         SteadyBranch{2, 3, 1e-6, 1e-13},
                                         SteadyBranch{3, 2, 1e-6, 1e-13}}),
               PreconditionError);
}

TEST(SteadyStateTree, DigestIsStableAndGeometrySensitive) {
  SteadyStateTreeSolver a(2, {SteadyBranch{0, 1, 20e-6, 1e-13}});
  SteadyStateTreeSolver b(2, {SteadyBranch{0, 1, 20e-6, 1e-13}});
  SteadyStateTreeSolver c(2, {SteadyBranch{0, 1, 21e-6, 1e-13}});
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_NE(a.digest(), c.digest());
}

}  // namespace
}  // namespace viaduct
