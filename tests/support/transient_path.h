// Test oracle for the steady-state wire-EM solve: an implicit-Euler march
// of the transient Korhonen PDE on a path-shaped interconnect tree, run to
// its asymptote. Production judges every tree with the closed form of
// em/steady_state.h; tests and bench/perf_em_steady hold that closed form
// to this marched reference (stress profiles at <= 1e-8, and verdicts).
#pragma once

#include <span>
#include <vector>

#include "em/em_params.h"
#include "em/steady_state.h"

namespace viaduct {

/// Implicit-Euler reference integrator of the transient Korhonen PDE on a
/// PATH tree with per-branch (piecewise-constant) source terms — the
/// "run the transient solve to its asymptote" baseline the steady-state
/// pass replaces. Cell-centered finite volumes with flux-matched face
/// source terms, so its t→∞ limit reproduces the piecewise-linear
/// continuous steady state exactly at cell centers (enabling the ≤1e-8
/// steady-vs-asymptote parity gates). Geometric time-step ramp: implicit
/// Euler is L-stable, so late steps can span decades of diffusion time
/// while monotonically damping every mode.
class TransientPathReference {
 public:
  struct Options {
    int cellsPerBranch = 4;
    /// Initial dt as a multiple of the smallest cell diffusion time.
    double initialCellFraction = 0.5;
    /// Per-step geometric dt growth factor.
    double growth = 1.15;
    /// Flux-residual stop tolerance (see steadyStateResidual()).
    double tolerance = 1e-9;
    /// Horizon as a multiple of the whole-path diffusion time L²/κ; hitting
    /// it un-converged WARNs.
    double horizonDiffusionTimes = 64.0;
  };

  /// `tree` must satisfy isPath(). Branch currents are SIGNED along each
  /// branch's a→b orientation, like SteadyStateTreeSolver::solve.
  TransientPathReference(const SteadyStateTreeSolver& tree,
                         std::span<const double> branchCurrentDensity,
                         const EmParameters& params, double sigmaT,
                         const Options& options);
  TransientPathReference(const SteadyStateTreeSolver& tree,
                         std::span<const double> branchCurrentDensity,
                         const EmParameters& params, double sigmaT)
      : TransientPathReference(tree, branchCurrentDensity, params, sigmaT,
                               Options{}) {}

  /// Advances one implicit-Euler step (dt grows geometrically). Returns
  /// the new time [s].
  double step();

  /// Dimensionless steady-state distance: max face |flux| / max |G| over
  /// the path (0 exactly at the asymptote; 1 is the fresh-line scale).
  double steadyStateResidual() const;

  /// Steps until steadyStateResidual() <= options.tolerance or the time
  /// horizon is hit (WARNs when un-converged). Returns the residual.
  double runToSteadyState();

  double time() const { return time_; }
  /// Largest stress rise over σ_T across cell centers [Pa].
  double maxStressRise() const;
  /// Largest stress rise over σ_T including the path's junction and end
  /// NODES, reconstructed by per-branch linear extrapolation of the two
  /// boundary cells (exact at the asymptote, where the profile is linear
  /// within each branch). Use this for verdicts so transient and
  /// steady-state modes judge the same extreme points.
  double maxNodalStressRise() const;
  /// Stress at the cell centers, path order.
  const std::vector<double>& cellStress() const { return sigma_; }
  /// Steady-state stress at the cell centers predicted by the closed-form
  /// tree solution (for parity checks against the marched asymptote).
  std::vector<double> closedFormCellStress() const;

 private:
  Options options_;
  double sigmaT_ = 0.0;
  double kappa_ = 0.0;
  double time_ = 0.0;
  double dt_ = 0.0;
  double horizon_ = 0.0;
  double gradientScale_ = 1.0;  // max |G| (1 when all currents are zero)
  bool warned_ = false;
  std::vector<double> dx_;       // cell widths, path order
  std::vector<double> faceDx_;   // center-to-center spacing per interior face
  std::vector<double> faceG_;    // flux-matched source term per interior face
  std::vector<double> sigma_;    // cell-center stresses
  std::vector<double> steady_;   // closed-form asymptote at cell centers
  // Thomas-solver scratch.
  mutable std::vector<double> lower_, diag_, upper_, rhs_;
};

}  // namespace viaduct
