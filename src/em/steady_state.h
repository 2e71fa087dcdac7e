// Linear-time steady-state EM stress analysis on interconnect trees.
//
// The transient Korhonen solve answers "when does the stress reach σ_crit",
// but for most wires sign-off only asks "does it EVER" — and the t→∞ limit
// has a closed form. At steady state the atomic flux vanishes on every
// branch of a blocking-terminated interconnect tree:
//
//   ∂σ/∂x + G_b = 0,  G_b = e·Z*·ρ·j_b / Ω,
//
// so σ is piecewise linear with slope −G_b along each branch, continuous at
// junctions, and fixed by one atom-conservation constraint per connected
// tree (the total stress integral over the tree volume is preserved from
// the uniform initial state, for uniform B). Following Sapatnekar's
// follow-up ("A Linear-Time Algorithm for Steady-State Analysis of
// Electromigration in General Interconnects", PAPERS.md) the whole profile
// is computed in O(n) with two tree traversals: a top-down sweep
// accumulating the relative stress φ(node) = −Σ G_b·L_b along the root
// path, then a volume-weighted average fixing the conservation offset.
// For a single two-terminal line this reduces exactly to the Blech
// saturation σ_T ± G·L/2 (em/korhonen_pde.h's steadyStateCathodeStress).
//
// The topology decomposition (traversal order, per-branch volumes) is
// immutable and reusable: a power-grid Monte Carlo rebuilds nothing when a
// via fails — only the per-branch current densities change — so each
// failure configuration costs two linear passes instead of a PDE
// time-stepping run (DESIGN.md §5.14).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "em/em_params.h"

namespace viaduct {

/// One branch of an interconnect tree. `currentDensity` fields elsewhere
/// are SIGNED along the a→b orientation: j > 0 raises tensile stress at
/// the a side (matching em/korhonen_pde.h, where positive j makes x = 0
/// the cathode).
struct SteadyBranch {
  int a = 0;
  int b = 0;
  double length = 0.0;  // [m]
  double area = 0.0;    // cross-section [m²]
};

/// EM stress-gradient magnitude G = e·Z*·ρ·j/Ω [Pa/m] for a SIGNED current
/// density j [A/m²] (sign carries through).
double stressGradientPerMeter(double currentDensity,
                              const EmParameters& params);

/// Steady-state solver over one fixed tree topology. Construction builds
/// the traversal decomposition once (O(n)); every solve() against new
/// per-branch current densities is two linear passes. Instances are
/// immutable after construction and safe to share read-only across
/// threads (solves write only caller-provided buffers).
class SteadyStateTreeSolver {
 public:
  /// `nodeCount` nodes labelled [0, nodeCount); `branches` must form a
  /// single connected acyclic tree spanning them (throws PreconditionError
  /// otherwise). Branch lengths and areas must be positive.
  SteadyStateTreeSolver(int nodeCount, std::vector<SteadyBranch> branches);

  int nodeCount() const { return nodeCount_; }
  int branchCount() const { return static_cast<int>(branches_.size()); }
  const std::vector<SteadyBranch>& branches() const { return branches_; }
  /// True when every junction has degree <= 2 (the tree is a simple path);
  /// the marched transient oracle in tests/support supports only paths.
  bool isPath() const { return isPath_; }
  double totalVolume() const { return totalVolume_; }

  /// Steady-state stress at every node for SIGNED per-branch current
  /// densities [A/m²] (indexed like `branches()`), uniform initial stress
  /// `sigmaT` [Pa]. `nodeStress` must have nodeCount() entries.
  void solve(std::span<const double> branchCurrentDensity,
             const EmParameters& params, double sigmaT,
             std::span<double> nodeStress) const;

  /// Largest steady-state stress RISE over σ_T [Pa] (the immortality
  /// driver: the tree can never nucleate a void iff the max rise stays
  /// below σ_C − σ_T − σ_pkg). `scratch` must have nodeCount() entries and
  /// is clobbered; pass a reused buffer on hot paths.
  double maxStressRise(std::span<const double> branchCurrentDensity,
                       const EmParameters& params,
                       std::span<double> scratch) const;

  /// Stable digest of the decomposition (topology + geometry), used to key
  /// checkpoint snapshots of runs whose verdicts depend on this tree.
  std::uint64_t digest() const { return digest_; }

 private:
  struct Step {
    int branch = 0;   // index into branches_
    int parent = 0;   // node already assigned
    int child = 0;    // node assigned by this step
    double sign = 1;  // +1 when parent == branches_[branch].a
  };

  int nodeCount_ = 0;
  bool isPath_ = true;
  double totalVolume_ = 0.0;
  std::uint64_t digest_ = 0;
  std::vector<SteadyBranch> branches_;
  std::vector<Step> order_;  // BFS from node 0; nodeCount_-1 steps
};

}  // namespace viaduct
