// Geometric multigrid preconditioner for the voxel thermoelasticity solve.
//
// The FEA system is the pipeline's wall-clock wall: under a one-level
// preconditioner such as block-Jacobi, CG's iteration count grows with the
// mesh. This V-cycle, the thermo-stress solver's only preconditioner,
// exploits what the matrix-free operator already knows — the mesh is a
// structured voxel grid — to precondition CG with a mesh-independent
// hierarchy:
//
//   - 2× cell coarsening per axis (odd trailing cells merge into the last
//     coarse cell), so every level is again a VoxelGrid;
//   - coarse-level operators are Galerkin composites: each coarse cell's
//     24×24 stiffness is Σ PᵀK_child P over its child cells, with P the
//     trilinear interpolation from the coarse cell's corners evaluated at
//     the child's physical node coordinates. Because the global trilinear
//     prolongation restricted to an element inside one coarse cell only
//     involves that cell's 8 corners, this per-cell composite IS the true
//     global Galerkin (RAP) operator — it keeps material-interface jumps
//     that volume-averaged rediscretization would smear. Composites are
//     deduplicated by the 8-tuple of child operator pointers, so layered
//     stacks stay as compact per level as the fine grid;
//   - trilinear (tensor-product, coordinate-weighted, so nonuniform axes
//     are handled) prolongation; restriction is its transpose, gathered
//     per coarse node so the sweep is race-free and bit-identical for any
//     pool size;
//   - block-Jacobi-preconditioned Chebyshev smoothing (a fixed-degree
//     polynomial in D⁻¹A targeting the upper spectrum [λmax/eigRatio,
//     λmax]; symmetric and convergent on the whole spectrum, so the
//     V-cycle is a fixed SPD operator and CG stays CG — and per operator
//     apply it damps far more of the rough spectrum than damped Jacobi);
//   - a dense Cholesky coarse solve (DenseCholeskyFactor) once the level
//     drops under `coarseDofLimit` dof.
//
// Dirichlet handling matches the fine operator: constrained dofs are
// identity rows. Residuals entering a level are zeroed on constrained
// dofs, corrections leaving a level are zeroed again, and every smoother
// block is the identity on constrained components.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "fea/hex8.h"
#include "fea/stencil_operator.h"
#include "fea/voxel_grid.h"
#include "numerics/dense_cholesky.h"
#include "numerics/preconditioner.h"

namespace viaduct {

struct MultigridOptions {
  /// Chebyshev degree (= operator applies) of the pre/post smoother on the
  /// FINE level. Equal degrees keep the V-cycle symmetric (required for
  /// CG). The fine level owns almost all of the cycle's cost, so it smooths
  /// lightly and leans on the coarse correction.
  int preSmooth = 2;
  int postSmooth = 2;
  /// Chebyshev degrees on every coarser level, where an operator apply is
  /// ~8× cheaper per coarsening: stronger smoothing there buys a better
  /// coarse correction (fewer CG iterations) at little cost.
  int coarsePreSmooth = 3;
  int coarsePostSmooth = 3;
  /// The Chebyshev polynomial targets D⁻¹A eigenvalues in
  /// [λmax/eigRatio, safety·λmax]; λmax is estimated per level at setup
  /// with a fixed, deterministic power iteration, so the interval adapts
  /// to the material contrast instead of being hand-tuned. Larger
  /// eigRatio reaches deeper into the smooth spectrum (helping when the
  /// coarse correction is weakened by anisotropy) at the cost of less
  /// damping at the very top.
  double chebyshevEigRatio = 8.0;
  /// Headroom multiplier on the λmax estimate (the power iteration
  /// converges from below; eigenvalues above the interval would diverge).
  double lambdaMaxSafety = 1.1;
  /// Stop coarsening once a level has at most this many dof; that level is
  /// solved directly with dense Cholesky.
  Index coarseDofLimit = 1000;
  int maxLevels = 16;
};

/// One V-cycle per apply(). Scratch vectors are per-level and mutable:
/// concurrent apply() calls on the SAME instance are not supported (CG
/// applies its preconditioner serially; parallel characterizations each
/// build their own solver and hierarchy).
class VoxelStressMultigrid final : public Preconditioner {
 public:
  /// `cellOperators` are the fine grid's per-cell Hex8 stiffness operators
  /// (borrowed; must outlive the preconditioner — the ThermoSolver owns
  /// them for the fine level). `constrained` is the per-dof Dirichlet mask.
  VoxelStressMultigrid(const VoxelGrid& grid,
                       const std::vector<bool>& constrained,
                       const std::vector<const Hex8Operators*>& cellOperators,
                       const MultigridOptions& options, ThreadPool* pool);
  ~VoxelStressMultigrid() override;

  void apply(std::span<const double> r, std::span<double> z) const override;
  const char* name() const override { return "mg"; }

  /// Number of levels including the fine grid and the dense-solved
  /// coarsest one.
  int levelCount() const { return static_cast<int>(levels_.size()); }

  /// The level-0 stencil-compressed stiffness. The solver also uses this
  /// as CG's operator, so the whole solve — matvec and
  /// preconditioner — runs on the compressed engine instead of re-gathering
  /// element blocks every apply.
  const NodeStencilOperator& fineOperator() const;

  /// Opaque per-level data; public so the implementation's file-local
  /// kernels (operator apply, smoother, λmax estimator) can take it.
  struct Level;

 private:
  void buildHierarchy(const VoxelGrid& fineGrid,
                      const std::vector<bool>& constrained,
                      const std::vector<const Hex8Operators*>& cellOperators);
  void vcycle(std::size_t level, std::span<const double> r,
              std::span<double> z) const;
  void smooth(const Level& level, std::span<const double> r,
              std::span<double> z, int steps, bool zeroGuess) const;

  MultigridOptions options_;
  ThreadPool* pool_ = nullptr;
  std::vector<std::unique_ptr<Level>> levels_;
  DenseCholeskyFactor coarseFactor_;
};

}  // namespace viaduct
