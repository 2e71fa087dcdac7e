#include "fea/thermo_solver.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/logging.h"
#include "obs/obs.h"

namespace viaduct {

namespace {
long long quantize(double h) {
  // Picometer quantization: distinct voxel sizes are micrometer-scale, so
  // this is far below any physical difference while being hash-stable.
  return static_cast<long long>(std::llround(h * 1e12));
}

// Node-partitioned assembly grain. Compile-time constant (never derived
// from the thread count) so chunk layouts are identical for any pool size.
constexpr std::int64_t kNodeGrain = 256;

/// Visits the cells adjacent to node (I, J, K) in increasing (k, j, i)
/// order — the same order the legacy cell-sweep scatter visited them — and
/// calls fn(cellIndex, localNode) for each. Gathering per OUTPUT node this
/// way makes the assembly race-free and, because the per-node summation
/// order matches the serial sweep, bit-identical to it.
template <typename Fn>
void forEachAdjacentCell(const VoxelGrid& g, Index I, Index J, Index K,
                         Fn&& fn) {
  const Index k0 = std::max<Index>(K - 1, 0), k1 = std::min<Index>(K, g.nz() - 1);
  const Index j0 = std::max<Index>(J - 1, 0), j1 = std::min<Index>(J, g.ny() - 1);
  const Index i0 = std::max<Index>(I - 1, 0), i1 = std::min<Index>(I, g.nx() - 1);
  for (Index ck = k0; ck <= k1; ++ck)
    for (Index cj = j0; cj <= j1; ++cj)
      for (Index ci = i0; ci <= i1; ++ci) {
        const int n = (I - ci) + 2 * (J - cj) + 4 * (K - ck);
        fn(g.cellIndex(ci, cj, ck), n, ci, cj, ck);
      }
}
}  // namespace

/// Matrix-free stiffness operator with symmetric Dirichlet handling:
/// constrained dofs act as identity rows/columns. The product is gathered
/// per output node (see forEachAdjacentCell) and partitioned across the
/// solver's pool.
class VoxelElasticityOperator final : public LinearOperator {
 public:
  explicit VoxelElasticityOperator(const ThermoSolver& solver)
      : s_(solver) {}

  Index size() const override { return s_.grid_.nodeCount() * 3; }

  void apply(std::span<const double> x, std::span<double> y) const override {
    VIADUCT_SPAN("fea.cg_apply");
    VIADUCT_COUNTER_ADD("fea.operator_applies", 1);
    VIADUCT_REQUIRE(x.size() == static_cast<std::size_t>(size()) &&
                    y.size() == x.size());
    const VoxelGrid& g = s_.grid_;
    const Index nodesPerRow = g.nx() + 1;
    const Index nodesPerSlab = nodesPerRow * (g.ny() + 1);
    parallelFor(s_.pool_, 0, g.nodeCount(), kNodeGrain, [&](std::int64_t ni) {
      const Index node = static_cast<Index>(ni);
      const Index K = node / nodesPerSlab;
      const Index rem = node % nodesPerSlab;
      const Index J = rem / nodesPerRow;
      const Index I = rem % nodesPerRow;
      double out[3] = {0.0, 0.0, 0.0};
      const bool allConstrained = s_.constrained_[node * 3 + 0] &&
                                  s_.constrained_[node * 3 + 1] &&
                                  s_.constrained_[node * 3 + 2];
      if (!allConstrained) {
        std::array<double, kHexDofs> ue{};
        forEachAdjacentCell(
            g, I, J, K,
            [&](Index cell, int n, Index ci, Index cj, Index ck) {
              const Hex8Operators& ops =
                  *s_.cellOps_[static_cast<std::size_t>(cell)];
              // Gather with constrained entries zeroed.
              for (int m = 0; m < kHexNodes; ++m) {
                const Index mn = g.nodeIndex(ci + (m & 1), cj + ((m >> 1) & 1),
                                             ck + ((m >> 2) & 1));
                for (int d = 0; d < 3; ++d) {
                  const Index dof = mn * 3 + d;
                  ue[3 * m + d] = s_.constrained_[dof] ? 0.0 : x[dof];
                }
              }
              // Rows 3n..3n+2 of fe = Ke * ue.
              for (int d = 0; d < 3; ++d) {
                const double* row =
                    &ops.stiffness[static_cast<std::size_t>(3 * n + d) *
                                   kHexDofs];
                double acc = 0.0;
                for (int c = 0; c < kHexDofs; ++c) acc += row[c] * ue[c];
                out[d] += acc;
              }
            });
      }
      for (int d = 0; d < 3; ++d) {
        const Index dof = node * 3 + d;
        y[dof] = s_.constrained_[dof] ? x[dof] : out[d];
      }
    });
  }

 private:
  const ThermoSolver& s_;
};

ThermoSolver::ThermoSolver(const VoxelGrid& grid,
                           const ThermoSolverOptions& options)
    : grid_(grid), options_(options) {
  if (options_.pool) {
    pool_ = options_.pool;
  } else {
    ownedPool_ = std::make_unique<ThreadPool>(options_.parallelism);
    pool_ = ownedPool_.get();
  }
  deltaT_ = options_.operatingTemperatureC - options_.annealTemperatureC;
  setupConstraints();
  buildOperators();
}

void ThermoSolver::setupConstraints() {
  const Index nodes = grid_.nodeCount();
  constrained_.assign(static_cast<std::size_t>(nodes) * 3, false);
  const Index nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
  for (Index k = 0; k <= nz; ++k) {
    for (Index j = 0; j <= ny; ++j) {
      for (Index i = 0; i <= nx; ++i) {
        const Index n = grid_.nodeIndex(i, j, k);
        if (k == 0) {
          // Clamped substrate bottom.
          constrained_[n * 3 + 0] = true;
          constrained_[n * 3 + 1] = true;
          constrained_[n * 3 + 2] = true;
          continue;
        }
        // Rollers on side faces: zero normal displacement.
        if (i == 0 || i == nx) constrained_[n * 3 + 0] = true;
        if (j == 0 || j == ny) constrained_[n * 3 + 1] = true;
      }
    }
  }
}

void ThermoSolver::buildOperators() {
  cellOps_.resize(static_cast<std::size_t>(grid_.cellCount()));
  for (Index k = 0; k < grid_.nz(); ++k) {
    for (Index j = 0; j < grid_.ny(); ++j) {
      for (Index i = 0; i < grid_.nx(); ++i) {
        const MaterialId m = grid_.material(i, j, k);
        const double hx = grid_.cellSizeX(i);
        const double hy = grid_.cellSizeY(j);
        const double hz = grid_.cellSizeZ(k);
        const auto key = std::make_tuple(static_cast<int>(m), quantize(hx),
                                         quantize(hy), quantize(hz));
        auto it = operatorCache_.find(key);
        if (it == operatorCache_.end()) {
          it = operatorCache_
                   .emplace(key, computeHex8Operators(materialProperties(m),
                                                      hx, hy, hz, deltaT_))
                   .first;
        }
        cellOps_[static_cast<std::size_t>(grid_.cellIndex(i, j, k))] =
            &it->second;
      }
    }
  }
}

std::vector<double> ThermoSolver::assembleThermalLoad() const {
  VIADUCT_SPAN("fea.assemble_load");
  std::vector<double> f(static_cast<std::size_t>(grid_.nodeCount()) * 3, 0.0);
  const Index nodesPerRow = grid_.nx() + 1;
  const Index nodesPerSlab = nodesPerRow * (grid_.ny() + 1);
  parallelFor(pool_, 0, grid_.nodeCount(), kNodeGrain, [&](std::int64_t ni) {
    const Index node = static_cast<Index>(ni);
    const Index K = node / nodesPerSlab;
    const Index rem = node % nodesPerSlab;
    const Index J = rem / nodesPerRow;
    const Index I = rem % nodesPerRow;
    forEachAdjacentCell(grid_, I, J, K,
                        [&](Index cell, int n, Index, Index, Index) {
                          const Hex8Operators& ops =
                              *cellOps_[static_cast<std::size_t>(cell)];
                          for (int d = 0; d < 3; ++d) {
                            const Index dof = node * 3 + d;
                            if (!constrained_[dof])
                              f[dof] += ops.thermalLoad[3 * n + d];
                          }
                        });
  });
  return f;
}

namespace {

/// CG-facing adapter for the stencil-compressed stiffness that the
/// multigrid hierarchy builds for its fine level: CG's matvec runs on it,
/// so the whole solve — matvec and preconditioner — uses the compressed
/// engine (same Dirichlet semantics as the element gather, ulp-level
/// differences in summation order only).
class StencilElasticityOperator final : public LinearOperator {
 public:
  explicit StencilElasticityOperator(const NodeStencilOperator& op)
      : op_(op) {}
  Index size() const override { return op_.dofCount(); }
  void apply(std::span<const double> x, std::span<double> y) const override {
    VIADUCT_SPAN("fea.cg_apply");
    VIADUCT_COUNTER_ADD("fea.operator_applies", 1);
    op_.apply(x, y);
  }

 private:
  const NodeStencilOperator& op_;
};

}  // namespace

const VoxelStressMultigrid& ThermoSolver::ensurePreconditioner() const {
  if (!precond_) {
    VIADUCT_SPAN("fea.precond_setup");
    precond_ = std::make_unique<VoxelStressMultigrid>(
        grid_, constrained_, cellOps_, options_.multigrid, pool_);
  }
  return *precond_;
}

CgResult ThermoSolver::runCg(std::span<const double> rhs, std::span<double> x,
                             const CgOptions& cgOpts) const {
  VIADUCT_SPAN("fea.cg_solve");
  const VoxelStressMultigrid& precond = ensurePreconditioner();
  const StencilElasticityOperator op(precond.fineOperator());
  return conjugateGradient(op, rhs, x, precond, cgOpts);
}

CgResult ThermoSolver::solve() {
  if (solved_) return lastCg_;
  VIADUCT_SPAN("fea.solve");
  VIADUCT_COUNTER_ADD("fea.solves", 1);
  const std::vector<double> f = assembleThermalLoad();

  displacements_.assign(f.size(), 0.0);
  CgOptions cgOpts;
  cgOpts.relativeTolerance = options_.cgRelativeTolerance;
  cgOpts.maxIterations = options_.cgMaxIterations;
  cgOpts.pool = pool_;
  // The policy owns failure handling: a stall returns converged = false and
  // a NaN residual throws NumericalError, both of which feed the retry
  // ladder below (each rung restarts from a zero guess — a poisoned iterate
  // must not warm-start the retry).
  cgOpts.throwOnStall = false;
  const fault::FailurePolicy& policy = options_.policy;
  const int attempts = policy.enabled ? 1 + std::max(0, policy.cgRetries) : 1;
  retries_ = 0;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      VIADUCT_COUNTER_ADD("fault.policy.fea_retries", 1);
      ++retries_;
      cgOpts.relativeTolerance *= policy.retryToleranceTighten;
      cgOpts.maxIterations = static_cast<int>(
          static_cast<double>(cgOpts.maxIterations) *
          policy.retryIterationGrowth);
      std::fill(displacements_.begin(), displacements_.end(), 0.0);
      // A broken hierarchy (e.g. an injected NaN) must not poison every
      // retry, so each rung rebuilds it.
      VIADUCT_WARN << "FEA solve attempt " << attempt
                   << " failed; retrying with a rebuilt multigrid hierarchy";
      precond_.reset();
    }
    try {
      lastCg_ = runCg(f, displacements_, cgOpts);
    } catch (const NumericalError&) {
      lastCg_ = CgResult{};
      if (!policy.enabled) throw;
      continue;
    }
    if (lastCg_.converged) break;
  }
  VIADUCT_DEBUG << "FEA solve: " << lastCg_.iterations << " CG iterations, "
                << grid_.nodeCount() * 3 << " dof";
  if (!lastCg_.converged) {
    // A non-converged displacement field must never silently feed the
    // stress probes: surface the failure so the caller's FailurePolicy
    // (kAbort / kDiscard / kSalvage) decides the trial's fate.
    VIADUCT_WARN << "FEA CG did not converge after " << attempts
                 << " attempt(s): " << lastCg_.iterations
                 << " iterations, relative residual "
                 << lastCg_.relativeResidual;
    throw NumericalError(
        "FEA thermo-stress CG did not converge after policy retries");
  }
  solved_ = true;
  return lastCg_;
}

CgResult ThermoSolver::solveSystem(std::span<const double> rhs,
                                   std::span<double> x) const {
  VIADUCT_REQUIRE(rhs.size() ==
                      static_cast<std::size_t>(grid_.nodeCount()) * 3 &&
                  x.size() == rhs.size());
  CgOptions cgOpts;
  cgOpts.relativeTolerance = options_.cgRelativeTolerance;
  cgOpts.maxIterations = options_.cgMaxIterations;
  cgOpts.pool = pool_;
  cgOpts.throwOnStall = false;
  return runCg(rhs, x, cgOpts);
}

void ThermoSolver::applyStiffness(std::span<const double> x,
                                  std::span<double> y) const {
  const VoxelElasticityOperator op(*this);
  op.apply(x, y);
}

std::array<double, 3> ThermoSolver::displacement(Index i, Index j,
                                                 Index k) const {
  VIADUCT_REQUIRE_MSG(solved_, "call solve() first");
  const Index n = grid_.nodeIndex(i, j, k);
  return {displacements_[n * 3 + 0], displacements_[n * 3 + 1],
          displacements_[n * 3 + 2]};
}

void ThermoSolver::gatherElement(std::span<const double> u, Index i, Index j,
                                 Index k, std::span<double> ue) const {
  for (int n = 0; n < kHexNodes; ++n) {
    const Index node =
        grid_.nodeIndex(i + (n & 1), j + ((n >> 1) & 1), k + ((n >> 2) & 1));
    for (int d = 0; d < 3; ++d) ue[3 * n + d] = u[node * 3 + d];
  }
}

std::array<double, kStrainComponents> ThermoSolver::cellStress(
    Index i, Index j, Index k) const {
  VIADUCT_REQUIRE_MSG(solved_, "call solve() first");
  std::array<double, kHexDofs> ue{};
  gatherElement(displacements_, i, j, k, ue);
  return hex8CentroidStress(materialProperties(grid_.material(i, j, k)),
                            grid_.cellSizeX(i), grid_.cellSizeY(j),
                            grid_.cellSizeZ(k), deltaT_, ue);
}

double ThermoSolver::cellHydrostatic(Index i, Index j, Index k) const {
  return hydrostatic(cellStress(i, j, k));
}

ThermoSolver::Profile ThermoSolver::hydrostaticProfileX(Index j,
                                                        Index k) const {
  Profile p;
  p.x.reserve(static_cast<std::size_t>(grid_.nx()));
  p.sigmaH.reserve(static_cast<std::size_t>(grid_.nx()));
  for (Index i = 0; i < grid_.nx(); ++i) {
    p.x.push_back(grid_.cellCenterX(i));
    p.sigmaH.push_back(cellHydrostatic(i, j, k));
  }
  return p;
}

double ThermoSolver::peakHydrostatic(
    Index i0, Index i1, Index j0, Index j1, Index k0, Index k1,
    std::optional<MaterialId> onlyMaterial) const {
  VIADUCT_REQUIRE(i0 >= 0 && i1 <= grid_.nx() && j0 >= 0 && j1 <= grid_.ny() &&
                  k0 >= 0 && k1 <= grid_.nz());
  double peak = -std::numeric_limits<double>::infinity();
  for (Index k = k0; k < k1; ++k)
    for (Index j = j0; j < j1; ++j)
      for (Index i = i0; i < i1; ++i) {
        if (onlyMaterial && grid_.material(i, j, k) != *onlyMaterial) continue;
        peak = std::max(peak, cellHydrostatic(i, j, k));
      }
  VIADUCT_REQUIRE_MSG(std::isfinite(peak),
                      "no cells matched the requested material/box");
  return peak;
}

}  // namespace viaduct
