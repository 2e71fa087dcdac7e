#include "fea/multigrid.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <tuple>

#include "common/check.h"
#include "numerics/dense.h"
#include "obs/obs.h"

namespace viaduct {

namespace {

// Same node grain as the fine-level solver (thermo_solver.cpp), so chunk
// layouts follow the established determinism discipline.
constexpr std::int64_t kNodeGrain = 256;
constexpr std::int64_t kDofGrain = 3 * kNodeGrain;
constexpr int kPowerIterations = 10;

struct AxisTransfer {
  // Per fine axis node: the coarse cell it falls in and the linear weight
  // toward that cell's high node. Aligned nodes carry weight exactly 0 or 1
  // because the coarse node coordinates are copies of fine ones.
  std::vector<Index> c;
  std::vector<double> w;
};

AxisTransfer buildAxisTransfer(Index fineCells, Index coarseCells,
                               const std::vector<double>& fineCoord,
                               const std::vector<double>& coarseCoord) {
  AxisTransfer t;
  t.c.resize(static_cast<std::size_t>(fineCells) + 1);
  t.w.resize(static_cast<std::size_t>(fineCells) + 1);
  for (Index i = 0; i <= fineCells; ++i) {
    const Index c = std::min<Index>(i / 2, coarseCells - 1);
    const double x0 = coarseCoord[static_cast<std::size_t>(c)];
    const double x1 = coarseCoord[static_cast<std::size_t>(c) + 1];
    t.c[static_cast<std::size_t>(i)] = c;
    t.w[static_cast<std::size_t>(i)] =
        (fineCoord[static_cast<std::size_t>(i)] - x0) / (x1 - x0);
  }
  return t;
}

}  // namespace

struct VoxelStressMultigrid::Level {
  VoxelGrid grid;
  Index nodes = 0;

  // Per-dof Dirichlet mask (uint8 instead of vector<bool> for hot loops).
  std::vector<std::uint8_t> constrained;

  // Per-cell stiffness. Level 0 borrows the solver's operators; coarser
  // levels own theirs: Galerkin composites PᵀKP over the ≤8 children of a
  // coarse cell, deduplicated by the children's operator pointers (within a
  // level, a pointer uniquely identifies material and size, so equal keys
  // imply equal composites — uniform regions collapse to one entry).
  std::map<std::array<const Hex8Operators*, 8>, Hex8Operators> ownedOps;
  std::vector<const Hex8Operators*> cellOps;

  // Stencil-compressed stiffness; every level apply goes through it (the
  // coarsest level is solved dense instead).
  NodeStencilOperator op;

  // Inverted nodal 3×3 diagonal blocks (constrained dofs → identity).
  std::vector<double> blockInv;
  // Power-iteration estimate of λmax(D⁻¹A); the Chebyshev smoother targets
  // [λmax/eigRatio, safety·λmax].
  double lambdaMax = 1.0;

  // Transfer to the NEXT (coarser) level. Prolongation reads the per-axis
  // maps directly; restriction uses the reverse lists (CSR over coarse
  // nodes) so the transpose sweep gathers per coarse node — race-free and
  // bit-identical for any pool size.
  AxisTransfer tx, ty, tz;
  std::vector<Index> restrictPtr;      // coarseNodes + 1
  std::vector<Index> restrictFine;     // fine node indices
  std::vector<double> restrictWeight;  // matching trilinear weights

  // V-cycle scratch (one cycle at a time; see class comment). r/z hold the
  // restricted residual / coarse correction when this level is visited from
  // above; work is the residual buffer; smoothD/smoothAd carry the
  // Chebyshev direction vector and its operator image.
  mutable std::vector<double> r, z, work, smoothD, smoothAd;

  explicit Level(VoxelGrid g)
      : grid(std::move(g)), nodes(grid.nodeCount()) {}
};

namespace {

/// y = A x on one level: a deterministic row-partitioned SpMV over the
/// level's assembled stiffness (constrained dofs are identity rows there).
void applyLevelOperator(const VoxelStressMultigrid::Level& lvl,
                        std::span<const double> x, std::span<double> y,
                        ThreadPool* pool);

}  // namespace

VoxelStressMultigrid::VoxelStressMultigrid(
    const VoxelGrid& grid, const std::vector<bool>& constrained,
    const std::vector<const Hex8Operators*>& cellOperators,
    const MultigridOptions& options, ThreadPool* pool)
    : options_(options), pool_(pool) {
  VIADUCT_SPAN("fea.mg_setup");
  VIADUCT_REQUIRE(options_.preSmooth >= 1 && options_.postSmooth >= 1 &&
                  options_.coarsePreSmooth >= 1 &&
                  options_.coarsePostSmooth >= 1 &&
                  options_.chebyshevEigRatio > 1.0 &&
                  options_.lambdaMaxSafety >= 1.0 &&
                  options_.coarseDofLimit >= 81 && options_.maxLevels >= 1);
  buildHierarchy(grid, constrained, cellOperators);
  VIADUCT_GAUGE_SET("fea.mg_levels", levelCount());
}

VoxelStressMultigrid::~VoxelStressMultigrid() = default;

const NodeStencilOperator& VoxelStressMultigrid::fineOperator() const {
  return levels_.front()->op;
}

namespace {

void applyLevelOperator(const VoxelStressMultigrid::Level& lvl,
                        std::span<const double> x, std::span<double> y,
                        ThreadPool* /*pool*/) {
  lvl.op.apply(x, y);
}

/// Galerkin composite PᵀKP of a coarse cell from its children: P is the
/// trilinear interpolation from the coarse cell's 8 corners to a child's 8
/// corners (weights from physical coordinates, so merged trailing odd
/// cells and nonuniform axes are exact). Summation order is the fixed
/// (k, j, i) child order.
Hex8Operators galerkinCompositeOperator(
    const VoxelGrid& fg, const VoxelGrid& cg,
    const std::vector<const Hex8Operators*>& fineOps, Index ci, Index cj,
    Index ck) {
  Hex8Operators comp{};
  const double cx0 = cg.nodeX(ci), cx1 = cg.nodeX(ci + 1);
  const double cy0 = cg.nodeY(cj), cy1 = cg.nodeY(cj + 1);
  const double cz0 = cg.nodeZ(ck), cz1 = cg.nodeZ(ck + 1);
  for (Index k = ck * 2; k < std::min<Index>(ck * 2 + 2, fg.nz()); ++k)
    for (Index j = cj * 2; j < std::min<Index>(cj * 2 + 2, fg.ny()); ++j)
      for (Index i = ci * 2; i < std::min<Index>(ci * 2 + 2, fg.nx()); ++i) {
        const Hex8Operators& K =
            *fineOps[static_cast<std::size_t>(fg.cellIndex(i, j, k))];
        // Parametric coordinates of the child's low/high faces within the
        // coarse cell, per axis.
        const double ux[2] = {(fg.nodeX(i) - cx0) / (cx1 - cx0),
                              (fg.nodeX(i + 1) - cx0) / (cx1 - cx0)};
        const double vy[2] = {(fg.nodeY(j) - cy0) / (cy1 - cy0),
                              (fg.nodeY(j + 1) - cy0) / (cy1 - cy0)};
        const double wz[2] = {(fg.nodeZ(k) - cz0) / (cz1 - cz0),
                              (fg.nodeZ(k + 1) - cz0) / (cz1 - cz0)};
        // w[m][cc]: trilinear weight of coarse corner cc at child node m.
        double w[kHexNodes][kHexNodes];
        for (int m = 0; m < kHexNodes; ++m) {
          const double u = ux[m & 1], v = vy[(m >> 1) & 1],
                       s = wz[(m >> 2) & 1];
          for (int cc = 0; cc < kHexNodes; ++cc)
            w[m][cc] = ((cc & 1) ? u : 1.0 - u) *
                       (((cc >> 1) & 1) ? v : 1.0 - v) *
                       (((cc >> 2) & 1) ? s : 1.0 - s);
        }
        // T = K P, then comp += Pᵀ T.
        std::array<double, kHexDofs * kHexDofs> t{};
        for (int m = 0; m < kHexNodes; ++m)
          for (int cc = 0; cc < kHexNodes; ++cc) {
            const double wm = w[m][cc];
            if (wm == 0.0) continue;
            for (int r = 0; r < kHexDofs; ++r)
              for (int q = 0; q < 3; ++q)
                t[static_cast<std::size_t>(r) * kHexDofs + (3 * cc + q)] +=
                    wm * K.stiffness[static_cast<std::size_t>(r) * kHexDofs +
                                     (3 * m + q)];
          }
        for (int m = 0; m < kHexNodes; ++m)
          for (int cc = 0; cc < kHexNodes; ++cc) {
            const double wm = w[m][cc];
            if (wm == 0.0) continue;
            for (int p = 0; p < 3; ++p)
              for (int c2 = 0; c2 < kHexDofs; ++c2)
                comp.stiffness[static_cast<std::size_t>(3 * cc + p) *
                                   kHexDofs +
                               c2] +=
                    wm * t[static_cast<std::size_t>(3 * m + p) * kHexDofs +
                           c2];
          }
      }
  return comp;
}

/// z = D⁻¹ r with the level's inverted nodal blocks.
void applyBlockInverse(const VoxelStressMultigrid::Level& lvl,
                       std::span<const double> r, std::span<double> z,
                       ThreadPool* pool) {
  parallelFor(pool, 0, lvl.nodes, kNodeGrain, [&](std::int64_t n) {
    const double* m = &lvl.blockInv[static_cast<std::size_t>(n) * 9];
    const double* rn = &r[static_cast<std::size_t>(n) * 3];
    double* zn = &z[static_cast<std::size_t>(n) * 3];
    for (int p = 0; p < 3; ++p)
      zn[p] = m[p * 3] * rn[0] + m[p * 3 + 1] * rn[1] + m[p * 3 + 2] * rn[2];
  });
}

/// Assembles, inverts and stores the nodal 3×3 diagonal blocks of a level
/// (constrained rows/cols replaced by identity before inversion) — the
/// block-Jacobi scaling the Chebyshev smoother works in.
void buildLevelBlocks(VoxelStressMultigrid::Level& lvl, ThreadPool* pool) {
  const VoxelGrid& g = lvl.grid;
  const Index nodesPerRow = g.nx() + 1;
  const Index nodesPerSlab = nodesPerRow * (g.ny() + 1);
  lvl.blockInv.assign(static_cast<std::size_t>(lvl.nodes) * 9, 0.0);
  parallelFor(pool, 0, lvl.nodes, kNodeGrain, [&](std::int64_t ni) {
    const Index node = static_cast<Index>(ni);
    const Index K = node / nodesPerSlab;
    const Index rem = node % nodesPerSlab;
    const Index J = rem / nodesPerRow;
    const Index I = rem % nodesPerRow;
    double blk[9] = {0, 0, 0, 0, 0, 0, 0, 0, 0};
    const Index k0 = std::max<Index>(K - 1, 0);
    const Index k1 = std::min<Index>(K, g.nz() - 1);
    const Index j0 = std::max<Index>(J - 1, 0);
    const Index j1 = std::min<Index>(J, g.ny() - 1);
    const Index i0 = std::max<Index>(I - 1, 0);
    const Index i1 = std::min<Index>(I, g.nx() - 1);
    for (Index ck = k0; ck <= k1; ++ck)
      for (Index cj = j0; cj <= j1; ++cj)
        for (Index ci = i0; ci <= i1; ++ci) {
          const int n = (I - ci) + 2 * (J - cj) + 4 * (K - ck);
          const Hex8Operators& ops =
              *lvl.cellOps[static_cast<std::size_t>(g.cellIndex(ci, cj, ck))];
          for (int p = 0; p < 3; ++p)
            for (int q = 0; q < 3; ++q)
              blk[p * 3 + q] +=
                  ops.stiffness[(3 * n + p) * kHexDofs + (3 * n + q)];
        }
    for (int d = 0; d < 3; ++d) {
      if (!lvl.constrained[node * 3 + d]) continue;
      for (int q = 0; q < 3; ++q) {
        blk[d * 3 + q] = 0.0;
        blk[q * 3 + d] = 0.0;
      }
      blk[d * 3 + d] = 1.0;
    }
    DenseMatrix m(3, 3);
    for (int p = 0; p < 3; ++p)
      for (int q = 0; q < 3; ++q) m(p, q) = blk[p * 3 + q];
    const DenseMatrix inv = m.solveMultiple(DenseMatrix::identity(3));
    double* out = &lvl.blockInv[static_cast<std::size_t>(node) * 9];
    for (int p = 0; p < 3; ++p)
      for (int q = 0; q < 3; ++q) out[p * 3 + q] = inv(p, q);
  });
}

/// Estimates λmax(D⁻¹A) on a level with a fixed-iteration power method from
/// a deterministic pseudo-random start vector (constrained dofs excluded:
/// they contribute the identity eigenvalue 1, never the max for these
/// systems). All reductions go through parallelReduce, so the estimate is
/// bit-identical for any pool size.
double estimateBlockJacobiLambdaMax(const VoxelStressMultigrid::Level& lvl,
                                    ThreadPool* pool) {
  const std::int64_t dofs = static_cast<std::int64_t>(lvl.nodes) * 3;
  std::vector<double> v(static_cast<std::size_t>(dofs));
  std::vector<double> av(static_cast<std::size_t>(dofs));
  parallelFor(pool, 0, dofs, kDofGrain, [&](std::int64_t i) {
    // Knuth multiplicative hash → [0.5, 1.5); avoids symmetric vectors that
    // could sit orthogonal to the dominant eigenvector.
    const std::uint64_t h =
        static_cast<std::uint64_t>(i) * 2654435761ull % 1024ull;
    v[static_cast<std::size_t>(i)] =
        lvl.constrained[static_cast<std::size_t>(i)]
            ? 0.0
            : 0.5 + static_cast<double>(h) / 1024.0;
  });
  auto squaredNorm = [&](const std::vector<double>& u) {
    return pool ? pool->parallelReduce(
                      0, dofs, kDofGrain, 0.0,
                      [&](std::int64_t b, std::int64_t e) {
                        double s = 0.0;
                        for (std::int64_t i = b; i < e; ++i)
                          s += u[static_cast<std::size_t>(i)] *
                               u[static_cast<std::size_t>(i)];
                        return s;
                      },
                      [](double a, double b) { return a + b; })
                : [&] {
                    double s = 0.0;
                    for (double x : u) s += x * x;
                    return s;
                  }();
  };
  double lambda = 1.0;
  for (int it = 0; it < kPowerIterations; ++it) {
    const double n2 = squaredNorm(v);
    if (!(n2 > 0.0)) break;
    const double invNorm = 1.0 / std::sqrt(n2);
    parallelFor(pool, 0, dofs, kDofGrain, [&](std::int64_t i) {
      v[static_cast<std::size_t>(i)] *= invNorm;
    });
    applyLevelOperator(lvl, v, av, pool);
    applyBlockInverse(lvl, av, av, pool);
    parallelFor(pool, 0, dofs, kDofGrain, [&](std::int64_t i) {
      if (lvl.constrained[static_cast<std::size_t>(i)])
        av[static_cast<std::size_t>(i)] = 0.0;
    });
    lambda = std::sqrt(squaredNorm(av));
    v.swap(av);
  }
  return std::max(lambda, 1.0);
}

}  // namespace

void VoxelStressMultigrid::buildHierarchy(
    const VoxelGrid& fineGrid, const std::vector<bool>& constrained,
    const std::vector<const Hex8Operators*>& cellOperators) {
  VIADUCT_REQUIRE(static_cast<Index>(cellOperators.size()) ==
                      fineGrid.cellCount() &&
                  static_cast<Index>(constrained.size()) ==
                      fineGrid.nodeCount() * 3);

  // Level 0 mirrors the fine solver: borrowed operators, converted mask.
  auto fine = std::make_unique<Level>(fineGrid);
  fine->constrained.resize(constrained.size());
  for (std::size_t i = 0; i < constrained.size(); ++i)
    fine->constrained[i] = constrained[i] ? 1 : 0;
  fine->cellOps = cellOperators;
  levels_.push_back(std::move(fine));

  while (static_cast<int>(levels_.size()) < options_.maxLevels) {
    Level& f = *levels_.back();
    const Index dofs = f.nodes * 3;
    if (dofs <= options_.coarseDofLimit) break;
    const VoxelGrid& fg = f.grid;
    if (fg.nx() <= 1 && fg.ny() <= 1 && fg.nz() <= 1) break;

    // Coarse geometry: pairwise-merged cell sizes per axis (a trailing odd
    // cell survives unmerged), so coarse node coordinates are exact copies
    // of fine ones and the axis transfer weights hit 0/1 exactly at
    // aligned nodes.
    std::vector<double> chx, chy, chz;
    chx.reserve(static_cast<std::size_t>((fg.nx() + 1) / 2));
    chy.reserve(static_cast<std::size_t>((fg.ny() + 1) / 2));
    chz.reserve(static_cast<std::size_t>((fg.nz() + 1) / 2));
    for (Index i = 0; i < fg.nx(); i += 2)
      chx.push_back(fg.cellSizeX(i) +
                    (i + 1 < fg.nx() ? fg.cellSizeX(i + 1) : 0.0));
    for (Index j = 0; j < fg.ny(); j += 2)
      chy.push_back(fg.cellSizeY(j) +
                    (j + 1 < fg.ny() ? fg.cellSizeY(j + 1) : 0.0));
    for (Index k = 0; k < fg.nz(); k += 2)
      chz.push_back(fg.cellSizeZ(k) +
                    (k + 1 < fg.nz() ? fg.cellSizeZ(k + 1) : 0.0));
    auto coarse = std::make_unique<Level>(VoxelGrid(chx, chy, chz));
    const VoxelGrid& cg = coarse->grid;

    // Coarse cell operators: Galerkin composites of the children,
    // deduplicated by the child-operator-pointer key (see Level::ownedOps).
    // Galerkin — rather than rediscretizing from averaged moduli — keeps
    // the coarse correction effective across the stack's material
    // interfaces, where averaging loses the jump and roughly doubles CG
    // iteration counts.
    const auto coarseCells = static_cast<std::size_t>(cg.cellCount());
    coarse->cellOps.resize(coarseCells);
    for (Index ck = 0; ck < cg.nz(); ++ck)
      for (Index cj = 0; cj < cg.ny(); ++cj)
        for (Index ci = 0; ci < cg.nx(); ++ci) {
          std::array<const Hex8Operators*, 8> key{};
          for (Index k = ck * 2; k < std::min<Index>(ck * 2 + 2, fg.nz()); ++k)
            for (Index j = cj * 2; j < std::min<Index>(cj * 2 + 2, fg.ny());
                 ++j)
              for (Index i = ci * 2; i < std::min<Index>(ci * 2 + 2, fg.nx());
                   ++i)
                key[static_cast<std::size_t>((i - ci * 2) + 2 * (j - cj * 2) +
                                             4 * (k - ck * 2))] =
                    f.cellOps[static_cast<std::size_t>(fg.cellIndex(i, j, k))];
          auto it = coarse->ownedOps.find(key);
          if (it == coarse->ownedOps.end())
            it = coarse->ownedOps
                     .emplace(key, galerkinCompositeOperator(fg, cg, f.cellOps,
                                                             ci, cj, ck))
                     .first;
          coarse->cellOps[static_cast<std::size_t>(
              cg.cellIndex(ci, cj, ck))] = &it->second;
        }

    // Coarse Dirichlet mask: the grid shape is preserved, so the same rule
    // as the fine solver (clamped k=0 face, x/y rollers on the sides).
    coarse->constrained.assign(static_cast<std::size_t>(coarse->nodes) * 3, 0);
    for (Index k = 0; k <= cg.nz(); ++k)
      for (Index j = 0; j <= cg.ny(); ++j)
        for (Index i = 0; i <= cg.nx(); ++i) {
          const Index n = cg.nodeIndex(i, j, k);
          if (k == 0) {
            coarse->constrained[n * 3 + 0] = 1;
            coarse->constrained[n * 3 + 1] = 1;
            coarse->constrained[n * 3 + 2] = 1;
            continue;
          }
          if (i == 0 || i == cg.nx()) coarse->constrained[n * 3 + 0] = 1;
          if (j == 0 || j == cg.ny()) coarse->constrained[n * 3 + 1] = 1;
        }

    // Fine→coarse transfer: per-axis interpolation maps, then the reverse
    // (restriction) lists built by bucketing fine nodes per coarse node in
    // fine-node order — a fixed, scheduling-independent layout.
    {
      std::vector<double> fx(static_cast<std::size_t>(fg.nx()) + 1),
          cx(static_cast<std::size_t>(cg.nx()) + 1);
      for (Index i = 0; i <= fg.nx(); ++i)
        fx[static_cast<std::size_t>(i)] = fg.nodeX(i);
      for (Index i = 0; i <= cg.nx(); ++i)
        cx[static_cast<std::size_t>(i)] = cg.nodeX(i);
      f.tx = buildAxisTransfer(fg.nx(), cg.nx(), fx, cx);
      std::vector<double> fy(static_cast<std::size_t>(fg.ny()) + 1),
          cy(static_cast<std::size_t>(cg.ny()) + 1);
      for (Index j = 0; j <= fg.ny(); ++j)
        fy[static_cast<std::size_t>(j)] = fg.nodeY(j);
      for (Index j = 0; j <= cg.ny(); ++j)
        cy[static_cast<std::size_t>(j)] = cg.nodeY(j);
      f.ty = buildAxisTransfer(fg.ny(), cg.ny(), fy, cy);
      std::vector<double> fz(static_cast<std::size_t>(fg.nz()) + 1),
          cz(static_cast<std::size_t>(cg.nz()) + 1);
      for (Index k = 0; k <= fg.nz(); ++k)
        fz[static_cast<std::size_t>(k)] = fg.nodeZ(k);
      for (Index k = 0; k <= cg.nz(); ++k)
        cz[static_cast<std::size_t>(k)] = cg.nodeZ(k);
      f.tz = buildAxisTransfer(fg.nz(), cg.nz(), fz, cz);
    }

    {
      std::vector<std::vector<std::pair<Index, double>>> buckets(
          static_cast<std::size_t>(coarse->nodes));
      const Index fRow = fg.nx() + 1, fSlab = fRow * (fg.ny() + 1);
      for (Index fn = 0; fn < f.nodes; ++fn) {
        const Index K = fn / fSlab;
        const Index rem = fn % fSlab;
        const Index J = rem / fRow;
        const Index I = rem % fRow;
        const Index cx = f.tx.c[static_cast<std::size_t>(I)];
        const Index cy = f.ty.c[static_cast<std::size_t>(J)];
        const Index cz = f.tz.c[static_cast<std::size_t>(K)];
        const double wx = f.tx.w[static_cast<std::size_t>(I)];
        const double wy = f.ty.w[static_cast<std::size_t>(J)];
        const double wz = f.tz.w[static_cast<std::size_t>(K)];
        for (int dk = 0; dk < 2; ++dk)
          for (int dj = 0; dj < 2; ++dj)
            for (int di = 0; di < 2; ++di) {
              const double w = (di ? wx : 1.0 - wx) * (dj ? wy : 1.0 - wy) *
                               (dk ? wz : 1.0 - wz);
              if (w == 0.0) continue;
              const Index cn = cg.nodeIndex(cx + di, cy + dj, cz + dk);
              buckets[static_cast<std::size_t>(cn)].emplace_back(fn, w);
            }
      }
      f.restrictPtr.assign(static_cast<std::size_t>(coarse->nodes) + 1, 0);
      std::size_t total = 0;
      for (Index cn = 0; cn < coarse->nodes; ++cn) {
        total += buckets[static_cast<std::size_t>(cn)].size();
        f.restrictPtr[static_cast<std::size_t>(cn) + 1] =
            static_cast<Index>(total);
      }
      f.restrictFine.resize(total);
      f.restrictWeight.resize(total);
      std::size_t at = 0;
      for (Index cn = 0; cn < coarse->nodes; ++cn)
        for (const auto& [fn, w] : buckets[static_cast<std::size_t>(cn)]) {
          f.restrictFine[at] = fn;
          f.restrictWeight[at] = w;
          ++at;
        }
    }

    levels_.push_back(std::move(coarse));
  }

  // Smoother blocks and the Chebyshev interval's λmax on every level but
  // the coarsest (which is solved directly); scratch everywhere.
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    Level& lvl = *levels_[l];
    const auto dofs = static_cast<std::size_t>(lvl.nodes) * 3;
    lvl.r.assign(dofs, 0.0);
    lvl.z.assign(dofs, 0.0);
    lvl.work.assign(dofs, 0.0);
    // The fine level always gets a stencil operator even when the hierarchy
    // degenerates to a single dense-solved level: the solver uses
    // fineOperator() as CG's matvec in multigrid mode.
    if (l == 0 || l + 1 < levels_.size())
      lvl.op = NodeStencilOperator(lvl.grid, lvl.constrained, lvl.cellOps,
                                   pool_);
    if (l + 1 < levels_.size()) {
      lvl.smoothD.assign(dofs, 0.0);
      lvl.smoothAd.assign(dofs, 0.0);
      buildLevelBlocks(lvl, pool_);
      lvl.lambdaMax = estimateBlockJacobiLambdaMax(lvl, pool_);
    }
  }

  // Coarsest level: dense assembly with constrained rows/cols as identity,
  // factored once.
  {
    const Level& c = *levels_.back();
    const auto n = static_cast<std::size_t>(c.nodes) * 3;
    DenseMatrix a(n, n);
    const VoxelGrid& g = c.grid;
    for (Index ck = 0; ck < g.nz(); ++ck)
      for (Index cj = 0; cj < g.ny(); ++cj)
        for (Index ci = 0; ci < g.nx(); ++ci) {
          const Hex8Operators& ops =
              *c.cellOps[static_cast<std::size_t>(g.cellIndex(ci, cj, ck))];
          std::array<Index, kHexDofs> dofs;
          for (int m = 0; m < kHexNodes; ++m) {
            const Index mn = g.nodeIndex(ci + (m & 1), cj + ((m >> 1) & 1),
                                         ck + ((m >> 2) & 1));
            for (int d = 0; d < 3; ++d)
              dofs[static_cast<std::size_t>(3 * m + d)] = mn * 3 + d;
          }
          for (int p = 0; p < kHexDofs; ++p) {
            const Index rp = dofs[static_cast<std::size_t>(p)];
            if (c.constrained[rp]) continue;
            for (int q = 0; q < kHexDofs; ++q) {
              const Index cq = dofs[static_cast<std::size_t>(q)];
              if (c.constrained[cq]) continue;
              a(static_cast<std::size_t>(rp), static_cast<std::size_t>(cq)) +=
                  ops.stiffness[static_cast<std::size_t>(p) * kHexDofs +
                                static_cast<std::size_t>(q)];
            }
          }
        }
    for (std::size_t d = 0; d < n; ++d)
      if (c.constrained[d]) a(d, d) = 1.0;
    coarseFactor_.factor(a);
  }
}

// Block-Jacobi-preconditioned Chebyshev smoothing of degree `steps`: the
// update z += p(D⁻¹A) D⁻¹ (r − A z) with p the Chebyshev polynomial
// minimizing the error over D⁻¹A eigenvalues in [b/eigRatio, b],
// b = safety·λmax. The three-term recurrence costs one operator apply and
// one block-inverse apply per degree; |q(t)| < 1 on (0, b] for the error
// polynomial q, so the smoother alone converges and the symmetric
// V(k,k) cycle stays SPD. The zero-guess pre-smooth skips the (zero)
// initial operator apply.
void VoxelStressMultigrid::smooth(const Level& lvl, std::span<const double> r,
                                  std::span<double> z, int steps,
                                  bool zeroGuess) const {
  const std::int64_t dofs = static_cast<std::int64_t>(lvl.nodes) * 3;
  const double b = options_.lambdaMaxSafety * lvl.lambdaMax;
  const double a = b / options_.chebyshevEigRatio;
  const double theta = 0.5 * (b + a);
  const double delta = 0.5 * (b - a);
  const double sigma1 = theta / delta;
  double rho = 1.0 / sigma1;

  // res = r − A z (just r on a zero guess) into work.
  if (zeroGuess) {
    parallelFor(pool_, 0, dofs, kDofGrain, [&](std::int64_t i) {
      lvl.work[static_cast<std::size_t>(i)] = r[static_cast<std::size_t>(i)];
    });
  } else {
    applyLevelOperator(lvl, z, lvl.work, pool_);
    parallelFor(pool_, 0, dofs, kDofGrain, [&](std::int64_t i) {
      lvl.work[static_cast<std::size_t>(i)] =
          r[static_cast<std::size_t>(i)] -
          lvl.work[static_cast<std::size_t>(i)];
    });
  }
  // d = (1/θ) D⁻¹ res; z ⇐ z + d.
  applyBlockInverse(lvl, lvl.work, lvl.smoothD, pool_);
  const double invTheta = 1.0 / theta;
  parallelFor(pool_, 0, dofs, kDofGrain, [&](std::int64_t i) {
    lvl.smoothD[static_cast<std::size_t>(i)] *= invTheta;
    if (zeroGuess)
      z[static_cast<std::size_t>(i)] = lvl.smoothD[static_cast<std::size_t>(i)];
    else
      z[static_cast<std::size_t>(i)] +=
          lvl.smoothD[static_cast<std::size_t>(i)];
  });

  for (int k = 1; k < steps; ++k) {
    // res ⇐ res − A d, then d ⇐ ρ'ρ d + (2ρ'/δ) D⁻¹ res, z ⇐ z + d.
    applyLevelOperator(lvl, lvl.smoothD, lvl.smoothAd, pool_);
    parallelFor(pool_, 0, dofs, kDofGrain, [&](std::int64_t i) {
      lvl.work[static_cast<std::size_t>(i)] -=
          lvl.smoothAd[static_cast<std::size_t>(i)];
    });
    applyBlockInverse(lvl, lvl.work, lvl.smoothAd, pool_);
    const double rhoNew = 1.0 / (2.0 * sigma1 - rho);
    const double cd = rhoNew * rho;
    const double cr = 2.0 * rhoNew / delta;
    parallelFor(pool_, 0, dofs, kDofGrain, [&](std::int64_t i) {
      const auto s = static_cast<std::size_t>(i);
      lvl.smoothD[s] = cd * lvl.smoothD[s] + cr * lvl.smoothAd[s];
      z[s] += lvl.smoothD[s];
    });
    rho = rhoNew;
  }
}

void VoxelStressMultigrid::vcycle(std::size_t level, std::span<const double> r,
                                  std::span<double> z) const {
  const Level& lvl = *levels_[level];
  if (level + 1 == levels_.size()) {
    coarseFactor_.solve(r, z);
    return;
  }
  const Level& next = *levels_[level + 1];
  const int pre = level == 0 ? options_.preSmooth : options_.coarsePreSmooth;
  const int post =
      level == 0 ? options_.postSmooth : options_.coarsePostSmooth;

  smooth(lvl, r, z, pre, /*zeroGuess=*/true);

  // Residual, restricted to the coarse level (gather per coarse node).
  applyLevelOperator(lvl, z, lvl.work, pool_);
  const std::int64_t dofs = static_cast<std::int64_t>(lvl.nodes) * 3;
  parallelFor(pool_, 0, dofs, kDofGrain, [&](std::int64_t i) {
    lvl.work[static_cast<std::size_t>(i)] =
        r[static_cast<std::size_t>(i)] - lvl.work[static_cast<std::size_t>(i)];
  });
  parallelFor(pool_, 0, next.nodes, kNodeGrain, [&](std::int64_t cn) {
    const Index begin = lvl.restrictPtr[static_cast<std::size_t>(cn)];
    const Index end = lvl.restrictPtr[static_cast<std::size_t>(cn) + 1];
    double acc[3] = {0.0, 0.0, 0.0};
    for (Index e = begin; e < end; ++e) {
      const Index fn = lvl.restrictFine[static_cast<std::size_t>(e)];
      const double w = lvl.restrictWeight[static_cast<std::size_t>(e)];
      for (int d = 0; d < 3; ++d)
        acc[d] += w * lvl.work[static_cast<std::size_t>(fn) * 3 +
                               static_cast<std::size_t>(d)];
    }
    for (int d = 0; d < 3; ++d) {
      const auto dof = static_cast<std::size_t>(cn) * 3 +
                       static_cast<std::size_t>(d);
      next.r[dof] = next.constrained[dof] ? 0.0 : acc[d];
    }
  });

  vcycle(level + 1, next.r, next.z);

  // Prolongate the coarse correction and add (constrained dofs excluded).
  const VoxelGrid& fg = lvl.grid;
  const VoxelGrid& cg = next.grid;
  const Index fRow = fg.nx() + 1, fSlab = fRow * (fg.ny() + 1);
  parallelFor(pool_, 0, lvl.nodes, kNodeGrain, [&](std::int64_t ni) {
    const Index fn = static_cast<Index>(ni);
    const Index K = fn / fSlab;
    const Index rem = fn % fSlab;
    const Index J = rem / fRow;
    const Index I = rem % fRow;
    const Index cx = lvl.tx.c[static_cast<std::size_t>(I)];
    const Index cy = lvl.ty.c[static_cast<std::size_t>(J)];
    const Index cz = lvl.tz.c[static_cast<std::size_t>(K)];
    const double wx = lvl.tx.w[static_cast<std::size_t>(I)];
    const double wy = lvl.ty.w[static_cast<std::size_t>(J)];
    const double wz = lvl.tz.w[static_cast<std::size_t>(K)];
    double corr[3] = {0.0, 0.0, 0.0};
    for (int dk = 0; dk < 2; ++dk)
      for (int dj = 0; dj < 2; ++dj)
        for (int di = 0; di < 2; ++di) {
          const double w = (di ? wx : 1.0 - wx) * (dj ? wy : 1.0 - wy) *
                           (dk ? wz : 1.0 - wz);
          if (w == 0.0) continue;
          const Index cn = cg.nodeIndex(cx + di, cy + dj, cz + dk);
          for (int d = 0; d < 3; ++d)
            corr[d] += w * next.z[static_cast<std::size_t>(cn) * 3 +
                                  static_cast<std::size_t>(d)];
        }
    for (int d = 0; d < 3; ++d) {
      const auto dof =
          static_cast<std::size_t>(fn) * 3 + static_cast<std::size_t>(d);
      if (!lvl.constrained[dof]) z[dof] += corr[d];
    }
  });

  smooth(lvl, r, z, post, /*zeroGuess=*/false);
}

void VoxelStressMultigrid::apply(std::span<const double> r,
                                 std::span<double> z) const {
  VIADUCT_SPAN("fea.mg_cycle");
  VIADUCT_COUNTER_ADD("fea.mg_cycles", 1);
  const Level& fine = *levels_.front();
  VIADUCT_REQUIRE(r.size() == static_cast<std::size_t>(fine.nodes) * 3 &&
                  z.size() == r.size());
  vcycle(0, r, z);
  // M must preserve the constrained subspace exactly: CG's residual is
  // identically zero there and z = M⁻¹r has to keep it that way.
  const std::int64_t dofs = static_cast<std::int64_t>(fine.nodes) * 3;
  parallelFor(pool_, 0, dofs, kDofGrain, [&](std::int64_t i) {
    if (fine.constrained[static_cast<std::size_t>(i)])
      z[static_cast<std::size_t>(i)] = r[static_cast<std::size_t>(i)];
  });
}

}  // namespace viaduct
