#include "numerics/woodbury.h"

#include <cmath>

#include "common/check.h"
#include "fault/fault.h"
#include "obs/obs.h"

namespace viaduct {

WoodburyBase::WoodburyBase(CsrMatrix matrixIn,
                           std::unique_ptr<const SupernodalCholesky> factorIn,
                           std::vector<double> rhsIn)
    : matrix(std::move(matrixIn)),
      factor(std::move(factorIn)),
      rhs(std::move(rhsIn)),
      x0(factor->solve(rhs)) {
  // factor->solve(rhs) has already checked rhs against the factor.
  VIADUCT_REQUIRE(matrix.rows() == matrix.cols() &&
                  factor->size() == matrix.rows());
}

namespace {

std::shared_ptr<const WoodburyBase> privateBase(CsrMatrix g0,
                                                std::vector<double> rhs) {
  auto factor = std::make_unique<const SupernodalCholesky>(g0);
  return std::make_shared<const WoodburyBase>(std::move(g0), std::move(factor),
                                              std::move(rhs));
}

}  // namespace

WoodburySolver::WoodburySolver(CsrMatrix g0, std::vector<double> rhs,
                               const Options& options)
    : WoodburySolver(privateBase(std::move(g0), std::move(rhs)), options) {}

WoodburySolver::WoodburySolver(std::shared_ptr<const WoodburyBase> base,
                               const Options& options)
    : options_(options), base_(std::move(base)) {
  VIADUCT_REQUIRE(base_ != nullptr);
  // Adopting the base is where a solver acquires its factorization, and
  // that acquisition keeps its failure surface: every solver queries the
  // cholesky.factor site exactly once, so an armed site fails sessions
  // (and consumes one decision of the trial's fault stream) as a
  // per-session factorization would.
  if (fault::shouldInject("cholesky.factor")) {
    throw NumericalError(
        "WoodburySolver: base factorization rejected (injected fault)");
  }
}

void WoodburySolver::recordDelta(Index i, Index j, double deltaG) {
  auto check = [&](Index r, Index c) {
    VIADUCT_REQUIRE_MSG(base_->matrix.valueIndex(r, c) >= 0,
                        "branch entry absent from the sparsity structure");
  };
  if (i >= 0) check(i, i);
  if (j >= 0) check(j, j);
  if (i >= 0 && j >= 0) {
    check(i, j);
    check(j, i);
  }
  appliedDelta_[{i, j}] += deltaG;
  if (gCache_) {
    auto values = gCache_->mutableValues();
    auto bump = [&](Index r, Index c, double dv) {
      values[static_cast<std::size_t>(gCache_->valueIndex(r, c))] += dv;
    };
    if (i >= 0) bump(i, i, deltaG);
    if (j >= 0) bump(j, j, deltaG);
    if (i >= 0 && j >= 0) {
      bump(i, j, -deltaG);
      bump(j, i, -deltaG);
    }
  }
}

const CsrMatrix& WoodburySolver::currentMatrix() const {
  if (!gCache_) {
    gCache_.emplace(base_->matrix);
    auto values = gCache_->mutableValues();
    auto bump = [&](Index r, Index c, double dv) {
      values[static_cast<std::size_t>(gCache_->valueIndex(r, c))] += dv;
    };
    for (const auto& [key, d] : appliedDelta_) {
      const auto [i, j] = key;
      if (i >= 0) bump(i, i, d);
      if (j >= 0) bump(j, j, d);
      if (i >= 0 && j >= 0) {
        bump(i, j, -d);
        bump(j, i, -d);
      }
    }
  }
  return *gCache_;
}

std::vector<double> WoodburySolver::incidenceSolve(Index i, Index j) const {
  std::vector<double> a(static_cast<std::size_t>(size()), 0.0);
  if (i >= 0) a[i] = 1.0;
  if (j >= 0) a[j] = -1.0;
  return activeFactor().solve(a);
}

void WoodburySolver::foldIntoFactor() {
  auto factor = activeFactor().refactored(currentMatrix());
  privateX0_ = factor->solve(base_->rhs);
  privateFactor_ = std::move(factor);
}

void WoodburySolver::updateBranch(Index i, Index j, double deltaG) {
  VIADUCT_COUNTER_ADD("woodbury.branch_updates", 1);
  VIADUCT_REQUIRE_MSG(i != j, "branch endpoints must differ");
  VIADUCT_REQUIRE_MSG(i >= 0 || j >= 0, "at least one endpoint must be live");
  // Canonical key: the update a·aᵀ with a = e_i − e_j is symmetric in
  // (i, j), so sort the pair and keep a ground endpoint (−1) in slot j.
  if (i < 0) std::swap(i, j);
  if (j >= 0 && i > j) std::swap(i, j);
  VIADUCT_REQUIRE(i >= 0 && i < size() && j < size());

  // The accumulated deltas always describe the true updated matrix from
  // here on, so a full re-factorization is a valid recovery for anything
  // below.
  recordDelta(i, j, deltaG);

  try {
    if (fault::shouldInject("woodbury.update")) {
      throw NumericalError("Woodbury update rejected (injected fault)");
    }
    const auto key = std::make_pair(i, j);
    if (const auto it = branchIndex_.find(key); it != branchIndex_.end()) {
      branches_[it->second].deltaG += deltaG;
      // A delta that cancels back to (near) zero keeps its column; harmless.
    } else {
      Branch b;
      b.i = i;
      b.j = j;
      b.deltaG = deltaG;
      b.z = incidenceSolve(i, j);
      branchIndex_.emplace(key, branches_.size());
      branches_.push_back(std::move(b));
    }
  } catch (const NumericalError&) {
    if (!options_.policy.enabled || !options_.policy.refactorOnWoodburyFailure)
      throw;
    // Fold every accumulated delta (including this one) into the base.
    // Not rebase(): that early-returns when the update set is empty, and
    // the rejected delta must reach the factorization either way.
    VIADUCT_COUNTER_ADD("fault.policy.woodbury_refactors", 1);
    VIADUCT_COUNTER_ADD("woodbury.rebases", 1);
    foldIntoFactor();
    branchIndex_.clear();
    branches_.clear();
    ++rebases_;
    return;
  }

  if (static_cast<int>(branches_.size()) > options_.rebaseThreshold) rebase();
}

void WoodburySolver::rebase() {
  if (branches_.empty()) return;
  VIADUCT_SPAN("woodbury.rebase");
  VIADUCT_COUNTER_ADD("woodbury.rebases", 1);
  foldIntoFactor();
  branches_.clear();
  branchIndex_.clear();
  ++rebases_;
}

std::vector<double> WoodburySolver::solve() const {
  if (fault::shouldInject("woodbury.solve")) {
    throw NumericalError("Woodbury solve failed (injected fault)");
  }
  VIADUCT_COUNTER_ADD("woodbury.solves", 1);
  VIADUCT_HISTOGRAM_OBSERVE("woodbury.pending_updates", branches_.size(),
                            obs::Buckets::linear(0, 8, 16));
  std::vector<double> x = activeX0();
  const std::size_t k = branches_.size();
  if (k == 0) return x;

  // Capacitance matrix C = D⁻¹ + Uᵀ Z, with (Uᵀ Z)[m][l] = aₘᵀ z_l.
  DenseMatrix c(k, k);
  for (std::size_t m = 0; m < k; ++m) {
    VIADUCT_CHECK_MSG(std::abs(branches_[m].deltaG) > 1e-300,
                      "zero-delta branch in update set");
    for (std::size_t l = 0; l < k; ++l) {
      const Branch& bm = branches_[m];
      const Branch& bl = branches_[l];
      double utz = bl.z[bm.i];
      if (bm.j >= 0) utz -= bl.z[bm.j];
      c(m, l) = utz;
    }
    c(m, m) += 1.0 / branches_[m].deltaG;
  }

  // w = Uᵀ x0.
  std::vector<double> w(k);
  for (std::size_t m = 0; m < k; ++m) {
    const Branch& bm = branches_[m];
    w[m] = x[bm.i] - (bm.j >= 0 ? x[bm.j] : 0.0);
  }

  const std::vector<double> y = c.solve(w);

  // x -= Z y.
  for (std::size_t m = 0; m < k; ++m) {
    const double ym = y[m];
    if (ym == 0.0) continue;
    const auto& z = branches_[m].z;
    for (std::size_t r = 0; r < x.size(); ++r) x[r] -= z[r] * ym;
  }
  return x;
}

}  // namespace viaduct
