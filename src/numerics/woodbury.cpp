#include "numerics/woodbury.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <tuple>

#include "common/check.h"
#include "fault/fault.h"
#include "obs/obs.h"

namespace viaduct {

namespace {

/// Smallest |accumulated delta| a branch in the update set may carry: the
/// capacitance matrix holds 1/delta.
constexpr double kMinBranchDelta = 1e-300;

std::vector<double> incidenceVector(Index n, Index i, Index j) {
  std::vector<double> a(static_cast<std::size_t>(n), 0.0);
  if (i >= 0) a[static_cast<std::size_t>(i)] = 1.0;
  if (j >= 0) a[static_cast<std::size_t>(j)] = -1.0;
  return a;
}

/// Canonical key of branch (i, j): the update a·aᵀ with a = e_i − e_j is
/// symmetric in (i, j), so the pair is sorted and a ground endpoint (−1)
/// kept in slot j.
std::pair<Index, Index> canonicalBranch(Index i, Index j) {
  if (i < 0) std::swap(i, j);
  if (j >= 0 && i > j) std::swap(i, j);
  return {i, j};
}

}  // namespace

/// One memoized column: decided once (filled, or left empty past the
/// budget) under `once`, then published through `column`.
struct WoodburyBase::MemoSlot {
  std::once_flag once;
  std::vector<double> storage;
  std::atomic<const std::vector<double>*> column{nullptr};
};

WoodburyBase::WoodburyBase(CsrMatrix matrixIn,
                           std::unique_ptr<const SupernodalCholesky> factorIn,
                           std::vector<double> rhsIn,
                           const std::vector<std::pair<Index, Index>>& memoBranches,
                           std::size_t memoBudgetBytes)
    : matrix(std::move(matrixIn)),
      factor(std::move(factorIn)),
      rhs(std::move(rhsIn)),
      x0(factor->solve(rhs)),
      memoBudgetBytes_(memoBudgetBytes) {
  // factor->solve(rhs) has already checked rhs against the factor.
  VIADUCT_REQUIRE(matrix.rows() == matrix.cols() &&
                  factor->size() == matrix.rows());
  memoKeys_.reserve(memoBranches.size());
  for (const auto& [i, j] : memoBranches) {
    VIADUCT_REQUIRE(i != j && (i >= 0 || j >= 0) && i < matrix.rows() &&
                    j < matrix.rows());
    memoKeys_.push_back(canonicalBranch(i, j));
  }
  std::sort(memoKeys_.begin(), memoKeys_.end());
  memoKeys_.erase(std::unique(memoKeys_.begin(), memoKeys_.end()),
                  memoKeys_.end());
  memoSlots_ = std::make_unique<MemoSlot[]>(memoKeys_.size());
}

WoodburyBase::~WoodburyBase() = default;

const std::vector<double>* WoodburyBase::memoColumn(Index i, Index j) const {
  const auto key = std::make_pair(i, j);
  const auto it = std::lower_bound(memoKeys_.begin(), memoKeys_.end(), key);
  if (it == memoKeys_.end() || *it != key) return nullptr;
  MemoSlot& slot = memoSlots_[static_cast<std::size_t>(it - memoKeys_.begin())];
  if (const auto* z = slot.column.load(std::memory_order_acquire)) {
    VIADUCT_COUNTER_ADD("woodbury.column_memo_hits", 1);
    return z;
  }
  bool solved = false;
  std::call_once(slot.once, [&] {
    const std::size_t bytes =
        static_cast<std::size_t>(matrix.rows()) * sizeof(double);
    {
      // Fills are rare (once per branch): the budget reservation and the
      // gauge are serialized, so the gauge ends on the memo's final size.
      std::lock_guard<std::mutex> lock(memoFillMutex_);
      if (bytes > memoBudgetBytes_ - memoBytes_) return;
      memoBytes_ += bytes;
      VIADUCT_GAUGE_SET("woodbury.column_memo_bytes", memoBytes_);
    }
    slot.storage = factor->solve(incidenceVector(matrix.rows(), i, j));
    solved = true;
    VIADUCT_COUNTER_ADD("woodbury.column_memo_misses", 1);
    slot.column.store(&slot.storage, std::memory_order_release);
  });
  const auto* z = slot.column.load(std::memory_order_acquire);
  if (z && !solved) VIADUCT_COUNTER_ADD("woodbury.column_memo_hits", 1);
  return z;
}

std::size_t WoodburyBase::memoBytes() const {
  std::lock_guard<std::mutex> lock(memoFillMutex_);
  return memoBytes_;
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
  VIADUCT_COUNTER_ADD("woodbury.column_memo_misses", 1);
  return activeFactor().solve(incidenceVector(size(), i, j));
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
  std::tie(i, j) = canonicalBranch(i, j);
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
      const std::size_t at = it->second;
      branches_[at].deltaG += deltaG;
      // A delta that cancels back to zero leaves the update set: its
      // capacitance entry 1/delta would not exist.
      if (!(std::abs(branches_[at].deltaG) > kMinBranchDelta)) {
        branches_.erase(branches_.begin() + static_cast<std::ptrdiff_t>(at));
        branchIndex_.erase(it);
        for (auto& entry : branchIndex_)
          if (entry.second > at) --entry.second;
      }
    } else if (std::abs(deltaG) > kMinBranchDelta) {
      Branch b;
      b.i = i;
      b.j = j;
      b.deltaG = deltaG;
      // The base's memo holds columns of the base factor only; after a
      // rebase every column is solved on the private factor.
      if (!privateFactor_) b.memoZ = base_->memoColumn(i, j);
      if (!b.memoZ) b.ownZ = incidenceSolve(i, j);
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
    VIADUCT_CHECK_MSG(std::abs(branches_[m].deltaG) > kMinBranchDelta,
                      "zero-delta branch in update set");
    for (std::size_t l = 0; l < k; ++l) {
      const Branch& bm = branches_[m];
      const Branch& bl = branches_[l];
      const std::vector<double>& zl = bl.z();
      double utz = zl[bm.i];
      if (bm.j >= 0) utz -= zl[bm.j];
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
    const std::vector<double>& z = branches_[m].z();
    for (std::size_t r = 0; r < x.size(); ++r) x[r] -= z[r] * ym;
  }
  return x;
}

}  // namespace viaduct
