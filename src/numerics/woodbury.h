// Incremental solves of one fixed system G x = b under a sequence of branch
// (two-terminal) conductance changes, via the Sherman–Morrison–Woodbury
// identity.
//
// The grid Monte Carlo (Algorithm 1, level 2) fails via arrays one at a
// time; each failure changes one branch conductance. With G = G0 + U D Uᵀ
// (U columns are ±1 incidence vectors of the changed branches, D the
// conductance deltas),
//   G⁻¹ b = x0 − Z (D⁻¹ + Uᵀ Z)⁻¹ Uᵀ x0,   Z = G0⁻¹ U,   x0 = G0⁻¹ b.
// The right-hand side is fixed, so x0 is solved once, next to the base
// factorization, and shared. A column z = G0⁻¹ a of Z depends only on the
// base and the branch, so the base also memoizes the columns of the
// branches it was told about (the grid's via-array sites): the first
// failure of such a branch in any solver costs one factored solve, every
// later one a pointer copy. Each voltage evaluation costs a dense k×k solve
// plus the O(n·k) correction, with no triangular solve at all, where k is
// the number of distinct changed branches so far. When k exceeds
// `rebaseThreshold`, the updates are folded into G0: the matrix is
// re-factored numerically into a private factor (symbolic analysis reused)
// and x0 is re-solved once on it; from then on that solver solves its own
// columns on the private factor.
//
// The base (G0, its factorization, b, x0 and the column memo) is an
// immutable WoodburyBase built once, e.g. per PowerGridModel, and shared
// read-only by every solver on every thread. Adopting it is O(1); a solver
// never touches it, promoting to a private factor only when it has to
// rebase.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "fault/policy.h"
#include "numerics/dense.h"
#include "numerics/sparse.h"
#include "numerics/supernodal_cholesky.h"

namespace viaduct {

/// The fixed system G0 x0 = b a WoodburySolver starts from.
struct WoodburyBase {
  /// Default byte budget of the column memo.
  static constexpr std::size_t kDefaultColumnMemoBytes = std::size_t{64} << 20;

  /// Adopts `factor`, a factorization of `matrix`, and solves x0 once.
  /// `memoBranches` lists the branches (i, j) whose columns G0⁻¹(e_i − e_j)
  /// are memoized, in any endpoint order (−1 for ground); the memo holds
  /// at most `memoBudgetBytes` of columns, and a branch past the budget is
  /// solved by each solver that changes it.
  WoodburyBase(CsrMatrix matrix,
               std::unique_ptr<const SupernodalCholesky> factor,
               std::vector<double> rhs,
               const std::vector<std::pair<Index, Index>>& memoBranches = {},
               std::size_t memoBudgetBytes = kDefaultColumnMemoBytes);
  ~WoodburyBase();

  const CsrMatrix matrix;
  const std::unique_ptr<const SupernodalCholesky> factor;
  const std::vector<double> rhs;
  const std::vector<double> x0;  // factor->solve(rhs)

  /// The memoized column G0⁻¹(e_i − e_j) of branch (i, j) in canonical
  /// order (i < j, or j = −1 for ground), solved on first touch with
  /// factor->solve and immutable afterwards. Null when the branch has no
  /// memo slot or the byte budget was spent before its first touch.
  /// Thread-safe; once a slot is filled, a touch takes no lock.
  const std::vector<double>* memoColumn(Index i, Index j) const;

  /// Bytes of memoized columns so far (never above the budget).
  std::size_t memoBytes() const;

 private:
  struct MemoSlot;

  std::vector<std::pair<Index, Index>> memoKeys_;  // sorted, canonical
  std::unique_ptr<MemoSlot[]> memoSlots_;          // one per key
  const std::size_t memoBudgetBytes_;
  mutable std::mutex memoFillMutex_;  // guards memoBytes_
  mutable std::size_t memoBytes_ = 0;
};

class WoodburySolver {
 public:
  struct Options {
    /// Fold updates into the base factorization when the number of distinct
    /// changed branches exceeds this.
    int rebaseThreshold = 48;
    /// Recovery behavior when an incremental update is rejected: with
    /// `refactorOnWoodburyFailure` the delta (already applied to the
    /// tracked matrix) is folded into a fresh base factorization instead
    /// of propagating the failure.
    fault::FailurePolicy policy;
  };

  /// Adopts a shared base; performs no factorization or solve.
  explicit WoodburySolver(std::shared_ptr<const WoodburyBase> base)
      : WoodburySolver(std::move(base), Options{}) {}
  WoodburySolver(std::shared_ptr<const WoodburyBase> base,
                 const Options& options);

  /// Builds a private base for G0 = `g0` (must be SPD; factored with
  /// supernodal Cholesky + AMD) and b = `rhs`.
  WoodburySolver(CsrMatrix g0, std::vector<double> rhs)
      : WoodburySolver(std::move(g0), std::move(rhs), Options{}) {}
  WoodburySolver(CsrMatrix g0, std::vector<double> rhs,
                 const Options& options);

  Index size() const { return base_->matrix.rows(); }

  /// Applies a conductance delta to branch (i, j). Node index -1 denotes
  /// ground (an eliminated node), giving a rank-1 update on a single node.
  /// Requires i != j and at least one of them >= 0. The branch entries must
  /// exist in the sparsity structure of g0 (true for any branch that was
  /// stamped at build time). The resulting matrix must remain SPD — a fully
  /// disconnected node would make it singular and the next solve throws.
  void updateBranch(Index i, Index j, double deltaG);

  /// Solves G x = b, b the base's right-hand side, with the current
  /// accumulated updates. With none pending this is x0 itself.
  std::vector<double> solve() const;

  /// Number of distinct branches currently tracked as low-rank updates
  /// (zero right after construction or a rebase).
  int pendingUpdateCount() const { return static_cast<int>(branches_.size()); }

  /// Total rebase operations performed (for instrumentation/ablation).
  int rebaseCount() const { return rebases_; }

  /// Forces folding updates into the base factorization now.
  void rebase();

  /// Read access to the current (updated) matrix values, materialized
  /// lazily (the common trial never needs it).
  const CsrMatrix& currentMatrix() const;

 private:
  struct Branch {
    Index i;
    Index j;
    double deltaG;  // accumulated conductance change
    /// G0⁻¹ a, a = e_i − e_j (G0 the active factor's matrix when the
    /// branch entered the update set): the base's memoized column, or
    /// `ownZ` when the branch has none.
    const std::vector<double>* memoZ = nullptr;
    std::vector<double> ownZ;
    const std::vector<double>& z() const { return memoZ ? *memoZ : ownZ; }
  };

  /// The factor and base solution solves start from: the private pair
  /// once a rebase made one, otherwise the shared base's.
  const SupernodalCholesky& activeFactor() const {
    return privateFactor_ ? *privateFactor_ : *base_->factor;
  }
  const std::vector<double>& activeX0() const {
    return privateFactor_ ? privateX0_ : base_->x0;
  }

  void recordDelta(Index i, Index j, double deltaG);
  void foldIntoFactor();
  std::vector<double> incidenceSolve(Index i, Index j) const;

  Options options_;
  std::shared_ptr<const WoodburyBase> base_;
  std::unique_ptr<SupernodalCholesky> privateFactor_;  // after a rebase
  std::vector<double> privateX0_;  // privateFactor_⁻¹ b

  /// Accumulated branch deltas relative to base_->matrix (canonical keys),
  /// and the lazily materialized current matrix (base plus those deltas).
  std::map<std::pair<Index, Index>, double> appliedDelta_;
  mutable std::optional<CsrMatrix> gCache_;

  std::map<std::pair<Index, Index>, std::size_t> branchIndex_;
  std::vector<Branch> branches_;
  int rebases_ = 0;
};

}  // namespace viaduct
