// Sparse Cholesky factorization (up-looking, elimination-tree based, in the
// style of CSparse's cs_chol) with a fill-reducing pre-ordering.
//
// Test oracle: the reference solve that tests and bench/perf_grid_scale
// hold the grid engine's supernodal factor (numerics/supernodal_cholesky.h)
// and Woodbury updates against. Production never runs it.
//
// The symbolic analysis (ordering, permuted lower-triangle pattern,
// elimination tree, column pointers) is computed once: refactor() pays only
// the numeric sweep, never a second ordering or etree pass.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "numerics/ordering.h"
#include "numerics/sparse.h"

namespace viaduct {

class SparseCholesky {
 public:
  /// Factors the SPD matrix `a`. Throws NumericalError if `a` is not
  /// positive definite.
  explicit SparseCholesky(const CsrMatrix& a,
                          OrderingChoice ordering = OrderingChoice::kRcm);

  Index size() const { return n_; }
  std::size_t factorNonZeroCount() const { return values_.size(); }

  /// Solves A x = b (in the ORIGINAL ordering; permutation is internal).
  std::vector<double> solve(std::span<const double> b) const {
    std::vector<double> x(b.size());
    solve(b, x);
    return x;
  }

  /// In-place variant writing into `x`. Thread-safe (allocates locally).
  void solve(std::span<const double> b, std::span<double> x) const;

  /// Re-factors numerically with new values on the SAME sparsity structure
  /// (same row/col pattern as the constructor matrix). Faster than a fresh
  /// construction because symbolic analysis is reused.
  void refactor(const CsrMatrix& a);

 private:
  /// Everything value-independent.
  struct Symbolic {
    Index n = 0;
    Ordering ordering;
    // CSR of the lower triangle of the permuted matrix (columns of the
    // upper triangle), the access pattern up-looking factorization needs.
    std::vector<Index> aRowPtr;
    std::vector<Index> aColIdx;
    // Elimination tree and per-column entry pointers of L (CSC, diagonal
    // first; size n+1).
    std::vector<Index> parent;
    std::vector<Index> colPtr;
  };

  static std::shared_ptr<const Symbolic> analyze(const CsrMatrix& permuted,
                                                 Ordering ordering);
  CsrMatrix permuted(const CsrMatrix& a) const;
  void allocateNumeric();
  void numericFactor(const CsrMatrix& permuted);

  Index n_ = 0;
  std::shared_ptr<const Symbolic> sym_;

  // Numeric values of the stored lower-triangle rows (pattern in sym_).
  std::vector<double> aValues_;

  // Numeric factor (pattern rebuilt per factorization; values per factor).
  std::vector<Index> rowIdx_;
  std::vector<double> values_;

  // Workspaces reused across refactorizations (never touched by solve()).
  std::vector<Index> stack_;
  std::vector<Index> mark_;
  std::vector<double> work_;
  std::vector<Index> colNext_;
};

}  // namespace viaduct
