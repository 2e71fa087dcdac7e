#include "support/cholesky.h"

#include <cmath>

#include "common/check.h"
#include "fault/fault.h"
#include "obs/obs.h"

namespace viaduct {

SparseCholesky::SparseCholesky(const CsrMatrix& a, OrderingChoice ordering) {
  VIADUCT_SPAN("cholesky.factorize");
  VIADUCT_COUNTER_ADD("cholesky.factorizations", 1);
  VIADUCT_REQUIRE_MSG(a.rows() == a.cols(), "Cholesky needs a square matrix");
  n_ = a.rows();
  Ordering ord = makeOrdering(a, ordering);
  const CsrMatrix p = permuteSymmetric(a, ord);
  sym_ = analyze(p, std::move(ord));
  allocateNumeric();
  numericFactor(p);
  VIADUCT_GAUGE_SET("cholesky.factor_nnz", static_cast<double>(values_.size()));
  VIADUCT_GAUGE_SET("cholesky.fill_ratio",
                    aValues_.empty() ? 1.0
                                     : static_cast<double>(values_.size()) /
                                           static_cast<double>(aValues_.size()));
}

CsrMatrix SparseCholesky::permuted(const CsrMatrix& a) const {
  // Identity orderings skip the permutation copy entirely.
  for (Index i = 0; i < n_; ++i) {
    if (sym_->ordering.perm[static_cast<std::size_t>(i)] != i)
      return permuteSymmetric(a, sym_->ordering);
  }
  return a;
}

std::shared_ptr<const SparseCholesky::Symbolic> SparseCholesky::analyze(
    const CsrMatrix& permuted, Ordering ordering) {
  auto sym = std::make_shared<Symbolic>();
  const Index n = permuted.rows();
  sym->n = n;
  sym->ordering = std::move(ordering);

  // Extract the lower-triangle pattern row-wise: row k holds {j: A(k,j),
  // j <= k}, sorted by j, which is exactly column k of the upper triangle.
  sym->aRowPtr.assign(static_cast<std::size_t>(n) + 1, 0);
  const auto rp = permuted.rowPointers();
  const auto ci = permuted.colIndices();
  for (Index r = 0; r < n; ++r) {
    for (Index k = rp[r]; k < rp[r + 1]; ++k) {
      if (ci[k] <= r) sym->aColIdx.push_back(ci[k]);
    }
    sym->aRowPtr[r + 1] = static_cast<Index>(sym->aColIdx.size());
  }

  // Elimination tree (Liu's algorithm with path compression via ancestors).
  sym->parent.assign(static_cast<std::size_t>(n), -1);
  std::vector<Index> ancestor(static_cast<std::size_t>(n), -1);
  for (Index k = 0; k < n; ++k) {
    for (Index p = sym->aRowPtr[k]; p < sym->aRowPtr[k + 1]; ++p) {
      Index i = sym->aColIdx[p];
      while (i != -1 && i < k) {
        const Index next = ancestor[i];
        ancestor[i] = k;
        if (next == -1) {
          sym->parent[i] = k;
          break;
        }
        i = next;
      }
    }
  }

  // Column counts of L via one ereach sweep (counts include the diagonal).
  std::vector<Index> counts(static_cast<std::size_t>(n), 1);
  std::vector<Index> mark(static_cast<std::size_t>(n), -1);
  for (Index k = 0; k < n; ++k) {
    mark[k] = k;  // mark the diagonal so walks stop at k
    for (Index p = sym->aRowPtr[k]; p < sym->aRowPtr[k + 1]; ++p) {
      Index i = sym->aColIdx[p];
      if (i == k) continue;
      while (mark[i] != k) {
        mark[i] = k;
        counts[i]++;  // L(k,i) exists
        i = sym->parent[i];
        VIADUCT_CHECK(i != -1);
      }
    }
  }

  sym->colPtr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (Index j = 0; j < n; ++j) sym->colPtr[j + 1] = sym->colPtr[j] + counts[j];
  return sym;
}

void SparseCholesky::allocateNumeric() {
  aValues_.assign(sym_->aColIdx.size(), 0.0);
  rowIdx_.assign(static_cast<std::size_t>(sym_->colPtr[n_]), 0);
  values_.assign(static_cast<std::size_t>(sym_->colPtr[n_]), 0.0);
  stack_.resize(static_cast<std::size_t>(n_));
  mark_.assign(static_cast<std::size_t>(n_), -1);
  work_.assign(static_cast<std::size_t>(n_), 0.0);
  colNext_.assign(static_cast<std::size_t>(n_), 0);
}

void SparseCholesky::numericFactor(const CsrMatrix& permuted) {
  // Covers the constructor and refactor() paths; mimics the
  // organic failure mode (loss of positive definiteness) below.
  if (fault::shouldInject("cholesky.factor")) {
    throw NumericalError(
        "SparseCholesky: matrix is not positive definite (injected fault)");
  }
  const std::span<const Index> aRowPtr = sym_->aRowPtr;
  const std::span<const Index> aColIdx = sym_->aColIdx;
  const std::span<const Index> parent = sym_->parent;
  const std::span<const Index> colPtr = sym_->colPtr;

  // Refresh numeric values of the stored lower-triangle rows (structure
  // must match the analyzed matrix).
  {
    const auto rp = permuted.rowPointers();
    const auto ci = permuted.colIndices();
    const auto va = permuted.values();
    std::size_t out = 0;
    for (Index r = 0; r < n_; ++r) {
      for (Index k = rp[r]; k < rp[r + 1]; ++k) {
        if (ci[k] <= r) {
          VIADUCT_CHECK_MSG(out < aColIdx.size() && aColIdx[out] == ci[k],
                            "refactor: sparsity structure changed");
          aValues_[out++] = va[k];
        }
      }
    }
    VIADUCT_CHECK(out == aValues_.size());
  }

  // Reset column fill cursors: first slot of each column is the diagonal.
  for (Index j = 0; j < n_; ++j) {
    rowIdx_[colPtr[j]] = j;
    colNext_[j] = colPtr[j] + 1;
  }
  std::fill(mark_.begin(), mark_.end(), -1);
  std::fill(work_.begin(), work_.end(), 0.0);

  // Up-looking factorization, row k at a time.
  for (Index k = 0; k < n_; ++k) {
    // ereach: pattern of row k of L (excluding diagonal), topological order.
    Index top = n_;
    mark_[k] = k;
    double dkk = 0.0;
    for (Index p = aRowPtr[k]; p < aRowPtr[k + 1]; ++p) {
      const Index col = aColIdx[p];
      if (col == k) {
        dkk = aValues_[p];
        continue;
      }
      work_[col] = aValues_[p];
      Index len = 0;
      Index i = col;
      while (mark_[i] != k) {
        mark_[i] = k;
        stack_[len++] = i;
        i = parent[i];
      }
      // Push the path in reverse so that stack_[top..n) is topological.
      while (len > 0) stack_[--top] = stack_[--len];
    }

    // Sparse triangular elimination along the pattern.
    for (Index s = top; s < n_; ++s) {
      const Index j = stack_[s];
      const double ljj = values_[colPtr[j]];
      const double lkj = work_[j] / ljj;
      work_[j] = 0.0;
      // Subtract lkj * L(:, j) for rows > j already present in column j.
      for (Index p = colPtr[j] + 1; p < colNext_[j]; ++p)
        work_[rowIdx_[p]] -= values_[p] * lkj;
      dkk -= lkj * lkj;
      // Append L(k, j) to column j (rows arrive in increasing k).
      const Index slot = colNext_[j]++;
      VIADUCT_CHECK(slot < colPtr[j + 1]);
      rowIdx_[slot] = k;
      values_[slot] = lkj;
    }

    if (!(dkk > 0.0))
      throw NumericalError(
          "SparseCholesky: matrix is not positive definite at pivot " +
          std::to_string(k));
    values_[colPtr[k]] = std::sqrt(dkk);
  }
}

void SparseCholesky::refactor(const CsrMatrix& a) {
  VIADUCT_SPAN("cholesky.refactor");
  VIADUCT_COUNTER_ADD("cholesky.refactorizations", 1);
  VIADUCT_REQUIRE(a.rows() == n_ && a.cols() == n_);
  numericFactor(permuted(a));
}

void SparseCholesky::solve(std::span<const double> b,
                           std::span<double> x) const {
  VIADUCT_COUNTER_ADD("cholesky.triangular_solves", 1);
  VIADUCT_REQUIRE(b.size() == static_cast<std::size_t>(n_) &&
                  x.size() == b.size());
  const std::span<const Index> colPtr = sym_->colPtr;
  std::vector<double> y = permuteVector(b, sym_->ordering);
  // Forward: L y' = y.
  for (Index j = 0; j < n_; ++j) {
    const Index start = colPtr[j];
    y[j] /= values_[start];
    const double yj = y[j];
    for (Index p = start + 1; p < colPtr[j + 1]; ++p)
      y[rowIdx_[p]] -= values_[p] * yj;
  }
  // Backward: Lᵀ z = y'.
  for (Index j = n_; j-- > 0;) {
    const Index start = colPtr[j];
    double s = y[j];
    for (Index p = start + 1; p < colPtr[j + 1]; ++p)
      s -= values_[p] * y[rowIdx_[p]];
    y[j] = s / values_[start];
  }
  const std::vector<double> out = unpermuteVector(y, sym_->ordering);
  std::copy(out.begin(), out.end(), x.begin());
}

}  // namespace viaduct
