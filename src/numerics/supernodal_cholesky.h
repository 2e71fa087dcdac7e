// Supernodal (blocked) sparse Cholesky for PG-scale conductance systems.
//
// Columns with identical below-diagonal structure are grouped into
// supernodes on the postordered elimination tree and stored as contiguous
// column-major dense panels. The numeric factorization is left-looking over
// supernodes: each panel gathers the rank-w outer-product updates of its
// descendant supernodes through 4-way-unrolled dense kernels (the same
// register-blocking idioms as DenseCholeskyFactor), then factors its
// diagonal block densely. Supernodes are scheduled by elimination-tree
// level: every supernode of a level depends only on strictly earlier
// levels, so a level is one ThreadPool pass. Each panel is produced by
// exactly one task applying its update list in a fixed order, making the
// factor bit-identical for every pool size (including no pool).
//
// Compared to a scalar up-looking factorization (the test oracle in
// tests/support/cholesky.h) this trades pointer chasing for dense panel
// arithmetic; with AMD ordering it factors million-node power-grid meshes
// in seconds where the banded RCM factor would not even fit in memory.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "numerics/ordering.h"
#include "numerics/sparse.h"

namespace viaduct {

class ThreadPool;

class SupernodalCholesky {
 public:
  /// Factors the SPD matrix `a`. `pool` parallelizes the numeric
  /// factorization level by level (nullptr = serial; same bits either way).
  /// Throws NumericalError if `a` is not positive definite.
  explicit SupernodalCholesky(const CsrMatrix& a,
                              OrderingChoice ordering = OrderingChoice::kAmd,
                              ThreadPool* pool = nullptr);

  Index size() const { return n_; }
  std::size_t factorNonZeroCount() const;

  /// Solves A x = b in the original (unpermuted) ordering.
  std::vector<double> solve(std::span<const double> b) const {
    std::vector<double> x(b.size());
    solve(b, x);
    return x;
  }

  /// Serial triangular solves (thread-safe: allocates locally).
  void solve(std::span<const double> b, std::span<double> x) const;

  /// Level-scheduled parallel triangular solves. Bit-identical for every
  /// pool size (contributions are scattered in a fixed serial order per
  /// level) but may differ from the serial solve() in the last ulps, whose
  /// scatter order interleaves levels differently.
  void solve(std::span<const double> b, std::span<double> x,
             ThreadPool* pool) const;

  /// Copy-on-write numeric re-factorization on the same structure, returned
  /// as a fresh factor sharing the symbolic analysis (ordering, etree,
  /// supernode partition, update lists); the receiver, possibly shared
  /// across threads, is untouched. Runs serially — rebases happen per
  /// Monte Carlo trial, inside worker threads.
  std::unique_ptr<SupernodalCholesky> refactored(const CsrMatrix& a) const;

  // Introspection for tests and the scaling bench.
  Index supernodeCount() const;
  Index levelCount() const;

 private:
  struct Symbolic;

  SupernodalCholesky(std::shared_ptr<const Symbolic> symbolic,
                     const CsrMatrix& a);

  static std::shared_ptr<const Symbolic> analyze(const CsrMatrix& a,
                                                 OrderingChoice ordering);
  CsrMatrix permuted(const CsrMatrix& a) const;
  void numericFactor(const CsrMatrix& permuted, ThreadPool* pool);
  void factorSupernode(Index s, const CsrMatrix& permuted);

  Index n_ = 0;
  std::shared_ptr<const Symbolic> sym_;
  /// All dense panels, column-major per supernode, at sym_->panelOffset[s].
  std::vector<double> panels_;
};

}  // namespace viaduct
