// Test oracles for the CG solver over assembled matrices: the identity and
// Jacobi preconditioners, a CsrMatrix adapter to LinearOperator, and the
// zero-guess Jacobi-CG convenience solve. Production CG runs matrix-free
// with the multigrid preconditioner (fea/multigrid.h); these exist so tests
// can drive numerics/cg.h on small SPD systems and cross-check solvers.
#pragma once

#include <span>
#include <vector>

#include "numerics/cg.h"
#include "numerics/preconditioner.h"
#include "numerics/sparse.h"

namespace viaduct {

/// Identity (no preconditioning).
class IdentityPreconditioner final : public Preconditioner {
 public:
  void apply(std::span<const double> r, std::span<double> z) const override;
  const char* name() const override { return "identity"; }
};

/// Diagonal (Jacobi) preconditioner. Zero/negative diagonals are clamped.
class JacobiPreconditioner final : public Preconditioner {
 public:
  explicit JacobiPreconditioner(const CsrMatrix& a);
  void apply(std::span<const double> r, std::span<double> z) const override;
  const char* name() const override { return "jacobi"; }

 private:
  std::vector<double> invDiag_;
};

/// Adapts a CsrMatrix to the LinearOperator interface. With a pool the
/// product is row-partitioned (bit-identical to serial for any pool size).
class CsrOperator final : public LinearOperator {
 public:
  explicit CsrOperator(const CsrMatrix& a, ThreadPool* pool = nullptr)
      : a_(a), pool_(pool) {}
  Index size() const override { return a_.rows(); }
  void apply(std::span<const double> x, std::span<double> y) const override {
    a_.multiply(x, y, pool_);
  }

 private:
  const CsrMatrix& a_;
  ThreadPool* pool_ = nullptr;
};

/// CsrMatrix convenience overload.
CgResult conjugateGradient(const CsrMatrix& a, std::span<const double> b,
                           std::span<double> x, const Preconditioner& m,
                           const CgOptions& options = {});

/// Convenience overload: zero initial guess, Jacobi preconditioner.
std::vector<double> solveCgJacobi(const CsrMatrix& a,
                                  std::span<const double> b,
                                  const CgOptions& options = {});

}  // namespace viaduct
