// Preconditioned conjugate gradient for SPD systems.
#pragma once

#include <span>
#include <vector>

#include "numerics/preconditioner.h"
#include "numerics/sparse.h"

namespace viaduct {

/// Abstract SPD operator for matrix-free solvers (e.g. the FEA engine,
/// whose voxel elements share a handful of distinct stiffness matrices and
/// never assemble a global matrix).
class LinearOperator {
 public:
  virtual ~LinearOperator() = default;
  virtual Index size() const = 0;
  /// y = A x.
  virtual void apply(std::span<const double> x, std::span<double> y) const = 0;
};

struct CgOptions {
  /// Relative residual target: stop when ||r|| <= tol * ||b||.
  double relativeTolerance = 1e-9;
  /// Absolute floor for the stopping criterion (useful when b ~ 0).
  double absoluteTolerance = 1e-300;
  int maxIterations = 10000;
  /// If true, a non-converged solve throws NumericalError; otherwise the
  /// result reports converged = false and the best iterate is returned.
  bool throwOnStall = true;
  /// Optional pool for the axpy/dot/update kernels (the operator and the
  /// preconditioner parallelize themselves). Reductions always sum in
  /// fixed kVectorOpGrain chunks, so the iterate sequence is bit-identical
  /// for every pool size, nullptr (serial) included — which is what makes
  /// threaded FEA deterministic.
  ThreadPool* pool = nullptr;
};

struct CgResult {
  int iterations = 0;
  double relativeResidual = 0.0;
  bool converged = false;
};

/// Solves A x = b with PCG. `x` holds the initial guess on input (warm
/// start) and the solution on output.
CgResult conjugateGradient(const LinearOperator& a, std::span<const double> b,
                           std::span<double> x, const Preconditioner& m,
                           const CgOptions& options = {});

}  // namespace viaduct
