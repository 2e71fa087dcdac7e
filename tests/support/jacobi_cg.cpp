#include "support/jacobi_cg.h"

#include <algorithm>

#include "common/check.h"
#include "obs/obs.h"

namespace viaduct {

void IdentityPreconditioner::apply(std::span<const double> r,
                                   std::span<double> z) const {
  VIADUCT_REQUIRE(r.size() == z.size());
  std::copy(r.begin(), r.end(), z.begin());
}

JacobiPreconditioner::JacobiPreconditioner(const CsrMatrix& a) {
  VIADUCT_SPAN("precond.jacobi_setup");
  VIADUCT_REQUIRE(a.rows() == a.cols());
  invDiag_ = a.diagonal();
  for (double& d : invDiag_) d = (d > 1e-300) ? 1.0 / d : 1.0;
}

void JacobiPreconditioner::apply(std::span<const double> r,
                                 std::span<double> z) const {
  VIADUCT_REQUIRE(r.size() == invDiag_.size() && z.size() == r.size());
  for (std::size_t i = 0; i < r.size(); ++i) z[i] = invDiag_[i] * r[i];
}

CgResult conjugateGradient(const CsrMatrix& a, std::span<const double> b,
                           std::span<double> x, const Preconditioner& m,
                           const CgOptions& options) {
  VIADUCT_REQUIRE(a.rows() == a.cols());
  const CsrOperator op(a, options.pool);
  return conjugateGradient(op, b, x, m, options);
}

std::vector<double> solveCgJacobi(const CsrMatrix& a, std::span<const double> b,
                                  const CgOptions& options) {
  std::vector<double> x(b.size(), 0.0);
  const JacobiPreconditioner m(a);
  conjugateGradient(a, b, x, m, options);
  return x;
}

}  // namespace viaduct
