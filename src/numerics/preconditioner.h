// Preconditioner interface for the conjugate-gradient solver.
//
// Production CG has one implementation, the geometric-multigrid V-cycle of
// the FEA engine (fea/multigrid.h).
#pragma once

#include <span>

namespace viaduct {

/// Interface: z = M^{-1} r for an SPD approximation M of A.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;
  virtual void apply(std::span<const double> r, std::span<double> z) const = 0;
  virtual const char* name() const = 0;
};

}  // namespace viaduct
