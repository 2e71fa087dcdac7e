// Test oracle for the level-1 via-array network: re-stamps the network's
// current failure state and solves it from scratch by dense LU with partial
// pivoting. It shares nothing with the production solve (shared-base
// Cholesky factor, rank-1 downdates, residual-guarded refresh) but the
// stamping, so it checks every downdate sequence against first principles.
#pragma once

#include <vector>

#include "viaarray/network.h"

namespace viaduct {

struct ExactNetworkSolution {
  /// Per-via currents [A]; failed vias carry 0.
  std::vector<double> viaCurrents;
  /// Feed-to-drain resistance [Ω].
  double effectiveResistance = 0.0;
};

/// Solves `net`'s current failure state exactly. Throws NumericalError
/// when no via conducts, as the network's own queries do.
ExactNetworkSolution solveNetworkExactly(const ViaArrayNetwork& net);

}  // namespace viaduct
