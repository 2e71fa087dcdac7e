#include "support/exact_network.h"

#include "common/check.h"
#include "numerics/dense.h"

namespace viaduct {

ExactNetworkSolution solveNetworkExactly(const ViaArrayNetwork& net) {
  if (net.aliveCount() == 0)
    throw NumericalError("via array fully failed: no conducting path");
  const ViaArrayNetworkConfig& cfg = net.config();
  const int plate = cfg.n * cfg.n;
  const auto feed = static_cast<std::size_t>(2 * plate);
  std::vector<double> rhs(feed + 1, 0.0);
  rhs[feed] = cfg.totalCurrentAmps;
  const std::vector<double> v = net.currentMatrix().solve(rhs);

  const double gVia = 1.0 / (cfg.arrayResistanceOhms * plate);
  ExactNetworkSolution out;
  out.viaCurrents.assign(static_cast<std::size_t>(plate), 0.0);
  for (int i = 0; i < plate; ++i) {
    if (!net.viaAlive(i)) continue;
    out.viaCurrents[static_cast<std::size_t>(i)] =
        (v[static_cast<std::size_t>(i)] -
         v[static_cast<std::size_t>(plate + i)]) *
        gVia;
  }
  out.effectiveResistance = v[feed] / cfg.totalCurrentAmps;
  return out;
}

}  // namespace viaduct
