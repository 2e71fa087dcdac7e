#include "grid/signoff.h"

#include <algorithm>

#include "common/check.h"

namespace viaduct {

SignoffReport signoffViaArrays(const PowerGridModel& model,
                               const SignoffConfig& config) {
  VIADUCT_REQUIRE(config.currentDensityLimit > 0.0 &&
                  config.viaEffectiveArea > 0.0);
  const auto solution = model.solveNominal();
  SignoffReport report;
  report.limit = config.currentDensityLimit;
  for (double current : solution.viaArrayCurrents) {
    const double j = current / config.viaEffectiveArea;
    ++report.totalArrays;
    report.worstCurrentDensity = std::max(report.worstCurrentDensity, j);
    if (j > config.currentDensityLimit) ++report.violations;
  }
  return report;
}

WireEmCensus signoffWires(const Netlist& netlist,
                          const SignoffConfig& config) {
  VIADUCT_REQUIRE(config.wireStressMarginPa > 0.0);
  return classifyWiresEm(netlist, config.wireGeometry,
                         config.wireStressMarginPa, config.emParams);
}

}  // namespace viaduct
