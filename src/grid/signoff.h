// Traditional EM sign-off: foundry current-density limits.
//
// "Today, circuit designers typically guard against EM by comparing
// current densities against a foundry-specified limit" (§1). This module
// implements that flow for via arrays so it can be compared against the
// stress-aware Monte Carlo: a grid can pass every current-density check
// and still show a short stress-and-redundancy-aware worst-case TTF
// (bench/ablation_signoff_wires quantifies the gap).
#pragma once

#include "grid/power_grid.h"
#include "grid/wire_mortality.h"

namespace viaduct {

struct SignoffConfig {
  /// Foundry DC current-density limit for via structures [A/m²].
  double currentDensityLimit = 2.0e10;
  /// Effective via-array cross-section area [m²] (1 µm² in the paper).
  double viaEffectiveArea = 1.0e-12;
  /// Wire geometry and stress physics for signoffWires() (DESIGN.md
  /// §5.14).
  WireGeometry wireGeometry;
  double wireStressMarginPa = 340e6;
  EmParameters emParams;
};

struct SignoffReport {
  int totalArrays = 0;
  int violations = 0;
  double worstCurrentDensity = 0.0;  // [A/m²]
  double limit = 0.0;                // [A/m²]
  bool passed() const { return violations == 0; }
  /// Utilization of the limit by the worst array (1.0 = at limit).
  double worstUtilization() const {
    return limit > 0.0 ? worstCurrentDensity / limit : 0.0;
  }
};

/// Checks every via-array site of the healthy grid against the limit.
SignoffReport signoffViaArrays(const PowerGridModel& model,
                               const SignoffConfig& config = SignoffConfig{});

/// Tree-aware wire-EM sign-off at the healthy DC operating point, using
/// the closed-form steady-state stress analysis. Complements
/// signoffViaArrays(): a grid passes full sign-off when both the via
/// current-density checks and the wire stress verdicts are clean.
WireEmCensus signoffWires(const Netlist& netlist,
                          const SignoffConfig& config = SignoffConfig{});

}  // namespace viaduct
