// Paper-parity fixture computation and golden-file I/O, shared between the
// regenerating tool (tools/golden_gen.cpp) and the locking test
// (tests/paper_parity_test.cpp).
//
// The shape checks in the fig* benches assert qualitative claims (orderings,
// windows); this harness pins the actual NUMBERS. computeParitySets()
// reproduces the quantities behind Figure 6 (pattern stress curves), Figure
// 7 (4x4 vs 8x8 stress curves), and Figure 8(b) (pattern TTF ordering) with
// fixed specs, and the test compares every value against data/golden/ at a
// tight relative tolerance. Any numeric drift — a solver change, a
// calibration tweak, an accidental reordering — fails the test; deliberate
// physics changes re-run tools/regen_golden.sh and review the diff.
//
// Golden file format (line-oriented text, serialize.h double discipline):
//   viaduct-golden v1
//   set <name>
//   values <doubles at max_digits10>
#pragma once

#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "common/units.h"
#include "fea/thermo_solver.h"
#include "structures/cudd_builder.h"
#include "structures/probes.h"
#include "viaarray/characterize.h"

namespace viaduct::parity {

/// Named value vectors, keyed e.g. "fig6.Plus.via_peaks_mpa".
using ParitySets = std::map<std::string, std::vector<double>>;

/// Monte Carlo trials behind the fig8b TTF sets. Small enough to keep the
/// parity test quick, large enough for stable medians; the golden file and
/// the test MUST use the same value (results are deterministic in it).
inline constexpr int kFig8bTrials = 200;

/// Figure 6/7 primitive: per-via calibrated peak stress [MPa] plus the
/// stress profile across the array's central via row.
inline void addStressSets(ParitySets& sets, const std::string& prefix, int n,
                          IntersectionPattern pattern) {
  ViaArrayStructureSpec spec;
  spec.viaArray.n = n;
  spec.pattern = pattern;
  spec.resolutionXy = 0.125 * units::um;
  const BuiltStructure built = buildViaArrayStructure(spec);
  ThermoSolver solver(built.grid);
  solver.solve();

  const auto peaks = perViaPeakStress(solver, built);
  std::vector<double> peaksMpa, perimeterInterior(2, 0.0);
  peaksMpa.reserve(peaks.size());
  for (std::size_t i = 0; i < peaks.size(); ++i) {
    const double mpa = kDefaultStressScale * peaks[i] / units::MPa;
    peaksMpa.push_back(mpa);
    double& slot = perimeterInterior[built.vias[i].interior ? 1 : 0];
    slot = std::max(slot, mpa);
  }
  sets[prefix + ".via_peaks_mpa"] = std::move(peaksMpa);
  sets[prefix + ".perimeter_interior_peak_mpa"] = std::move(perimeterInterior);

  const auto prof =
      stressProfileAtY(solver, built, built.viaRowCenterY(n / 2 - 1));
  std::vector<double> x, sigma;
  x.reserve(prof.x.size());
  sigma.reserve(prof.sigmaH.size());
  for (std::size_t i = 0; i < prof.x.size(); ++i) {
    x.push_back(prof.x[i] / units::um);
    sigma.push_back(kDefaultStressScale * prof.sigmaH[i] / units::MPa);
  }
  sets[prefix + ".profile_x_um"] = std::move(x);
  sets[prefix + ".profile_mpa"] = std::move(sigma);
}

/// Figure 8(b) primitive: TTF percentiles [years] of a 4x4 array at the
/// 8th-via criterion for one pattern.
inline void addTtfSets(ParitySets& sets, const std::string& prefix,
                       IntersectionPattern pattern) {
  ViaArrayCharacterizationSpec spec;
  spec.array.n = 4;
  spec.pattern = pattern;
  spec.trials = kFig8bTrials;
  ViaArrayCharacterizer ch(spec);
  const auto cdf = ch.ttfCdf(ViaArrayFailureCriterion::kthVia(8));
  sets[prefix + ".ttf_years"] = {cdf.median() / units::year,
                                 cdf.worstCase() / units::year};
}

/// The full paper-parity fixture set.
inline ParitySets computeParitySets() {
  ParitySets sets;
  addStressSets(sets, "fig6.Plus", 4, IntersectionPattern::kPlus);
  addStressSets(sets, "fig6.T", 4, IntersectionPattern::kT);
  addStressSets(sets, "fig6.L", 4, IntersectionPattern::kL);
  addStressSets(sets, "fig7.4x4", 4, IntersectionPattern::kPlus);
  addStressSets(sets, "fig7.8x8", 8, IntersectionPattern::kPlus);
  addTtfSets(sets, "fig8b.Plus", IntersectionPattern::kPlus);
  addTtfSets(sets, "fig8b.T", IntersectionPattern::kT);
  addTtfSets(sets, "fig8b.L", IntersectionPattern::kL);
  return sets;
}

inline constexpr const char* kGoldenMagic = "viaduct-golden v1";

inline bool writeGolden(const std::string& path, const ParitySets& sets) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  os << kGoldenMagic << '\n';
  for (const auto& [name, values] : sets) {
    os << "set " << name << '\n' << "values ";
    writeDoubles(os, values);
    os << '\n';
  }
  os.flush();
  return static_cast<bool>(os);
}

/// Reads a golden file; std::nullopt on any malformed content.
inline std::optional<ParitySets> readGolden(const std::string& path) {
  std::ifstream is(path);
  if (!is) return std::nullopt;
  std::string line;
  if (!std::getline(is, line) || line != kGoldenMagic) return std::nullopt;
  ParitySets sets;
  std::string name;
  while (std::getline(is, line)) {
    if (line.rfind("set ", 0) == 0) {
      name = line.substr(4);
    } else if (line.rfind("values ", 0) == 0) {
      if (name.empty()) return std::nullopt;
      auto values = parseDoubles(line.substr(7));
      if (!values || values->empty()) return std::nullopt;
      sets[name] = std::move(*values);
      name.clear();
    } else if (!line.empty()) {
      return std::nullopt;
    }
  }
  if (sets.empty()) return std::nullopt;
  return sets;
}

}  // namespace viaduct::parity
