// Helpers shared by the two analysis workloads (pg1_char, pg5_mc): the
// summary of one analysis that the checks compare, and the traced replay
// of PowerGridEmAnalyzer::analyze() as its sequence of layer calls.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "bench.h"
#include "core/analyzer.h"
#include "spice/generator.h"

namespace perfbench {

/// What the output checks look at.
struct AnalysisSummary {
  std::vector<double> samples;  // level-2 TTF samples [s], trial order
  double worstYears = 0.0;
  double medianYears = 0.0;
  double meanFailures = 0.0;
  int discarded = 0;
  int salvaged = 0;
  int auditedConfigs = 0;
  int mortalConfigs = 0;
  bool operator==(const AnalysisSummary&) const = default;
};

AnalysisSummary summarize(const viaduct::GridTtfReport& report);

/// The array and system criteria every analysis here uses: open-circuit
/// arrays, 10 % IR-drop grid failure (the paper's Table 2 setting).
viaduct::ViaArrayFailureCriterion arrayCriterion();
viaduct::GridFailureCriterion systemCriterion();

/// Plus/T/L patterns that at least one site of the analyzer uses.
std::vector<viaduct::IntersectionPattern> usedPatterns(
    const viaduct::PowerGridEmAnalyzer& analyzer);

/// Output checks of one analysis: no discarded or salvaged trials, one
/// sample per trial, finite ordered quantiles; with `reference`
/// ({worst, median} in years) also equality with the recorded values.
void checkAnalysis(Checker& check, const std::string& what,
                   const AnalysisSummary& summary, int trials,
                   const std::vector<double>* reference);

/// Reference values {worst, median} for `key`, or nullptr when the run's
/// seed is not the default seed.
const std::vector<double>* referenceFor(const ValueSets& reference,
                                        const Options& options,
                                        const std::string& key);

/// Replays analyze() after level 1: builds the grid MC options exactly as
/// the analyzer does from the per-pattern fits, runs runGridMonteCarlo
/// (span grid.mc) and the bootstrap CI (span common.bootstrap).
AnalysisSummary replayLevel2(
    const viaduct::PowerGridModel& model, const viaduct::AnalyzerConfig& config,
    const std::vector<viaduct::IntersectionPattern>& sitePatterns,
    const std::array<viaduct::Lognormal, 3>& fits,
    std::shared_ptr<const viaduct::WireTreeSet> trees,
    viaduct::GridMcResult* mcOut = nullptr);

/// The grid MC options analyze() builds (audit enabled iff `trees`).
viaduct::GridMcOptions mcOptions(
    const viaduct::AnalyzerConfig& config,
    const std::vector<viaduct::IntersectionPattern>& sitePatterns,
    const std::array<viaduct::Lognormal, 3>& fits,
    std::shared_ptr<const viaduct::WireTreeSet> trees);

/// The PG preset's netlist. Its generator seed is part of the preset's
/// definition (the stand-in for one fixed IBM benchmark circuit), so it is
/// not drawn from the workload seed: a different load map changes the
/// failures-to-breach, and with it the work of an op, by up to 50 %.
viaduct::Netlist generateNetlist(viaduct::PgPreset preset);

}  // namespace perfbench
