#include "analysis.h"

#include <cmath>

#include "common/rng.h"
#include "common/statistics.h"
#include "common/units.h"

namespace perfbench {

using namespace viaduct;

AnalysisSummary summarize(const GridTtfReport& report) {
  AnalysisSummary s;
  s.samples = report.mc.ttfSamples;
  s.worstYears = report.worstCaseYears;
  s.medianYears = report.medianYears;
  s.meanFailures = report.meanFailuresToBreach;
  s.discarded = report.discardedTrials;
  s.salvaged = report.salvagedTrials;
  s.auditedConfigs = report.wireAuditedConfigs;
  s.mortalConfigs = report.wireMortalConfigs;
  return s;
}

ViaArrayFailureCriterion arrayCriterion() {
  return ViaArrayFailureCriterion::openCircuit();
}

GridFailureCriterion systemCriterion() { return GridFailureCriterion::irDrop(0.10); }

std::vector<IntersectionPattern> usedPatterns(const PowerGridEmAnalyzer& analyzer) {
  std::array<bool, 3> used{};
  for (const auto p : analyzer.sitePatterns()) used[static_cast<std::size_t>(p)] = true;
  std::vector<IntersectionPattern> out;
  for (const auto p : {IntersectionPattern::kPlus, IntersectionPattern::kT,
                       IntersectionPattern::kL})
    if (used[static_cast<std::size_t>(p)]) out.push_back(p);
  return out;
}

void checkAnalysis(Checker& check, const std::string& what,
                   const AnalysisSummary& s, int trials,
                   const std::vector<double>* reference) {
  check.expect(s.discarded == 0 && s.salvaged == 0,
               what + ": discarded or salvaged level-2 trials");
  check.expect(s.samples.size() == static_cast<std::size_t>(trials),
               what + ": sample count differs from the trial count");
  check.expect(std::isfinite(s.worstYears) && s.worstYears > 0.0 &&
                   s.worstYears <= s.medianYears && std::isfinite(s.medianYears),
               what + ": worst-case/median TTF not finite and ordered");
  if (reference) {
    check.expect(reference->size() == 2 &&
                     close(s.worstYears, (*reference)[0], (*reference)[0]) &&
                     close(s.medianYears, (*reference)[1], (*reference)[1]),
                 what + ": worst-case/median TTF " + fmt(s.worstYears, 17) +
                     " / " + fmt(s.medianYears, 17) +
                     " differ from the recorded reference");
  }
}

const std::vector<double>* referenceFor(const ValueSets& reference,
                                        const Options& options,
                                        const std::string& key) {
  if (options.seed != kDefaultSeed) return nullptr;
  const auto it = reference.find(key);
  if (it == reference.end())
    throw std::runtime_error("perfbench/reference.golden has no set " + key);
  return &it->second;
}

GridMcOptions mcOptions(const AnalyzerConfig& config,
                        const std::vector<IntersectionPattern>& sitePatterns,
                        const std::array<Lognormal, 3>& fits,
                        std::shared_ptr<const WireTreeSet> trees) {
  GridMcOptions options;
  options.perArrayTtf.reserve(sitePatterns.size());
  for (const auto p : sitePatterns)
    options.perArrayTtf.push_back(fits[static_cast<std::size_t>(p)]);
  options.referenceCurrentAmps = config.characterization.totalCurrent();
  options.systemCriterion = systemCriterion();
  options.trials = config.trials;
  options.seed = config.seed;
  options.parallelism = config.parallelism;
  options.policy = config.policy;
  if (trees) {
    options.wireEm.trees = std::move(trees);
    options.wireEm.mode = config.emMode;
    options.wireEm.stressMarginPa = config.wireStressMarginPa;
    options.wireEm.params = config.wireEmParams;
  }
  return options;
}

AnalysisSummary replayLevel2(const PowerGridModel& model,
                             const AnalyzerConfig& config,
                             const std::vector<IntersectionPattern>& sitePatterns,
                             const std::array<Lognormal, 3>& fits,
                             std::shared_ptr<const WireTreeSet> trees,
                             GridMcResult* mcOut) {
  const GridMcOptions options = mcOptions(config, sitePatterns, fits, std::move(trees));
  GridMcResult mc = [&] {
    ScopedSpan s("grid.mc");
    return runGridMonteCarlo(model, options);
  }();
  {
    ScopedSpan s("common.bootstrap");
    Rng ciRng(config.seed ^ 0x517cc1b727220a95ull);
    bootstrapQuantileCi(mc.ttfSamples, 0.003, 0.95, 400, ciRng);
  }
  // Quantiles from the samples themselves, as the report defines them.
  const EmpiricalCdf cdf(mc.ttfSamples);
  AnalysisSummary s;
  s.samples = mc.ttfSamples;
  s.worstYears = cdf.worstCase() / units::year;
  s.medianYears = cdf.median() / units::year;
  s.meanFailures = mc.meanFailuresToBreach;
  s.discarded = mc.discardedTrials;
  s.salvaged = mc.salvagedTrials;
  s.auditedConfigs = mc.wireAuditedConfigs;
  s.mortalConfigs = mc.wireMortalConfigs;
  if (mcOut) *mcOut = std::move(mc);
  return s;
}

Netlist generateNetlist(PgPreset preset) {
  ScopedSpan s("spice.generate");
  return generatePowerGrid(pgPresetConfig(preset));
}

}  // namespace perfbench
